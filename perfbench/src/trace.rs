//! In-memory spans around each op and each call into a layer's public
//! function. Spans are recorded only in traced runs and written out when
//! the run ends.

use crate::util::elapsed_between;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval: what ran, for which op, inside which other span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. Disabled recorders ignore every call, so the untraced
/// run executes the same code with no spans kept.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from; recorders that will be merged
    /// share it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn ns(&self, at: Instant) -> u64 {
        elapsed_between(self.epoch, at)
    }

    /// Records a span from instants the caller took anyway.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Appends another recorder's spans (from another thread or a
    /// replay); both must count from the same epoch.
    pub fn absorb(&mut self, other: Tracer) {
        assert_eq!(self.epoch, other.epoch, "merged tracers share an epoch");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ns of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Writes the spans as CSV (`name,op,parent,start_ns,end_ns`; parent is
    /// the zero-based span row, empty for roots).
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,op,parent,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{},{},{},{},{}",
                s.name, s.op, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per span name: count, total time and self time (the span minus the part
/// of it its child spans cover), in ns.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut covered: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_ns.max(s.start_ns),
                    spans[c].end_ns.min(s.end_ns),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        covered.sort_unstable();
        let mut union = 0;
        let mut reach = 0;
        for (a, b) in covered {
            let a = a.max(reach);
            if b > a {
                union += b - a;
                reach = b;
            }
        }
        let entry = table.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += s.duration_ns();
        entry.2 += s.duration_ns().saturating_sub(union);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),
            span("c", Some(0), 90, 120),
        ];
        let table = self_times(&spans);
        // Children cover 10..60 and 90..100: 60 ns of the op's 100.
        assert_eq!(table["op"], (1, 100, 40));
        assert_eq!(table["a"], (1, 30, 30));
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let now = Instant::now();
        let mut t = Tracer::new(false, now);
        assert!(t.record("op", 1, None, now, Instant::now()).is_none());
        assert!(t.spans().is_empty());
    }
}
