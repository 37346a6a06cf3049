//! Served workloads: the `groupdet` child processes and line clients.

use crate::measure::{Phase, Sample, CPU_SAMPLE};
use crate::util::{allowed_cpus, cpu_set, pin_to, proc_cpu_s, proc_hwm_mb, CpuSet};
use gbd_serve::Json;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// How long a server may take to announce itself or answer a ping.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// Puts the load generator on the first CPU this process may use and
/// leaves the others to the servers: pins the calling thread, and so every
/// thread it starts later, and returns the servers' CPUs. The generator
/// then never takes a server's CPU, and the servers' threads share the
/// same CPUs on every run; left to the scheduler, their placement across
/// both vCPUs moved serve_eval's CPU per op by a third between runs. With
/// a single CPU nothing is pinned.
pub fn place_generator() -> io::Result<Option<CpuSet>> {
    let cpus = allowed_cpus()?;
    let Some((&generator, servers)) = cpus.split_first().filter(|(_, rest)| !rest.is_empty())
    else {
        println!("# placement: one CPU, shared by the generator and the servers");
        return Ok(None);
    };
    pin_to(&cpu_set(&[generator]))?;
    println!("# placement: generator on CPU {generator}, servers on CPUs {servers:?}");
    Ok(Some(cpu_set(servers)))
}

/// A `groupdet serve` or `groupdet route` child. Dropping it kills the
/// process and waits for it, so no server outlives the run.
pub struct Server {
    child: Child,
    pub addr: String,
    /// Kept open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawns `groupdet <args>`, on the CPUs `cpus` when given, and reads
    /// its stdout until the line that starts with `announce` (`listening
    /// on` / `routing on`), whose next word is the bound address.
    pub fn spawn(
        groupdet: &Path,
        args: &[&str],
        announce: &str,
        cpus: Option<CpuSet>,
    ) -> io::Result<Server> {
        let mut command = Command::new(groupdet);
        if let Some(set) = cpus {
            // SAFETY: `pin_to` is one system call on a stack value; it
            // neither allocates nor locks, as code after `fork` must not.
            unsafe { command.pre_exec(move || pin_to(&set)) };
        }
        let mut child = command
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("child stdout not captured"));
        };
        let mut server = Server {
            child,
            addr: String::new(),
            _stdout: BufReader::new(stdout),
        };
        let mut line = String::new();
        loop {
            line.clear();
            if server._stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::other(format!(
                    "groupdet {} exited before announcing an address",
                    args.join(" ")
                )));
            }
            if let Some(rest) = line.trim().strip_prefix(announce) {
                if let Some(addr) = rest.split_whitespace().next() {
                    server.addr = addr.to_string();
                    return Ok(server);
                }
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn cpu_s(&self) -> f64 {
        proc_cpu_s(self.pid()).unwrap_or(f64::NAN)
    }

    pub fn hwm_mb(&self) -> f64 {
        proc_hwm_mb(self.pid()).unwrap_or(f64::NAN)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// CPU, steal, wall clock and peak RSS over a measured phase of served
/// processes.
pub struct Accounting {
    start: Instant,
    gen_cpu_s: f64,
    samples: Vec<Sample>,
    /// The servers' summed peak RSS, read once a fixed op count was
    /// answered.
    rss_mb: Option<f64>,
}

impl Accounting {
    pub fn start(servers: &[&Server]) -> Accounting {
        let gen_cpu_s = proc_cpu_s(std::process::id()).unwrap_or(f64::NAN);
        let start = Instant::now();
        Accounting {
            start,
            gen_cpu_s,
            samples: vec![Sample::now(start, cpu_s(servers))],
            rss_mb: None,
        }
    }

    /// When the phase began; op completion times count from here.
    pub fn started(&self) -> Instant {
        self.start
    }

    /// Samples the servers' CPU and the host's steal every `CPU_SAMPLE`
    /// until `clients` client threads have reported on `finished`,
    /// sleeping in between. At the first sample after `progress` (ops
    /// answered) reaches `rss_at_ops` it reads the servers' peak RSS, so
    /// that figure does not grow with the ops a faster system completes.
    pub fn sample_until(
        &mut self,
        servers: &[&Server],
        finished: &Receiver<()>,
        clients: usize,
        progress: &AtomicUsize,
        rss_at_ops: usize,
    ) {
        let mut left = clients;
        let mut next = self.start + CPU_SAMPLE;
        while left > 0 {
            match finished.recv_timeout(next.saturating_duration_since(Instant::now())) {
                Ok(()) => left -= 1,
                Err(RecvTimeoutError::Timeout) => {
                    self.samples.push(Sample::now(self.start, cpu_s(servers)));
                    if self.rss_mb.is_none() && progress.load(Ordering::Relaxed) >= rss_at_ops {
                        self.rss_mb = Some(hwm_mb(servers));
                    }
                    next += CPU_SAMPLE;
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// The phase so far; the caller adds the ops.
    pub fn finish(mut self, servers: &[&Server], threads: usize, connections: usize) -> Phase {
        self.samples.push(Sample::now(self.start, cpu_s(servers)));
        let end = Instant::now();
        let sut_rss_mb = self.rss_mb.unwrap_or_else(|| {
            println!("# warning: peak RSS read at the phase end, before the fixed op count");
            hwm_mb(servers)
        });
        Phase {
            wall_s: (end - self.start).as_secs_f64(),
            samples: self.samples,
            sut_rss_mb,
            gen_cpu_s: proc_cpu_s(std::process::id()).unwrap_or(f64::NAN) - self.gen_cpu_s,
            gen_threads: threads,
            connections,
            ..Phase::default()
        }
    }
}

fn cpu_s(servers: &[&Server]) -> f64 {
    servers.iter().map(|s| s.cpu_s()).sum()
}

fn hwm_mb(servers: &[&Server]) -> f64 {
    servers.iter().map(|s| s.hwm_mb()).sum()
}

/// One client connection speaking JSON lines.
pub struct Conn {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // The generator sends small pipelined lines; Nagle would hold them
        // back for the peer's delayed ack and time the generator instead.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let read_half = stream.try_clone()?;
        Ok(Conn {
            writer: BufWriter::with_capacity(1 << 16, stream),
            reader: BufReader::with_capacity(1 << 16, read_half),
        })
    }

    /// Buffers bytes (a whole line, newline included).
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Reads one line into `buf` (cleared first); EOF is an error.
    pub fn recv(&mut self, buf: &mut String) -> io::Result<()> {
        buf.clear();
        if self.reader.read_line(buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok(())
    }

    /// Sends one line and reads one reply.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line.as_bytes())?;
        self.send(b"\n")?;
        self.flush()?;
        let mut reply = String::new();
        self.recv(&mut reply)?;
        Ok(reply)
    }
}

/// Waits until `addr` answers `ping`.
pub fn wait_ping(addr: &str) -> io::Result<()> {
    let start = Instant::now();
    loop {
        let answered = Conn::connect(addr)
            .and_then(|mut c| c.call(r#"{"id":0,"verb":"ping"}"#))
            .is_ok_and(|reply| reply.contains("\"pong\":true"));
        if answered {
            return Ok(());
        }
        if start.elapsed() > READY_TIMEOUT {
            return Err(io::Error::other(format!("{addr} never answered ping")));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The `metrics` verb's reply, every section a shard renders included.
pub fn metrics(addr: &str) -> io::Result<Json> {
    let reply = Conn::connect(addr)?.call(
        r#"{"id":0,"verb":"metrics","sections":["server","cache","store","histograms","stream"]}"#,
    )?;
    Json::parse(reply.trim()).map_err(|e| io::Error::other(format!("metrics reply: {e}")))
}

/// A number at a path of object keys, e.g. `["metrics", "server", "shed"]`.
pub fn num(json: &Json, path: &[&str]) -> f64 {
    let mut at = json;
    for key in path {
        match at.get(key) {
            Some(next) => at = next,
            None => return f64::NAN,
        }
    }
    at.as_f64().unwrap_or(f64::NAN)
}

/// The unsigned integer that follows `"key":` in a rendered response line,
/// read without parsing the whole line.
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(key)? + key.len();
    let digits = line[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .filter(|d| !d.is_empty())?;
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_integer_fields_from_rendered_lines() {
        let line = r#"{"id":7,"ok":true,"ingested":3,"late":0,"events":12}"#;
        assert_eq!(field_u64(line, "\"events\":"), Some(12));
        assert_eq!(field_u64(line, "\"ingested\":"), Some(3));
        assert_eq!(field_u64(line, "\"missing\":"), None);
    }
}
