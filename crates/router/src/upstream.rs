//! Upstream shard connections: one JSON line out, one JSON line back.
//!
//! Each client-connection thread owns a private cache of upstream
//! connections (one per shard address it has talked to), so forwarding
//! needs no cross-thread locking and a pipelining client reuses warm
//! TCP connections. Timeouts on every socket operation are what turn a
//! silently dead shard into a retryable transport error instead of a
//! hung client.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Writes `line` and its newline in one `write_all`. On an unbuffered
/// `TCP_NODELAY` socket, two writes would cost two syscalls and two
/// segments, and the peer's reader would wake for a line with no newline
/// yet.
pub(crate) fn write_line(stream: &mut impl Write, line: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    stream.write_all(&frame)
}

/// A connected upstream with a buffered read half.
#[derive(Debug)]
pub struct Upstream {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Resolves `addr` and connects with a bound on every socket operation.
fn connect(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    })?;
    let stream = TcpStream::connect_timeout(&resolved, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

impl Upstream {
    /// Connects to a shard.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Upstream> {
        let writer = connect(addr, timeout)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Upstream { writer, reader })
    }

    /// Sends one request line and reads one response line (newline
    /// stripped). An empty read is EOF — the shard hung up — and comes
    /// back as `UnexpectedEof` so the caller treats it like any other
    /// transport failure.
    pub fn round_trip(&mut self, line: &str) -> io::Result<String> {
        write_line(&mut self.writer, line)?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "shard closed the connection",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }
}

/// A per-thread cache of upstream connections keyed by shard address.
#[derive(Debug, Default)]
pub struct UpstreamPool {
    conns: HashMap<String, Upstream>,
}

impl UpstreamPool {
    /// An empty pool.
    pub fn new() -> UpstreamPool {
        UpstreamPool::default()
    }

    /// Round-trips `line` against `addr`, connecting (or reconnecting)
    /// as needed. A transport failure evicts the cached connection so
    /// the next attempt starts from a fresh connect.
    pub fn round_trip(
        &mut self,
        addr: &str,
        line: &str,
        timeout: Duration,
    ) -> io::Result<String> {
        let conn = match self.conns.entry(addr.to_string()) {
            std::collections::hash_map::Entry::Occupied(entry) => entry.into_mut(),
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(Upstream::connect(addr, timeout)?)
            }
        };
        match conn.round_trip(line) {
            Ok(response) => Ok(response),
            Err(e) => {
                self.conns.remove(addr);
                Err(e)
            }
        }
    }

    /// Drops the cached connection to `addr` (if any).
    pub fn evict(&mut self, addr: &str) {
        self.conns.remove(addr);
    }
}

/// One-shot round trip on a fresh connection — the heartbeat path, where
/// reusing a cached connection would mask a shard that stopped accepting.
pub fn probe(addr: &str, line: &str, timeout: Duration) -> io::Result<String> {
    Upstream::connect(addr, timeout)?.round_trip(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn round_trip_sends_the_line_and_its_newline_in_one_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shard = thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            // One raw read, already blocked when the request arrives: it
            // wakes on the first segment, so it sees only what the first
            // write carried.
            let mut buf = [0u8; 256];
            let n = conn.read(&mut buf).unwrap();
            conn.write_all(b"{\"id\":1,\"ok\":true}\n").unwrap();
            buf[..n].to_vec()
        });
        let mut upstream = Upstream::connect(&addr, Duration::from_secs(10)).unwrap();
        thread::sleep(Duration::from_millis(50));
        let line = r#"{"id":1,"verb":"ping"}"#;
        let reply = upstream.round_trip(line).unwrap();
        assert_eq!(reply, r#"{"id":1,"ok":true}"#);
        let first_read = shard.join().unwrap();
        assert_eq!(String::from_utf8(first_read).unwrap(), format!("{line}\n"));
    }
}
