//! Per-connection protocol handling: a reader thread that parses and
//! dispatches request lines and writes the replies it can, paired with a
//! writer thread for the replies that must wait.
//!
//! Replies leave in submission order. The reader owns a [`ReplySink`]: a
//! ready line (control reply, error, session ack, detection event) is
//! rendered into the reader's own buffer when the writer thread has
//! finished every item queued before it, and queued behind them
//! otherwise. Replies that must wait — an eval response still in the
//! coalescer, a `watch` stream — always go to the writer, which blocks on
//! each *in submission order*, so pipelined clients get in-order responses
//! without reordering buffers. The sink is flushed once per request line,
//! so a report burst's ack and its detection events leave in one write.
//!
//! The writer queue is bounded by `max_inflight_per_conn`: a reader that
//! gets too far ahead of the writer blocks pushing the next item, which
//! stops reading from the socket — natural TCP backpressure. A client that
//! stops reading its replies blocks the reader in its own socket write the
//! same way.

use crate::coalescer::SubmitError;
use crate::json::Json;
use crate::metrics::render_window;
use crate::protocol::{self, ErrorCode, Verb};
use crate::server::ServerShared;
use crate::stream_session::{self, StreamSession};
use gbd_obs::{CancelToken, Counter, WatchMsg};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;

/// One unit of writer work, queued in submission order.
enum WriteItem {
    /// A ready reply, queued because the writer still owed earlier items.
    Ready(Json),
    /// An eval response still being computed; the writer blocks on the
    /// receiver, preserving order.
    Wait { id: u64, rx: Receiver<Json> },
    /// A `watch` stream: one ack line, then one line per sampled window
    /// until the limit is reached or the subscription is cancelled.
    Stream {
        id: u64,
        rx: Receiver<WatchMsg>,
        /// Windows to stream; 0 = until cancel/disconnect.
        limit: u64,
        /// Cancelled by the writer once the stream completes, so teardown
        /// paths (`unwatch`, connection close) can tell live watches from
        /// finished ones.
        token: CancelToken,
    },
}

/// The connection takes no more replies: a socket write failed or the
/// writer thread exited. The reader stops.
pub(crate) struct Closed;

/// The reader's end of the connection's output.
pub(crate) struct ReplySink {
    /// The reader's own buffer over a clone of the socket.
    out: BufWriter<TcpStream>,
    queue: SyncSender<WriteItem>,
    /// Items pushed onto `queue`.
    queued: u64,
    /// Items the writer has written and flushed; equal to `queued` when
    /// the writer is idle.
    finished: Arc<AtomicU64>,
    write_errors: Arc<Counter>,
}

impl ReplySink {
    /// Sends one ready reply line, in order with everything sent before.
    pub(crate) fn reply(&mut self, line: Json) -> Result<(), Closed> {
        self.send(WriteItem::Ready(line))
    }

    fn send(&mut self, item: WriteItem) -> Result<(), Closed> {
        // Acquire pairs with the writer's Release bump: the bytes of every
        // item counted are on the socket before this thread writes.
        if let WriteItem::Ready(line) = &item {
            if self.finished.load(Ordering::Acquire) == self.queued {
                return buffer_line(&mut self.out, line).map_err(|_| self.failed());
            }
        }
        // What the reader buffered goes out ahead of the queued item.
        self.flush()?;
        self.queue.send(item).map_err(|_| Closed)?;
        self.queued += 1;
        Ok(())
    }

    /// Writes out what the reader has buffered: once per request line, so
    /// all of a line's replies leave in one write.
    pub(crate) fn flush(&mut self) -> Result<(), Closed> {
        self.out.flush().map_err(|_| self.failed())
    }

    /// Counts a failed write into `server_write_errors` before the reader
    /// drops the connection (a silent drop left no trace).
    fn failed(&self) -> Closed {
        self.write_errors.inc();
        Closed
    }
}

/// Serves one accepted connection until EOF, an I/O error, or server
/// shutdown closes the socket. Never panics the server: all protocol
/// errors are answered in-band.
pub(crate) fn handle(stream: TcpStream, shared: &Arc<ServerShared>) {
    let (Ok(write_half), Ok(reply_half)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    let inflight = shared.config.max_inflight_per_conn.max(1);
    let (tx, rx) = mpsc::sync_channel::<WriteItem>(inflight);
    let finished = Arc::new(AtomicU64::new(0));
    let write_errors = Arc::clone(&shared.metrics.write_errors);
    let writer = {
        let finished = Arc::clone(&finished);
        let write_errors = Arc::clone(&write_errors);
        std::thread::Builder::new()
            .name("gbd-conn-writer".to_string())
            .spawn(move || writer_loop(write_half, &rx, &finished, &write_errors))
    };
    let Ok(writer) = writer else {
        return;
    };
    let mut sink = ReplySink {
        out: BufWriter::new(reply_half),
        queue: tx,
        queued: 0,
        finished,
        write_errors,
    };
    let mut watch_tokens = Vec::new();
    reader_loop(stream, shared, &mut sink, &mut watch_tokens);
    // The connection is going away: cancel its watch subscriptions so the
    // registry stops broadcasting to them, and reap so their senders drop
    // (which unblocks a writer still streaming an unbounded watch).
    if !watch_tokens.is_empty() {
        for token in &watch_tokens {
            token.cancel();
        }
        shared.metrics.registry().reap_cancelled();
    }
    // Dropping the sink closes the queue (its buffer was flushed after the
    // last line): the writer finishes the queued tail, including in-flight
    // eval responses, and exits.
    drop(sink);
    let _ = writer.join();
}

fn writer_loop(
    stream: TcpStream,
    rx: &Receiver<WriteItem>,
    finished: &AtomicU64,
    write_errors: &Counter,
) {
    let mut out = BufWriter::new(stream);
    while let Ok(item) = rx.recv() {
        let delivered = match item {
            WriteItem::Ready(json) => write_line(&mut out, &json, write_errors),
            WriteItem::Wait { id, rx } => {
                let response = rx.recv().unwrap_or_else(|_| {
                    // The coalescer guarantees a send for every admitted
                    // request; a closed channel means its flush path died.
                    protocol::error_response(
                        Some(id),
                        ErrorCode::EvalFailed,
                        "response channel closed",
                    )
                });
                write_line(&mut out, &response, write_errors)
            }
            WriteItem::Stream {
                id,
                rx,
                limit,
                token,
            } => {
                let delivered = stream_windows(&mut out, id, &rx, limit, write_errors);
                // The subscription is over either way; mark it so that
                // `unwatch` and connection teardown skip it.
                token.cancel();
                delivered
            }
        };
        if !delivered {
            return;
        }
        // Release pairs with the reader's Acquire load in `ReplySink::send`.
        finished.fetch_add(1, Ordering::Release);
    }
}

/// Renders one response line into `out`'s buffer.
fn buffer_line(out: &mut BufWriter<TcpStream>, response: &Json) -> std::io::Result<()> {
    let mut line = response.render();
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// Writes one response line, counting a failure into `server_write_errors`
/// before the caller drops the connection (a silent drop left no trace).
fn write_line(out: &mut BufWriter<TcpStream>, response: &Json, write_errors: &Counter) -> bool {
    let delivered = buffer_line(out, response).is_ok() && out.flush().is_ok();
    if !delivered {
        write_errors.inc();
    }
    delivered
}

/// Writes one `watch` stream: ack, window lines, terminator. Returns false
/// when the socket died mid-stream.
///
/// Window lines ride the same writer as every other response, so a slow
/// consumer exerts backpressure end to end: the socket blocks this writer,
/// the subscription's bounded channel fills, and the sampler drops windows
/// for this watcher (reported via `lagged`) instead of buffering them
/// without bound.
fn stream_windows(
    out: &mut BufWriter<TcpStream>,
    id: u64,
    rx: &Receiver<WatchMsg>,
    limit: u64,
    write_errors: &Counter,
) -> bool {
    let ack = Json::obj(vec![
        ("id".to_string(), Json::Int(id as i64)),
        ("ok".to_string(), Json::Bool(true)),
        ("watching".to_string(), Json::Bool(true)),
        ("windows".to_string(), Json::from(limit)),
    ]);
    if !write_line(out, &ack, write_errors) {
        return false;
    }
    let mut sent: u64 = 0;
    while limit == 0 || sent < limit {
        // recv errs when the subscription was cancelled (unwatch, conn
        // teardown, or server drain reaping watchers): end the stream.
        let Ok(msg) = rx.recv() else {
            break;
        };
        if !write_line(out, &render_window(id, &msg), write_errors) {
            return false;
        }
        sent += 1;
    }
    let end = Json::obj(vec![
        ("id".to_string(), Json::Int(id as i64)),
        ("ok".to_string(), Json::Bool(true)),
        ("watch_end".to_string(), Json::Bool(true)),
        ("windows".to_string(), Json::from(sent)),
    ]);
    write_line(out, &end, write_errors)
}

fn reader_loop(
    stream: TcpStream,
    shared: &Arc<ServerShared>,
    sink: &mut ReplySink,
    watch_tokens: &mut Vec<CancelToken>,
) {
    let mut reader = BufReader::new(stream);
    let limit = shared.config.max_line_bytes.max(1);
    let mut evals_served: u64 = 0;
    // At most one streaming detection session per connection, owned here
    // by the reader (see `stream_session` for the in-session verb rules).
    let mut session: Option<StreamSession> = None;
    // Reads until EOF or a dead socket (incl. the shutdown path closing it).
    // Each pass first flushes the previous line's replies, so they leave in
    // one write before the reader blocks on the next line.
    while sink.flush().is_ok() {
        let Ok(Some(line)) = read_line_bounded(&mut reader, limit) else {
            break;
        };
        if line.truncated {
            shared.metrics.rejected.inc();
            let err = protocol::error_response(
                None,
                ErrorCode::LineTooLong,
                &format!("request line exceeds {limit} bytes"),
            );
            if sink.reply(err).is_err() {
                break;
            }
            continue;
        }
        let Ok(text) = std::str::from_utf8(&line.bytes) else {
            shared.metrics.rejected.inc();
            let err =
                protocol::error_response(None, ErrorCode::BadRequest, "request is not UTF-8");
            if sink.reply(err).is_err() {
                break;
            }
            continue;
        };
        if text.trim().is_empty() {
            continue;
        }
        let envelope = match protocol::parse_line(text) {
            Ok(envelope) => envelope,
            Err(wire_error) => {
                shared.metrics.rejected.inc();
                let err = protocol::error_response(
                    wire_error.id,
                    wire_error.code,
                    &wire_error.message,
                );
                if sink.reply(err).is_err() {
                    break;
                }
                continue;
            }
        };
        let sent = if session.is_some() {
            stream_session::handle_in_session(
                envelope.id,
                envelope.verb,
                &mut session,
                shared,
                sink,
                watch_tokens,
            )
        } else {
            match envelope.verb {
                Verb::StreamOpen(spec) => {
                    shared.metrics.record_verb("stream_open");
                    let (opened, ack) =
                        StreamSession::open(envelope.id, &spec, &shared.metrics);
                    session = Some(opened);
                    sink.reply(ack)
                }
                verb => sink.send(dispatch(
                    envelope.id,
                    verb,
                    shared,
                    &mut evals_served,
                    watch_tokens,
                )),
            }
        };
        if sent.is_err() {
            break;
        }
    }
    // Connection teardown with a session still open: the client vanished
    // (or the server is draining) without `stream_close`. Account the
    // abort so every opened session stays accounted for in metrics.
    if let Some(open) = session {
        open.abort(&shared.metrics);
    }
}

/// Answers the control verbs that behave the same with or without an open
/// stream session — `ping`, `metrics`, `unwatch` and `shutdown` — and
/// returns `None` for every other verb. Both callers, with and without a
/// session, send the reply through the connection's [`ReplySink`].
pub(crate) fn control_reply(
    id: u64,
    verb: &Verb,
    shared: &ServerShared,
    watch_tokens: &mut Vec<CancelToken>,
) -> Option<Json> {
    let metrics = &shared.metrics;
    let reply = match verb {
        Verb::Ping => {
            metrics.record_verb("ping");
            protocol::pong(id)
        }
        Verb::Metrics { sections } => {
            metrics.record_verb("metrics");
            shared.metrics_snapshot().render_metrics(id, sections)
        }
        Verb::Unwatch => {
            metrics.record_verb("unwatch");
            // Finished streams cancelled their own tokens; only watches
            // still live count toward the ack.
            let cancelled = watch_tokens.iter().filter(|t| !t.is_cancelled()).count();
            for token in watch_tokens.drain(..) {
                token.cancel();
            }
            // Reap immediately so the cancelled subscriptions' senders
            // drop, which ends any stream the writer is still blocked on —
            // and therefore must happen before this ack is queued behind it.
            metrics.registry().reap_cancelled();
            Json::obj(vec![
                ("id".to_string(), Json::Int(id as i64)),
                ("ok".to_string(), Json::Bool(true)),
                ("unwatched".to_string(), Json::from(cancelled)),
            ])
        }
        Verb::Shutdown => {
            metrics.record_verb("shutdown");
            let ack = Json::obj(vec![
                ("id".to_string(), Json::Int(id as i64)),
                ("ok".to_string(), Json::Bool(true)),
                ("shutting_down".to_string(), Json::Bool(true)),
            ]);
            shared.begin_shutdown();
            ack
        }
        _ => return None,
    };
    Some(reply)
}

fn dispatch(
    id: u64,
    verb: Verb,
    shared: &Arc<ServerShared>,
    evals_served: &mut u64,
    watch_tokens: &mut Vec<CancelToken>,
) -> WriteItem {
    if let Some(reply) = control_reply(id, &verb, shared, watch_tokens) {
        return WriteItem::Ready(reply);
    }
    match verb {
        Verb::Watch { windows, replay } => {
            shared.metrics.record_verb("watch");
            let sub = shared.metrics.registry().subscribe(replay);
            watch_tokens.push(sub.token.clone());
            WriteItem::Stream {
                id,
                rx: sub.rx,
                limit: windows,
                token: sub.token,
            }
        }
        Verb::Eval(request) => {
            shared.metrics.record_verb("eval");
            let limit = shared.config.max_requests_per_conn;
            if limit > 0 && *evals_served >= limit {
                shared.metrics.rejected.inc();
                return WriteItem::Ready(protocol::error_response(
                    Some(id),
                    ErrorCode::ConnLimit,
                    &format!("connection exceeded its limit of {limit} eval requests"),
                ));
            }
            *evals_served += 1;
            match shared.coalescer.submit(id, *request) {
                Ok(rx) => WriteItem::Wait { id, rx },
                Err(SubmitError::Overloaded) => WriteItem::Ready(protocol::error_response(
                    Some(id),
                    ErrorCode::Overloaded,
                    "admission queue is full; request shed",
                )),
                Err(SubmitError::ShuttingDown) => WriteItem::Ready(protocol::error_response(
                    Some(id),
                    ErrorCode::ShuttingDown,
                    "server is draining",
                )),
            }
        }
        Verb::Report { .. } => {
            shared.metrics.record_verb("report");
            shared.metrics.rejected.inc();
            WriteItem::Ready(protocol::error_response(
                Some(id),
                ErrorCode::BadRequest,
                "no stream session is open on this connection; send stream_open first",
            ))
        }
        Verb::StreamClose => {
            shared.metrics.record_verb("stream_close");
            shared.metrics.rejected.inc();
            WriteItem::Ready(protocol::error_response(
                Some(id),
                ErrorCode::BadRequest,
                "no stream session is open on this connection; send stream_open first",
            ))
        }
        // The reader loop intercepts stream_open before dispatch (it owns
        // the session slot) and `control_reply` answered the control verbs
        // above; this arm only keeps the match total.
        Verb::StreamOpen(_)
        | Verb::Ping
        | Verb::Metrics { .. }
        | Verb::Unwatch
        | Verb::Shutdown => {
            shared.metrics.rejected.inc();
            WriteItem::Ready(protocol::error_response(
                Some(id),
                ErrorCode::BadRequest,
                "stream_open is handled by the connection reader",
            ))
        }
    }
}

/// One request line read off the socket.
struct Line {
    bytes: Vec<u8>,
    /// The line exceeded the byte limit; `bytes` is empty and the whole
    /// line (up to its newline) was discarded from the stream.
    truncated: bool,
}

/// Reads up to the next `\n`, enforcing the byte limit without ever
/// buffering more than one `BufReader` chunk of an over-long line.
/// Returns `Ok(None)` on clean EOF.
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    limit: usize,
) -> std::io::Result<Option<Line>> {
    let mut bytes = Vec::new();
    let mut truncated = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // EOF. A partial final line is still delivered (it will fail
            // JSON parsing and get a structured error before the reader
            // sees the EOF on its next call).
            if bytes.is_empty() && !truncated {
                return Ok(None);
            }
            return Ok(Some(Line { bytes, truncated }));
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            if !truncated {
                if bytes.len() + pos <= limit {
                    bytes.extend_from_slice(&chunk[..pos]);
                } else {
                    truncated = true;
                    bytes.clear();
                }
            }
            reader.consume(pos + 1);
            return Ok(Some(Line { bytes, truncated }));
        }
        let len = chunk.len();
        if !truncated {
            if bytes.len() + len <= limit {
                bytes.extend_from_slice(chunk);
            } else {
                truncated = true;
                bytes.clear();
            }
        }
        reader.consume(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read_all(input: &[u8], limit: usize) -> Vec<(Vec<u8>, bool)> {
        let mut reader = BufReader::with_capacity(4, Cursor::new(input.to_vec()));
        let mut lines = Vec::new();
        while let Some(line) = read_line_bounded(&mut reader, limit).unwrap() {
            lines.push((line.bytes, line.truncated));
        }
        lines
    }

    #[test]
    fn splits_lines_and_reports_eof() {
        let lines = read_all(b"ab\ncd\n", 100);
        assert_eq!(
            lines,
            vec![(b"ab".to_vec(), false), (b"cd".to_vec(), false)]
        );
    }

    #[test]
    fn delivers_partial_final_line() {
        let lines = read_all(b"ab\ncd", 100);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1], (b"cd".to_vec(), false));
    }

    #[test]
    fn truncates_over_long_lines_but_keeps_the_stream_aligned() {
        // First line blows the 5-byte limit; the line after it must still
        // parse cleanly from the correct offset.
        let lines = read_all(b"0123456789\nok\n", 5);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].1, "long line not flagged truncated");
        assert!(lines[0].0.is_empty());
        assert_eq!(lines[1], (b"ok".to_vec(), false));
    }

    #[test]
    fn exact_limit_is_not_truncated() {
        let lines = read_all(b"12345\n", 5);
        assert_eq!(lines, vec![(b"12345".to_vec(), false)]);
    }

    #[test]
    fn empty_lines_come_through_empty() {
        let lines = read_all(b"\n\nx\n", 5);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[2], (b"x".to_vec(), false));
    }
}
