//! End-to-end tests of the persistent result store (`gbd-store`) wired
//! through the engine and the serving layer.
//!
//! The headline scenarios are the acceptance proofs of the storage work:
//!
//! 1. A fig8 sweep served over TCP, a graceful drain (which snapshots the
//!    store), a restart against the same store, and a rerun of the sweep:
//!    every response is **bit-identical** and the warm server recomputes
//!    **zero** M-S stages — the store hit count equals the request count.
//! 2. A corrupted log (byte flipped mid-record) degrades the restart to a
//!    *partial* warm start: fewer records load, torn bytes are discarded,
//!    and every served value is still bit-identical to the original —
//!    missing entries are recomputed, never guessed.
//!
//! Around them: torn-tail truncation through the engine, and identity-tag
//! refusal so a store written by a different codec can never shadow
//! results.

use gbd_engine::{BackendSpec, Engine, EvalRequest};
use gbd_serve::{Json, ServeConfig, Server, ServerHandle};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn temp_store(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gbd-store-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// The fig8 sensor-count grid the sweeps below run over.
const N_VALUES: [usize; 7] = [60, 90, 120, 150, 180, 210, 240];

fn fig8_requests() -> Vec<EvalRequest> {
    N_VALUES
        .iter()
        .map(|&n| {
            EvalRequest::new(
                gbd_core::params::SystemParams::paper_defaults().with_n_sensors(n),
                BackendSpec::ms_default(),
            )
        })
        .collect()
}

struct TestServer {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start(engine: Engine) -> TestServer {
    let server =
        Server::bind(ServeConfig::default(), Arc::new(engine)).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    TestServer {
        addr,
        handle,
        thread,
    }
}

impl TestServer {
    /// Graceful drain: the same path the `shutdown` verb takes, which
    /// snapshots the store before the listener exits.
    fn stop(self) {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("server thread panicked")
            .expect("server run failed");
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        let read_half = stream.try_clone().expect("clone stream");
        Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        Json::parse(line.trim()).expect("response is valid JSON")
    }
}

/// One sweep response as seen on the wire: the rendered `detection` array
/// (exact text — equality is bit-identity of every float) plus the
/// per-request cache counters.
struct WireRow {
    detection: String,
    hits: u64,
    misses: u64,
}

/// Runs the fig8 sweep over TCP against `addr`, in request order.
fn sweep_over_tcp(addr: SocketAddr) -> Vec<WireRow> {
    let mut client = Client::connect(addr);
    for (id, &n) in N_VALUES.iter().enumerate() {
        client.send(&format!(
            r#"{{"id":{id},"verb":"eval","params":{{"n":{n}}}}}"#
        ));
    }
    (0..N_VALUES.len())
        .map(|id| {
            let response = client.recv();
            assert_eq!(response.get("id").and_then(Json::as_u64), Some(id as u64));
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
            let cache = response.get("cache").expect("cache counters");
            WireRow {
                detection: response.get("detection").expect("detection").render(),
                hits: cache.get("hits").and_then(Json::as_u64).expect("hits"),
                misses: cache.get("misses").and_then(Json::as_u64).expect("misses"),
            }
        })
        .collect()
}

/// Reads the `metrics` verb's `store` section from a running server.
fn store_status(addr: SocketAddr) -> Json {
    let mut client = Client::connect(addr);
    client.send(r#"{"id":0,"verb":"metrics","sections":["store"]}"#);
    let response = client.recv();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    response
        .get("metrics")
        .and_then(|m| m.get("store"))
        .expect("store section")
        .clone()
}

fn store_field(status: &Json, key: &str) -> u64 {
    status
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("store status missing `{key}`: {}", status.render()))
}

// ---------------------------------------------------------------------------
// Acceptance: drain, restart, rerun — bit-identical, zero recomputation
// ---------------------------------------------------------------------------

#[test]
fn serve_drain_restart_rerun_is_bit_identical_with_zero_recomputed_stages() {
    let path = temp_store("serve-roundtrip.gbdstore");

    // Cold server: every stage is computed and spilled.
    let cold_server = start(Engine::new().with_store(&path).expect("open fresh store"));
    let cold = sweep_over_tcp(cold_server.addr);
    let cold_status = store_status(cold_server.addr);
    assert_eq!(
        cold_status.get("attached").and_then(Json::as_bool),
        Some(true)
    );
    assert!(store_field(&cold_status, "spills") > 0, "nothing spilled");
    assert_eq!(store_field(&cold_status, "loads"), 0);
    cold_server.stop(); // graceful drain → snapshot

    // Warm server over the same store.
    let warm_server = start(Engine::new().with_store(&path).expect("reopen store"));
    let warm = sweep_over_tcp(warm_server.addr);
    let warm_status = store_status(warm_server.addr);
    warm_server.stop();

    // Every response bit-identical; zero recomputed M-S stages; the
    // result-layer hit count equals the request count.
    assert_eq!(cold.len(), warm.len());
    let mut warm_hits = 0;
    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        assert_eq!(
            c.detection, w.detection,
            "request {i}: warm response diverged from cold"
        );
        assert_eq!(w.misses, 0, "request {i}: warm server recomputed a stage");
        warm_hits += w.hits;
    }
    assert_eq!(
        warm_hits,
        N_VALUES.len() as u64,
        "store hit count must equal the request count"
    );
    assert!(
        store_field(&warm_status, "loads") > 0,
        "warm boot loaded nothing: {}",
        warm_status.render()
    );
    // The drain compacted: duplicates (if any) dropped, log intact.
    assert_eq!(store_field(&warm_status, "torn_bytes_discarded"), 0);
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn store_section_reports_detached_when_engine_runs_memory_only() {
    let server = start(Engine::new());
    let status = store_status(server.addr);
    assert_eq!(status.get("attached").and_then(Json::as_bool), Some(false));
    server.stop();
}

// ---------------------------------------------------------------------------
// Acceptance: corrupted log → partial warm start, never a wrong result
// ---------------------------------------------------------------------------

#[test]
fn corrupted_log_degrades_to_partial_warm_start_without_wrong_results() {
    let path = temp_store("corrupt.gbdstore");

    // Ground truth: a cold server's wire responses, drained to the store.
    let cold_server = start(Engine::new().with_store(&path).expect("open fresh store"));
    let cold = sweep_over_tcp(cold_server.addr);
    cold_server.stop();

    // Flip one byte in the middle of the log: the record containing it
    // fails its CRC, and recovery truncates there.
    let mut bytes = Vec::new();
    std::fs::File::open(&path)
        .expect("open log")
        .read_to_end(&mut bytes)
        .expect("read log");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xA5;
    std::fs::write(&path, &bytes).expect("write corrupted log");

    // Restart against the damaged store: a partial warm start.
    let warm_server = start(
        Engine::new()
            .with_store(&path)
            .expect("recovery must tolerate mid-log corruption"),
    );
    let warm = sweep_over_tcp(warm_server.addr);
    let status = store_status(warm_server.addr);
    warm_server.stop();

    assert!(
        store_field(&status, "torn_bytes_discarded") > 0,
        "corruption went unnoticed: {}",
        status.render()
    );
    // Partial: something loaded, but less than the full log held.
    let loads = store_field(&status, "loads");
    assert!(loads > 0, "valid prefix was lost entirely");
    assert!(
        loads < store_field(&status, "spills") + loads,
        "nothing was recomputed, yet half the log was destroyed"
    );
    // The real acceptance bar: no wrong result was ever served.
    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        assert_eq!(
            c.detection, w.detection,
            "request {i}: corrupted-store restart served a wrong value"
        );
    }
    std::fs::remove_file(&path).expect("cleanup");
}

// ---------------------------------------------------------------------------
// Torn tail: a crash mid-append loses at most the torn record
// ---------------------------------------------------------------------------

#[test]
fn torn_tail_recovers_to_longest_valid_prefix_through_the_engine() {
    let path = temp_store("torn.gbdstore");
    let requests = fig8_requests();

    let cold_engine = Engine::new().with_store(&path).expect("open fresh store");
    let cold = cold_engine.evaluate_batch(&requests);
    cold_engine
        .sync_store()
        .expect("store attached")
        .expect("sync");
    drop(cold_engine);

    // Simulate a crash mid-append: chop the file mid-record.
    let len = std::fs::metadata(&path).expect("stat").len();
    let torn_len = len - len / 3;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open log")
        .set_len(torn_len)
        .expect("tear the tail");

    let warm_engine = Engine::new()
        .with_store(&path)
        .expect("recovery must tolerate a torn tail");
    let stats = warm_engine.store_stats().expect("store attached");
    assert!(
        stats.loaded_records > 0,
        "the valid prefix must survive: {stats:?}"
    );
    let warm = warm_engine.evaluate_batch(&requests);
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.outcome, w.outcome, "torn-tail recovery changed a value");
        assert_eq!(c.detection, w.detection);
    }
    std::fs::remove_file(&path).expect("cleanup");
}

// ---------------------------------------------------------------------------
// Torn tail, exhaustively: every byte offset of the final frame
// ---------------------------------------------------------------------------

/// Crash safety is a per-byte property: a power cut can stop the file at
/// *any* offset inside the frame being written — mid-length, mid-CRC,
/// mid-payload. This sweep truncates the log at every byte offset of the
/// final frame and requires, for each one, that recovery (a) succeeds,
/// (b) keeps exactly the records before the torn frame, byte-identical,
/// (c) never resurrects any part of the torn record, and (d) accounts
/// for every discarded byte in `torn_bytes_discarded`.
#[test]
fn truncation_at_every_byte_of_the_final_frame_recovers_the_prefix() {
    let path = temp_store("sweep.gbdstore");
    const TAG: &[u8] = b"sweep-test-v1";

    let store = gbd_store::Store::open(&path, TAG).expect("create store");
    for i in 0..4u8 {
        store
            .append(i, format!("key-{i}").as_bytes(), &[i; 9])
            .expect("append");
    }
    store.sync().expect("sync prefix");
    let prefix_len = std::fs::metadata(&path).expect("stat").len();
    store
        .append(9, b"key-final", b"final-value")
        .expect("append final");
    store.sync().expect("sync final");
    drop(store);
    let original = std::fs::read(&path).expect("read log");
    let full_len = original.len() as u64;
    assert!(prefix_len < full_len, "final frame must occupy bytes");

    for torn_len in prefix_len..full_len {
        std::fs::write(&path, &original[..torn_len as usize]).expect("write torn copy");
        let reopened = gbd_store::Store::open(&path, TAG).unwrap_or_else(|e| {
            panic!("torn at byte {torn_len}/{full_len}: recovery failed: {e}")
        });
        let stats = reopened.stats();
        assert_eq!(
            stats.loaded_records, 4,
            "torn at byte {torn_len}/{full_len}: wrong survivor count: {stats:?}"
        );
        assert_eq!(
            stats.torn_bytes_discarded,
            torn_len - prefix_len,
            "torn at byte {torn_len}/{full_len}: discarded bytes unaccounted: {stats:?}"
        );
        for i in 0..4u8 {
            assert_eq!(
                reopened.get(i, format!("key-{i}").as_bytes()).as_deref(),
                Some(&[i; 9][..]),
                "torn at byte {torn_len}: record {i} did not survive intact"
            );
        }
        assert!(
            reopened.get(9, b"key-final").is_none(),
            "torn at byte {torn_len}: a partial frame must never decode"
        );
    }

    // The untorn log, for contrast, loads everything.
    std::fs::write(&path, &original).expect("restore intact log");
    let intact = gbd_store::Store::open(&path, TAG).expect("reopen intact");
    assert_eq!(intact.stats().loaded_records, 5);
    assert_eq!(intact.stats().torn_bytes_discarded, 0);
    assert_eq!(
        intact.get(9, b"key-final").as_deref(),
        Some(&b"final-value"[..])
    );
    std::fs::remove_file(&path).expect("cleanup");
}

// ---------------------------------------------------------------------------
// Identity: a foreign store never shadows results
// ---------------------------------------------------------------------------

#[test]
fn engine_refuses_a_store_written_under_a_different_identity_tag() {
    // A foreign codec, and the engine's own previous tags: v1 stores hold
    // simulation results whose false alarms came from the retired
    // per-coin sampler, and v2 stores hold simulation moments reduced in
    // chunks of the thread count that computed them, so serving either
    // would break warm ≡ cold.
    for tag in [
        &b"some-other-codec-v9"[..],
        b"gbd-engine-cache-v1",
        b"gbd-engine-cache-v2",
    ] {
        let path = temp_store("foreign.gbdstore");
        {
            let foreign = gbd_store::Store::open(&path, tag).expect("create foreign store");
            foreign.append(1, b"key", b"value").expect("append");
            foreign.sync().expect("sync");
        }
        let err = match Engine::new().with_store(&path) {
            Err(e) => e.to_string(),
            Ok(_) => panic!(
                "engine opened a store tagged {}",
                String::from_utf8_lossy(tag)
            ),
        };
        assert!(
            err.contains("identity"),
            "error should name the identity mismatch: {err}"
        );
        std::fs::remove_file(&path).expect("cleanup");
    }
}
