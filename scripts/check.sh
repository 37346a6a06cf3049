#!/usr/bin/env bash
# Full local gate: formatting, lints as errors, and the complete test
# suite. Run before every push; CI mirrors these steps.
#
#   scripts/check.sh                the standard gate
#   scripts/check.sh --chaos        additionally run the fault-injection
#                                   suite under three seeds (deterministic
#                                   per seed)
#   scripts/check.sh --perf-ab      additionally run scripts/perf_ab.sh:
#                                   parent/change pairs of every perfbench
#                                   workload, HEAD against the working
#                                   tree (about 40 minutes on 2 vCPUs);
#                                   fails when a change median is worse
#                                   than HEAD's beyond its BENCHMARK.json
#                                   bound, or a change run fails ops
#   scripts/check.sh --store-smoke  additionally crash (SIGABRT mid-append,
#                                   via the gbd-store `chaos` feature) a
#                                   store-backed warm run, then prove the
#                                   reopened store recovers its valid
#                                   prefix and serves bit-identical rows
#   scripts/check.sh --obs-smoke    additionally drive mixed load against a
#                                   store-backed server with the Prometheus
#                                   endpoint bound, assert coalescing, the
#                                   queue-wait+compute≈latency split, and
#                                   watch-delta telescoping via loadgen,
#                                   then scrape /metrics and cross-check it
#   scripts/check.sh --cluster-smoke additionally boot a router over two
#                                   shards plus a replicated standby on
#                                   ephemeral ports, drive mixed load
#                                   through the router, SIGKILL one shard
#                                   mid-run, and require zero wrong
#                                   answers (bit-identity against a local
#                                   engine), at least one failover, and a
#                                   clean drain of every survivor
#   scripts/check.sh --stream-smoke additionally boot a server on an
#                                   ephemeral port, drive streaming
#                                   detection sessions via loadgen
#                                   --report-stream, require at least one
#                                   detection event with report/event
#                                   counts reconciled against the stream
#                                   metrics section, then prove a drain
#                                   with a session still open reaps it
#                                   and exits cleanly
set -euo pipefail
cd "$(dirname "$0")/.."

chaos=0
perf_ab=0
store_smoke=0
obs_smoke=0
cluster_smoke=0
stream_smoke=0
for arg in "$@"; do
  case "$arg" in
    --chaos) chaos=1 ;;
    --perf-ab) perf_ab=1 ;;
    --store-smoke) store_smoke=1 ;;
    --obs-smoke) obs_smoke=1 ;;
    --cluster-smoke) cluster_smoke=1 ;;
    --stream-smoke) stream_smoke=1 ;;
    *) echo "unknown argument: $arg (expected --chaos, --perf-ab, --store-smoke, --obs-smoke, --cluster-smoke, or --stream-smoke)" >&2; exit 2 ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The engine hosts the panic-isolation boundary: an unwrap/expect on a lock
# or join result there would turn one poisoned shard into a crashed batch.
# The serve crate is a long-lived process fed untrusted bytes, the store
# crate parses arbitrary on-disk bytes after a crash, and the obs crate's
# ticker/exposition threads must outlive any poisoned lock, so they get
# the same treatment. Non-test code must stay free of both (tests opt out
# via cfg_attr(test) in the crate root). The router fronts every shard, so
# a panic there takes down the whole cluster's ingress — same ban. The
# stream crate's detector runs inside long-lived serving sessions fed
# arbitrary report sequences, so it joins too.
for crate in gbd-engine gbd-serve gbd-store gbd-obs gbd-router gbd-stream; do
  echo "==> cargo clippy -p $crate (unwrap/expect ban)"
  cargo clippy -p "$crate" --all-targets --no-deps -- \
    -D warnings -W clippy::unwrap_used -W clippy::expect_used
done

# The hot analytical path promises allocation discipline: no needless
# intermediate collections, no redundant clones, no oversized stack
# buffers in the kernels the scratch arenas exist to serve. The field
# crate joins the list because its CSR query path promises zero
# steady-state heap allocations per trial.
for crate in gbd-core gbd-markov gbd-engine gbd-field; do
  echo "==> cargo clippy -p $crate (allocation-discipline lints)"
  cargo clippy -p "$crate" --all-targets --no-deps -- \
    -D warnings -W clippy::needless_collect -W clippy::redundant_clone \
    -W clippy::large_stack_arrays
done

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# Serve smoke: start the server on an ephemeral port, round-trip a mixed
# analytical+simulation batch through the load generator, assert the
# coalescer actually batched (factor > 1), and require a clean drain on
# the shutdown verb (`wait` fails the gate if the server exits nonzero).
echo "==> serve smoke (loadgen round trip + clean shutdown)"
cargo build --release -q -p gbd-cli -p gbd-bench --bin groupdet --bin loadgen
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
target/release/groupdet serve --addr 127.0.0.1:0 --json >"$smoke_dir/serve.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/.*"addr":"\([^"]*\)".*/\1/p' "$smoke_dir/serve.log")
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "serve smoke: server never reported a listening address" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
target/release/loadgen --addr "$addr" --clients 4 --requests 32 \
  --sim-every 8 --out "$smoke_dir" --assert-coalescing --shutdown
wait "$serve_pid"

if [ "$store_smoke" -eq 1 ]; then
  # Crash-safety proof, end to end through the CLI:
  #   1. warm a fresh store A; its rows are the ground truth
  #   2. warm a fresh store B with the chaos hook armed — the process
  #      SIGABRTs after 3 appends, mid-frame (half a record on disk)
  #   3. `store verify` must flag B's torn tail and exit nonzero
  #   4. re-running `store warm` on B must recover the valid prefix
  #      (partial warm start) and print rows bit-identical to A's
  #   5. B then verifies clean (recovery truncated the torn tail)
  # The chaos hook is a cargo feature compiled into this binary only; it
  # stays inert unless GBD_STORE_CHAOS_ABORT_AFTER is set.
  echo "==> store smoke (crash mid-append, recover, bit-identical warm start)"
  cargo build --release -q -p gbd-cli --features gbd-store/chaos --bin groupdet
  store_a="$smoke_dir/clean.gbdstore"
  store_b="$smoke_dir/torn.gbdstore"
  target/release/groupdet store warm --path "$store_a" --json >"$smoke_dir/warm_a.json"
  if GBD_STORE_CHAOS_ABORT_AFTER=3 target/release/groupdet store warm \
      --path "$store_b" --json >/dev/null 2>"$smoke_dir/chaos.log"; then
    echo "store smoke: chaos run unexpectedly survived" >&2
    exit 1
  fi
  if target/release/groupdet store verify --path "$store_b" --json >"$smoke_dir/verify_torn.json"; then
    echo "store smoke: verify missed the torn tail" >&2
    exit 1
  fi
  target/release/groupdet store warm --path "$store_b" --json >"$smoke_dir/warm_b.json"
  target/release/groupdet store verify --path "$store_b" --json >"$smoke_dir/verify_clean.json"
  python3 - "$smoke_dir/warm_a.json" "$smoke_dir/warm_b.json" "$smoke_dir/verify_torn.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f: clean = json.load(f)
with open(sys.argv[2]) as f: recovered = json.load(f)
with open(sys.argv[3]) as f: torn = json.load(f)

def fail(msg):
    print(f"store smoke: FAILED: {msg}", file=sys.stderr)
    sys.exit(1)

if torn.get("torn_bytes", 0) <= 0:
    fail("verify reported no torn bytes on the crashed store")
store = recovered.get("store", {})
if store.get("loaded_records", 0) <= 0:
    fail("recovery loaded nothing — the valid prefix was lost")
if store.get("torn_bytes_discarded", 0) <= 0:
    fail("recovery discarded no torn bytes")
rows_a, rows_b = clean.get("rows"), recovered.get("rows")
if not rows_a or rows_a != rows_b:
    fail(f"recovered rows diverge from the clean store's: {rows_a} vs {rows_b}")
print(f"store smoke: ok ({store['loaded_records']} records recovered, "
      f"{store['torn_bytes_discarded']} torn bytes discarded, rows bit-identical)")
PY
fi

if [ "$obs_smoke" -eq 1 ]; then
  # Observability proof, end to end against the release binary:
  #   1. boot a store-backed server with the exposition endpoint bound and
  #      a 250 ms delta window
  #   2. loadgen drives mixed load and asserts coalescing happened, the
  #      queue-wait + compute histograms sum to the latency histogram
  #      (metrics verb), and a replaying watch client's windowed deltas
  #      telescope exactly to the lifetime totals
  #   3. scrape /metrics and cross-check the same identities from the
  #      Prometheus text: nonzero evaluated and store spills, and the
  #      latency-split sum within 25%
  #   4. clean drain via the shutdown verb
  echo "==> obs smoke (metrics verb + watch client + /metrics scrape)"
  target/release/groupdet serve --addr 127.0.0.1:0 --metrics-addr 127.0.0.1:0 \
    --obs-window-ms 250 --store "$smoke_dir/obs.gbdstore" --json \
    >"$smoke_dir/obs_serve.log" &
  obs_pid=$!
  obs_addr=""
  scrape_addr=""
  for _ in $(seq 1 100); do
    obs_addr=$(sed -n 's/.*"event":"listening","addr":"\([^"]*\)".*/\1/p' "$smoke_dir/obs_serve.log")
    scrape_addr=$(sed -n 's/.*"metrics_addr":"\([^"]*\)".*/\1/p' "$smoke_dir/obs_serve.log")
    [ -n "$obs_addr" ] && [ -n "$scrape_addr" ] && break
    sleep 0.1
  done
  if [ -z "$obs_addr" ] || [ -z "$scrape_addr" ]; then
    echo "obs smoke: server never reported both listening addresses" >&2
    kill "$obs_pid" 2>/dev/null || true
    exit 1
  fi
  target/release/loadgen --addr "$obs_addr" --clients 4 --requests 32 \
    --sim-every 8 --out "$smoke_dir" \
    --assert-coalescing --assert-split --watch-windows 6
  python3 - "http://$scrape_addr/metrics" <<'PY'
import sys, urllib.request

text = urllib.request.urlopen(sys.argv[1], timeout=10).read().decode()

def fail(msg):
    print(f"obs smoke: FAILED: {msg}", file=sys.stderr)
    sys.exit(1)

values = {}
for line in text.splitlines():
    if line.startswith("#") or not line.strip() or "{" in line:
        continue
    name, _, value = line.partition(" ")
    try:
        values[name] = float(value)
    except ValueError:
        pass

evaluated = values.get("gbd_evaluated_total", 0)
if evaluated <= 0:
    fail("gbd_evaluated_total is zero — the load never registered")
if values.get("gbd_store_spills_total", 0) <= 0:
    fail("gbd_store_spills_total is zero — the store saw no spills")
latency = values.get("gbd_latency_us_sum", 0)
wait = values.get("gbd_queue_wait_us_sum", 0)
compute = values.get("gbd_compute_us_sum", 0)
if latency <= 0:
    fail("gbd_latency_us_sum is zero")
if abs(wait + compute - latency) > 0.25 * latency:
    fail(f"latency split off: wait {wait} + compute {compute} vs latency {latency}")
if values.get("gbd_latency_us_count", 0) != evaluated:
    fail("latency histogram count disagrees with gbd_evaluated_total")
print(f"obs smoke: scrape ok ({int(evaluated)} evaluated, "
      f"{int(values['gbd_store_spills_total'])} spills, "
      f"split {wait:.0f}+{compute:.0f} ≈ {latency:.0f} µs)")
PY
  python3 - "$obs_addr" <<'PY'
import json, socket, sys

host, port = sys.argv[1].rsplit(":", 1)
with socket.create_connection((host, int(port)), timeout=10) as s:
    s.sendall(b'{"id":0,"verb":"shutdown"}\n')
    ack = json.loads(s.makefile().readline())
if ack.get("shutting_down") is not True:
    print("obs smoke: FAILED: shutdown not acknowledged", file=sys.stderr)
    sys.exit(1)
PY
  wait "$obs_pid"
  echo "obs smoke: ok"
fi

if [ "$cluster_smoke" -eq 1 ]; then
  # Failover proof, end to end against the release binaries:
  #   1. boot a standby (own store + replica listener), a shard that
  #      replicates its store appends to it, a second plain shard, and a
  #      router hashing across both with the standby pinned to slot 0
  #   2. loadgen --router drives paced mixed load through the router
  #   3. once the standby has applied replicated records, SIGKILL the
  #      replicating shard mid-run — no drain, no snapshot
  #   4. loadgen must exit clean: every request answered, every answer
  #      bit-identical to an in-process single-server evaluation
  #   5. the router must have recorded a failover, and every surviving
  #      process must drain cleanly on the shutdown verb
  echo "==> cluster smoke (router + 2 shards + standby, SIGKILL mid-run)"
  target/release/groupdet serve --addr 127.0.0.1:0 \
    --store "$smoke_dir/standby.gbdstore" --replica-listen 127.0.0.1:0 \
    --shard-id standby0 --json >"$smoke_dir/standby.log" &
  standby_pid=$!
  standby_addr=""
  replica_addr=""
  for _ in $(seq 1 100); do
    standby_addr=$(sed -n 's/.*"event":"listening","addr":"\([^"]*\)".*/\1/p' "$smoke_dir/standby.log")
    replica_addr=$(sed -n 's/.*"replica_addr":"\([^"]*\)".*/\1/p' "$smoke_dir/standby.log")
    [ -n "$standby_addr" ] && [ -n "$replica_addr" ] && break
    sleep 0.1
  done
  if [ -z "$standby_addr" ] || [ -z "$replica_addr" ]; then
    echo "cluster smoke: standby never reported its addresses" >&2
    kill "$standby_pid" 2>/dev/null || true
    exit 1
  fi
  target/release/groupdet serve --addr 127.0.0.1:0 \
    --store "$smoke_dir/shard0.gbdstore" --shard-id shard0 \
    --replicate-to "$replica_addr" --json >"$smoke_dir/shard0.log" &
  shard0_pid=$!
  target/release/groupdet serve --addr 127.0.0.1:0 --shard-id shard1 \
    --json >"$smoke_dir/shard1.log" &
  shard1_pid=$!
  shard0_addr=""
  shard1_addr=""
  for _ in $(seq 1 100); do
    shard0_addr=$(sed -n 's/.*"event":"listening","addr":"\([^"]*\)".*/\1/p' "$smoke_dir/shard0.log")
    shard1_addr=$(sed -n 's/.*"event":"listening","addr":"\([^"]*\)".*/\1/p' "$smoke_dir/shard1.log")
    [ -n "$shard0_addr" ] && [ -n "$shard1_addr" ] && break
    sleep 0.1
  done
  if [ -z "$shard0_addr" ] || [ -z "$shard1_addr" ]; then
    echo "cluster smoke: a shard never reported its address" >&2
    kill "$standby_pid" "$shard0_pid" "$shard1_pid" 2>/dev/null || true
    exit 1
  fi
  target/release/groupdet route --addr 127.0.0.1:0 \
    --shard "$shard0_addr" --shard "$shard1_addr" \
    --standby "0:$standby_addr" --heartbeat-ms 200 \
    --json >"$smoke_dir/router.log" &
  router_pid=$!
  router_addr=""
  for _ in $(seq 1 100); do
    router_addr=$(sed -n 's/.*"event":"listening","addr":"\([^"]*\)".*/\1/p' "$smoke_dir/router.log")
    [ -n "$router_addr" ] && break
    sleep 0.1
  done
  if [ -z "$router_addr" ]; then
    echo "cluster smoke: router never reported its address" >&2
    kill "$standby_pid" "$shard0_pid" "$shard1_pid" "$router_pid" 2>/dev/null || true
    exit 1
  fi
  # Paced so the kill lands mid-run (4x200 @ 500 req/s ≈ 1.6 s of load).
  target/release/loadgen --addr "$router_addr" --router --clients 4 \
    --requests 200 --rate 500 --sim-every 10 --out "$smoke_dir" \
    --json >"$smoke_dir/cluster_load.json" &
  load_pid=$!
  # Kill only once the standby holds replicated records, so the takeover
  # is provably warm.
  python3 - "$standby_addr" <<'PY'
import json, socket, sys, time

host, port = sys.argv[1].rsplit(":", 1)
deadline = time.monotonic() + 20
while True:
    with socket.create_connection((host, int(port)), timeout=5) as s:
        s.sendall(b'{"id":0,"verb":"metrics","sections":["cluster"]}\n')
        reply = json.loads(s.makefile().readline())
    applied = (reply.get("metrics", {}).get("cluster", {})
               .get("replication", {}).get("applied_records", 0))
    if applied > 0:
        print(f"cluster smoke: standby applied {applied} replicated records")
        break
    if time.monotonic() > deadline:
        print("cluster smoke: FAILED: standby applied nothing", file=sys.stderr)
        sys.exit(1)
    time.sleep(0.05)
PY
  kill -9 "$shard0_pid"
  # loadgen exits nonzero on any unanswered request or any answer that is
  # not bit-identical to the local engine — that is the zero-wrong-answers
  # gate.
  wait "$load_pid"
  python3 - "$smoke_dir/cluster_load.json" <<'PY'
import json, sys

# The report is the first line; the CSV-written notice follows it.
with open(sys.argv[1]) as f:
    report = json.loads(f.readline())

def fail(msg):
    print(f"cluster smoke: FAILED: {msg}", file=sys.stderr)
    sys.exit(1)

if report.get("errors", 1) != 0:
    fail(f"{report.get('errors')} requests gave up")
if report.get("ok") != report.get("clients", 0) * report.get("requests_per_client", 0):
    fail(f"only {report.get('ok')} requests answered")
if report.get("bit_identical") is not True:
    fail("routed answers were not bit-identical to the local engine")
if not report.get("router_failovers"):
    fail("the router recorded no failover")
print(f"cluster smoke: ok ({report['ok']} answered, "
      f"{report.get('client_retries', 0)} client retries, "
      f"{report['router_failovers']} failover(s), bit-identical)")
PY
  for addr in "$router_addr" "$shard1_addr" "$standby_addr"; do
    python3 - "$addr" <<'PY'
import json, socket, sys

host, port = sys.argv[1].rsplit(":", 1)
with socket.create_connection((host, int(port)), timeout=10) as s:
    s.sendall(b'{"id":0,"verb":"shutdown"}\n')
    ack = json.loads(s.makefile().readline())
if ack.get("shutting_down") is not True:
    print(f"cluster smoke: FAILED: no shutdown ack from {sys.argv[1]}", file=sys.stderr)
    sys.exit(1)
PY
  done
  wait "$router_pid" "$shard1_pid" "$standby_pid"
  wait "$shard0_pid" 2>/dev/null || true
  echo "cluster smoke: ok"
fi

if [ "$stream_smoke" -eq 1 ]; then
  # Streaming-session proof, end to end against the release binaries:
  #   1. boot a plain server on an ephemeral port
  #   2. loadgen --report-stream replays simulator trials over streaming
  #      sessions and, via --assert-stream, requires at least one pushed
  #      detection event and report/event counts that reconcile exactly
  #      with the server's `stream` metrics section (all sessions closed,
  #      none left open)
  #   3. open one more session, leave it open, and send the shutdown verb
  #      through it: the drain must answer in order with the session,
  #      reap the still-open session (accounted as aborted, zero live
  #      tracks), and exit cleanly — no hang, no SIGKILL
  echo "==> stream smoke (loadgen --report-stream + drain with open session)"
  target/release/groupdet serve --addr 127.0.0.1:0 --json \
    >"$smoke_dir/stream_serve.log" &
  stream_pid=$!
  stream_addr=""
  for _ in $(seq 1 100); do
    stream_addr=$(sed -n 's/.*"event":"listening","addr":"\([^"]*\)".*/\1/p' "$smoke_dir/stream_serve.log")
    [ -n "$stream_addr" ] && break
    sleep 0.1
  done
  if [ -z "$stream_addr" ]; then
    echo "stream smoke: server never reported a listening address" >&2
    kill "$stream_pid" 2>/dev/null || true
    exit 1
  fi
  cp results/comm_burst.csv "$smoke_dir/" 2>/dev/null || true
  target/release/loadgen --addr "$stream_addr" --clients 4 --requests 8 \
    --out "$smoke_dir" --report-stream --assert-stream
  python3 - "$stream_addr" <<'PY'
import json, socket, sys

host, port = sys.argv[1].rsplit(":", 1)
with socket.create_connection((host, int(port)), timeout=10) as s:
    f = s.makefile()
    s.sendall(b'{"id":1,"verb":"stream_open","params":{"k":3,"m":10}}\n')
    ack = json.loads(f.readline())
    if ack.get("streaming") is not True:
        print(f"stream smoke: FAILED: stream_open rejected: {ack}", file=sys.stderr)
        sys.exit(1)
    s.sendall(b'{"id":2,"verb":"report","reports":[{"sensor":1,"period":1,"x":500.0,"y":500.0}]}\n')
    if json.loads(f.readline()).get("ingested") != 1:
        print("stream smoke: FAILED: report not ingested", file=sys.stderr)
        sys.exit(1)
    # Shutdown with the session still open: the ack must arrive in order
    # with the session's replies, and the server must reap the session to
    # drain.
    s.sendall(b'{"id":3,"verb":"shutdown"}\n')
    ack = json.loads(f.readline())
    if ack.get("shutting_down") is not True:
        print("stream smoke: FAILED: shutdown not acknowledged in-session", file=sys.stderr)
        sys.exit(1)
print("stream smoke: drain requested with a session open")
PY
  # A hung drain would hang this wait — the gate's hard failure mode.
  wait "$stream_pid"
  echo "stream smoke: ok"
fi

if [ "$chaos" -eq 1 ]; then
  for seed in 1 7 2008; do
    echo "==> chaos suite (GBD_CHAOS_SEED=$seed)"
    GBD_CHAOS_SEED=$seed cargo test -q --test resilience
  done
fi

if [ "$perf_ab" -eq 1 ]; then
  echo "==> perf A/B (scripts/perf_ab.sh: HEAD vs the working tree)"
  scripts/perf_ab.sh
fi

echo "check.sh: all gates passed"
