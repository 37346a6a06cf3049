#!/usr/bin/env bash
# Full local gate: formatting, lints as errors, the complete test suite,
# and the gbd-cli and gbd-serve tests again against a release build. Run
# before every push.
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
set -euo pipefail
cd "$(dirname "$0")/.."

chaos=0
perf_ab=0
store_smoke=0
for arg in "$@"; do
  case "$arg" in
    --chaos) chaos=1 ;;
    --perf-ab) perf_ab=1 ;;
    --store-smoke) store_smoke=1 ;;
    *) echo "unknown argument: $arg (expected --chaos, --perf-ab, or --store-smoke)" >&2; exit 2 ;;
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

# The gbd-cli tests drive the real `groupdet` binary (the observability
# proof, the SIGKILL failover, the closed pipe), and the gbd-serve tests
# drive live streaming sessions and drains. Coalescing, failover and
# drain timing differ between builds, so they run again in release.
echo "==> cargo test -q --release -p gbd-cli -p gbd-serve"
cargo test -q --release -p gbd-cli -p gbd-serve

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
  smoke_dir=$(mktemp -d)
  trap 'rm -rf "$smoke_dir"' EXIT
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
