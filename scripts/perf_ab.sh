#!/usr/bin/env bash
# Parent/change pairs over the benchmark of record (BENCHMARK.json,
# perfbench/): the one performance gate.
#
#   scripts/perf_ab.sh                          HEAD vs the working tree
#   scripts/perf_ab.sh <parent-rev>             <parent-rev> vs the working tree
#   scripts/perf_ab.sh <parent-rev> <change-rev>
#
# "The working tree" is its tracked and staged files, captured with
# `git stash create` (no ref is written). Each side is `git archive`d into
# its own temporary directory outside the checkout, and `perfbench/run.py`
# builds and runs there, so the checkout is never written to. For each of
# PAIRS pairs and each workload in BENCHMARK.json, both sides run once with
# the same seed for BENCHMARK.json's `run_seconds`, the parent first on
# even pairs and the change first on odd ones. The seeds derive from the
# change's tree hash. About 40 minutes on 2 vCPUs.
#
# Each run first moves its side's copy to one fixed path, so identical
# sources build identical binaries: perfbench's path dependencies lie
# outside its own workspace, its build depends on where they lie, and two
# copies of one commit at different paths built harnesses whose code
# layout differed.
#
# Prints one JSON document to stdout: per workload and end-to-end metric,
# the parent and change medians and IQRs, the number of pairs, the pairs
# the change won, and a verdict against the metric's `bound` and `better`
# direction. Progress goes to stderr. Exits 1 when a change median is worse
# than the parent's by more than its bound, when a change run reads
# `correct: false` or ends without a result, or when the change's share of
# failed ops on a workload exceeds the parent's.
set -euo pipefail
cd "$(dirname "$0")/.."

PAIRS=10

parent_rev=${1:-HEAD}
change_rev=${2:-}
if [ -z "$change_rev" ]; then
  change_rev=$(git stash create)
  change_label="working tree"
  if [ -z "$change_rev" ]; then
    change_rev=HEAD
  fi
else
  change_label=$change_rev
fi
parent_commit=$(git rev-parse --verify "$parent_rev^{commit}")
change_commit=$(git rev-parse --verify "$change_rev^{commit}")
change_tree=$(git rev-parse "$change_commit^{tree}")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent" "$work/change"
git archive "$parent_commit" | tar -x -C "$work/parent"
git archive "$change_commit" | tar -x -C "$work/change"

# Each copy builds into its own `.bench_build`, never a shared target dir.
env -u CARGO_TARGET_DIR python3 - "$work" "$PAIRS" "$change_tree" \
  "$parent_rev" "$parent_commit" "$change_label" "$change_commit" <<'PY'
import collections, json, os, pathlib, statistics, subprocess, sys

work, pairs, tree = pathlib.Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
parent_rev, parent_commit, change_label, change_commit = sys.argv[4:8]
SIDES = ("parent", "change")

# The change's copy holds the BENCHMARK.json its runs compile in.
bench = json.loads((work / "change" / "BENCHMARK.json").read_text())
workloads = [w["name"] for w in bench["workloads"]]
metrics = bench["end_to_end"]
seconds = bench["run_seconds"]
seeds = [int(tree[:8], 16) % 1_000_000 + i for i in range(pairs)]


def run(side, workload, seed, tag):
    """Runs one workload on one side; returns its result, or None."""
    log = work / f"{side}-{tag}.log"
    here = work / "run"
    (work / side).rename(here)
    try:
        with open(log, "w") as err:
            done = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=here, stdout=subprocess.PIPE, stderr=err, text=True)
    finally:
        here.rename(work / side)
    lines = done.stdout.splitlines()
    warnings = [l[len("# warning: "):].split(":")[0]
                for l in lines if l.startswith("# warning: ")]
    try:
        result = json.loads(lines[-1]) if done.returncode == 0 else None
    except (IndexError, ValueError):
        result = None
    if result is None:
        tail = log.read_text().splitlines()[-20:]
        print(f"perf_ab: {side} {workload} seed {seed} gave no result "
              f"(exit {done.returncode}):", *tail, sep="\n  ", file=sys.stderr)
        return None, warnings
    return result, warnings


runs = {w: {s: [] for s in SIDES} for w in workloads}
warned = {w: {s: collections.Counter() for s in SIDES} for w in workloads}
for i, seed in enumerate(seeds):
    order = SIDES if i % 2 == 0 else SIDES[::-1]
    for w in workloads:
        for side in order:
            result, warnings = run(side, w, seed, f"{w}-{i}")
            runs[w][side].append(result)
            warned[w][side].update(warnings)
            shown = ("no result" if result is None else
                     " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                              for m in metrics))
            print(f"perf_ab: pair {i + 1}/{pairs} {w} {side}: {shown}", file=sys.stderr)


def summary(values):
    if not values:
        return {"median": None, "iqr": None}
    if len(values) == 1:
        return {"median": values[0], "iqr": 0.0}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "iqr": q3 - q1}


failures = []
report = {}
for w in workloads:
    sides = runs[w]
    entry = {"metrics": {}}
    for side in SIDES:
        got = [r for r in sides[side] if r is not None]
        attempted = sum(r["attempted"] for r in got)
        failed = sum(r["failed"] for r in got)
        entry[side] = {
            "runs": len(sides[side]),
            "no_result": len(sides[side]) - len(got),
            "incorrect": sum(1 for r in got if not r["correct"]),
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted if attempted else None,
            "warnings": dict(warned[w][side]),
        }
    if entry["change"]["no_result"] or entry["change"]["incorrect"]:
        failures.append(f"{w}: {entry['change']['no_result']} change run(s) without a "
                        f"result, {entry['change']['incorrect']} with correct: false")
    shares = [entry[s]["failed_share"] for s in SIDES]
    if shares[1] is not None and shares[1] > (shares[0] or 0.0):
        failures.append(f"{w}: failed-op share {shares[1]:.4g} > parent's {shares[0] or 0.0:.4g}")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        value = {s: [None if r is None else r["metrics"][name]["value"]
                     for r in sides[s]] for s in SIDES}
        full = [(p, c) for p, c in zip(value["parent"], value["change"])
                if p is not None and c is not None]
        stats = {s: summary([v for v in value[s] if v is not None]) for s in SIDES}
        pm, cm = stats["parent"]["median"], stats["change"]["median"]
        if pm is None or cm is None or pm == 0:
            delta, verdict = None, "no data"
            failures.append(f"{w} {name}: no comparable medians")
        else:
            delta = (cm - pm) / abs(pm)
            worse = -delta if higher else delta
            verdict = "regressed" if worse > m["bound"] else "within bound"
            if verdict == "regressed":
                failures.append(f"{w} {name}: {pm:.4g} -> {cm:.4g} ({delta:+.1%}), "
                                f"bound {m['bound']:.0%}")
        entry["metrics"][name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": stats["parent"],
            "change": stats["change"],
            "delta": delta,
            "pairs": len(full),
            "change_wins": sum(1 for p, c in full if (c > p if higher else c < p)),
            "verdict": verdict,
            "values": value,
        }
    report[w] = entry

print(json.dumps({
    "parent": {"rev": parent_rev, "commit": parent_commit},
    "change": {"rev": change_label, "commit": change_commit, "tree": tree},
    "cpus": os.cpu_count(),
    "run_seconds": seconds,
    "pairs": pairs,
    "seeds": seeds,
    "pass": not failures,
    "failures": failures,
    "workloads": report,
}, indent=2))
for f in failures:
    print(f"perf_ab: FAILED: {f}", file=sys.stderr)
sys.exit(1 if failures else 0)
PY
