#!/usr/bin/env bash
# Paired benchmark runs of a change against its parent, recorded as a
# trajectory. For each workload it runs `benchmark/run.sh` N times on each
# side with the same seed per pair, alternating which side runs first
# (the first run of a pair tends to read faster), has
# `benchmark/run.sh -compare` judge the two sets of runs, and appends one
# entry to BENCH_<workload>.json at the repository root: per metric the
# compare tool's medians, relative difference and verdict, both sides'
# quartiles and min-max range, the pairs in which the change was better,
# and every pair's values; besides nproc, the Go version, both commits and
# the trees the two sides were built from.
#
#   scripts/bench_pairs.sh [--parent REV] [--pairs N] [WORKLOAD...]
#
# Every run lasts BENCHMARK.json's run_seconds. N defaults to 10, the
# fewest pairs a claimed gain is judged on. The change is this checkout's
# working tree as it stands (change_commit is its HEAD, change_dirty says
# whether it has uncommitted edits); the parent (default HEAD) is exported
# with `git archive` into a temporary directory and built there from
# source, as the benchmark builds itself. parent_tree and change_tree name
# the code each side ran: the git tree of the side's files without the
# documents (*.md) and the BENCH_*.json files, so the commit that records
# an entry can be matched to it (`tree_id` below, run on that commit).
# Workloads default to every one in BENCHMARK.json. Raw run output is kept
# under .bench_build/pairs/. Nothing under benchmark/ is edited; the script
# only calls benchmark/run.sh on each side.
set -euo pipefail
# A failing step inside $(...) fails the script too, not just the
# substitution: a tree_id that fails must not record a wrong tree.
shopt -s inherit_errexit
cd "$(dirname "$0")/.."
root=$PWD

parent=HEAD pairs=10
workloads=()
while (($#)); do
  case $1 in
    --parent) parent=$2; shift 2 ;;
    --pairs) pairs=$2; shift 2 ;;
    -h|--help) sed -n '2,26p' "$0"; exit 0 ;;
    -*) echo "unknown option $1" >&2; exit 2 ;;
    *) workloads+=("$1"); shift ;;
  esac
done
if ((pairs < 3)); then
  echo "--pairs must be at least 3 (fewer runs a side have no quartiles to speak of)" >&2
  exit 2
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if ((${#workloads[@]} == 0)); then
  mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# tree_id REV prints the git tree of REV, or with "-" of the working tree
# as `git add -A` would stage it, leaving out *.md and BENCH_*.json. The
# removal is forced: a REV's documents may differ from both the working
# tree and HEAD, and `git rm --cached` refuses those without -f.
tree_id() {
  local idx=$tmp/index
  rm -f "$idx"
  if [[ $1 == - ]]; then
    GIT_INDEX_FILE=$idx git read-tree HEAD
    GIT_INDEX_FILE=$idx git add -A
  else
    GIT_INDEX_FILE=$idx git read-tree "$1"
  fi
  GIT_INDEX_FILE=$idx git rm -r --cached -f -q --ignore-unmatch -- '*.md' 'BENCH_*.json'
  GIT_INDEX_FILE=$idx git write-tree
}

parent_commit=$(git rev-parse --verify "$parent^{commit}")
parent_tree=$(tree_id "$parent_commit")
change_commit=$(git rev-parse HEAD)
change_tree=$(tree_id -)
change_dirty=false
[[ -n $(git status --porcelain) ]] && change_dirty=true
if [[ $parent_tree == "$change_tree" ]]; then
  echo "the change builds the same tree as the parent ($change_tree): nothing to compare" >&2
  exit 2
fi

git archive "$parent_commit" | tar -x -C "$tmp"
out=$root/.bench_build/pairs
mkdir -p "$out"

# run SIDE DIR WORKLOAD SEED: one benchmark run, its output kept; a failed
# run leaves a file without a summary line, which counts as failed.
run() {
  local file="$out/$3-$1-$4.txt"
  (cd "$2" && bash benchmark/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0) >"$file" 2>&1 ||
    echo "run failed: $1 $3 seed $4 (see $file)" >&2
}

# ok FILE: the run ended with a correct summary and no failed operation.
ok() { grep -q '^{"correct":true,"attempted":[0-9]*,"failed":0,' "$1"; }

for w in "${workloads[@]}"; do
  complete=() failed_parent=0 failed_change=0
  for ((seed = 1; seed <= pairs; seed++)); do
    echo "== $w pair $seed of $pairs" >&2
    if ((seed % 2)); then
      run parent "$tmp" "$w" "$seed"
      run change "$root" "$w" "$seed"
    else
      run change "$root" "$w" "$seed"
      run parent "$tmp" "$w" "$seed"
    fi
    good=true
    ok "$out/$w-parent-$seed.txt" || { good=false; ((++failed_parent)); }
    ok "$out/$w-change-$seed.txt" || { good=false; ((++failed_change)); }
    $good && complete+=("$seed")
  done
  if ((${#complete[@]} < 3)); then
    echo "$w: ${#complete[@]} complete pairs, too few to record" >&2
    continue
  fi
  # The compare tool judges the runs of the complete pairs only.
  for side in parent change; do
    for seed in "${complete[@]}"; do cat "$out/$w-$side-$seed.txt"; done >"$tmp/$side.txt"
  done
  bash benchmark/run.sh -compare "$tmp/parent.txt" "$tmp/change.txt" >"$tmp/compare.txt" || true
  cat "$tmp/compare.txt" >&2
  python3 - "$out" "$w" "$pairs" "$seconds" "$parent_commit" "$parent_tree" "$change_commit" "$change_tree" \
    "$change_dirty" "$(nproc)" "$(go env GOVERSION)" "$failed_parent" "$failed_change" "$tmp/compare.txt" "${complete[@]}" <<'EOF'
import datetime, json, statistics, sys

(out, workload, pairs, seconds, parent_commit, parent_tree, change_commit, change_tree,
 dirty, nproc, go_version, failed_parent, failed_change, compare_path, *complete) = sys.argv[1:]
spec = json.load(open("BENCHMARK.json"))
metric_spec = {m["name"]: m for m in spec["end_to_end"]}

def values(side, seed):
    with open(f"{out}/{workload}-{side}-{seed}.txt") as f:
        summary = [json.loads(l) for l in f if l.startswith('{"correct"')][-1]
    return {name: m["value"] for name, m in summary["metrics"].items()}, summary["metrics"]

runs, units = [], {}
for seed in map(int, complete):
    (p, units), (c, _) = values("parent", seed), values("change", seed)
    runs.append({"seed": seed, "first": "parent" if seed % 2 else "change", "parent": p, "change": c})

def summary(vals, median):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"min": min(vals), "q1": q1, "median": median, "q3": q3, "max": max(vals)}

# compare rows: workload metric runs a b worse_by bound verdict
metrics = {}
for line in open(compare_path):
    f = line.split()
    if len(f) != 8 or f[0] != workload:
        continue
    name, m = f[1], metric_spec[f[1]]
    sign = 1 if m["better"] == "higher" else -1
    metrics[name] = {
        "unit": units[name]["unit"],
        "better": m["better"],
        "bound": m["bound"],
        "parent": summary([r["parent"][name] for r in runs], float(f[3])),
        "change": summary([r["change"][name] for r in runs], float(f[4])),
        "worse_by": float(f[5].rstrip("%")) / 100,
        "verdict": f[7],
        "change_better_pairs": sum(sign * (r["change"][name] - r["parent"][name]) > 0 for r in runs),
    }
if set(metrics) != set(metric_spec):
    sys.exit(f"{workload}: the compare tool reported {sorted(metrics)}")

record = {
    "workload": workload,
    "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    "parent_commit": parent_commit,
    "parent_tree": parent_tree,
    "change_commit": change_commit,
    "change_tree": change_tree,
    "change_dirty": dirty == "true",
    "pairs": int(pairs),
    "seconds": int(seconds),
    "nproc": int(nproc),
    "go_version": go_version,
    "runs_failed": {"parent": int(failed_parent), "change": int(failed_change)},
    "metrics": metrics,
    "pair_runs": runs,
}
path = f"BENCH_{workload}.json"
try:
    entries = json.load(open(path))
except FileNotFoundError:
    entries = []
entries.append(record)
with open(path, "w") as f:
    json.dump(entries, f, indent=2)
    f.write("\n")
for name, m in metrics.items():
    print(f"{workload:14} {name:14} change better in {m['change_better_pairs']}/{len(runs)} pairs, "
          f"parent IQR [{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}]")
print(f"appended to {path}")
EOF
done
