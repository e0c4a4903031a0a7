"""Record a before/after benchmark file from alternating perfbench runs.

Usage, from the repository root, with clean exports of the two commits in
directories whose resolved paths have the same length:

    python3 tools/bench_pairs.py --parent ../parent --change ../change \
        --commits HEAD~1 HEAD --pr 12 --what "one line on the change" \
        --seeds 1201-1210 --traced-seeds 1211-1213 --out BENCH_12.json

For every workload in ``BENCHMARK.json`` it runs ``perfbench/run.py`` of each
tree once per seed, one process at a time, parent first on odd seeds and
change first on even seeds, then one ``--trace 1`` pass per side and traced
seed, in the same alternating order.  It refuses trees whose paths differ
in length, because ``peak_rss_mb`` moves by up to 3 % with the length of the
directory name alone.  The file keeps every run's result and notes line; per
workload and end-to-end metric, the pair wins and each side's quartiles; and
per workload and per-layer metric, each side's median over the traced seeds,
since one traced pass per side is too noisy to attribute a change of a few
percent to a layer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNTRACED = "python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0"
TRACED = "python3 perfbench/run.py --workload W --seed T --seconds {seconds} --trace 1"


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: {' '.join(argv)} exited {proc.returncode}\n{proc.stderr}")
    tagged = {line.split(": ", 1)[0]: line.split(": ", 1)[1] for line in lines if ": " in line}
    return {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "command": " ".join(argv),
        "result": json.loads(lines[-1]),
        "notes": json.loads(tagged["notes"]),
        "env": json.loads(tagged["env"]),
    }


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    by_side = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["seed"])
               for side in ("parent", "change")}
    out = {}
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        parent = [r["result"]["metrics"][name]["value"] for r in by_side["parent"]]
        change = [r["result"]["metrics"][name]["value"] for r in by_side["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        out[name] = {
            "better": m["better"],
            "pairs": len(parent),
            "change_wins": wins,
            "ties": sum(p == c for p, c in zip(parent, change)),
            "parent_quartiles": [round(q, 6) for q in statistics.quantiles(parent, n=4, method="inclusive")],
            "change_quartiles": [round(q, 6) for q in statistics.quantiles(change, n=4, method="inclusive")],
            "median_change_vs_parent": round(statistics.median(change) / statistics.median(parent) - 1.0, 4)
            if statistics.median(parent) else 0.0,
        }
    out["failed_runs"] = {side: sum(r["result"]["failed"] for r in rs) for side, rs in by_side.items()}
    out["all_correct"] = all(r["result"]["correct"] for r in runs)
    return out


def summarize_traced(runs: list[dict], per_layer: list[dict]) -> dict:
    """Each side's median of every per-layer metric over its traced runs."""
    out = {}
    for m in per_layer:
        name = m["name"]
        medians = {side: statistics.median(r["result"]["metrics"][name]["value"]
                                           for r in runs if r["side"] == side)
                   for side in ("parent", "change")}
        out[name] = {
            "better": m["better"],
            "parent_median": round(medians["parent"], 6),
            "change_median": round(medians["change"], 6),
            "median_change_vs_parent": round(medians["change"] / medians["parent"] - 1.0, 4)
            if medians["parent"] else 0.0,
        }
    out["missing"] = {side: sorted({g for r in runs if r["side"] == side for g in r["notes"]["missing"]})
                      for side in ("parent", "change")}
    return out


def _seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--commits", nargs=2, required=True, metavar=("PARENT", "CHANGE"),
                        help="git refs of the two exported commits")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--what", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--traced-seeds", required=True, help="first-last, inclusive, or one seed")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(bench["run_seconds"])
    seeds, traced_seeds = _seed_range(args.seeds), _seed_range(args.traced_seeds)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(trees["parent"])) != len(str(trees["change"])):
        parser.error(f"tree paths differ in length, which moves peak_rss_mb: {trees['parent']} and {trees['change']}")
    commit = {side: subprocess.run(["git", "-C", str(ROOT), "rev-parse", ref], capture_output=True,
                                   text=True, check=True).stdout.strip()
              for side, ref in zip(("parent", "change"), args.commits)}

    runs, summary = [], {}
    for w in (w["name"] for w in bench["workloads"]):
        untraced = []
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                r = {"side": side, **run(trees[side], w, seed, seconds, 0)}
                print(w, seed, side, r["result"]["metrics"]["wall_ref_s"]["value"], file=sys.stderr)
                untraced.append(r)
        summary[w] = summarize(untraced, bench["end_to_end"])
        traced = []
        for seed in traced_seeds:
            for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                traced.append({"side": side, **run(trees[side], w, seed, seconds, 1)})
        summary[w]["per_layer_medians"] = summarize_traced(traced, bench["per_layer"])
        runs += untraced + traced

    env = runs[0]["env"]
    for r in runs:
        del r["env"]
    doc = {
        "pr": args.pr,
        "what": args.what,
        "parent_commit": commit["parent"],
        "change_commit": commit["change"],
        "host": f"{env['cpu']}, {env['nproc']} vCPU, shared; Python {env['python']}, "
                f"numpy {env['numpy']}, scipy {env['scipy']}",
        "method": (
            f"Each side ran from a clean export of its commit, the parent in {args.parent} and the "
            f"change in {args.change}, resolved paths of {len(str(trees['change']))} characters each. "
            f"Untraced: {len(seeds)} pairs per "
            f"workload on seeds {args.seeds}, one perfbench/run.py process at a time, parent "
            f"first on odd seeds and change first on even seeds. Traced: one pass per side per "
            f"workload on each of seeds {args.traced_seeds}, in the same order; "
            "'per_layer_medians' holds each side's median over them. 'result' is the last line "
            "run.py printed and 'notes' its notes line; quartiles are "
            "statistics.quantiles(n=4, method='inclusive') over the runs of a side."
        ),
        "commands": {"untraced": UNTRACED.format(seconds=f"{seconds:g}"),
                     "traced": TRACED.format(seconds=f"{seconds:g}")},
        "seeds": {"untraced": seeds, "traced": traced_seeds},
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
