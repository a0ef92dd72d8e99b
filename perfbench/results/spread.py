"""Summarises sets of benchmark runs recorded one JSON object per line.

For each workload, set and end-to-end metric it prints the median over
the set's runs and the spread: the distance between the first and third
quartile, as statistics.quantiles(values, n=4) gives them, over the
median. For each later set it prints how far its median is worse than
the first set's. Both are compared with the metric's bound in
BENCHMARK.json. Run from the repository root:

    python3 perfbench/results/spread.py perfbench/results/proof.jsonl
"""
import json
import statistics
import sys


def main(path):
    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["end_to_end"]
    runs = [json.loads(line) for line in open(path) if line.strip()]
    bad = [r for r in runs if r["exit"] != 0 or not r["result"] or not r["result"]["correct"] or r["result"]["failed"]]
    print(f"{len(runs)} runs, {len(bad)} failed or incorrect")
    for w in [x["name"] for x in bench["workloads"]]:
        sets = sorted({r["set"] for r in runs if r["workload"] == w})
        if not sets:
            continue
        by_set = {s: [r for r in runs if r["workload"] == w and r["set"] == s] for s in sets}
        print(f"\n{w}: " + ", ".join(f"set {s} {len(by_set[s])} runs, seeds {sorted(r['seed'] for r in by_set[s])}" for s in sets))
        head = "| metric | bound |" + "".join(f" set {s} median | set {s} spread |" for s in sets)
        head += "".join(f" set {s} worse by |" for s in sets[1:])
        print(head)
        print("|" + "---|" * (2 + 2 * len(sets) + len(sets) - 1))
        for m in metrics:
            meds, cells = [], []
            for s in sets:
                xs = [r["result"]["metrics"][m["name"]]["value"] for r in by_set[s]]
                med = statistics.median(xs)
                meds.append(med)
                if len(xs) < 2:
                    cells.append(f" {med:.6g} | n/a |")
                    continue
                q = statistics.quantiles(xs, n=4)
                cells.append(f" {med:.6g} | {(q[2] - q[0]) / med:.4f} |")
            for med in meds[1:]:
                worse = (med - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                cells.append(f" {worse:+.4f} |")
            print(f"| {m['name']} | {m['bound']} |" + "".join(cells))


if __name__ == "__main__":
    main(sys.argv[1])
