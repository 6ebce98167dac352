"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

A result file holds the records ``run.py --out`` appends.  Runs of the two
files with the same workload, trace mode and seed form a pair; the record's
start time tells which side of a pair ran first.

For every (workload, metric) the table gives each side's median and
quartiles, how many pairs each side won (ties count for neither) and a
verdict: *improved* or *regressed* when one side wins at least 9/10 of the
pairs and the medians differ by more than the parent's interquartile range;
*unresolved* otherwise, or when there are fewer than ten pairs or the order
of the pairs did not alternate.  ``!bound`` marks an end-to-end metric whose
change median is worse than the parent's by more than its bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import quartiles

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def pair_up(parent: list[dict], change: list[dict]) -> dict:
    """{(workload, trace): [(parent record, change record), ...]} by seed."""
    by_key = defaultdict(list)
    for rec in change:
        by_key[(rec["workload"], rec["trace"], rec["seed"])].append(rec)
    pairs = defaultdict(list)
    for rec in parent:
        bucket = by_key.get((rec["workload"], rec["trace"], rec["seed"]))
        if bucket:
            pairs[(rec["workload"], rec["trace"])].append((rec, bucket.pop(0)))
    return pairs


def alternated(pairs) -> bool:
    firsts = [p["started"] < c["started"]
              for p, c in sorted(pairs, key=lambda pc: min(pc[0]["started"], pc[1]["started"]))]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def verdict(parent: list[float], change: list[float], lower_is_better: bool,
            fair: bool) -> tuple[str, int, int]:
    sign = -1 if lower_is_better else 1
    change_wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    parent_wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, med_p, q3 = quartiles(parent)
    gap = statistics.median(change) - med_p
    resolved = fair and len(parent) >= MIN_PAIRS and abs(gap) > q3 - q1
    if resolved and change_wins >= WIN_SHARE * len(parent) and sign * gap > 0:
        return "improved", change_wins, parent_wins
    if resolved and parent_wins >= WIN_SHARE * len(parent) and sign * gap < 0:
        return "regressed", change_wins, parent_wins
    return "unresolved", change_wins, parent_wins


def compare(parent: list[dict], change: list[dict], bench: dict) -> list[str]:
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    lines = []
    for (workload, trace), pairs in sorted(pair_up(parent, change).items()):
        fair = alternated(pairs)
        lines.append(f"## {workload} trace={trace}: {len(pairs)} pairs, "
                     f"order {'alternated' if fair else 'NOT alternated'}")
        names = pairs[0][0]["result"]["metrics"]
        for name in names:
            spec = specs.get(name)
            if spec is None:
                continue
            p = [a["result"]["metrics"][name]["value"] for a, _ in pairs]
            c = [b["result"]["metrics"][name]["value"] for _, b in pairs]
            lower = spec["better"] == "lower"
            word, cw, pw = verdict(p, c, lower, fair)
            pq, cq = quartiles(p), quartiles(c)
            flag = ""
            if "bound" in spec and pq[1]:
                worse = (cq[1] - pq[1]) / pq[1] * (1 if lower else -1)
                flag = " !bound" if worse > spec["bound"] else ""
            lines.append(
                f"{workload:17s} {name:38s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {spec['unit']}"
                f"  wins {cw}/{pw}  {word}{flag}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for line in compare(load(args.parent), load(args.change), bench):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
