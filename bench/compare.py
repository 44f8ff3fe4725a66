#!/usr/bin/env python3
"""Compare a parent checkout against a change with identical benchmark code.

    python3 bench/compare.py --parent ../parent --change .

Both sides run this directory's ``run.py`` (``--target`` selects the checkout
whose ``src/`` is measured) in ten pairs per workload of ``BENCHMARK.json``,
with the same seed within a pair and alternating which side goes first.  For
every workload and end-to-end metric it reports each side's median and
quartiles and how many pairs the change won (ties count for neither), then a
verdict:

* ``gain``: the change won at least nine of the ten pairs and the medians
  differ by more than the parent's interquartile distance;
* ``unresolved``: the parent's own spread (interquartile distance over
  median) exceeds the metric's bound, unless every change run beat every
  parent run (``better in every run``);
* ``regression``: the change's median is worse than the parent's by more
  than the bound from ``BENCHMARK.json``;
* ``no regression``: otherwise.

A gain does not count when the change failed more oracle checks than the
parent; it is then reported as ``gain void: more failures``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no caches beside the benchmark or the packages it imports

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
PAIRS = 10
WINS_FOR_GAIN = 9
SEED0 = 9000  # the first pair's seed


def run_once(target: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--target", str(target),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(p.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = (p_q3 - p_q1) / p_med if p_med else float("inf")
    worse_by = sign * (p_med - c_med) / p_med if p_med else 0.0
    if wins >= WINS_FOR_GAIN and abs(c_med - p_med) > p_q3 - p_q1:
        word = "gain"
    elif spread > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        word = "better in every run" if all_better else "unresolved"
    elif worse_by > bound:
        word = "regression"
    else:
        word = "no regression"
    return {
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3, "values": parent},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3, "values": change},
        "wins": wins,
        "pairs": len(parent),
        "parent_spread": spread,
        "worse_by": worse_by,
        "bound": bound,
        "verdict": word,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    rows = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        values = {"parent": [], "change": []}
        failed = {"parent": 0, "change": 0}
        for i in range(PAIRS):
            seed = SEED0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                res = run_once(sides[side], workload, seed, SPEC["run_seconds"])
                values[side].append({k: m["value"] for k, m in res["metrics"].items()})
                failed[side] += res["failed"]
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            row = verdict([v[name] for v in values["parent"]], [v[name] for v in values["change"]],
                          metric["better"], metric["bound"])
            if row["verdict"] == "gain" and failed["change"] > failed["parent"]:
                row["verdict"] = "gain void: more failures"
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "failed": failed, **row})

    print(f"{'workload':16} {'metric':18} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>6}  verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        print(f"{r['workload']:16} {r['metric']:18} "
              f"{p['median']:10.4g} [{p['q1']:.4g}, {p['q3']:.4g}]".ljust(69)
              + f"{c['median']:10.4g} [{c['q1']:.4g}, {c['q3']:.4g}]".rjust(32)
              + f" {r['wins']:>2}/{r['pairs']:<3}  {r['verdict']}")
    record = {
        "provenance": {side: run.provenance(path, SEED0) for side, path in sides.items()},
        "pairs": PAIRS,
        "seconds": SPEC["run_seconds"],
        "rows": rows,
    }
    run.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = run.RESULTS_DIR / f"compare-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"written {out.relative_to(BENCH_DIR.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
