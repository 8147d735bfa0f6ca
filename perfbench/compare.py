"""Paired parent/change comparison of one workload's end-to-end metrics.

Both checkouts run the same benchmark code: the change's ``perfbench/run.py``
is executed from each checkout's root, so only the library under ``src/``
differs.  Pairs alternate which side runs first.  Run from the change's
repository root, for example:

    python3 perfbench/compare.py --parent ../parent --change . \\
        --workload grow-large-support --pairs 10 --seed 1 --seconds 30

Each pair uses seed ``--seed + j``; repeat with a ``--seed`` not used while
the change was written.  A gain is claimed for a metric only when the change
wins at least nine tenths of the pairs (ties count for neither) and the
medians differ by more than the parent's own quartile spread.  A metric is
a regression when the change's median is worse than the parent's by more
than the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{root}: seed {seed} exited with {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["metrics"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)

    runs = {"parent": [], "change": []}
    for j in range(args.pairs):
        order = ("parent", "change") if j % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side).resolve(), args.workload, args.seed + j, args.seconds))
        print(f"pair {j + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    regressed = False
    print(f"{'metric':14s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} {'wins':>6s}  verdict")
    for metric in SPEC["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r[name]["value"] for r in runs["parent"]]
        change = [r[name]["value"] for r in runs["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        worse = (cm - pm) if lower else (pm - cm)
        if pm and worse > metric["bound"] * abs(pm):
            verdict = "REGRESSION"
            regressed = True
        elif wins >= 0.9 * args.pairs and abs(cm - pm) > (p3 - p1):
            verdict = "gain"
        else:
            verdict = "no claim"
        print(f"{name:14s} {p1:10.4g} {pm:10.4g} {p3:10.4g} {c1:10.4g} {cm:10.4g} {c3:10.4g} "
              f"{wins:>3d}/{args.pairs}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
