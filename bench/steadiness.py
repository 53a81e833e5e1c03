"""Run workloads over several seeds; print each metric's median and spread.

Usage (from the repository root):

    python3 bench/steadiness.py --workloads fo_population,sim_ubibs --seeds 1-10 \\
        --seconds 20 [--trace 0] [--json OUT]

The spread is the distance between the first and third quartile of the
per-seed values (``statistics.quantiles(values, n=4)``) as a share of their
median.  Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(p) for p in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(p) for p in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0")
    p.add_argument("--json", help="write per-seed values and summaries here")
    args = p.parse_args(argv)
    report = {}
    ok = True
    for wl in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            proc = subprocess.run([sys.executable, RUN, "--workload", wl, "--seed", str(seed),
                                   "--seconds", args.seconds, "--trace", args.trace],
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and last["correct"]
            print(f"{wl} seed {seed}: correct {last['correct']} attempted {last['attempted']}"
                  f" failed {last['failed']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in last["metrics"].items()), flush=True)
            for k, v in last["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        summary = {}
        for k, vals in values.items():
            med = statistics.median(vals)
            spread = None
            if len(vals) >= 2 and med:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / abs(med)
            summary[k] = {"median": med, "spread": spread, "values": vals}
            print(f"  {wl:<14} {k:<40} median {med:<12.6g} spread "
                  + ("n/a" if spread is None else f"{spread:.4f}"))
        report[wl] = summary
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
