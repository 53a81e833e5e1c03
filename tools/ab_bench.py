"""Compare two checkouts on one benchmark workload, in alternating pairs.

Usage (from any directory):

    python3 tools/ab_bench.py --parent DIR --change DIR --workload fo_population \\
        --seed 41 --pairs 10 --seconds 8 [--json PATH]

Each pair runs ``bench/run.py --trace 0`` once in each checkout, each run in
its own process; even pairs run the parent first, odd pairs the change.  A
run whose last line is not ``correct`` or counts a failed operation stops
the comparison with exit code 1.  For every end-to-end metric of
``BENCHMARK.json`` the tool prints each side's median [Q1, Q3] over the
pairs, the relative change of the medians, and the number of pairs the
change won (a tie counts for neither side).  ``--json PATH`` writes the
record, every run's metrics included, under the key ``<workload>.seed<seed>``
in PATH, keeping the records already there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from stats import percentile  # noqa: E402  (the benchmark's own percentile rule)

SIDES = ("parent", "change")


def end_to_end_metrics() -> list:
    """(name, better) of each end-to-end metric the benchmark declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["better"]) for m in json.load(fh)["end_to_end"]]


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON of one untraced benchmark run in ``checkout``."""
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"], cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: bench/run.py exited {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    last = json.loads(lines[-1])
    if not last["correct"] or last["failed"] > 0:
        raise RuntimeError(f"{checkout}: run not correct or with failed operations: "
                           f"correct={last['correct']} failed={last['failed']} "
                           f"attempted={last['attempted']}")
    return {name: m["value"] for name, m in last["metrics"].items()}


def summarize(runs: dict, metrics: list) -> dict:
    """Per metric: each side's median and quartiles, the relative change of
    the medians, and the pairs the change won."""
    out = {}
    for name, better in metrics:
        sides = {side: [r[name] for r in runs[side]] for side in SIDES}
        stats = {side: {"median": percentile(v, 50.0), "q1": percentile(v, 25.0),
                        "q3": percentile(v, 75.0)} for side, v in sides.items()}
        base = stats["parent"]["median"]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {**stats, "better": better, "change_wins": wins,
                     "relative_change": (stats["change"]["median"] / base - 1.0) if base else None}
    return out


def report(summary: dict, pairs: int) -> None:
    print(f"{'metric':<20} {'parent median [Q1, Q3]':>36} {'change median [Q1, Q3]':>36}"
          f" {'change':>9} {'won':>6}")
    for name, s in summary.items():
        cells = [f"{s[side]['median']:.6g} [{s[side]['q1']:.6g}, {s[side]['q3']:.6g}]"
                 for side in SIDES]
        rel = "n/a" if s["relative_change"] is None else f"{100.0 * s['relative_change']:+.1f}%"
        print(f"{name:<20} {cells[0]:>36} {cells[1]:>36} {rel:>9} {s['change_wins']:>3}/{pairs}")


def write_record(path: str, key: str, record: dict) -> None:
    data = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    data[key] = record
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout measured as the base")
    p.add_argument("--change", required=True, help="checkout measured against it")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--json", help="write the record into this JSON file")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs needs at least 1")
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, path in checkouts.items():
        if not os.path.isfile(os.path.join(path, "bench", "run.py")):
            p.error(f"--{side} {path} has no bench/run.py")
    metrics = end_to_end_metrics()
    runs = {side: [] for side in SIDES}
    try:
        for k in range(args.pairs):
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                values = run_once(checkouts[side], args.workload, args.seed, args.seconds)
                runs[side].append(values)
                print(f"pair {k} {side:<6} " + " ".join(f"{name}={values[name]:.6g}"
                                                       for name, _ in metrics), flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(runs, metrics)
    report(summary, args.pairs)
    if args.json:
        record = {"seed": args.seed, "pairs": args.pairs, "seconds": args.seconds,
                  "order": "even pairs run the parent first, odd pairs the change",
                  "machine": {"python": platform.python_version(), "numpy": numpy.__version__,
                              "nproc": os.cpu_count(), "machine": platform.machine()},
                  "summary": summary, "runs": runs}
        write_record(args.json, f"{args.workload}.seed{args.seed}", record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
