"""resetcert benchmark: end-to-end metrics untraced, per-layer metrics traced.

Usage (from the repository root):

    python3 bench/run.py --workload fo_population --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One process, one client, closed loop: each operation starts when the
previous one has returned.  A run sets up its inputs several times (fresh
interpreter import plus input generation) and reports the median, then
measures whole passes over the workload's operations for about
``--seconds``.  With ``--trace 1`` the run measures the same passes twice,
first untraced and then with tracing wrappers installed, and reports the
per-layer metrics.  The last line of standard output is one JSON object.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

import stats
import tracer as tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("fo_population", "gsore_search", "sim_ubibs", "cli_commands")
SETUP_REPEATS = 3
WARMUP_OPS = 4             # fo_population operations run untimed first
IMPORT_PROFILES = 3

E2E_UNITS = {"setup_s": "s", "op_s.p50": "s", "op_s.p90": "s", "ops_per_s": "1/s",
             "certified_fraction": "fraction", "peak_rss_mb": "MB"}


def _pin_blas_threads() -> int:
    """Pin the BLAS pools to one thread before numpy loads.  The arrays here
    are small; a second, spinning BLAS thread made fo_population slower and
    noisier on a 2-CPU machine.  Returns the CPUs this process may use."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _git_commit() -> str:
    """HEAD of the repository the benchmark sits in; ``unknown`` when the
    checkout is not a git work tree of its own."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
        return out[1]
    return "unknown"


def machine_info(seed: int, ncpu: int) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": ncpu, "machine": platform.machine(),
            "git_commit": _git_commit(), "workload_seed": seed,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run_passes(plan, budget: float, passes: int | None = None, tracer=None):
    """Closed-loop passes over the plan's operations.

    Without ``passes``, another pass starts only while the time used so far
    plus the last pass's duration stays within ``budget``; at least one pass
    runs.  Returns (records, wall seconds, passes run); a record is
    (pass, op id, seconds, outcome).  With ``tracer`` each operation is
    also an ``op`` span.
    """
    records = []
    t0 = time.perf_counter()
    k = 0
    while True:
        tp = time.perf_counter()
        for op in plan.ops:
            idx = tracer.open("op") if tracer is not None else None
            ts = time.perf_counter()
            out = op.run()
            secs = time.perf_counter() - ts
            if tracer is not None:
                tracer.close(idx)
            records.append((k, op.id, secs, out))
        k += 1
        now = time.perf_counter()
        if passes is not None:
            if k >= passes:
                break
        elif now - t0 + (now - tp) > budget:
            break
    return records, time.perf_counter() - t0, k


def _comparable(outcome: dict) -> str:
    return json.dumps({k: v for k, v in outcome.items() if k != "traceback"}, sort_keys=True)


def consistency_failures(records, reference: dict | None = None) -> list:
    """Op ids whose outcome differs between repeats (or from ``reference``,
    op id -> outcome of the untraced run)."""
    seen = dict(reference or {})
    bad = set()
    for _, op_id, _, out in records:
        if op_id in seen and _comparable(seen[op_id]) != _comparable(out):
            bad.add(op_id)
        seen.setdefault(op_id, out)
    return sorted(bad)


def e2e_metrics(records, wall, setup_times, plan) -> dict:
    times = [r[2] for r in records]
    first = {}
    for _, op_id, _, out in records:
        first.setdefault(op_id, out)
    verdicts = [o for o in first.values() if "certified" in o]
    if verdicts:
        certified = sum(bool(o["certified"]) for o in verdicts) / len(verdicts)
    else:   # simulations of certified loops: the share that stayed bounded
        certified = sum(o["failure"] is None for o in first.values()) / len(first)
    who = resource.RUSAGE_CHILDREN if plan.subprocess_ops else resource.RUSAGE_SELF
    return {
        "setup_s": stats.median(setup_times),
        "op_s.p50": stats.percentile(times, 50.0),
        "op_s.p90": stats.percentile(times, 90.0),
        "ops_per_s": len(times) / wall,
        "certified_fraction": certified,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, ncpu: int) -> int:
    sys.path.insert(0, SRC)
    import layers
    import workloads as wl

    info = machine_info(seed, ncpu)
    workdir = os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = wl.CliRunner(SRC)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t_import = wl.time_import(SRC)
            t0 = time.perf_counter()
            plan = wl.SETUPS[name](seed, workdir, runner)
            setup_times.append(t_import + time.perf_counter() - t0)

        if name == "fo_population":
            for op in plan.ops[:WARMUP_OPS]:
                op.run()
        records, wall, passes = run_passes(plan, seconds / 2.0 if trace else seconds)
        checks = {"failed ops": [r[1] for r in records if r[3]["failure"]],
                  "outcome differs between passes": consistency_failures(records)}
        metrics = e2e_metrics(records, wall, setup_times, plan)
        result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "machine": info, "plan": plan.info, "passes": passes,
                  "setup_times": setup_times, "e2e": metrics,
                  "op_times": [[k, i, s] for k, i, s, _ in records],
                  "outcomes": list({r[1]: r[3] for r in records}.values())}
        attempted, failed = len(records), len(checks["failed ops"])

        if trace:
            layer, trace_checks, n_traced = traced_phase(name, seed, plan, passes, records,
                                                         wall, workdir, runner, layers, wl)
            checks.update(trace_checks)
            cmd_times = {}
            for _, _, secs, out in records:
                if "command" in out:
                    cmd_times.setdefault(out["command"], []).append(secs)
            for cmd in layers.CLI_COMMANDS:
                layer[f"cli.{cmd}.s"] = stats.median(cmd_times[cmd]) if cmd in cmd_times else 0.0
            imports = [wl.import_profile(SRC) for _ in range(IMPORT_PROFILES)]
            layer["cli.import_s"] = stats.median([t for t, _ in imports])
            layer["cli.import.scipy_s"] = stats.median([s for _, s in imports])
            result["layers"] = layer
            attempted += n_traced
            failed += len(trace_checks["traced outcome differs from untraced"])
        result["checks"] = checks
        report(result)
        with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, default=str)
        chosen = result["layers"] if trace else metrics
        print(json.dumps({"correct": not any(checks.values()), "attempted": attempted,
                          "failed": failed,
                          "metrics": {k: {"value": v, "unit": metric_unit(k)}
                                      for k, v in chosen.items()}}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def metric_unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith(".ms_per_call"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if ".step_us." in name:
        return "us"
    if name == "trace.overhead_fraction":
        return "fraction"
    if ".m_value." in name:
        return "ratio"
    return "count"


def traced_phase(name, seed, plan, passes, untraced, wall, workdir, runner, layers, wl):
    """One traced set-up, then the untraced passes again with wrappers
    installed.  Returns (per-layer metrics, checks, traced op count)."""
    setup_tr = tracing.Tracer()
    spans_dir = os.path.join(workdir, "spans")
    if name == "cli_commands":
        os.makedirs(spans_dir, exist_ok=True)
        runner.spans_dir = spans_dir
    else:
        installed = tracing.install(setup_tr, layers.targets(setup_tr))
        try:
            wl.SETUPS[name](seed, workdir, runner)
        finally:
            installed.uninstall()
    tr = tracing.Tracer()
    installed = tracing.install(tr, layers.targets(tr))
    try:
        records, traced_wall, _ = run_passes(plan, 0.0, passes=passes, tracer=tr)
    finally:
        installed.uninstall()
        runner.spans_dir = None
    span_lists, notes = [tr.spans], tr.notes
    if name == "cli_commands":
        for fname in sorted(os.listdir(spans_dir)):
            with open(os.path.join(spans_dir, fname), encoding="utf-8") as fh:
                data = json.load(fh)
            span_lists.append([tracing.Span(*s) for s in data["spans"]])
            for key, vals in data["notes"].items():
                notes.setdefault(key, []).extend(vals)
    metrics = layers.layer_metrics(span_lists, notes, len(records))
    metrics["lti.assemble_closed_loop.setup_s"] = tracing.self_times(setup_tr.spans).get(
        "lti.assemble_closed_loop", (0.0, 0))[0]
    metrics["trace.overhead_fraction"] = traced_wall / wall - 1.0
    reference = {op_id: out for _, op_id, _, out in untraced}
    checks = {"traced outcome differs from untraced": consistency_failures(records, reference),
              "wrappers left installed": tracing.leftover_wrappers()}
    return metrics, checks, len(records)


def report(result) -> None:
    n = len(result["op_times"])
    print(f"workload {result['workload']}  seed {result['seed']}  passes {result['passes']}"
          f"  ops {n}  plan {json.dumps(result['plan'])}")
    m = result["machine"]
    print(f"machine  python {m['python']}  numpy {m['numpy']}  scipy {m['scipy']}"
          f"  nproc {m['nproc']}  blas_threads {m['blas_threads']}  commit {m['git_commit']}")
    for k, v in {**result["e2e"], **result.get("layers", {})}.items():
        note = ""
        if k == "op_s.p90" and not stats.tail_supported(n, 90.0):
            note = (f"   ({stats.samples_beyond(n, 90.0)} samples beyond it;"
                    f" a tail needs {stats.MIN_BEYOND})")
        print(f"  {k:<40} {v:>14.6g} {metric_unit(k)}{note}")
    for name, bad in result["checks"].items():
        print(f"check {name}: {'ok' if not bad else 'FAILED ' + ', '.join(bad[:8])}")
    for out in result["outcomes"]:
        print("outcome " + json.dumps({k: v for k, v in out.items() if k != "traceback"},
                                      default=str))


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                                   name, "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", str(trace)], capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                ok = False
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and last["correct"]
            summary[f"{name}.trace{trace}"] = last
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "resetcert", "__init__.py")):
        print(f"error: program source not found at {SRC}", file=sys.stderr)
        return 2
    ncpu = _pin_blas_threads()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ncpu)


if __name__ == "__main__":
    sys.exit(main())
