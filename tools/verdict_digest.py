"""Print one SHA-1 per verdict group, to show that a change keeps every
verdict, certificate and CLI output bit for bit.

Usage (from the repository root):

    python3 tools/verdict_digest.py

Groups, all built from the benchmark's inputs in ``bench/workloads.py``:

- ``fo``: ``certify_first_order`` on the ``fo_loops`` populations of seeds
  1 and 7 (certified bit, theta1/theta2 as hex, bullets, diagnostics,
  k_s0/k_n and the refined grid arrays);
- ``gsore``: ``certify`` on each ``gsore_fixtures`` loop at frequency
  scales 0.3, 1 and 4 (q, m_value and the reconstructed parameters as hex,
  the constraint report and the search record);
- ``gsore-verdicts``: the same certificates reduced to (type, scale,
  certified, oracle, rank), so a search change that moves m and q but no
  verdict reads as equal;
- ``cli``: exit code and the ``--out``/``--nsv-out`` bytes of every
  ``cli_inputs`` command for seeds 1-3, run in-process;
- ``sim``: the integer event counters (steps, crossings, resets fired, the
  three suppression counts) and the diverged flag of every
  ``setup_sim_ubibs`` operation for seeds 1-3.  States and instants are
  left out, so a change of rounding leaves the line alone while any
  changed reset decision moves it.

Run it on two checkouts and compare the lines.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from resetcert import cli, gsore, nsv, sim  # noqa: E402

FO_SEEDS = (1, 7)
GSORE_SCALES = (0.3, 1.0, 4.0)
CLI_SEEDS = (1, 2, 3)
SIM_SEEDS = (1, 2, 3)


def _hex(x):
    return None if x is None else float(x).hex()


def _arrays(record):
    return b"".join(np.ascontiguousarray(getattr(record, name)).tobytes()
                    for name in record.__dataclass_fields__)


def fo_digest() -> str:
    h = hashlib.sha1()
    for seed in FO_SEEDS:
        for loop in wl.fo_loops(seed):
            try:
                v = nsv.certify_first_order(loop.element, wl.ONE, wl.ONE, loop.plant,
                                            c_s=loop.c_s, architecture=loop.architecture,
                                            points=wl.FO_POINTS, asymptote=loop.asymptote)
            except Exception as exc:        # a refusal is part of the verdict
                h.update(f"{loop.id} {type(exc).__name__}: {exc}".encode())
                continue
            tv = v.type_verdict
            head = [loop.id, v.certified, _hex(tv.theta1), _hex(tv.theta2),
                    v.bullets, tv.diagnostics, _hex(v.k_s0), _hex(v.k_n)]
            h.update(repr(head).encode())
            h.update(_arrays(v.samples))
            h.update(_arrays(v.nsv))
    return h.hexdigest()


@functools.cache
def gsore_results() -> list:
    out = []
    for ptype, blocks in wl.gsore_fixtures().items():
        for scale in GSORE_SCALES:
            elem, c_l1, c_l2, g = wl.frequency_scaled(blocks, scale)
            problem = gsore.gsore_problem(elem, c_l1, c_l2, g, points=wl.GSORE_POINTS)
            out.append((ptype, scale, gsore.certify(problem, gsore.OptimizerSettings())))
    return out


def gsore_digest() -> str:
    h = hashlib.sha1()
    for ptype, scale, res in gsore_results():
        head = [ptype, scale, [_hex(q) for q in res.q], _hex(res.m_value),
                [_hex(p) for p in res.reconstructed], res.constraint_report,
                res.search]
        h.update(json.dumps(head, sort_keys=True).encode())
    return h.hexdigest()


def gsore_verdicts_digest() -> str:
    h = hashlib.sha1()
    for ptype, scale, res in gsore_results():
        head = [ptype, scale, res.certified, res.oracle_cross_check, res.rank_check]
        h.update(json.dumps(head).encode())
    return h.hexdigest()


def cli_digest() -> str:
    h = hashlib.sha1()
    for seed in CLI_SEEDS:
        with tempfile.TemporaryDirectory() as work:
            for name, argv in sorted(wl.cli_inputs(seed, work).items()):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                h.update(f"{seed} {name} exit {code}".encode())
                for flag in ("--out", "--nsv-out"):
                    if flag in argv:
                        path = argv[argv.index(flag) + 1]
                        if os.path.exists(path):
                            with open(path, "rb") as fh:
                                h.update(fh.read())
    return h.hexdigest()


def sim_digest() -> str:
    h = hashlib.sha1()
    traces = []
    simulate = sim.simulate

    def recorded(config):
        traces.append(simulate(config))
        return traces[-1]

    with mock.patch.object(sim, "simulate", recorded), tempfile.TemporaryDirectory() as work:
        for seed in SIM_SEEDS:
            for op in wl.setup_sim_ubibs(seed, work).ops:
                traces.clear()
                out = op.run()              # a failure is part of the verdict
                head = [seed, out["id"], out["failure"]]
                head += [[tr.steps, tr.crossings, tr.resets_fired, tr.suppressed_dwell,
                          tr.suppressed_guard, tr.suppressed_tolerance, bool(tr.diverged)]
                         for tr in traces]
                h.update(json.dumps(head).encode())
    return h.hexdigest()


def main() -> int:
    for name, fn in (("fo", fo_digest), ("gsore", gsore_digest),
                     ("gsore-verdicts", gsore_verdicts_digest), ("cli", cli_digest),
                     ("sim", sim_digest)):
        print(f"{name} {fn()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
