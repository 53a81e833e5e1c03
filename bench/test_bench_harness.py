"""Tests of the benchmark harness itself (percentiles, spans, names, tracing).

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

import json
import os
import statistics

import numpy as np
import pytest
import scipy.optimize

import layers
import run
import stats
import tracer
import workloads as wl
from resetcert import elements, gsore, lti

HERE = os.path.dirname(os.path.abspath(__file__))


# ---------------------------------------------------------------------------
# percentile rule
# ---------------------------------------------------------------------------

def test_percentile_matches_inclusive_quantiles():
    rng = np.random.default_rng(0)
    xs = list(rng.lognormal(size=137))
    cuts = statistics.quantiles(xs, n=10, method="inclusive")
    assert stats.percentile(xs, 90.0) == pytest.approx(cuts[8], rel=1e-12)
    assert stats.percentile(xs, 50.0) == pytest.approx(statistics.median(xs), rel=1e-12)
    assert stats.percentile([3.0], 90.0) == 3.0


def test_tail_needs_ten_samples_beyond():
    assert stats.samples_beyond(100, 90.0) == 10
    assert stats.tail_supported(100, 90.0)
    assert stats.tail_supported(92, 90.0) and not stats.tail_supported(91, 90.0)
    assert stats.tail_supported(902, 99.0) and not stats.tail_supported(901, 99.0)
    # the count is literal: ten samples lie strictly above the p90 value
    xs = list(range(100))
    p90 = stats.percentile(xs, 90.0)
    assert sum(x > p90 for x in xs) == 10


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

def test_self_time_on_nested_spans():
    S = tracer.Span
    spans = [S("a", 0.0, 10.0, -1),     # children b and d cover 3 + 2
             S("b", 1.0, 4.0, 0),       # child c covers 1
             S("c", 2.0, 3.0, 1),
             S("d", 5.0, 7.0, 0),
             S("a", 20.0, 21.0, -1)]
    st = tracer.self_times(spans)
    assert st == {"a": (6.0, 2), "b": (2.0, 1), "c": (1.0, 1), "d": (2.0, 1)}
    # self times partition the top-level wall time
    assert sum(s for s, _ in st.values()) == pytest.approx(11.0)


def test_tracer_records_parents():
    tr = tracer.Tracer()
    inner = tr.wrap("inner", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    names = [(s.name, s.parent) for s in tr.spans]
    assert names == [("outer", -1), ("inner", 0)]
    assert all(s.end >= s.start for s in tr.spans)


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------

def test_metric_name_pattern():
    for good in ("op_s.p50", "gsore.objective.ms_per_call", "sim.step_us.reset-free"):
        assert stats.valid_metric_name(good)
    for bad in ("op s", "lat/ms", "", ".hidden", "x" * 65, "ops/s"):
        assert not stats.valid_metric_name(bad)


def test_every_reported_name_is_valid_and_declared():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert e2e == set(run.E2E_UNITS)
    produced = set(layers.layer_metrics([[]], {}, 1))
    produced |= {"trace.overhead_fraction", "lti.assemble_closed_loop.setup_s",
                 "cli.import_s", "cli.import.scipy_s"}
    produced |= {f"cli.{c}.s" for c in layers.CLI_COMMANDS}
    assert produced == per_layer
    for name in e2e | per_layer:
        assert stats.valid_metric_name(name), name
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)


# ---------------------------------------------------------------------------
# traced run: same outcomes, wrappers removed
# ---------------------------------------------------------------------------

def _small_plan():
    loops = wl.fo_loops(3, repeats=1)[:8]
    ops = [wl.make_op(lp.id, wl.fo_op, lp) for lp in loops]
    elem, g = wl.criterion10_fixtures(1)[0]
    cl = lti.assemble_closed_loop(elements.realization(elem), elem.a_rho,
                                  wl.ONE, wl.ONE, g, wl.ONE)
    sine = {"kind": "sinusoid", "amplitude": 1.0, "phase": 0.3}
    ops.append(wl.make_op("sim", wl.sim_op, cl, sine))
    return wl.Plan(ops)


def test_traced_outcomes_equal_untraced_and_wrappers_removed():
    plan = _small_plan()
    untraced, _, passes = run.run_passes(plan, 0.0, passes=1)
    tr = tracer.Tracer()
    installed = tracer.install(tr, layers.targets(tr))
    assert tracer.leftover_wrappers()             # the wrappers are really in place
    try:
        traced, _, _ = run.run_passes(plan, 0.0, passes=passes, tracer=tr)
    finally:
        installed.uninstall()
    assert tracer.leftover_wrappers() == []
    assert gsore.differential_evolution is scipy.optimize.differential_evolution
    reference = {op_id: out for _, op_id, _, out in untraced}
    assert run.consistency_failures(traced, reference) == []
    assert all(out["failure"] is None for *_, out in traced)
    names = {s.name for s in tr.spans}
    assert {"op", "nsv.certify_first_order", "nsv.compute_nsv", "frf.compose_loop",
            "lti.evaluate", "hbeta.search_candidate_scalar", "sim.simulate"} <= names
    m = layers.layer_metrics([tr.spans], tr.notes, len(traced))
    assert m["nsv.grid_points"] > 0 and m["sim.steps"] > 0
    assert m["op.other_s"] >= 0.0


def test_outcome_change_is_reported():
    recs = [(0, "x", 0.1, {"id": "x", "certified": True, "failure": None}),
            (1, "x", 0.1, {"id": "x", "certified": False, "failure": None})]
    assert run.consistency_failures(recs) == ["x"]


def test_de_objective_is_traced():
    elem, l1, l2, g = wl.gsore_fixtures()["V"]
    prob = gsore.gsore_problem(elem, l1, l2, g, points=64)
    tr = tracer.Tracer()
    installed = tracer.install(tr, layers.targets(tr))
    try:
        gsore.certify(prob, gsore.OptimizerSettings(population=20, generations=4,
                                                    restarts=1, seed=0))
    finally:
        installed.uninstall()
    assert tracer.leftover_wrappers() == []
    m = layers.layer_metrics([tr.spans], tr.notes, 1)
    assert m["gsore.de.restarts"] == 1
    assert 1 <= m["gsore.de.generations"] <= 4
    assert m["gsore.objective.calls"] >= 2
    assert m["gsore.objective.ms_per_call"] > 0.0
    assert m["gsore.m_value.type5"] != 0.0
