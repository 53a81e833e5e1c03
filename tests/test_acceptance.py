"""Acceptance suite: one criterion per test, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from resetcert.cli import cglp_pid_blocks
from resetcert.elements import base_tf, clegg, gfore, gsore, pci, realization
from resetcert.frf import LoopSamples
from resetcert.gsore import OptimizerSettings, certify, gamma_factor, gsore_problem, ratio_window
from resetcert.hbeta import (
    HbetaCandidate,
    build_h_scalar,
    search_candidate_scalar,
    spr_check_matrix,
    spr_check_scalar,
)
from resetcert.lti import assemble_closed_loop, evaluate, high_frequency_re_limit, series, tf
from resetcert.nsv import (
    Nsv,
    certify_first_order,
    classify,
    compute_nsv,
    map_angle,
    nsv_grid_samples,
)
from resetcert.sim import SimConfig, simulate, simulate_linear, sinusoid_input, step_input

from test_nsv import condition_list

ONE = tf([1.0])


def report(n, detail, t0):
    print(f"\nACCEPTANCE {n}: PASS ({time.time() - t0:.2f}s) {detail}")


# ---------------------------------------------------------------------------
# shared fixtures: the certified populations reused by criterion 10
# ---------------------------------------------------------------------------

def _random_first_order_loop(rng):
    kind = rng.choice(["GFORE", "PCI"])
    wr = 10.0 ** rng.uniform(-0.5, 0.5)
    gamma = float(rng.uniform(-0.8, 0.8))
    elem = gfore(wr, gamma) if kind == "GFORE" else pci(wr, gamma)
    order = int(rng.integers(1, 4))
    den = [1.0]
    for p in 10.0 ** rng.uniform(-0.7, 0.7, order):
        den = np.convolve(den, [1.0, 1.0 / p])
    g = tf([10.0 ** rng.uniform(-0.7, 0.4)], den)
    return elem, g


@pytest.fixture(scope="module")
def certified_first_order():
    from resetcert.errors import SparseGrid
    rng = np.random.default_rng(2024)
    loops = []
    tried = 0
    while len(loops) < 50 and tried < 600:
        tried += 1
        elem, g = _random_first_order_loop(rng)
        try:
            verdict = certify_first_order(elem, ONE, ONE, g, points=700)
        except SparseGrid:
            continue
        if verdict.certified:
            loops.append((elem, g))
    assert len(loops) == 50, f"generator produced only {len(loops)} certified loops"
    return loops


def _gsore_fixture():
    wc, wd, wr, wp = 10.0, 36.0, 40.0, 200.0
    g = tf([1.0], np.convolve([0.0, 0.0, 1.0],
                              np.convolve([1.0, 1 / wp], [1.0, 1 / wp])))
    elem = gsore(wr, 1.0, 0.5, 0.5)
    probe = series(base_tf(elem), series(cglp_pid_blocks(1.0, wc, wd, 1.0), g))
    k_p = 1.0 / abs(evaluate(probe, wc))
    return elem, cglp_pid_blocks(k_p, wc, wd, 1.0), g


@pytest.fixture(scope="module")
def certified_gsore():
    elem, lin, g = _gsore_fixture()
    problem = gsore_problem(elem, ONE, lin, g, points=500)
    results = []
    for seed in range(10):
        res = certify(problem, OptimizerSettings(population=100, generations=200,
                                                 restarts=3, seed=seed))
        results.append(res)
    return elem, lin, g, problem, results


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_nsv_identity():
    t0 = time.time()
    rng = np.random.default_rng(1)
    vals = rng.normal(scale=3.0, size=1000) + 1j * rng.normal(scale=3.0, size=1000)
    s = LoopSamples(np.linspace(1.0, 2.0, 1000), vals,
                    np.ones(1000, complex), np.ones(1000, complex))
    out = compute_nsv(s)
    a, b = vals.real, vals.imag
    expect = a**2 + b**2 + a
    got = out.n_chi
    worst = np.max(np.abs(got - expect) / np.maximum(np.abs(expect), 1.0))
    assert worst <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"N_chi identity worst rel err {worst:.2e} on 1000 samples", t0)


def test_criterion_02_window_list_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2)
    agree = 0
    for _ in range(200):
        n = int(rng.integers(3, 60))
        chi = rng.normal(size=n)
        ups = rng.normal(size=n)
        theta = map_angle(np.arctan2(ups, chi))
        v = classify(Nsv(np.arange(1.0, n + 1.0), chi, ups, theta), check_density=False)
        agree += int(v.is_type1 == condition_list(1, chi, ups, theta)
                     and v.is_type2 == condition_list(2, chi, ups, theta))
    assert agree == 200
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(2, "angle-window and condition-list verdicts agree on 200/200 sets", t0)


def test_criterion_03_oracle_soundness(certified_first_order):
    t0 = time.time()
    passed = 0
    for elem, g in certified_first_order:
        samples, _ = nsv_grid_samples(g, ONE, ONE, ONE, elem, points=700)
        cand = search_candidate_scalar(samples, elem, ONE, g)
        assert cand is not None
        rep = spr_check_scalar(cand, samples, elem, ONE, g)
        assert rep.passed
        assert {c.id: c.status for c in rep.conditions} == {
            "rho-positive": "pass", "grid-positivity": "pass",
            "zero-frequency-limit": "pass", "high-frequency-limit": "pass"}
        passed += 1
    assert passed == 50

    # CI negative controls: the w-limit checks fail exactly as required
    g_origin = tf([1.0], [0.0, 1.0, 1.0])
    h = build_h_scalar(g_origin, clegg(), ONE, -1.0, 1.0)
    from resetcert.lti import dc_limit
    assert dc_limit(h) < 0.0                   # K_s0 * beta' with beta' < 0
    samples, _ = nsv_grid_samples(g_origin, ONE, ONE, ONE, clegg(), points=700)
    assert search_candidate_scalar(samples, clegg(), ONE, g_origin) is None

    g3 = tf([1.0], np.convolve([1.0, 1.0], [1.0, 0.5]))
    h3 = build_h_scalar(g3, clegg(), ONE, 0.4, 1.2)
    kind, val = high_frequency_re_limit(h3)
    assert kind == "scaled" and val == 0.0     # exactly zero for n-m > 2
    samples3, _ = nsv_grid_samples(g3, ONE, ONE, ONE, clegg(), points=700)
    assert search_candidate_scalar(samples3, clegg(), ONE, g3) is None

    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(3, "50/50 certified loops admit passing candidates; CI controls fail", t0)


def test_criterion_04_gamma_properties():
    t0 = time.time()
    for g in np.linspace(-0.95, 0.95, 41):
        assert abs(gamma_factor(g, g) - 1.0) <= 1e-12
    grid = np.linspace(-0.99, 0.99, 99)
    vals = np.array([[gamma_factor(a, b) for b in grid] for a in grid])
    assert np.all(vals >= 1.0 - 1e-12)
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    assert i == j
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(4, "gamma factor >= 1 on the 99x99 grid, minimum on the diagonal", t0)


def test_criterion_05_magnitude_interval_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(5)
    q1s = np.logspace(-2, 2, 200)
    q2s = np.concatenate([-np.logspace(-2, 2, 100)[::-1], np.logspace(-2, 2, 100)])
    for _ in range(20):
        n = int(rng.integers(5, 60))
        F1, F2, F3 = rng.normal(size=(3, n))
        sub1 = q1s[::10]
        sub2 = q2s[::10]
        mismatches = 0
        for q1 in sub1:
            for q2 in sub2:
                brute = bool(np.all(q1 * F1 + q2 * F2 > F3))
                kept, e1, e2 = ratio_window(F1, F2, F3, [q2 / q1])
                interval = bool(kept.size and e1[0] < np.hypot(q1, q2) < e2[0])
                mismatches += int(brute != interval)
        assert mismatches == 0
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(5, "interval test matches brute-force feasibility on 20/20 instances", t0)


def test_criterion_06_gsore_self_consistency(certified_gsore):
    t0 = time.time()
    elem, lin, g, problem, results = certified_gsore
    inconsistent = 0
    certified = 0
    for res in results:
        if not res.certified:
            continue
        certified += 1
        b1, b2, r1, r2, r3 = res.reconstructed
        cand = HbetaCandidate(np.array([b1, b2]), np.array([[r1, r2], [r2, r3]]))
        pos = problem.samples.omega > 0
        sub = LoopSamples(problem.samples.omega[pos], problem.samples.loop[pos],
                          problem.samples.shaping[pos], problem.samples.reset_base[pos])
        rep = spr_check_matrix(cand, sub, elem, k_s0=problem.k_s0, k_n=problem.k_n,
                               origin_pole=problem.origin_pole,
                               n_minus_m=problem.n_minus_m)
        statuses = {c.id: c.status for c in rep.conditions}
        required = {"grid-diagonal-positivity", "grid-determinant-positivity",
                    "high-frequency-limit-matrix", "jump-map-strict-inequality"}
        ok = (rep.passed and set(statuses.values()) == {"pass"} and required <= set(statuses)
              and ("zero-frequency-limit-matrix" in statuses) == problem.origin_pole)
        inconsistent += int(not ok)
    assert inconsistent == 0
    assert certified >= 1          # the synthetic fixture is feasible
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(6, f"{certified}/10 seeds certified, zero inconsistent certificates", t0)


def test_criterion_07_simulator_oracle():
    t0 = time.time()
    cl = assemble_closed_loop(realization(clegg(0.0)), [[0.0]], ONE, ONE,
                              tf([0.0]), ONE)
    cfg = SimConfig(cl, dt=1e-3, t_end=6 * np.pi, input=sinusoid_input(1.0, 1.0))
    tr = simulate(cfg)
    k = np.floor(tr.times / np.pi + 1e-12)
    exact = (-1.0) ** k - np.cos(tr.times)
    assert np.max(np.abs(tr.states[:, 0] - exact)) <= 1e-6
    assert abs(np.max(np.abs(tr.states)) - 2.0) <= 1e-6
    gaps = np.diff(tr.reset_instants)
    assert np.all(gaps >= cfg.lam - 1e-12)

    g = tf([1.0], [1.0, 1.0])
    cl_id = assemble_closed_loop(realization(gfore(1.0, 1.0)), [[1.0]], ONE, ONE, g, ONE)
    cfg_id = SimConfig(cl_id, dt=0.01, t_end=25.0, input=sinusoid_input(1.0, 1.0))
    assert np.max(np.abs(simulate(cfg_id).states
                         - simulate_linear(cfg_id).states)) <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(7, "per-interval closed form, peak, dwell and identity-reset checks", t0)


def test_criterion_08_realization_equivalence():
    t0 = time.time()
    g = tf([1.0], [1.0, 1.0])
    forms = {}
    for form in ("controllable", "observable"):
        forms[form] = realization(gsore(1.0, 1.0, realization_form=form))
    for a_rho, bound, cmp_ in ((0.3 * np.eye(2), 1e-6, "le"),
                               (np.diag([0.5, 1.0]), 1e-3, "gt")):
        devs = []
        for form, r in forms.items():
            cl = assemble_closed_loop(r, a_rho, ONE, ONE, g, ONE)
            cfg = SimConfig(cl, dt=0.0025, t_end=50.0, input=sinusoid_input(1.0, 1.0))
            devs.append(simulate(cfg).outputs)
        dev = float(np.max(np.abs(devs[0] - devs[1])))
        if cmp_ == "le":
            assert dev <= bound
        else:
            assert dev > bound
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(8, "uniform reset agrees to 1e-6; partial reset deviates above 1e-3", t0)


def test_criterion_09_redistribution_invariance():
    t0 = time.time()
    from resetcert.nsv import asymptotic_angles
    g = tf([1.0], [1.0, 2.0, 1.0])
    lead = tf([1.0, 0.5], [1.0, 0.25])
    elem = gfore(1.0, 0.2)
    variants = [
        (lead, ONE, g),
        (0.5 * lead, ONE, 2.0 * g),            # power-of-two gain moves keep
        (2.0 * lead, 0.25 * ONE, 2.0 * g),     # every float bit-identical
        (0.25 * lead, 2.0 * ONE, 2.0 * g),
    ]
    verdicts = []
    for c1, c2, gg in variants:
        _, nsv = nsv_grid_samples(gg, c1, c2, ONE, elem, points=400)
        loop = series(series(c1, base_tf(elem)), series(c2, gg))
        verdicts.append(classify(nsv, extra_thetas=asymptotic_angles(
            loop, ONE, base_tf(elem))))
    v0 = verdicts[0]
    for v in verdicts[1:]:
        assert (v.is_type1, v.is_type2) == (v0.is_type1, v0.is_type2)
        assert v.theta1 == v0.theta1 and v.theta2 == v0.theta2
    report(9, "verdicts bit-identical across three loop-gain redistributions", t0)


def test_criterion_10_ubibs_empirical(certified_first_order, certified_gsore):
    t0 = time.time()
    systems = []
    for elem, g in certified_first_order:
        systems.append(assemble_closed_loop(realization(elem), elem.a_rho,
                                            ONE, ONE, g, ONE))
    elem, lin, g, _, results = certified_gsore
    if any(r.certified for r in results):
        systems.append(assemble_closed_loop(realization(elem), elem.a_rho,
                                            ONE, lin, g, ONE))
    checked = 0
    for cl in systems:
        eig = np.linalg.eigvals(cl.a_bar)
        rates = np.abs(eig.real)
        tau = 1.0 / rates[rates > 1e-9].min()
        t_end = 200.0 * tau
        dt = min(tau / 50.0, 0.5 / np.max(np.abs(eig)))
        for signal in (step_input(1.0), sinusoid_input(1.0, 1.0 / tau)):
            tr = simulate(SimConfig(cl, dt=dt, t_end=t_end, input=signal))
            assert not tr.diverged
            assert np.isfinite(tr.max_state_norm)
        checked += 1
    assert checked == len(systems)
    report(10, f"{checked} certified systems bounded over 200 time constants", t0)
