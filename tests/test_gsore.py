import numpy as np
import pytest

from resetcert.cli import cglp_pid_blocks
from resetcert.elements import base_tf, gsore
from resetcert.errors import DomainError
from resetcert.frf import FrfTable, LoopSamples
from resetcert.gsore import (
    M_BOUND,
    SEARCH_POINTS,
    STALL_DROP,
    STALL_GENERATIONS,
    CertificateResult,
    OptimizerSettings,
    _search_set,
    _stalled,
    _verify_candidate,
    certify,
    f1,
    f2,
    gamma_factor,
    gsore_problem,
    prop1_bounds,
    rank_condition,
)
from resetcert.lti import evaluate, series, tf
from resetcert.nsv import certify_first_order

rng = np.random.default_rng(5)
ONE = tf([1.0])
FAST = OptimizerSettings(population=120, generations=300, restarts=4, seed=42)


def single_sample(lval, w=1.0, cs=1.0 + 0j, cr=1.0 + 0j):
    return LoopSamples(np.array([w]), np.array([lval], complex),
                       np.array([cs], complex), np.array([cr], complex))


def mass_fixture(gamma1=0.5, gamma2=0.5):
    """4th-order double-integrator plant under the CgLp+PID compensator."""
    wc, wd, wr, wp = 10.0, 36.0, 40.0, 200.0
    g = tf([1.0], np.convolve([0.0, 0.0, 1.0], np.convolve([1.0, 1 / wp], [1.0, 1 / wp])))
    elem = gsore(wr, 1.0, gamma1, gamma2)
    probe = series(base_tf(elem), series(cglp_pid_blocks(1.0, wc, wd, 1.0), g))
    k_p = 1.0 / abs(evaluate(probe, wc))
    return elem, cglp_pid_blocks(k_p, wc, wd, 1.0), g


class TestQuadraticForms:
    def test_linearity_zero(self):
        s = single_sample(0.5 - 0.5j)
        assert f1(0, 0, 0, s, 1.0, 1.0)[0] == 0.0
        assert f2(0, 0, 0, s, 1.0, 1.0)[0] == 0.0

    def test_f1_third_slot_is_nchi(self):
        # unit shaping: the X3 coefficient equals a^2 + b^2 + a
        s = single_sample(0.5 - 0.5j)
        assert f1(0, 0, 1, s, 1.0, 1.0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_f1_first_slot_complex_oracle(self):
        wr, xi = 1.0, 1.0
        elem = gsore(wr, xi)
        cr = evaluate(base_tf(elem), 1.0)
        lval = cr
        s = single_sample(lval, w=1.0, cr=cr)
        kappa = 1 + np.conj(lval)
        assert f1(1, 0, 0, s, wr, xi)[0] == pytest.approx((cr * kappa * 1j).real, abs=1e-12)

    def test_f2_terms_complex_oracle(self):
        wr, xi = 2.0, 0.7
        w = 1.3
        lval, cs, cr = 0.4 - 0.2j, 0.9 + 0.1j, 0.3 - 0.6j
        s = single_sample(lval, w=w, cs=cs, cr=cr)
        kappa = 1 + np.conj(lval)
        lead = 1j * w + 2 * xi * wr
        assert f2(1, 0, 0, s, wr, xi)[0] == pytest.approx((cr * kappa * lead).real, abs=1e-12)
        assert f2(0, 0, 1, s, wr, xi)[0] == pytest.approx(
            (lval * kappa * cs * lead).real, abs=1e-12)
        expect = (cr * kappa * (2j * xi * wr * w - w**2)).real - abs(kappa) ** 2
        assert f2(0, 1, 0, s, wr, xi)[0] == pytest.approx(expect, abs=1e-12)


class TestGammaFactor:
    def test_equal_gammas_give_one(self):
        assert gamma_factor(0.5, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert gamma_factor(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_sign_value(self):
        assert gamma_factor(0.5, -0.5) == pytest.approx(2.7778, abs=5e-5)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gamma_factor(1.0, 0.5)

    def test_grid_lower_bound(self):
        g = np.linspace(-0.99, 0.99, 99)
        vals = np.array([[gamma_factor(a, b) for b in g] for a in g])
        assert np.all(vals >= 1.0 - 1e-12)
        # the minimum sits on the diagonal, and only there
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        assert i == j
        off = ~np.eye(99, dtype=bool)
        assert np.all(vals[off] > 1.0 + 1e-12)
        assert np.all(np.abs(np.diag(vals) - 1.0) <= 1e-12)


class TestMagnitudeInterval:
    def test_negative_f3_unbounded_above(self):
        F1 = np.ones(10)
        F2 = np.zeros(10)
        F3 = -np.ones(10)
        e1, e2, ok = prop1_bounds(F1, F2, F3, ratio=0.5)
        assert ok and e2 == np.inf and e1 == -np.inf

    def test_positive_f3_finite_lower(self):
        F1 = np.ones(4)
        F2 = np.full(4, 0.2)
        F3 = np.array([1.0, 2.0, 0.5, 1.5])
        e1, e2, ok = prop1_bounds(F1, F2, F3, ratio=1.0)
        assert ok and np.isfinite(e1) and e2 == np.inf

    def test_brute_force_agreement(self):
        q1s = np.logspace(-2, 2, 60)
        q2s = np.concatenate([-np.logspace(-2, 2, 30)[::-1], np.logspace(-2, 2, 30)])
        for _ in range(20):
            n = int(rng.integers(5, 50))
            F1 = rng.normal(size=n)
            F2 = rng.normal(size=n)
            F3 = rng.normal(size=n)
            mism = 0
            for q1 in q1s[::6]:
                for q2 in q2s[::6]:
                    brute = bool(np.all(q1 * F1 + q2 * F2 > F3))
                    e1, e2, ok = prop1_bounds(F1, F2, F3, q2 / q1)
                    mag = np.hypot(q1, q2)
                    interval = bool(ok and e1 < mag < e2)
                    mism += int(brute != interval)
            assert mism == 0


class TestCertify:
    def test_type3_mass_fixture(self):
        elem, lin, g = mass_fixture()
        prob = gsore_problem(elem, ONE, lin, g, points=600)
        assert prob.problem_type == "III" and prob.origin_pole
        res = certify(prob, FAST)
        assert res.certified
        assert res.m_value < 4.0 - 1e-6
        assert res.oracle_cross_check == "pass"
        assert res.rank_check == "pass"
        b1, b2, r1, r2, r3 = res.reconstructed
        assert r1 > 0 and r3 > 0 and r1 * r3 > r2**2

    def test_determinism_per_seed(self):
        elem, lin, g = mass_fixture()
        prob = gsore_problem(elem, ONE, lin, g, points=400)
        a = certify(prob, OptimizerSettings(population=80, generations=150, restarts=2, seed=9))
        b = certify(prob, OptimizerSettings(population=80, generations=150, restarts=2, seed=9))
        assert a.q == b.q and a.m_value == b.m_value
        c = certify(prob, OptimizerSettings(population=80, generations=150, restarts=2, seed=10))
        assert c.certified == a.certified

    def test_type4_fixture(self):
        elem = gsore(2.0, 1.0, 0.3, 0.5)
        g = tf([1.0], np.convolve([1.0, 1.0], [1.0, 0.5]))
        prob = gsore_problem(elem, ONE, ONE, g, points=400)
        assert prob.problem_type == "IV" and prob.n_minus_m == 4
        res = certify(prob, FAST)
        assert res.certified and res.oracle_cross_check == "pass"

    def test_type5_fixture(self):
        elem = gsore(2.0, 1.0, 0.4, 0.4)
        g = tf([0.8], [1.0, 1.0])
        prob = gsore_problem(elem, ONE, ONE, g, points=400)
        assert prob.problem_type == "V" and prob.n_minus_m == 3
        res = certify(prob, FAST)
        assert res.certified and res.oracle_cross_check == "pass"

    def test_oracle_rejection_refuses_certificate(self, monkeypatch):
        # a candidate the independent SPR oracle rejects is never certified
        import resetcert.gsore as gsore_module
        from resetcert.hbeta import MatrixSprReport

        elem = gsore(2.0, 1.0, 0.4, 0.4)
        prob = gsore_problem(elem, ONE, ONE, tf([0.8], [1.0, 1.0]), points=400)
        assert certify(prob, FAST).certified
        monkeypatch.setattr(gsore_module, "spr_check_matrix",
                            lambda *args, **kwargs: MatrixSprReport(
                                False, False, 1.0, -1.0, None, None, True))
        res = certify(prob, FAST)
        assert res.oracle_cross_check == "fail" and not res.certified

    def test_gamma_out_of_range(self):
        elem, lin, g = mass_fixture(gamma1=1.2)
        with pytest.raises(DomainError):
            gsore_problem(elem, ONE, lin, g, points=200)

    def test_certificate_transfers_to_equal_factors(self):
        # a certificate found for (g1, g2) also clears the jump-map bound for
        # any equal pair, whose factor is the minimum value 1
        elem, lin, g = mass_fixture(0.5, 0.5)
        prob = gsore_problem(elem, ONE, lin, g, points=400)
        res = certify(prob, FAST)
        assert res.certified
        _, _, r1, r2, r3 = res.reconstructed
        for gam in (-0.9, 0.0, 0.7):
            assert r1 * r3 > gamma_factor(gam, gam) * r2**2


class TestEarlyStop:
    def test_stall_predicate(self):
        n = STALL_GENERATIONS
        flat = [1.0] * (n + 1)
        assert _stalled(flat)
        assert not _stalled(flat[:-1])                       # too few generations
        assert _stalled([M_BOUND / 2] * (n + 1))
        assert not _stalled([M_BOUND / 2 + 1e-9] * (n + 1))  # not well below 4
        assert not _stalled([3.0] * 200)
        assert not _stalled([1e9 + 5.0] * 200)               # penalized: infeasible
        falling = [1.0 + 2 * STALL_DROP] + [1.0] * n         # dropped over the window
        assert not _stalled(falling)
        assert _stalled(falling + [1.0])
        # a long-stalled infeasible prefix does not count once feasible
        assert not _stalled([1e9] * 100 + [0.5] * n)
        assert _stalled([1e9] * 100 + [0.5] * (n + 1))

    def test_type4_certificate_holds_on_dense_grid(self):
        # the bench Type IV fixture: the full-length search drove m towards
        # 0 and left the candidate on the boundary of the feasible set
        elem = gsore(2.0, 1.0, 0.3, 0.5)
        g = tf([1.0], np.convolve([1.0, 1.0], [1.0, 0.5]))
        res = certify(gsore_problem(elem, ONE, ONE, g, points=400), OptimizerSettings())
        assert res.certified and res.oracle_cross_check == "pass"
        dense = gsore_problem(elem, ONE, ONE, g, points=40000)
        assert _verify_candidate(dense, res.reconstructed, {}, 0).certified

    def test_acceptance_fixture_stops_on_stall(self):
        elem, lin, g = mass_fixture()
        res = certify(gsore_problem(elem, ONE, lin, g, points=400), OptimizerSettings())
        assert res.certified
        assert len(res.search) == 1
        first = res.search[0]
        assert set(first) == {"seed", "generations", "best", "stop", "points"}
        assert first["seed"] == 0
        assert first["stop"] == "stalled" and first["generations"] < 150
        assert first["best"] <= M_BOUND / 2

    def test_generation_cap_is_reported(self):
        elem = gsore(2.0, 1.0, 0.4, 0.4)
        prob = gsore_problem(elem, ONE, ONE, tf([0.8], [1.0, 1.0]), points=400)
        res = certify(prob, OptimizerSettings(population=20, generations=5, restarts=2,
                                              seed=3))
        # five generations find no feasible point, so both restarts run out
        assert [(s["seed"], s["generations"], s["stop"]) for s in res.search] == [
            (3, 5, "maxiter"), (1012, 5, "maxiter")]
        assert all(s["best"] >= 1e9 for s in res.search)
        assert not res.certified


class TestOptimizerSettings:
    @pytest.mark.parametrize("kwargs", [
        {"restarts": 0}, {"generations": 0}, {"seed": -1}, {"seed": 2**32},
        {"restarts": 2, "seed": 2**32 - 1009},
    ])
    def test_invalid_settings_raise(self, kwargs):
        with pytest.raises(DomainError):
            OptimizerSettings(**kwargs)

    def test_largest_seed_runs(self):
        # restart k seeds the DE with seed + 1009 k; the last must fit 32 bits
        settings = OptimizerSettings(population=20, generations=2, restarts=2,
                                     seed=2**32 - 1 - 1009)
        elem = gsore(2.0, 1.0, 0.4, 0.4)
        prob = gsore_problem(elem, ONE, ONE, tf([0.8], [1.0, 1.0]), points=400)
        res = certify(prob, settings)
        assert [s["seed"] for s in res.search] == [2**32 - 1 - 1009, 2**32 - 1]


class TestRandomizedConsistency:
    def test_certified_random_loops_never_contradict_oracle(self):
        # random mixed-type loops: whenever the search certifies, the
        # independent oracle must agree
        from resetcert.lti import base_linear_stability
        from resetcert.errors import GridTooSparse
        rng2 = np.random.default_rng(77)
        fast = OptimizerSettings(population=80, generations=150, restarts=2, seed=3)
        checked = 0
        tried = 0
        while checked < 8 and tried < 40:
            tried += 1
            wr = 10.0 ** rng2.uniform(-0.3, 1.0)
            elem = gsore(wr, rng2.uniform(0.6, 1.6),
                         rng2.uniform(-0.7, 0.7), rng2.uniform(-0.7, 0.7))
            order = int(rng2.integers(1, 4))
            den = [1.0]
            for pole in 10.0 ** rng2.uniform(-0.5, 1.0, order):
                den = np.convolve(den, [1.0, 1.0 / pole])
            if rng2.integers(0, 2):
                den = np.convolve(den, [0.0, 1.0])       # integrator loop
            g = tf([10.0 ** rng2.uniform(-1.0, 0.3) * wr**2], den)
            loop = series(base_tf(elem), g)
            if not base_linear_stability(loop).stable:
                continue
            try:
                prob = gsore_problem(elem, ONE, ONE, g, points=300)
                res = certify(prob, fast)
            except GridTooSparse:
                continue
            if res.certified:
                assert res.oracle_cross_check == "pass"
                checked += 1
        assert checked == 8


class TestScaleInvariance:
    def test_certification_invariant_under_frequency_scaling(self):
        # the same loop stretched in frequency is an equivalent problem; the
        # certified bit and the sup ratio must not depend on the bandwidth
        results = {}
        for scale in (1.0, 20.0 * np.pi):
            wc, wd, wr, wp = 10.0 * scale, 36.0 * scale, 40.0 * scale, 200.0 * scale
            g = tf([1.0], np.convolve([0.0, 0.0, 1.0],
                                      np.convolve([1.0, 1 / wp], [1.0, 1 / wp])))
            elem = gsore(wr, 1.0, 0.5, 0.5)
            probe = series(base_tf(elem),
                           series(cglp_pid_blocks(1.0, wc, wd, 1.0), g))
            k_p = 1.0 / abs(evaluate(probe, wc))
            prob = gsore_problem(elem, ONE, cglp_pid_blocks(k_p, wc, wd, 1.0), g,
                                 points=500)
            results[scale] = certify(prob, FAST)
        a, b = results[1.0], results[20.0 * np.pi]
        assert a.certified and b.certified
        assert a.oracle_cross_check == b.oracle_cross_check == "pass"
        # the searches travel equivalent landscapes up to last-bit grid noise
        assert b.m_value == pytest.approx(a.m_value, rel=0.05)
        # the decision ratios map through the frequency scaling
        alpha = 20.0 * np.pi
        expect = (a.q[0] * alpha, a.q[1] * alpha**2, a.q[2] * alpha**2, a.q[3] * alpha)
        for got, want in zip(b.q, expect):
            assert got == pytest.approx(want, rel=0.2)


def scaled_acceptance_problem(scale, points=500):
    """The TestScaleInvariance loop stretched in frequency by ``scale``."""
    wc, wd, wr, wp = 10.0 * scale, 36.0 * scale, 40.0 * scale, 200.0 * scale
    g = tf([1.0], np.convolve([0.0, 0.0, 1.0], np.convolve([1.0, 1 / wp], [1.0, 1 / wp])))
    elem = gsore(wr, 1.0, 0.5, 0.5)
    probe = series(base_tf(elem), series(cglp_pid_blocks(1.0, wc, wd, 1.0), g))
    k_p = 1.0 / abs(evaluate(probe, wc))
    return gsore_problem(elem, ONE, cglp_pid_blocks(k_p, wc, wd, 1.0), g, points=points)


class TestScaleFreeMargins:
    def test_certified_at_scale_100(self):
        # d1 and d2 carry different units: a margin relative to |d1| + |d2|
        # refused this loop at scale 100 (min d1/(|d1| + |d2|) = 5.8e-10
        # against 5.8e-6 at scale 1)
        res = certify(scaled_acceptance_problem(100.0), FAST)
        assert res.certified
        assert res.oracle_cross_check == "pass" and res.rank_check == "pass"

    def test_mapped_certificate_passes_at_every_scale(self):
        # a certificate of the scale-1 loop, mapped through the frequency
        # scaling, certifies the scaled loop and passes the matrix oracle
        base = certify(scaled_acceptance_problem(1.0), FAST)
        assert base.certified
        b1, b2, r1, r2, r3 = base.reconstructed
        for a in (0.01, 20.0 * np.pi, 100.0):
            mapped = (b1, a * b2, a * r1, a**2 * r2, a**3 * r3)
            res = _verify_candidate(scaled_acceptance_problem(a), mapped, {}, 0)
            assert res.certified and res.oracle_cross_check == "pass", a


def notched_demo_problem(zeta, omega_z, ratio, points=2000):
    """Demo 02's loop with its plant times the lightly damped pair
    M(s) = (1 + 2 zeta s/wz + s^2/wz^2) / (1 + 2 zeta s/wp + s^2/wp^2),
    wp = ratio * wz."""
    elem, lin, g = mass_fixture()
    wp = ratio * omega_z
    notch = tf([1.0, 2 * zeta / omega_z, 1 / omega_z**2], [1.0, 2 * zeta / wp, 1 / wp**2])
    return gsore_problem(elem, ONE, lin, series(g, notch), points=points)


class TestExchange:
    SETTINGS = OptimizerSettings(population=80, generations=150, restarts=2, seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exchange_round_fires(self):
        # the 121-sample working set misses the notch: the first candidate's
        # sup ratio is unbounded next to it on the full grid, so the restart
        # reruns on all of it; the unbounded ratio ends the off-grid
        # refinement before it reaches the optimizer's arithmetic
        prob = notched_demo_problem(1e-3, 25.0, 0.98, points=600)
        n = prob.samples.omega.size
        res = certify(prob, self.SETTINGS)
        assert _search_set(n).size <= SEARCH_POINTS
        assert any(s["points"] == n for s in res.search)
        assert res.certified and res.oracle_cross_check == "pass"

    def test_stall_premise_is_rechecked(self, monkeypatch):
        import resetcert.gsore as gsore_module

        # on the working set this restart stalls at m < 1 while the same
        # candidate reads m > 2 on the full grid; the stall stop presumes
        # m <= 2, so the restart reruns on the full grid, and the certificate
        # is no worse than the stalled candidate
        checks = []
        check = gsore_module._grid_check
        monkeypatch.setattr(gsore_module, "_grid_check",
                            lambda *args: checks.append(check(*args)) or checks[-1])
        prob = notched_demo_problem(5e-3, 3.0, 1.05, points=600)
        res = certify(prob, self.SETTINGS)
        stalled_m = checks[0][2]
        assert M_BOUND / 2 < stalled_m < M_BOUND
        assert res.certified and res.oracle_cross_check == "pass"
        assert [s["stop"] for s in res.search] == ["stalled"]
        assert res.search[0]["points"] == prob.samples.omega.size
        assert res.m_value <= min(stalled_m, M_BOUND / 2)

    def test_small_grid_keeps_full_search(self, monkeypatch):
        import resetcert.gsore as gsore_module

        for n in (1, 2, 50, SEARCH_POINTS):
            assert np.array_equal(_search_set(n), np.arange(n))
        wide = _search_set(2001)
        assert wide.size <= SEARCH_POINTS and wide[0] == 0 and wide[-1] == 2000
        # a grid of at most SEARCH_POINTS samples is searched whole, and the
        # full-grid check runs only once, in the verifier
        calls = []
        check = gsore_module._grid_check
        monkeypatch.setattr(gsore_module, "_grid_check",
                            lambda *args: calls.append(1) or check(*args))
        elem = gsore(2.0, 1.0, 0.4, 0.4)
        prob = gsore_problem(elem, ONE, ONE, tf([0.8], [1.0, 1.0]), points=100)
        n = prob.samples.omega.size
        assert n <= SEARCH_POINTS
        res = certify(prob, FAST)
        assert res.certified
        assert [s["points"] for s in res.search] == [n] * len(res.search)
        assert len(calls) == 1


class TestCertifyFromMeasuredPlant:
    def test_frf_plant_matches_rational_verdict(self):
        # the certification path needs nothing but samples: feeding the same
        # loop as a measured table (plus declared loop constants) reproduces
        # the rational-plant verdict
        elem = gsore(2.0, 1.0, 0.3, 0.5)
        g = tf([1.0], np.convolve([1.0, 1.0], [1.0, 0.5]))
        rational = gsore_problem(elem, ONE, ONE, g, points=400)
        res_rat = certify(rational, FAST)

        freqs = np.logspace(-3, 3, 1500)
        table = FrfTable(freqs, evaluate(g, freqs))
        measured = gsore_problem(elem, ONE, ONE, table, points=800,
                                 origin_pole=False, k_n=rational.k_n, n_minus_m=4)
        res_frf = certify(measured, FAST)
        assert res_frf.certified == res_rat.certified is True
        assert res_frf.oracle_cross_check == "pass"
        assert res_frf.rank_check == "conditional"
        # the measured problem takes k_s0 = Cs(0), as the rational one does
        assert measured.k_s0 == rational.k_s0 == 1.0

    def test_measured_k_s0_is_shaping_dc_gain(self):
        freqs = np.logspace(-3, 3, 400)
        g = tf([1.0], np.convolve([1.0, 1.0], [1.0, 0.5]))
        table = FrfTable(freqs, evaluate(g, freqs))
        c_s = tf([2.0, 1.0], [4.0, 0.5])
        kwargs = dict(c_s=c_s, points=200, origin_pole=False, n_minus_m=4)
        elem = gsore(2.0, 1.0, 0.3, 0.5)
        assert gsore_problem(elem, ONE, ONE, table, **kwargs).k_s0 == 0.5

    def test_rational_plant_refuses_constant_overrides(self):
        # the blocks give origin_pole, k_n and n-m; a second value is refused
        elem = gsore(2.0, 1.0, 0.3, 0.5)
        g = tf([1.0], np.convolve([1.0, 1.0], [1.0, 0.5]))
        for override in ({"origin_pole": False}, {"k_n": 1.0}, {"n_minus_m": 4}):
            with pytest.raises(DomainError):
                gsore_problem(elem, ONE, ONE, g, points=200, **override)


class TestLoopConstantsAcrossPaths:
    def test_gsore_and_first_order_agree(self):
        # one lead-Cs loop: both certifiers read k_s0 and k_n from the same
        # loop description
        elem = gsore(2.0, 1.0, 0.3, 0.5)
        g = tf([1.0], np.convolve([0.0, 1.0, 1.0], [1.0, 0.5]))
        c_s = tf([1.0, 1.0], [2.0, 0.1])
        lead = tf([1.0, 0.5], [1.0, 0.05])
        prob = gsore_problem(elem, lead, ONE, g, c_s=c_s, points=200)
        verdict = certify_first_order(elem, lead, ONE, g, c_s=c_s, points=200)
        assert prob.k_s0 == verdict.k_s0 == 0.5
        assert prob.k_n == verdict.k_n == pytest.approx(200.0)
        assert prob.origin_pole


class TestRankCondition:
    def test_minimal_loop_passes(self):
        elem = gsore(2.0, 1.0, 0.3, 0.5)
        g = tf([1.0], np.convolve([1.0, 1.0], [1.0, 0.5]))
        prob = gsore_problem(elem, ONE, ONE, g, points=200)
        assert rank_condition(prob, (0.5, 0.2, 1.5, 0.3, 2.0)) == "pass"

    def test_cancellation_fails(self):
        # plant zero on top of a compensator pole makes a hidden mode
        elem = gsore(2.0, 1.0, 0.3, 0.5)
        g = tf([1.0, 1.0], np.convolve(np.convolve([1.0, 1.0], [1.0, 0.5]), [2.0, 1.0]))
        lead = tf([1.0], [1.0, 1.0])
        prob = gsore_problem(elem, lead, ONE, g, points=200)
        assert rank_condition(prob, (0.5, 0.2, 1.5, 0.3, 2.0)) == "fail"

    def test_frf_plant_is_conditional(self):
        freqs = np.logspace(-1, 2, 400)
        g = tf([1.0], np.convolve([1.0, 1.0], [1.0, 0.5]))
        plant = FrfTable(freqs, evaluate(g, freqs))
        elem = gsore(2.0, 1.0, 0.3, 0.5)
        prob = gsore_problem(elem, ONE, ONE, plant, points=200,
                             origin_pole=False, k_n=2.0, n_minus_m=4)
        assert rank_condition(prob, (0.5, 0.2, 1.5, 0.3, 2.0)) == "conditional"


class TestDocumentedReferenceShape:
    """The published positioning-stage run is kept as an I/O-shape fixture.

    The measured stage data is not shipped, so only the result container is
    exercised: the reported optimum was Q = (13172, 12001144, 8113151, 1055)
    with M = 3.5 and ratio windows 340 < Q2/Q1 < 5057 and 1132 < Q3/Q4.
    """

    def test_shape_roundtrip(self):
        res = CertificateResult(
            q=(13172.0, 12001144.0, 8113151.0, 1055.0),
            m_value=3.5,
            certified=True,
            constraint_report=[{"id": "S1-diagonal-positivity", "satisfied": True}],
            reconstructed=(1.0, 11375.5, 13172.0, 12001144.0, 8113151.0),
            problem_type="III",
            oracle_cross_check="skipped",
            rank_check="pass",
            seed=0,
            ratio_windows={"q2_over_q1": (340.0, 5057.0), "q4_over_q3": (0.0, 1.0 / 1132.0)},
        )
        assert res.q[1] / res.q[0] == pytest.approx(911.11, rel=1e-3)
        assert 340.0 < res.q[1] / res.q[0] < 5057.0
        assert res.q[2] / res.q[3] > 1132.0
        assert res.m_value < 4.0
