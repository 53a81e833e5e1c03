import numpy as np
import pytest
from scipy.optimize import linprog

from resetcert.cli import cglp_pid_blocks
from resetcert.elements import base_tf, gfore, gsore, sosre
from resetcert.errors import DomainError
from resetcert.frf import Condition, FrfTable, LoopSamples
from resetcert import gsore as gsore_module
from resetcert.gsore import (
    CROSSOVER,
    DITHER,
    M_BOUND,
    M_SLACK,
    SEARCH_POINTS,
    STALL_DROP,
    STALL_GENERATIONS,
    CertificateResult,
    FreqData,
    OptimizerSettings,
    PENALTY_WEIGHT,
    _best1bin,
    _de_run,
    _gene_bounds,
    _grid_check,
    _params_from_genes,
    _pd2_viol,
    _population_objective,
    _ratio_at,
    _search_set,
    _seed_population,
    _stalled,
    certify,
    gamma_factor,
    gsore_problem,
    rank_condition,
    ratio_window,
)
from resetcert.hbeta import limit_matrix_infinity
from resetcert.lti import evaluate, series, tf
from resetcert.nsv import certify_first_order

from test_conditions import record, verify

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
    """The FreqData rows: f1 = x1 t1 + x2 t2 + x3 t3 (= d1) and
    f2 = x1 u1 + x2 u2 + x3 u3 (= d2), against their complex closed forms."""

    def test_linearity_zero(self):
        d = FreqData.from_samples(single_sample(0.5 - 0.5j), 1.0, 1.0)
        assert not d.entries(np.zeros((5, 1))).any()

    def test_f1_third_slot_is_nchi(self):
        # unit shaping: the X3 coefficient equals a^2 + b^2 + a
        d = FreqData.from_samples(single_sample(0.5 - 0.5j), 1.0, 1.0)
        assert d.forms[2, 0] == pytest.approx(1.0, abs=1e-12)

    def test_f1_first_slot_complex_oracle(self):
        wr, xi = 1.0, 1.0
        elem = gsore(wr, xi)
        cr = evaluate(base_tf(elem), 1.0)
        lval = cr
        t1, t2, *_ = FreqData.from_samples(single_sample(lval, w=1.0, cr=cr), wr, xi).forms[:, 0]
        kappa = 1 + np.conj(lval)
        assert t1 == pytest.approx((cr * kappa * 1j).real, abs=1e-12)
        assert t2 == pytest.approx((cr * kappa).real, abs=1e-12)

    def test_f2_terms_complex_oracle(self):
        wr, xi = 2.0, 0.7
        w = 1.3
        lval, cs, cr = 0.4 - 0.2j, 0.9 + 0.1j, 0.3 - 0.6j
        *_, u1, u2, u3 = FreqData.from_samples(single_sample(lval, w=w, cs=cs, cr=cr),
                                               wr, xi).forms[:, 0]
        kappa = 1 + np.conj(lval)
        lead = 1j * w + 2 * xi * wr
        assert u1 == pytest.approx((cr * kappa * lead).real, abs=1e-12)
        assert u3 == pytest.approx((lval * kappa * cs * lead).real, abs=1e-12)
        expect = (cr * kappa * (2j * xi * wr * w - w**2)).real - abs(kappa) ** 2
        assert u2 == pytest.approx(expect, abs=1e-12)


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
        kept, e1, e2 = ratio_window(F1, F2, F3, [0.5])
        assert kept.size == 1 and e2[0] == np.inf and e1[0] == -np.inf

    def test_positive_f3_finite_lower(self):
        F1 = np.ones(4)
        F2 = np.full(4, 0.2)
        F3 = np.array([1.0, 2.0, 0.5, 1.5])
        kept, e1, e2 = ratio_window(F1, F2, F3, [1.0])
        assert kept.size == 1 and np.isfinite(e1[0]) and e2[0] == np.inf

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
                    kept, e1, e2 = ratio_window(F1, F2, F3, [q2 / q1])
                    mag = np.hypot(q1, q2)
                    interval = bool(kept.size and e1[0] < mag < e2[0])
                    mism += int(brute != interval)
            assert mism == 0


class TestBlockedRatioScan:
    """ratio_window scans its ratios in blocks of at most _SCAN_ELEMENTS
    (ratio, sample) pairs; every window must hold exactly."""

    RATIOS = np.logspace(-6, 6, 241)

    @staticmethod
    def admits(F1, F2, F3, ratio, mags):
        """Per magnitude: Q1 F1 + Q2 F2 > F3 at every sample."""
        q1 = np.asarray(mags, float)[:, None] / np.hypot(1.0, ratio)
        return np.all(q1 * F1 + q1 * ratio * F2 > F3, axis=1)

    def check_scan(self, F1, F2, F3, monkeypatch):
        import resetcert.gsore as gsore_module

        monkeypatch.setattr(gsore_module, "_SCAN_ELEMENTS", 2**40)
        whole = ratio_window(F1, F2, F3, self.RATIOS)
        # a few ratios per block, so the scan spans many blocks
        monkeypatch.setattr(gsore_module, "_SCAN_ELEMENTS", 3 * len(F1))
        feas, lo, hi = ratio_window(F1, F2, F3, self.RATIOS)
        for a, b in zip(whole, (feas, lo, hi)):
            assert np.array_equal(a, b)
        for r, e1, e2 in zip(feas, lo, hi):
            inside = [e1 * (1 + 1e-7) if e1 > 0 else min(1e-12, e2 / 2),
                      e2 * (1 - 1e-7) if np.isfinite(e2) else max(1.0, 2 * e1)]
            assert self.admits(F1, F2, F3, r, inside).all()
            outside = [m for m in (e1 * (1 - 1e-7), e2 * (1 + 1e-7)) if 0 < m < np.inf]
            assert not self.admits(F1, F2, F3, r, outside).any()
        mags = np.logspace(-9, 9, 361)
        for r in np.setdiff1d(self.RATIOS, feas):
            assert not self.admits(F1, F2, F3, r, mags).any()
        return feas.size

    @pytest.mark.parametrize("points", [400, 2000])
    def test_type3_fixture(self, points, monkeypatch):
        elem, lin, g = mass_fixture()
        prob = gsore_problem(elem, ONE, lin, g, points=points)
        t1, t2, t3, u1, u2, u3 = prob.data.forms
        for F in ((t1, t2, -prob.k_s0 * t3), (u1, u2, -prob.k_s0 * u3)):
            assert 0 < self.check_scan(*F, monkeypatch) < self.RATIOS.size

    def test_random_arrays(self, monkeypatch):
        gen = np.random.default_rng(23)
        feasible = 0
        for trial in range(12):
            n = int(gen.integers(5, 60))
            F1, F2, F3 = gen.uniform(0.1, 2.0, n), gen.normal(size=n), gen.normal(size=n)
            F1[:2] = F2[:2] = 0.0           # N(w) = 0 samples
            F3[:2] = -1.0 if trial % 3 else 0.0
            F2[2], F3[2] = -0.5, 0.5        # F3 >= 0 with cos <= 0 at the large ratios
            feasible += self.check_scan(F1, F2, F3, monkeypatch)
        assert feasible > 0


def reference_objective(data, ptype, k_s0, wr, xi, kn, n_minus_m, gamma_bound, genes):
    """The penalized objective member by member, written out on FreqData's
    form rows, with the limit matrices written out too."""
    t1, t2, t3, u1, u2, u3 = data.forms
    values = []
    for x in genes:
        b1, b2, r1, r2, r3 = [float(v[0]) for v in
                              _params_from_genes(x.reshape(4, 1), ptype, k_s0)]
        d1, d2 = r1 * t1 + r2 * t2 + b1 * t3, r3 * u1 + r2 * u2 + b2 * u3
        c = r2 * t1 + r3 * t2 + b2 * t3 + r2 * u1 + r1 * u2 + b1 * u3
        dscale = np.abs(d1) + np.abs(d2) + np.abs(c) + 1e-300
        pen = max(0.0, np.max(-d1 / dscale)) + max(0.0, np.max(-d2 / dscale))
        ok = (d1 > 0) & (d2 > 0)
        m = float(np.max(c[ok] ** 2 / (d1[ok] * d2[ok]), initial=0.0))
        kn1, kn2 = (kn * b1, 2 * kn * b2) if n_minus_m == 3 else (0.0, 0.0)
        off = wr**2 * r1 + 2 * r2 * xi * wr - r3 - kn1
        pen += _pd2_viol(np.array([[4 * r1 * xi * wr - 2 * r2, off],
                                   [off, 2 * wr**2 * r2 - kn2]]))
        if ptype == "III":
            off = k_s0 * b2 + 2 * k_s0 * b1 * xi * wr - r1
            pen += _pd2_viol(np.array([[2 * k_s0 * b1, off],
                                       [off, 4 * k_s0 * b2 * xi * wr - 2 * r2]]))
        pscale = abs(r1 * r3) + r2**2 + 1e-300
        pen += max(0.0, -(r1 * r3 - r2**2) / pscale)
        pen += max(0.0, -(r1 * r3 - gamma_bound * r2**2) / pscale)
        values.append(1e9 + PENALTY_WEIGHT * pen if pen > 0 else min(m, 1e8))
    return np.array(values)


def objective_loops():
    """(element, c_l2, plant) per (problem type, n - m)."""
    v = gsore(2.0, 1.0, 0.4, 0.4)
    return {("III", 6): mass_fixture(), ("III", 3): (v, ONE, tf([1.0], [0.0, 1.0])),
            ("IV", 4): (gsore(2.0, 1.0, 0.3, 0.5), ONE,
                        tf([1.0], np.convolve([1.0, 1.0], [1.0, 0.5]))),
            ("V", 3): (v, ONE, tf([0.8], [1.0, 1.0]))}


class TestPopulationObjective:
    """The objective's one matrix product against a member-by-member build."""

    @pytest.mark.parametrize("ptype,n_minus_m", [("III", 6), ("III", 3), ("IV", 4), ("V", 3)])
    def test_matches_per_member_reference(self, ptype, n_minus_m):
        elem, lin, g = objective_loops()[ptype, n_minus_m]
        prob = gsore_problem(elem, ONE, lin, g, points=400)
        assert (prob.problem_type, prob.n_minus_m) == (ptype, n_minus_m)
        wr, xi, data = prob.element.omega_r, prob.element.xi, prob.data
        bounds, _, scans = _gene_bounds(data, ptype, prob.k_s0, wr, xi)
        args = (ptype, prob.k_s0, wr, xi, prob.k_n, n_minus_m, prob.gamma_bound)
        fun = _population_objective(data, *args)
        # the seeded start is mostly penalized, a short DE run mostly feasible
        init = _seed_population(bounds, scans, 60, np.random.default_rng(1))
        genes = np.vstack([init, _de_run(fun, bounds, init, 0, 60)[0].population])
        got, want = fun(genes.T), reference_objective(data, *args, genes)
        b1, b2, r1, r2, r3 = (v[:, None] for v in _params_from_genes(genes.T, ptype, prob.k_s0))
        t1, t2, t3, u1, u2, u3 = data.forms
        d_bad = ((r1 * t1 + r2 * t2 + b1 * t3 <= 0)
                 | (r3 * u1 + r2 * u2 + b2 * u3 <= 0)).any(axis=1)
        feasible = got < 1e9
        assert feasible.any() and d_bad.any() and not (feasible & d_bad).any()
        assert np.array_equal(feasible, want < 1e9)
        np.testing.assert_allclose(got[feasible], want[feasible], rtol=1e-12)
        np.testing.assert_allclose(got[~feasible], want[~feasible], rtol=1e-12)


class TestBest1Bin:
    """The generation-wide best1bin trials, run through scipy's DE the way
    certify runs it, with scipy's legacy RandomState (an int seed) and with
    a Generator."""

    @pytest.mark.parametrize("kind", ["RandomState", "Generator"])
    def test_one_build_per_generation(self, kind, monkeypatch):
        builds = []

        def recorded(population, rng):
            out = _best1bin(population, rng)
            builds.append((type(rng), population, *out))
            return out

        monkeypatch.setattr(gsore_module, "_best1bin", recorded)
        elem, lin, g = objective_loops()["V", 3]
        prob = gsore_problem(elem, ONE, lin, g, points=64)
        data = prob.data
        args = ("V", prob.k_s0, elem.omega_r, elem.xi, prob.k_n, prob.n_minus_m,
                prob.gamma_bound)
        bounds, _, scans = _gene_bounds(data, *args[:4])
        init = _seed_population(bounds, scans, 30, np.random.default_rng(2))
        seed = 11 if kind == "RandomState" else np.random.default_rng(11)
        res, _ = _de_run(_population_objective(data, *args), bounds, init, seed, 40)
        assert res.nit >= 1 and len(builds) == res.nit
        mutant_share = []
        for rng_type, population, trials, r0, r1, scale in builds:
            assert rng_type is getattr(np.random, kind)
            i = np.arange(len(population))
            assert ((r0 != r1) & (r0 != i) & (r1 != i)).all()
            assert DITHER[0] <= scale < DITHER[1]
            mutants = population[0] + scale * (population[r0] - population[r1])
            from_mutant = trials == mutants
            assert (from_mutant | (trials == population)).all()
            assert from_mutant.any(axis=1).all()
            mutant_share.append(from_mutant.mean())
        # each coordinate is the forced one with chance 1/4, else crosses over
        assert np.mean(mutant_share) == pytest.approx(0.25 + 0.75 * CROSSOVER, abs=0.03)


class TestGridCheckMargins:
    """The S1/S2 margins, each entry over its rounding bound from the one
    product on the forms and on their magnitudes, against both written out
    elementwise."""

    @pytest.mark.parametrize("ptype,n_minus_m", [("III", 6), ("IV", 4), ("V", 3)])
    def test_margins_match_elementwise(self, ptype, n_minus_m):
        elem, lin, g = objective_loops()[ptype, n_minus_m]
        prob = gsore_problem(elem, ONE, lin, g, points=400)
        res = certify(prob, OptimizerSettings())
        assert res.certified and res.problem_type == ptype
        s1, s2, _, _ = _grid_check(prob, res.reconstructed)
        b1, b2, r1, r2, r3 = res.reconstructed
        t1, t2, t3, u1, u2, u3 = prob.data.forms
        np.testing.assert_allclose(s1, (r1 * t1 + r2 * t2 + b1 * t3)
                                   / (abs(r1 * t1) + abs(r2 * t2) + abs(b1 * t3)), rtol=1e-13)
        np.testing.assert_allclose(s2, (r3 * u1 + r2 * u2 + b2 * u3)
                                   / (abs(r3 * u1) + abs(r2 * u2) + abs(b2 * u3)), rtol=1e-13)


class TestCertify:
    def test_type3_mass_fixture(self):
        elem, lin, g = mass_fixture()
        prob = gsore_problem(elem, ONE, lin, g, points=600)
        assert prob.problem_type == "III" and prob.origin_pole
        res = certify(prob, FAST)
        assert res.certified
        assert res.m_value < 4.0 - 1e-6
        assert res.oracle_cross_check == "pass"
        assert record(res, "rank-conditions").status == "pass"
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
        from resetcert.hbeta import SprReport

        elem = gsore(2.0, 1.0, 0.4, 0.4)
        prob = gsore_problem(elem, ONE, ONE, tf([0.8], [1.0, 1.0]), points=400)
        assert certify(prob, FAST).certified
        monkeypatch.setattr(gsore_module, "spr_check_matrix",
                            lambda *args, **kwargs: SprReport(
                                [Condition("grid-determinant-positivity", "fail", -1.0, 1.0)]))
        res = certify(prob, FAST)
        assert res.oracle_cross_check == "fail" and not res.certified

    def test_gamma_out_of_range(self):
        elem, lin, g = mass_fixture(gamma1=1.2)
        with pytest.raises(DomainError):
            gsore_problem(elem, ONE, lin, g, points=200)

    @pytest.mark.parametrize("elem", [gfore(1.0), sosre(1.0, 0.7, 0.5)], ids=["GFORE", "SOSRE"])
    def test_non_gsore_element_refused(self, elem):
        # a GFORE element used to raise IndexError, a SOSRE one a reset-factor error
        with pytest.raises(DomainError, match=f"needs a GSORE element, got {elem.kind}$"):
            gsore_problem(elem, ONE, ONE, tf([0.8], [1.0, 1.0]), points=200)

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
        assert verify(dense, res.reconstructed).certified

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
        # a Type IV loop that no (beta, rho) certifies: the S2 rows (u1, u2,
        # u3) at the search samples hold the origin in their convex hull, so
        # no (rho3, rho2, beta2) makes d2 positive at all of them, every
        # candidate is penalized, and neither restart stops before the cap
        elem = gsore(0.5, 1.0, 0.4, 0.4)
        prob = gsore_problem(elem, ONE, ONE, tf([4.0], [1.0, 2.0, 1.0]), points=400)
        assert prob.problem_type == "IV"
        rows = prob.data.forms[3:]
        rows = rows[:, _search_set(rows.shape[1])].T
        hull = linprog(np.zeros(3), A_ub=-rows, b_ub=-np.ones(len(rows)),
                       bounds=[(None, None)] * 3)
        assert hull.status == 2         # infeasible: no x with rows x >= 1
        res = certify(prob, OptimizerSettings(population=20, generations=5, restarts=2,
                                              seed=3))
        assert [(s["seed"], s["generations"], s["stop"]) for s in res.search] == [
            (3, 5, "maxiter"), (1012, 5, "maxiter")]
        assert all(s["best"] >= 1e9 for s in res.search)
        assert not res.certified


class TestOptimizerSettings:
    @pytest.mark.parametrize("kwargs", [
        {"restarts": 0}, {"generations": 0}, {"seed": -1}, {"seed": 2**32},
        {"restarts": 2, "seed": 2**32 - 1009}, {"population": 19}, {"population": 2001},
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


class TestSupIncludesLimits:
    def test_high_frequency_limit_bounds_the_sup(self):
        # Type V fixture: the ratio still rises past the grid's last sample
        # towards the w -> infinity limit of 4 M12^2 / (M11 M22)
        elem = gsore(2.0, 1.0, 0.4, 0.4)
        prob = gsore_problem(elem, ONE, ONE, tf([0.8], [1.0, 1.0]), points=400)
        params = (0.5, 0.2, 1.5, 0.3, 2.0)
        m_inf = limit_matrix_infinity(params, elem.omega_r, elem.xi, prob.n_minus_m, prob.k_n)
        limit = 4.0 * m_inf[0, 1] ** 2 / (m_inf[0, 0] * m_inf[1, 1])
        assert limit == pytest.approx(3.88664, abs=1e-5)
        res = verify(prob, params)
        assert res.m_value == limit
        sup = record(res, "sup-ratio-below-four")
        assert sup.margin == M_BOUND - limit and sup.omega is None
        assert res.m_value >= _ratio_at(prob, params, [1e3, 1e4, 1e6]).max()


class TestScaleFreeMargins:
    def test_wide_spread_blocks_keep_their_degree(self):
        # at scale 300 the CgLp+PID denominator's s^4 coefficient (1.1e-3)
        # sits 13 decades below its s coefficient; it is a product, not the
        # rounding noise of a sum, so c_l2 stays proper
        prob = scaled_acceptance_problem(300.0)
        assert prob.loop.c_l2.degree_den == prob.loop.c_l2.degree_num == 4
        res = certify(prob, FAST)
        assert res.certified
        assert res.oracle_cross_check == "pass"
        assert record(res, "rank-conditions").status == "pass"
        assert res.m_value == pytest.approx(certify(scaled_acceptance_problem(1.0),
                                                    FAST).m_value, rel=1e-6)

    def test_certified_at_scale_100(self):
        # d1 and d2 carry different units: a margin relative to |d1| + |d2|
        # refused this loop at scale 100 (min d1/(|d1| + |d2|) = 5.8e-10
        # against 5.8e-6 at scale 1)
        res = certify(scaled_acceptance_problem(100.0), FAST)
        assert res.certified
        assert res.oracle_cross_check == "pass"
        assert record(res, "rank-conditions").status == "pass"

    def test_mapped_certificate_passes_at_every_scale(self):
        # a certificate of the scale-1 loop, mapped through the frequency
        # scaling, certifies the scaled loop and passes the matrix oracle
        base = certify(scaled_acceptance_problem(1.0), FAST)
        assert base.certified
        b1, b2, r1, r2, r3 = base.reconstructed
        for a in (0.01, 20.0 * np.pi, 100.0):
            mapped = (b1, a * b2, a * r1, a**2 * r2, a**3 * r3)
            res = verify(scaled_acceptance_problem(a), mapped)
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
        assert record(res_frf, "rank-conditions").status == "conditional"
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

    def test_relative_degree_three_needs_k_n(self):
        # with n - m = 3 the w -> inf limit matrix reads k_n, so a table must
        # declare it; with n - m = 4 no limit reads it
        elem = gsore(2.0, 1.0, 0.4, 0.4)
        freqs = np.logspace(-3, 3, 1500)
        table = FrfTable(freqs, evaluate(tf([0.8], [1.0, 1.0]), freqs))
        with pytest.raises(DomainError, match="k_n"):
            gsore_problem(elem, ONE, ONE, table, points=800, origin_pole=False, n_minus_m=3)
        assert gsore_problem(elem, ONE, ONE, table, points=800, origin_pole=False,
                             n_minus_m=3, k_n=0.8).k_n == 0.8
        assert gsore_problem(elem, ONE, ONE, table, points=800, origin_pole=False,
                             n_minus_m=4).k_n == 0.0

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

    def test_first_order_shaping_filter(self):
        # a first-order C_s under the standard architecture leaves a state
        # that feeds nothing back, a column LAPACK's balancing permutes
        elem = gsore(2.0, 1.0, 0.4, 0.4)
        prob = gsore_problem(elem, ONE, ONE, tf([0.8], [1.0, 1.0]),
                             c_s=tf([1.0, 1.0], [1.0, 0.1]), points=200)
        assert rank_condition(prob, (0.5, 0.2, 1.5, 0.3, 2.0)) == "pass"

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
            conditions=[Condition("S1-diagonal-positivity", "pass", 0.2, 10.0),
                        Condition("rank-conditions", "pass"),
                        Condition("oracle-cross-check", "skipped")],
            reconstructed=(1.0, 11375.5, 13172.0, 12001144.0, 8113151.0),
            problem_type="III",
            seed=0,
            ratio_windows={"q2_over_q1": (340.0, 5057.0), "q4_over_q3": (0.0, 1.0 / 1132.0)},
        )
        assert res.q[1] / res.q[0] == pytest.approx(911.11, rel=1e-3)
        assert 340.0 < res.q[1] / res.q[0] < 5057.0
        assert res.q[2] / res.q[3] > 1132.0
        assert res.m_value < 4.0
        assert res.certified and record(res, "rank-conditions").status == "pass"
        assert res.oracle_cross_check == "skipped"
