import numpy as np
import pytest

from resetcert.elements import base_tf, clegg, gfore, gsore, pci, realization, sosre
from resetcert.errors import NotPositiveDefinite, ResetCertError
from resetcert import hbeta
from resetcert.frf import Loop, LoopSamples
from resetcert.hbeta import (
    MARGIN,
    HbetaCandidate,
    build_h_scalar,
    limit_matrix_infinity,
    limit_matrix_zero,
    loop_invariants,
    search_candidate_scalar,
    spr_check_matrix,
    spr_check_scalar,
    _scalar_nsv,
    _sym_matrix_entries,
)
from resetcert.lti import assemble_closed_loop, dc_limit, evaluate, high_frequency_re_limit, series, tf
from resetcert.nsv import certify_first_order, nsv_grid_samples

from test_conditions import record
from test_lti import tf_close

rng = np.random.default_rng(21)
ONE = tf([1.0])


class TestScalarH:
    def test_unit_loop_closed_form(self):
        # L = C_R = 1/(s+1), (beta', rho') = (1, 1): H = 2/(s+2)
        h = build_h_scalar(ONE, gfore(1.0), ONE, 1.0, 1.0)
        assert tf_close(h, tf([2.0], [2.0, 1.0]))
        assert dc_limit(h) == pytest.approx(1.0)
        kind, val = high_frequency_re_limit(h)
        assert kind == "scaled" and val == pytest.approx(4.0)

    def test_negative_direction_fails_at_dc(self):
        h = build_h_scalar(ONE, gfore(1.0), ONE, -1.0, 0.0)
        assert dc_limit(h) == pytest.approx(-0.5)

    def test_ci_high_frequency_zero(self):
        # CI with n-m > 2: the w^2-scaled limit is exactly zero
        g = tf([1.0], np.convolve([1.0, 1.0], [1.0, 0.5]))
        h = build_h_scalar(g, clegg(), ONE, 0.3, 1.0)
        kind, val = high_frequency_re_limit(h)
        assert kind == "scaled" and val == 0.0

    def test_pci_limits(self):
        g = tf([2.0], [1.0, 1.0])
        h = build_h_scalar(g, pci(2.0), ONE, 0.5, 0.7)
        kind, val = high_frequency_re_limit(h)
        assert kind == "value" and val == pytest.approx(0.7)   # H(inf) = rho'
        assert dc_limit(h) == pytest.approx(0.5 * 1.0 + 0.7 / 2.0)

    def test_gfore_infinity_formula(self):
        # n - m = 2: lim w^2 Re H = rho' wr^2 - beta' K_n
        wr, k, p = 1.7, 2.0, 0.8
        g = tf([k], [1.0 / p, 1.0])      # hmm: k/(s/p... use k*p/(s+p)
        g = tf([k * p], [p, 1.0])
        bp, rp = 0.4, 1.1
        h = build_h_scalar(g, gfore(wr), ONE, bp, rp)
        loop = series(base_tf(gfore(wr)), g)
        k_n = loop.num[-1] / loop.den[-1]
        _, val = high_frequency_re_limit(h)
        assert val == pytest.approx(rp * wr**2 - bp * k_n, rel=1e-9)

    def test_sosre_variant_form(self):
        g = tf([1.0], [0.0, 1.0, 1.0])
        elem = sosre(2.0, 1.0, 0.5)
        h = build_h_scalar(g, elem, ONE, 0.3, 0.9)   # s*C_R branch from the kind
        # matches (b' L + r' s C_R)/(1 + L) evaluated pointwise
        c_r = base_tf(elem)
        for w in (0.3, 1.1, 4.0):
            lv = evaluate(series(c_r, g), w)
            expect = (0.3 * lv + 0.9 * (1j * w) * evaluate(c_r, w)) / (1 + lv)
            assert evaluate(h, w) == pytest.approx(expect, rel=1e-9)


class TestScalarCheck:
    def setup_method(self):
        self.g = tf([1.0], [1.0, 1.0])
        self.elem = gfore(1.0)
        self.samples, _ = nsv_grid_samples(self.g, ONE, ONE, ONE, self.elem, points=600)

    def test_unit_candidate_on_unit_plant(self):
        # L = C_R: H = 2/(s+2), strictly positive everywhere
        samples, _ = nsv_grid_samples(ONE, ONE, ONE, ONE, self.elem, points=600)
        rep = spr_check_scalar(HbetaCandidate(1.0, 1.0), samples, self.elem,
                               ONE, ONE)
        assert rep.passed and record(rep, "zero-frequency-limit").status == "pass"
        assert record(rep, "high-frequency-limit").status == "pass"

    def test_boundary_candidate_fails_infinity_limit(self):
        # for L = 1/(s+1)^2 the direction (1, 1) lands exactly on the
        # high-frequency boundary rho'*wr^2 - beta'*K_n = 0
        rep = spr_check_scalar(HbetaCandidate(1.0, 1.0), self.samples, self.elem,
                               ONE, self.g)
        limit = record(rep, "high-frequency-limit")
        assert limit.margin == 0.0 and limit.status == "fail" and not rep.passed

    def test_interior_candidate_passes(self):
        rep = spr_check_scalar(HbetaCandidate(0.5, 1.0), self.samples, self.elem,
                               ONE, self.g)
        assert rep.passed and record(rep, "zero-frequency-limit").status == "pass"
        assert record(rep, "high-frequency-limit").status == "pass"

    def test_vanishing_dc_limit_fails(self):
        # (beta', rho') = (-1, 1) over 1/(s+1) gives H(0) = 0: the strict
        # zero-frequency limit fails at margin 0 although every sample passes
        rep = spr_check_scalar(HbetaCandidate(-1.0, 1.0), self.samples, self.elem,
                               ONE, self.g)
        limit = record(rep, "zero-frequency-limit")
        assert limit.status == "fail" and limit.margin == 0.0 and not rep.passed
        assert record(rep, "grid-positivity").status == "pass"

    def test_negative_rho_fails(self):
        rep = spr_check_scalar(HbetaCandidate(1.0, -1.0), self.samples, self.elem,
                               ONE, self.g)
        assert not rep.passed and record(rep, "rho-positive").status == "fail"

    def test_scale_invariance(self):
        for c in (0.01, 1.0, 250.0):
            rep = spr_check_scalar(HbetaCandidate(0.3 * c, 0.8 * c), self.samples,
                                   self.elem, ONE, self.g)
            assert rep.passed
            unit = spr_check_scalar(HbetaCandidate(0.3, 0.8), self.samples, self.elem,
                                    ONE, self.g)
            assert record(rep, "grid-positivity").margin == pytest.approx(
                record(unit, "grid-positivity").margin, rel=1e-9)

    def test_search_finds_candidate(self):
        cand = search_candidate_scalar(self.samples, self.elem, ONE, self.g)
        assert cand is not None
        assert spr_check_scalar(cand, self.samples, self.elem, ONE, self.g).passed

    def test_search_fails_on_wide_span(self):
        # angles spanning more than pi admit no separating direction
        th = np.linspace(-0.4 * np.pi, 0.7 * np.pi, 300)
        samples = samples_with_nsv(np.cos(th), np.sin(th))
        assert search_candidate_scalar(samples, self.elem) is None
        assert brute_force_candidate(samples, self.elem, ONE, None, "standard") is None


def brute_force_candidate(samples, element, c_s, p_lin, variant, steps=720):
    """The steps x N sweep over every sample's margin, kept as the reference
    that the closed form of search_candidate_scalar is checked against."""
    n_chi, n_ups = _scalar_nsv(samples, element, variant)
    norm = np.maximum(np.hypot(n_chi, n_ups), 1e-300)
    phis = np.arange(steps) * (2.0 * np.pi / steps)
    dirs = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    margins = (dirs @ np.stack([n_chi, n_ups]) / norm).min(axis=1)
    for k in np.argsort(-margins):
        if margins[k] <= MARGIN or dirs[k, 1] <= 0.0:
            continue
        cand = HbetaCandidate(float(dirs[k, 0]), float(dirs[k, 1]))
        if spr_check_scalar(cand, samples, element, c_s, p_lin, variant).passed:
            return cand
    return None


def samples_with_nsv(n_chi, n_ups):
    """Loop samples whose standard scalar N(w) is (n_chi, n_ups): with L = 1,
    kappa = 2, so Cs = n_chi / 2 and C_R = n_ups / 2."""
    n = len(n_chi)
    return LoopSamples(np.linspace(1.0, 2.0, n), np.ones(n, complex),
                       np.asarray(n_chi, complex) / 2.0, np.asarray(n_ups, complex) / 2.0)


def clipped(samples, element, variant):
    """Whether the directions that see every N(w) with a positive margin,
    (b - pi/2, a + pi/2) for the arc [a, b] of N(w) angles, reach rho' <= 0."""
    n_chi, n_ups = _scalar_nsv(samples, element, variant)
    angle = np.sort(np.arctan2(n_ups, n_chi))
    gaps = np.diff(angle, append=angle[0] + 2.0 * np.pi)
    j = int(np.argmax(gaps))
    a, b = angle[(j + 1) % angle.size], angle[j]
    return not (np.cos(a) >= 0.0 and np.cos(b) <= 0.0)


def assert_agrees_with_brute_force(args, label=None):
    """A candidate exactly when the reference finds one, and on an unclipped
    arc a grid margin at least the reference's."""
    cand, ref = search_candidate_scalar(*args), brute_force_candidate(*args)
    assert (cand is None) == (ref is None), label
    if cand is not None and not clipped(args[0], args[1], args[4]):
        def margin(c):
            return record(spr_check_scalar(c, *args), "grid-positivity").margin
        assert margin(cand) >= margin(ref), label
    return cand


class TestArcSweep:
    """search_candidate_scalar takes the bisector of the arc of N(w) angles,
    clipped to rho' > 0; it must find a candidate exactly where the full
    720-direction sweep over every sample does."""

    def test_matches_brute_force_on_fo_population(self, workloads):
        kinds = []
        for seed in (1, 7):
            for lp in workloads.fo_loops(seed):
                try:
                    v = certify_first_order(lp.element, ONE, ONE, lp.plant, c_s=lp.c_s,
                                            architecture=lp.architecture,
                                            points=workloads.FO_POINTS,
                                            asymptote=lp.asymptote)
                except ResetCertError:
                    continue
                p_lin = Loop(lp.element, ONE, ONE, lp.plant, lp.c_s).p_lin
                args = (v.samples, lp.element, lp.c_s, p_lin, lp.variant)
                cand = assert_agrees_with_brute_force(args, lp.id)
                if v.certified:
                    assert cand is not None, lp.id
                    kinds.append((lp.variant, p_lin is None))
        assert {"standard", "modified", "sosre"} <= {variant for variant, _ in kinds}
        assert any(table for _, table in kinds) and len(kinds) >= 150

    @pytest.mark.parametrize("lo, hi, passes, clips", [
        (0.75 * np.pi, 1.25 * np.pi, True, True),
        (-0.3, np.pi - 0.32, True, False),
        (-0.3, np.pi - 0.28, False, False),
        (-0.9, -0.1, True, True),
    ], ids=["across-branch-cut", "just-under-pi", "just-over-pi", "straddles-rho-zero"])
    def test_hand_made_arcs(self, lo, hi, passes, clips):
        th = np.linspace(lo, hi, 40)
        r = np.linspace(0.5, 2.0, 40)[::-1]
        samples = samples_with_nsv(r * np.cos(th), r * np.sin(th))
        args = (samples, gfore(1.0), ONE, None, "standard")
        cand = assert_agrees_with_brute_force(args)
        assert (cand is not None) == passes
        assert clipped(samples, gfore(1.0), "standard") == clips
        if passes and not clips:
            # the bisector is the exact optimum: cos of half the arc's width
            margin = record(spr_check_scalar(cand, *args), "grid-positivity").margin
            assert margin == pytest.approx(np.cos(0.5 * (hi - lo)), rel=1e-12)

    def test_zero_sample_gives_none(self):
        th = np.linspace(0.2, 1.2, 40)
        n_chi, n_ups = np.cos(th), np.sin(th)
        assert search_candidate_scalar(samples_with_nsv(n_chi, n_ups), gfore(1.0)) is not None
        n_chi[17] = n_ups[17] = 0.0
        samples = samples_with_nsv(n_chi, n_ups)
        assert search_candidate_scalar(samples, gfore(1.0)) is None
        assert brute_force_candidate(samples, gfore(1.0), ONE, None, "standard") is None

    def test_limit_failure_costs_one_check(self, monkeypatch):
        # criterion 3's CI control with n - m = 3: every direction fails the
        # high-frequency limit, which the one exact check reports
        g3 = tf([1.0], np.convolve([1.0, 1.0], [1.0, 0.5]))
        samples, _ = nsv_grid_samples(g3, ONE, ONE, ONE, clegg(), points=700)
        args = (samples, clegg(), ONE, g3, "standard")
        assert brute_force_candidate(*args) is None
        calls = []

        def counted(*a, **k):
            calls.append(a[0])
            return spr_check_scalar(*a, **k)

        monkeypatch.setattr(hbeta, "spr_check_scalar", counted)
        assert search_candidate_scalar(*args) is None
        assert len(calls) <= 1


class TestModifiedArchitecture:
    def test_oracle_coupling_with_in_loop_shaping(self):
        from resetcert.nsv import certify_first_order
        cs = tf([1.0, 0.5], [1.0, 1.0])
        g = tf([1.0], [1.0, 1.0])
        elem = gfore(1.0, 0.2)
        v = certify_first_order(elem, ONE, ONE, g, c_s=cs,
                                architecture="modified", points=800)
        assert v.certified
        assert record(v, "well-posedness-proviso").status == "conditional"
        samples, _ = nsv_grid_samples(g, ONE, ONE, cs, elem,
                                      variant="modified", points=800)
        cand = search_candidate_scalar(samples, elem, cs, g, variant="modified")
        assert cand is not None
        rep = spr_check_scalar(cand, samples, elem, cs, g, variant="modified")
        assert rep.passed and record(rep, "zero-frequency-limit").status == "pass"
        assert record(rep, "high-frequency-limit").status == "pass"


class TestSoundnessCoupling:
    def test_random_certified_loops_admit_candidates(self):
        from resetcert.nsv import certify_first_order
        found = 0
        tried = 0
        while found < 10 and tried < 80:
            tried += 1
            wr = 10.0 ** rng.uniform(-0.5, 0.5)
            elem = gfore(wr, rng.uniform(-0.8, 0.8))
            order = int(rng.integers(1, 4))
            den = [1.0]
            for p in 10.0 ** rng.uniform(-0.7, 0.7, order):
                den = np.convolve(den, [1.0, 1.0 / p])
            g = tf([10.0 ** rng.uniform(-0.7, 0.4)], den)
            if not certify_first_order(elem, ONE, ONE, g, points=700).certified:
                continue
            found += 1
            samples, _ = nsv_grid_samples(g, ONE, ONE, ONE, elem, points=700)
            cand = search_candidate_scalar(samples, elem, ONE, g)
            assert cand is not None
            rep = spr_check_scalar(cand, samples, elem, ONE, g)
            assert rep.passed and record(rep, "zero-frequency-limit").status == "pass"
            assert record(rep, "high-frequency-limit").status == "pass"
        assert found == 10


def make_matrix_fixture():
    wr, xi = 2.0, 0.8
    elem = gsore(wr, xi, 0.4, 0.3)
    g = tf([1.0], np.convolve([1.0, 1.0], [2.0, 1.0]))
    cl1 = tf([1.0, 0.7], [1.0, 0.4])
    cs = tf([1.0, 0.3], [1.0, 0.8])
    return elem, cl1, g, cs


class TestMatrixEntries:
    def test_entries_match_state_space(self):
        elem, cl1, g, cs = make_matrix_fixture()
        cl = assemble_closed_loop(realization(elem), elem.a_rho, cl1, ONE, g, cs)
        b1, b2, r1, r2, r3 = 0.7, -0.3, 2.0, 0.4, 1.5
        beta = -np.array([[b1], [b2]])
        c0 = np.hstack([np.array([[r1, r2], [r2, r3]]), beta @ cl.c_e_bar[:, 2:]])
        b0 = np.vstack([np.eye(2), np.zeros((cl.order - 2, 2))])
        samples, _ = nsv_grid_samples(g, cl1, ONE, cs, elem, points=40, refine=0)
        cand = HbetaCandidate(np.array([b1, b2]), np.array([[r1, r2], [r2, r3]]))
        d1, d2, c, _, _ = _sym_matrix_entries(cand, samples, elem.omega_r, elem.xi)
        for i, w in enumerate(samples.omega):
            h = c0 @ np.linalg.inv(1j * w * np.eye(cl.order) - cl.a_bar) @ b0
            sym = h + h.conj().T
            k2 = abs(1 + np.conj(samples.loop[i])) ** 2
            assert sym[0, 0].real == pytest.approx(d1[i] / k2, abs=1e-10)
            assert sym[1, 1].real == pytest.approx(d2[i] / k2, abs=1e-10)
            assert sym[0, 1].real == pytest.approx(c[i] / k2, abs=1e-10)

    def test_infinity_limit_matrix_matches_numeric(self):
        elem, cl1, g, cs = make_matrix_fixture()
        cl = assemble_closed_loop(realization(elem), elem.a_rho, cl1, ONE, g, cs)
        b1, b2, r1, r2, r3 = 0.7, -0.3, 2.0, 0.4, 1.5
        beta = -np.array([[b1], [b2]])
        c0 = np.hstack([np.array([[r1, r2], [r2, r3]]), beta @ cl.c_e_bar[:, 2:]])
        b0 = np.vstack([np.eye(2), np.zeros((cl.order - 2, 2))])
        w = 1e6
        h = c0 @ np.linalg.inv(1j * w * np.eye(cl.order) - cl.a_bar) @ b0
        numeric = ((h + h.conj().T) * w**2).real
        expect = limit_matrix_infinity((b1, b2, r1, r2, r3), elem.omega_r, elem.xi, 4, None)
        np.testing.assert_allclose(numeric, expect, rtol=1e-4)

    def test_infinity_limit_matrix_reldeg3(self):
        wr, xi = 2.0, 1.1
        elem = gsore(wr, xi, 0.2, 0.2)
        g = tf([0.8], [1.0, 1.0])         # n - m = 3 overall
        cl = assemble_closed_loop(realization(elem), elem.a_rho, ONE, ONE, g, ONE)
        b1, b2, r1, r2, r3 = 0.5, 0.2, 1.5, 0.3, 2.0
        beta = -np.array([[b1], [b2]])
        c0 = np.hstack([np.array([[r1, r2], [r2, r3]]), beta @ cl.c_e_bar[:, 2:]])
        b0 = np.vstack([np.eye(2), np.zeros((cl.order - 2, 2))])
        w = 1e6
        h = c0 @ np.linalg.inv(1j * w * np.eye(cl.order) - cl.a_bar) @ b0
        numeric = ((h + h.conj().T) * w**2).real
        loop = series(base_tf(elem), g)
        k_n = loop.num[-1] / loop.den[-1]
        expect = limit_matrix_infinity((b1, b2, r1, r2, r3), wr, xi, 3, k_n)
        np.testing.assert_allclose(numeric, expect, rtol=1e-4)

    def test_zero_limit_matrix_matches_numeric(self):
        wr, xi = 2.0, 0.8
        elem = gsore(wr, xi, 0.4, 0.3)
        g = tf([1.0], [0.0, 1.0, 1.0])    # integrator in the plant
        cs = tf([1.0, 0.3], [1.0, 0.8])
        cl = assemble_closed_loop(realization(elem), elem.a_rho, ONE, ONE, g, cs)
        b1, b2, r1, r2, r3 = 0.7, -0.3, 2.0, 0.4, 1.5
        beta = -np.array([[b1], [b2]])
        c0 = np.hstack([np.array([[r1, r2], [r2, r3]]), beta @ cl.c_e_bar[:, 2:]])
        b0 = np.vstack([np.eye(2), np.zeros((cl.order - 2, 2))])
        w = 1e-7
        h = c0 @ np.linalg.inv(1j * w * np.eye(cl.order) - cl.a_bar) @ b0
        numeric = (h + h.conj().T).real
        expect = limit_matrix_zero((b1, b2, r1, r2, r3), wr, xi, k_s0=1.0)
        np.testing.assert_allclose(numeric, expect, rtol=1e-4)


class TestLimitMatrixStack:
    """(5, S) parameter arrays give a (2, 2, S) stack whose columns are the
    float calls' matrices bit for bit."""

    @pytest.mark.parametrize("limit, args", [
        (limit_matrix_infinity, (2.0, 0.7, 3, 0.8)),
        (limit_matrix_infinity, (2.0, 0.7, 4, None)),
        (limit_matrix_zero, (2.0, 0.7, 1.3)),
    ], ids=["infinity-relative-degree-3", "infinity-relative-degree-4", "zero"])
    def test_columns_are_the_float_calls(self, limit, args):
        gen = np.random.default_rng(31)
        params = gen.normal(size=(5, 60)) * 10.0 ** gen.uniform(-3, 3, (5, 60))
        params[:, :5] = 0.0
        stack = limit(params, *args)
        assert stack.shape == (2, 2, 60)
        for j in range(60):
            single = limit(tuple(float(v) for v in params[:, j]), *args)
            assert stack[..., j].tobytes() == single.tobytes(), j


class TestMatrixCheck:
    def test_rejects_indefinite_rho(self):
        elem, cl1, g, cs = make_matrix_fixture()
        samples, _ = nsv_grid_samples(g, cl1, ONE, cs, elem, points=60, refine=0)
        cand = HbetaCandidate(np.array([0.0, 0.0]), np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            spr_check_matrix(cand, samples, elem, k_s0=1.0, k_n=None, origin_pole=False,
                             n_minus_m=4)

    def test_bad_candidate_fails_with_witness(self):
        elem, cl1, g, cs = make_matrix_fixture()
        samples, _ = nsv_grid_samples(g, cl1, ONE, cs, elem, points=200)
        cand = HbetaCandidate(np.array([0.0, 0.0]), np.eye(2))
        rep = spr_check_matrix(cand, samples, elem, k_s0=1.0, k_n=None, origin_pole=False,
                               n_minus_m=4)
        assert not rep.passed
        witness = record(rep, "grid-determinant-positivity")
        assert witness.status == "fail" and witness.omega > 0.0


class TestLoopInvariants:
    def test_derived_quantities(self):
        g = tf([2.0], [0.0, 1.0, 1.0])
        p_lin, loop_tf, k_s0, k_n, origin, nm = loop_invariants(
            gfore(1.5), ONE, ONE, g, ONE)
        assert origin and k_s0 == 1.0 and nm == 3
        assert tf_close(p_lin, g)
