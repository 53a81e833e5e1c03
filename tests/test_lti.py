import subprocess
import sys

import numpy as np
import pytest

from resetcert.elements import base_tf, gfore, gsore
from resetcert.errors import (DomainError, EvaluationAtPole, ImproperTransferFunction,
                              NormalizationError)
from resetcert.lti import (
    assemble_closed_loop,
    base_linear_stability,
    controllability_observability,
    dc_limit,
    end_term,
    evaluate,
    high_frequency_re_limit,
    leading_coefficients,
    minimality_check,
    mirror,
    nyquist_stability_from_samples,
    polysum,
    RationalTF,
    real_part_rational,
    relative_degree,
    series,
    tf,
    to_state_space,
    to_transfer_function,
)
from resetcert.elements import realization

rng = np.random.default_rng(1234)


def tf_close(a, b, tol=1e-9):
    """Scale-free transfer-function equality via cross multiplication."""
    lhs = np.convolve(a.num, b.den)
    rhs = np.convolve(b.num, a.den)
    n = max(lhs.size, rhs.size)
    lhs = np.pad(lhs, (0, n - lhs.size))
    rhs = np.pad(rhs, (0, n - rhs.size))
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
    return np.max(np.abs(lhs - rhs)) <= tol * scale


def random_proper(order, rng, reldeg=None):
    reldeg = int(rng.integers(0, order + 1)) if reldeg is None else reldeg
    poles = -(10.0 ** rng.uniform(-1, 1, order))
    den = np.poly(poles)[::-1]
    m = order - reldeg
    num = np.poly(-(10.0 ** rng.uniform(-1, 1, m)))[::-1] * rng.uniform(0.2, 3.0) \
        if m > 0 else np.array([rng.uniform(0.2, 3.0)])
    return tf(num, den)


class TestEvaluate:
    def test_gfore_dc_gain(self):
        assert evaluate(tf([1.0], [1.0, 1.0]), 0.0) == 1.0 + 0.0j

    def test_gfore_corner(self):
        # 1/(1+j) by hand
        assert evaluate(tf([1.0], [1.0, 1.0]), 1.0) == pytest.approx(0.5 - 0.5j, abs=1e-12)

    def test_pci_at_corner(self):
        # 1 + 2/(2j) by hand
        assert evaluate(tf([2.0, 1.0], [0.0, 1.0]), 2.0) == pytest.approx(1.0 - 1.0j, abs=1e-12)

    def test_pole_guard(self):
        with pytest.raises(EvaluationAtPole):
            evaluate(tf([1.0], [1.0, 0.0, 1.0]), 1.0)   # 1/(s^2+1) at its pole


class TestSeries:
    def test_double_lag(self):
        out = series(tf([1.0], [1.0, 1.0]), tf([1.0], [1.0, 1.0]))
        assert tf_close(out, tf([1.0], [1.0, 2.0, 1.0]))

    def test_identity(self):
        g = tf([1.0, 0.5], [2.0, 1.0, 1.0])
        assert tf_close(series(tf([1.0]), g), g)

    def test_no_cancellation_performed(self):
        out = series(tf([1.0, 1.0], [2.0, 1.0]), tf([2.0, 1.0], [3.0, 1.0]))
        assert tf_close(out, tf([2.0, 3.0, 1.0], [6.0, 5.0, 1.0]))
        assert minimality_check(out) == [pytest.approx(-2.0)]

    def test_eval_multiplicativity_random(self):
        grid = np.logspace(-2, 2, 25)
        for _ in range(1000):
            a = random_proper(int(rng.integers(1, 4)), rng)
            b = random_proper(int(rng.integers(1, 4)), rng)
            lhs = evaluate(series(a, b), grid)
            rhs = evaluate(a, grid) * evaluate(b, grid)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs) + 1.0)


class TestDegreesAndCoefficients:
    def test_relative_degree(self):
        assert relative_degree(tf([1.0], [1.0, 2.0, 1.0])) == 2
        assert relative_degree(tf([1.0, 1.0], [2.0, 1.0])) == 0
        assert relative_degree(tf([1.0], [0.0, 1.0, 0.0, 1.0])) == 3

    def test_leading_coefficients(self):
        kn, ks0 = leading_coefficients(tf([1.0], [2.0, 3.0, 1.0]), tf([1.0]))
        assert (kn, ks0) == (1.0, 1.0)
        _, ks0 = leading_coefficients(tf([1.0], [1.0]), tf([4.0, 2.0], [1.0, 0.5]))
        assert ks0 == 4.0
        kn, _ = leading_coefficients(tf([1.0, 3.0], [0.0, 1.0, 0.0, 1.0]), tf([1.0]))
        assert kn == 3.0

    def test_ks0_needs_nonzero_constant(self):
        with pytest.raises(NormalizationError):
            leading_coefficients(tf([1.0], [1.0]), tf([1.0], [0.0, 1.0]))


class TestStateSpace:
    def test_gsore_controllable_template(self):
        ss = to_state_space(base_tf(gsore(1.0, 1.0)), "controllable")
        np.testing.assert_allclose(ss.A, [[-2.0, -1.0], [1.0, 0.0]])
        np.testing.assert_allclose(ss.B, [[1.0], [0.0]])
        np.testing.assert_allclose(ss.C, [[0.0, 1.0]])
        assert ss.D[0, 0] == 0.0

    def test_gsore_observable_template(self):
        ss = to_state_space(base_tf(gsore(1.0, 1.0)), "observable")
        np.testing.assert_allclose(ss.A, [[0.0, -1.0], [1.0, -2.0]])
        np.testing.assert_allclose(ss.B, [[1.0], [0.0]])
        np.testing.assert_allclose(ss.C, [[0.0, 1.0]])

    def test_first_order(self):
        ss = to_state_space(tf([1.0], [1.0, 1.0]), "controllable")
        np.testing.assert_allclose(ss.A, [[-1.0]])
        np.testing.assert_allclose(ss.B, [[1.0]])
        np.testing.assert_allclose(ss.C, [[1.0]])

    def test_improper_rejected(self):
        with pytest.raises(ImproperTransferFunction):
            to_state_space(tf([1.0, 1.0, 1.0], [1.0, 1.0]))

    def test_reconstruction_roundtrip_random(self):
        for _ in range(100):
            g = random_proper(int(rng.integers(1, 5)), rng)
            for form in ("controllable", "observable"):
                back = to_transfer_function(to_state_space(g, form))
                assert tf_close(g, back, tol=1e-9)


class TestClosedLoop:
    def test_dimensions_first_order(self):
        g = tf([1.0], [1.0, 2.0, 1.0])
        one = tf([1.0])
        cl = assemble_closed_loop(realization(gfore(1.0)), [[0.3]], one, one, g, one)
        assert cl.a_bar.shape == (3, 3)
        np.testing.assert_allclose(np.diag(cl.a_rho_bar), [0.3, 1.0, 1.0])
        assert np.count_nonzero(cl.a_rho_bar - np.diag(np.diag(cl.a_rho_bar))) == 0

    def test_identity_reset_matches_base_interconnection(self):
        # independent construction: treat the reset stage as a plain LTI block
        g = tf([1.0], [1.0, 1.0, 0.5])
        lead = tf([1.0, 0.5], [1.0, 0.2])
        one = tf([1.0])
        elem = gsore(2.0, 0.9)
        cl = assemble_closed_loop(realization(elem), np.eye(2), lead, one, g, one)
        r = realization(elem)
        n_r, n_p = 2, cl.order - 2
        # flow matrix assembled by hand from the two-block feedback structure
        from resetcert.lti import to_state_space as tss
        s1 = tss(lead)
        sg = tss(g)
        n1, ng = s1.order, sg.order
        a = np.zeros((n_r + n1 + ng, n_r + n1 + ng))
        a[:n_r, :n_r] = r.A
        a[:n_r, n_r:n_r + n1] = r.B @ s1.C
        a[:n_r, n_r + n1:] = -r.B @ (s1.D[0, 0] * sg.C)
        a[n_r:n_r + n1, n_r + n1:] = -s1.B @ sg.C
        a[n_r:n_r + n1, n_r:n_r + n1] = s1.A
        a[n_r + n1:, :n_r] = sg.B @ r.C
        a[n_r + n1:, n_r + n1:] = sg.A
        assert np.max(np.abs(cl.a_bar - a)) <= 1e-12

    def test_gsore_order3_linear_part(self):
        g = tf([1.0], [1.0, 3.0, 3.0, 1.0])
        one = tf([1.0])
        cl = assemble_closed_loop(realization(gsore(1.0, 1.0)), np.eye(2) * 0.5,
                                  one, one, g, one)
        assert cl.a_bar.shape == (5, 5)
        # coupling block B_u C_r feeds the plant with the second reset state
        np.testing.assert_allclose(cl.a_bar[2:, :2] @ np.array([0.0, 1.0]),
                                   (to_state_space(g).B).ravel())


class TestTriggerPath:
    def test_standard_architecture_trigger_response(self):
        # e_r/r must equal Cs*C_L1/(1 + L) for the loop with the shaping
        # filter on the trigger tap
        g = tf([1.0], [1.0, 1.5, 0.5])
        c_l1 = tf([1.0, 0.6], [1.0, 0.3])
        c_s = tf([1.0, 0.2], [1.0, 0.9])
        elem = gfore(2.0)
        cl = assemble_closed_loop(realization(elem), [[1.0]], c_l1, tf([1.0]), g, c_s)
        c_r = base_tf(elem)
        for w in (0.2, 1.0, 4.7):
            resp = (cl.c_e_bar @ np.linalg.inv(1j * w * np.eye(cl.order) - cl.a_bar)
                    @ cl.b_bar[:, 0:1])[0, 0] + cl.d_e
            loop = evaluate(c_l1, w) * evaluate(c_r, w) * evaluate(g, w)
            expect = evaluate(c_s, w) * evaluate(c_l1, w) / (1 + loop)
            assert resp == pytest.approx(expect, rel=1e-10)

    def test_modified_architecture_trigger_response(self):
        # with the shaping filter inside the loop, e_r/r = Cs*C_L1/(1 + L')
        g = tf([1.0], [1.0, 1.5, 0.5])
        c_l1 = tf([1.0, 0.6], [1.0, 0.3])
        c_s = tf([1.0, 0.2], [1.0, 0.9])
        elem = gfore(2.0)
        cl = assemble_closed_loop(realization(elem), [[1.0]], c_l1, tf([1.0]), g, c_s,
                                  architecture="modified")
        c_r = base_tf(elem)
        for w in (0.2, 1.0, 4.7):
            resp = (cl.c_e_bar @ np.linalg.inv(1j * w * np.eye(cl.order) - cl.a_bar)
                    @ cl.b_bar[:, 0:1])[0, 0] + cl.d_e
            loop = (evaluate(c_l1, w) * evaluate(c_s, w) * evaluate(c_r, w)
                    * evaluate(g, w))
            expect = evaluate(c_s, w) * evaluate(c_l1, w) / (1 + loop)
            assert resp == pytest.approx(expect, rel=1e-10)


class TestClosedLoopResponses:
    def test_reference_and_disturbance_channels(self):
        # assembled flow must reproduce y/r = L/(1+L) and y/d = G/(1+L),
        # including elements with a direct feedthrough
        from resetcert.elements import clegg, pci, realization as rlz
        g = tf([1.0], [2.0, 1.0])
        lead = tf([1.0, 0.4], [1.0, 0.2])
        one = tf([1.0])
        for elem in (pci(2.0, 0.3), gfore(1.5, 0.2), clegg(0.0)):
            cl = assemble_closed_loop(rlz(elem), elem.a_rho, lead, one, g, one)
            loop = series(series(lead, base_tf(elem)), g)
            for w in (0.1, 0.7, 2.0, 9.0):
                resolvent = np.linalg.inv(1j * w * np.eye(cl.order) - cl.a_bar)
                y_r = (cl.c_bar @ resolvent @ cl.b_bar[:, 0:1])[0, 0]
                y_d = (cl.c_bar @ resolvent @ cl.b_bar[:, 1:2])[0, 0]
                lv = evaluate(loop, w)
                assert y_r == pytest.approx(lv / (1 + lv), abs=1e-12)
                assert y_d == pytest.approx(evaluate(g, w) / (1 + lv), abs=1e-12)


class TestStability:
    def test_double_lag_loop(self):
        rep = base_linear_stability(tf([1.0], [1.0, 2.0, 1.0]))
        assert rep.stable
        assert sorted(np.round(rep.poles, 6).tolist(), key=lambda z: z.imag) == \
            [(-1 - 1j), (-1 + 1j)]

    def test_scalar_cases(self):
        assert base_linear_stability(tf([2.0], [-1.0, 1.0])).stable          # root at -1
        assert not base_linear_stability(tf([-2.0], [1.0, 1.0])).stable      # root at +1
        assert base_linear_stability(tf([0.0], [1.0])).stable                # vacuous

    def test_frf_resolution_guard(self):
        from resetcert.errors import InsufficientFrfResolution
        g = tf([20.0], [1.0, 0.1, 1.0])     # sharp resonance
        grid = np.logspace(-1, 1, 12)       # far too coarse
        with pytest.raises(InsufficientFrfResolution):
            nyquist_stability_from_samples(grid, evaluate(g, grid))

    def test_frf_path_matches_rational(self):
        grid = np.logspace(-3, 3, 2000)
        agree = 0
        for _ in range(20):
            order = int(rng.integers(1, 4))
            poles = rng.uniform(0.1, 5.0, order) * np.where(rng.random(order) < 0.25, 1.0, -1.0)
            den = np.poly(poles)[::-1]
            g = tf([rng.uniform(0.2, 2.0)], den)
            rational = base_linear_stability(g).stable
            vals = evaluate(g, grid)
            frf = nyquist_stability_from_samples(grid, vals,
                                                 rhp_poles=int(np.sum(poles > 0)))
            agree += int(frf.stable == rational)
        assert agree == 20


class TestMinimality:
    def test_cancellation(self):
        loop = tf([1.0, 1.0], np.convolve([1.0, 1.0], [2.0, 1.0]))
        assert minimality_check(loop) == [pytest.approx(-1.0)]

    def test_minimal(self):
        assert minimality_check(tf([1.0], [1.0, 2.0, 1.0])) == []

    def test_double_cancellation(self):
        loop = tf([1.0, 2.0, 1.0], [1.0, 3.0, 3.0, 1.0])
        hits = minimality_check(loop)
        assert len(hits) == 2
        assert all(h == pytest.approx(-1.0, abs=1e-5) for h in hits)


class TestRank:
    def test_chain_integrator_controllable(self):
        ct, _ = controllability_observability(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                              b=np.array([[0.0], [1.0]]))
        assert ct

    def test_decoupled_not_observable(self):
        _, ob = controllability_observability(np.diag([-1.0, -2.0]),
                                              c=np.array([[1.0, 0.0]]))
        assert not ob

    def test_permutable_matrix(self):
        # a state no other state feeds makes a column LAPACK's balancing
        # permutes; the rank test must still read the pencil of A itself
        a = np.array([[-1.0, 0.0, 0.0], [2.0, -3.0, 1.0], [1.0, -1.0, -2.0]])
        ct, ob = controllability_observability(a, b=np.array([[1.0], [0.0], [0.0]]),
                                               c=np.array([[0.0, 1.0, 0.0]]))
        assert ct and ob
        ct, ob = controllability_observability(a, b=np.array([[0.0], [1.0], [0.0]]),
                                               c=np.array([[1.0, 0.0, 0.0]]))
        assert not ct and not ob

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_matrix_refused(self, bad):
        a, b, c = np.diag([-1.0, -2.0]), np.ones((2, 1)), np.ones((1, 2))
        for name, i in (("A", 0), ("B", 1), ("C", 2)):
            args = [m.copy() for m in (a, b, c)]
            args[i][0, 0] = bad
            with pytest.raises(DomainError, match=f"rank test needs a finite {name}"):
                controllability_observability(args[0], b=args[1], c=args[2])

    def test_overflowing_sums_refused_in_bounded_time(self, src_env):
        # the sum of a column's magnitudes, 2e308, overflows: balance used to
        # scale that column for ever, so the probe runs in a child process
        probe = "\n".join([
            "import numpy as np",
            "from resetcert.errors import DomainError",
            "from resetcert.lti import balance, controllability_observability",
            "a = np.array([[1e308, 1e308], [-1e308, 1e308]])",
            "print(np.array_equal(balance(a)[0], a))",
            "try:",
            "    controllability_observability(a, b=np.ones((2, 1)))",
            "except DomainError as exc:",
            "    print(exc)"])
        try:
            proc = subprocess.run([sys.executable, "-W", "ignore", "-c", probe], env=src_env,
                                  capture_output=True, text=True, timeout=30)
        except subprocess.TimeoutExpired:
            pytest.fail("the rank test did not return within 30 s")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "True", "rank test needs |A|_2 below 5.99e+307 after balancing, got 1.41e+308"]

    def test_observability_is_dual_controllability(self):
        # A = T [[A11, 0], [A21, A22]] T^-1 and C = [C1, 0] T^-1: the states
        # of A22 reach neither the rest nor the output, so the pair (A, C) is
        # unobservable exactly when there are any
        local = np.random.default_rng(23)
        for _ in range(300):
            n = int(local.integers(1, 7))
            hidden = int(local.integers(0, n))
            a = local.normal(size=(n, n))
            a[:n - hidden, n - hidden:] = 0.0
            c = local.normal(size=(int(local.integers(1, 3)), n))
            c[:, n - hidden:] = 0.0
            t = local.normal(size=(n, n)) + 3.0 * np.eye(n)
            a, c = t @ a @ np.linalg.inv(t), c @ np.linalg.inv(t)
            _, observable = controllability_observability(a, c=c)
            dual, _ = controllability_observability(a.T, b=c.T)
            assert observable == dual == (hidden == 0)

    def test_assembled_loop_rank(self):
        g = tf([1.0], [1.0, 2.0, 1.0])
        one = tf([1.0])
        cl = assemble_closed_loop(realization(gsore(1.0, 1.0)), np.eye(2) * 0.5,
                                  one, one, g, one)
        b0 = np.vstack([np.eye(2), np.zeros((cl.order - 2, 2))])
        ct, _ = controllability_observability(cl.a_bar, b=b0)
        # cross-check with an explicit Krylov rank computation (well-scaled case)
        blocks, m = [], b0
        for _ in range(cl.order):
            blocks.append(m)
            m = cl.a_bar @ m
        explicit = np.linalg.matrix_rank(np.hstack(blocks)) == cl.order
        assert ct == explicit


class TestLimits:
    def test_dc_limit(self):
        assert dc_limit(tf([2.0], [2.0, 1.0])) == 1.0
        assert dc_limit(tf([0.0, 1.0], [1.0, 1.0])) == 0.0
        assert dc_limit(tf([-1.0], [0.0, 1.0, 1.0])) == -np.inf

    def test_high_frequency(self):
        kind, val = high_frequency_re_limit(tf([2.0], [2.0, 1.0]))
        assert kind == "scaled" and val == pytest.approx(4.0)
        kind, val = high_frequency_re_limit(tf([1.0, 1.0], [2.0, 1.0]))
        assert kind == "value" and val == pytest.approx(1.0)

    def test_end_term(self):
        p = [0.0, 0.0, 3.0, -2.0]
        assert end_term(p, "lo") == (2, 3.0)
        assert end_term(p, "hi") == (3, -2.0)
        assert end_term([5.0], "lo") == end_term([5.0], "hi") == (0, 5.0)
        assert end_term([0.0, 0.0], "lo") is None and end_term([0.0], "hi") is None
        # cancellation noise above the top coefficient is stripped by the sum
        # that made it, so it is not the w -> inf term
        noisy = polysum(([0.0, 0.0, 0.1], [1.0]), ([0.0, 0.0, 0.2], [1.0]),
                        ([1.0, 2.0, -0.3], [1.0]))
        assert end_term(noisy, "hi") == (1, 2.0)
        # a product's small leading coefficient is its w -> inf term
        assert end_term(np.convolve([1.0, 1e-9], [1.0, 1e-9]), "hi") == (2, 1e-18)

    def test_mirror_conjugates_on_the_jw_axis(self):
        g = tf([2.0, -1.0, 0.5], [0.0, 1.0, 3.0, 1.0])
        w = np.logspace(-2, 2, 40)
        np.testing.assert_allclose(evaluate(mirror(g), w), np.conj(evaluate(g, w)),
                                   rtol=1e-13)
        assert list(mirror(g).num) == [2.0, 1.0, 0.5]
        assert list(mirror(g).den) == [0.0, -1.0, 3.0, -1.0]
        assert list(mirror(tf([4.0])).num) == [4.0]
        assert mirror(tf([0.0], [1.0, 1.0])).is_zero()

    def test_wide_spread_degrees_survive(self):
        # coefficients of wide-spread pole products decay geometrically; the
        # canonicalization must not eat the legitimate leading terms
        from resetcert.lti import canonical
        wp = 4000.0 * np.pi
        den = np.convolve([0.0, 0.0, 1.0], np.convolve([1.0, 1 / wp], [1.0, 1 / wp]))
        g = tf([1.0], den)
        assert g.degree_den == 4
        assert relative_degree(g) == 4
        assert canonical([1.0, 2.0, 1e-16], 2.0).size == 2  # noise still stripped
        # Re g(jw) decays like 1/w^4: the w^8 term of |den(jw)|^2 (4e-17
        # against 1 at w^4) is real, so the scaled limit is 0
        p, q = real_part_rational(g)
        assert end_term(q, "hi")[0] == 8
        assert high_frequency_re_limit(g) == ("scaled", 0.0)

    def test_noise_is_judged_against_the_terms_of_its_sum(self):
        from resetcert.lti import canonical
        # a product's leading coefficient is one term, never noise, however
        # far it sits below the others (1.1e-13 against 9e9 here)
        assert series(tf([1.0], [9.0e9, 1.0]), tf([1.0], [1.0, 1.1e-13])).degree_den == 2
        assert canonical([0.0, 9.0e9, 1.6e6, 76.7, 1.1e-3],
                         terms=[0.0, 9.0e9, 1.6e6, 76.7, 1.1e-3]).size == 5
        # (0.1 + 0.2) - 0.3 leaves 5.6e-17 from terms of size 0.6: noise
        assert canonical([1.0, 5.6e-17], terms=[1.0, 0.6]).size == 1
        total = tf([0.0, 0.1]) + tf([0.0, 0.2]) + tf([1.0, -0.3])
        assert total.degree_num == 0
        # a tiny coefficient no cancellation made stays
        assert (tf([1.0, 1e-13]) + tf([2.0])).degree_num == 1


class TestNonFiniteCoefficients:
    @pytest.mark.parametrize("num, den, name", [
        ([1.0], [1.0, 1.0, np.nan], "den"),
        ([1.0], [1.0, np.nan, 1.0], "den"),
        ([1.0], [1.0, 1.0, np.nan, 0.0], "den"),
        ([np.inf], [1.0, 1.0], "num"),
        ([1.0, -np.inf, np.inf], [1.0, 1.0], "num"),
    ])
    def test_refused_naming_the_polynomial(self, num, den, name):
        # a NaN used to read as an exact zero: tf([1], [1, 1, nan]) was 1/(1 + s)
        with pytest.raises(DomainError, match=f"transfer function {name} needs finite"):
            tf(num, den)
        with pytest.raises(DomainError):
            RationalTF(np.array(num), np.array(den))

    def test_huge_finite_coefficients_are_kept(self):
        # their sum overflows, their values do not
        g = tf([1e308, 1e308], [1e308, 1e308, 1e308])
        assert g.degree_num == 1 and g.degree_den == 2
