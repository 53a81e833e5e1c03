from dataclasses import fields

import numpy as np
import pytest

from resetcert.elements import base_tf, clegg, gfore, pci, sosre
from resetcert import frf
from resetcert.errors import EvaluationAtPole, GridTooSparse, SparseGrid, ZeroShapingFilter
from resetcert.frf import FrfTable, Loop, LoopSamples, compose_loop
from resetcert.lti import evaluate, series, tf
from resetcert.nsv import (
    REFINE_LEVELS,
    Nsv,
    asymptotic_angles,
    certify_first_order,
    classify,
    compute_nsv,
    map_angle,
    nsv_grid_samples,
    _frf_asymptote_angles,
    _nsv_arrays,
)

from test_conditions import record

rng = np.random.default_rng(99)
ONE = tf([1.0])

# per type, the quadrants k of delta, psi and the forbidden angles of the
# paper's condition list; quadrant k is (k - 1) pi/2 < theta < k pi/2, so IV is 0
LIST_QUADRANTS = {1: (0, 2, 3), 2: (3, 1, 0)}


def condition_list(t, n_chi, n_ups, theta, eps=1e-9):
    """The paper's Type-``t`` condition list, the oracle of ``classify``'s
    angle window: c3 and c4, and one of a, b and c.  Type II reads Type I's
    N_chi rules on -N_chi, with its own quadrant triple."""
    side = 1.0 if t == 1 else -1.0
    scale = np.hypot(n_chi, n_ups)
    zero_chi = np.abs(n_chi) <= 1e-12 * scale
    zero_ups = np.abs(n_ups) <= 1e-12 * scale
    c3 = bool(np.all(n_ups[zero_chi] > eps * scale[zero_chi]))
    c4 = bool(np.all(side * n_chi[zero_ups] > eps * scale[zero_ups]))
    a = bool(np.all(n_ups >= -eps * scale))
    b = bool(np.all(side * n_chi >= -eps * scale))
    with np.errstate(divide="ignore", invalid="ignore"):    # 0/0 lies in no quadrant
        ratios = np.abs(n_ups / n_chi)
    in_delta, in_psi, forbidden = ((theta > (k - 1) * np.pi / 2) & (theta < k * np.pi / 2)
                                   for k in LIST_QUADRANTS[t])
    delta = np.max(ratios[in_delta], initial=-np.inf)
    psi = np.min(ratios[in_psi], initial=np.inf)
    c = bool(delta < psi and not np.any(forbidden))
    return c3 and c4 and (a or b or c)


def samples_for(loop_vals, omega=None, cs=None, cr=None):
    n = len(loop_vals)
    omega = np.arange(1, n + 1, dtype=float) if omega is None else np.asarray(omega, float)
    cs = np.ones(n, complex) if cs is None else np.asarray(cs, complex)
    cr = np.ones(n, complex) if cr is None else np.asarray(cr, complex)
    return LoopSamples(omega, np.asarray(loop_vals, complex), cs, cr)


class TestComputeNsv:
    def test_hand_value_at_corner(self):
        # L = C_R = 1/(s+1) at w=1: N = (1, 1), theta = pi/4
        lval = 0.5 - 0.5j
        s = samples_for([lval], omega=[1.0], cr=[lval])
        out = compute_nsv(s)
        assert out.n_chi[0] == pytest.approx(1.0, abs=1e-12)
        assert out.n_upsilon[0] == pytest.approx(1.0, abs=1e-12)
        assert out.theta[0] == pytest.approx(np.pi / 4, abs=1e-12)

    def test_dc_limit_value(self):
        g = tf([1.0], [1.0, 1.0])
        lval = evaluate(g, 1e-6)
        s = samples_for([lval], omega=[1e-6], cr=[lval])
        out = compute_nsv(s)
        assert out.n_chi[0] == pytest.approx(2.0, abs=1e-5)
        assert out.n_upsilon[0] == pytest.approx(2.0, abs=1e-5)

    def test_identity_nchi(self):
        # with unit shaping, N_chi = a^2 + b^2 + a
        vals = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        s = samples_for(vals, omega=np.linspace(1, 2, 1000))
        out = compute_nsv(s)
        a, b = vals.real, vals.imag
        expect = a**2 + b**2 + a
        got = out.n_chi
        assert np.max(np.abs(got - expect)) <= 1e-10 * np.max(1 + np.abs(expect))

    def test_sosre_component_oracle(self):
        elem = sosre(1.0, 1.0)
        cr = base_tf(elem)
        loop = cr
        w = np.array([1.0])
        lval = evaluate(loop, w)
        crval = evaluate(cr, w)
        s = LoopSamples(w, lval, np.ones(1, complex), crval)
        out = compute_nsv(s, "sosre")
        kappa = 1 + np.conj(lval[0])
        assert out.n_upsilon[0] == pytest.approx(-(1.0 * kappa * crval[0]).imag, abs=1e-12)

    def test_modified_divides_out_shaping(self):
        w = np.array([2.0])
        lval = np.array([0.3 - 0.4j])
        cs = np.array([0.8 + 0.1j])
        s = LoopSamples(w, lval, cs, np.array([1.0 + 0j]))
        out = compute_nsv(s, "modified")
        kappa = 1 + np.conj(lval[0])
        assert out.n_chi[0] == pytest.approx((lval[0] * kappa / cs[0]).real, abs=1e-12)

    def test_modified_rejects_vanishing_shaping(self):
        s = samples_for([0.3 - 0.4j, 0.2 - 0.1j], omega=[1.0, 2.0], cs=[1.0, 1e-13])
        with pytest.raises(ZeroShapingFilter, match="omega=2"):
            compute_nsv(s, "modified")
        assert len(compute_nsv(s, "standard")) == 2


class TestClassify:
    def test_double_lag_is_type1(self):
        g = tf([1.0], [1.0, 1.0])
        elem = gfore(1.0)
        _, nsv = nsv_grid_samples(g, ONE, ONE, ONE, elem, points=800)
        loop = series(base_tf(elem), g)
        v = classify(nsv, extra_thetas=asymptotic_angles(loop, ONE, base_tf(elem)))
        assert v.is_type1
        assert np.pi / 4 - 1e-6 <= v.theta1 <= v.theta2 <= 3 * np.pi / 4 + 1e-6

    def test_constant_angle_is_both_types(self):
        # L = C_R: theta = pi/4 at every frequency
        vals = [0.5 - 0.5j, 0.4 - 0.3j, 0.1 - 0.1j]
        s = samples_for(vals, cr=vals)
        v = classify(compute_nsv(s), check_density=False)
        assert v.is_type1 and v.is_type2

    def test_wide_span_fails_both(self):
        thetas = np.array([-0.4 * np.pi, 0.7 * np.pi])
        chi, ups = np.cos(thetas), np.sin(thetas)
        v = classify(Nsv(np.arange(1.0, 3.0), chi, ups, map_angle(np.arctan2(ups, chi))),
                     check_density=False)
        assert not v.is_type1 and not v.is_type2

    def test_sparse_grid_guard(self):
        thetas = np.linspace(0, 2.0, 3)
        with pytest.raises(SparseGrid):
            classify(Nsv(np.arange(1.0, 4.0), np.cos(thetas), np.sin(thetas), thetas))

    def test_ks0_side_conditions(self):
        vals = [0.5 - 0.5j, 0.4 - 0.3j]
        s = samples_for(vals, cr=vals)
        nsv = compute_nsv(s)
        v = classify(nsv, origin_pole=True, k_s0=-1.0, check_density=False)
        assert not v.is_type1 and v.is_type2
        v = classify(nsv, origin_pole=True, k_s0=1.0, check_density=False)
        assert v.is_type1 and not v.is_type2
        v = classify(nsv, element_kind="CI", k_s0=1.0, check_density=False)
        assert not v.is_type1 and v.is_type2


class TestWindowListEquivalence:
    def test_random_sample_sets(self):
        agree = 0
        for _ in range(200):
            n = int(rng.integers(3, 40))
            chi = rng.normal(size=n)
            ups = rng.normal(size=n)
            theta = map_angle(np.arctan2(ups, chi))
            v = classify(Nsv(np.arange(1.0, n + 1.0), chi, ups, theta), check_density=False)
            list1 = condition_list(1, chi, ups, theta)
            list2 = condition_list(2, chi, ups, theta)
            agree += int(v.is_type1 == list1 and v.is_type2 == list2)
        assert agree == 200

    def test_narrow_arcs(self):
        # arcs narrow and wide enough that clause c decides many of them
        local = np.random.default_rng(51)
        by_c = set()
        for _ in range(300):
            n = int(local.integers(1, 12))
            centre = local.uniform(-np.pi / 2, 3 * np.pi / 2)
            angle = centre + local.uniform(-1.0, 1.0, n) * local.choice([0.2, 1.0, 2.0])
            r = local.uniform(0.1, 2.0, n)
            chi, ups = r * np.cos(angle), r * np.sin(angle)
            theta = map_angle(np.arctan2(ups, chi))
            v = classify(Nsv(np.arange(1.0, n + 1.0), chi, ups, theta), check_density=False)
            for t, side, holds in ((1, 1.0, v.is_type1), (2, -1.0, v.is_type2)):
                assert holds == condition_list(t, chi, ups, theta)
                if not (np.all(ups >= 0.0) or np.all(side * chi >= 0.0)):
                    by_c.add(holds)
        assert by_c == {True, False}

    def test_exact_zero_sets_and_their_mirrors(self):
        # the sets of test_type2_list_is_the_mirrored_type1_list: a sample
        # with N_chi = 0 and N_upsilon < 0 sits at theta = -pi/2, which c3
        # forbids to Type I, as the mirror's theta = pi/2 is to Type II
        local = np.random.default_rng(17)
        disagree = []
        for i in range(400):
            n = int(local.integers(3, 30))
            chi, ups = local.normal(size=(2, n))
            chi[local.random(n) < 0.2] = 0.0
            ups[local.random(n) < 0.2] = 0.0
            for name, c in (("", chi), (" mirrored", -chi)):
                theta = map_angle(np.arctan2(ups, c))
                v = classify(Nsv(np.arange(1.0, n + 1.0), c, ups, theta), check_density=False)
                for t, holds in ((1, v.is_type1), (2, v.is_type2)):
                    if holds != condition_list(t, c, ups, theta):
                        disagree.append(f"set {i}{name} type {t}")
        assert not disagree, disagree

    def test_type2_list_is_the_mirrored_type1_list(self):
        # the Type II list on N equals the Type I list on N with N_chi
        # negated and its angle taken afresh, exact zero components included
        local = np.random.default_rng(17)
        outcomes = set()
        for _ in range(400):
            n = int(local.integers(3, 30))
            chi, ups = local.normal(size=(2, n))
            chi[local.random(n) < 0.2] = 0.0
            ups[local.random(n) < 0.2] = 0.0
            theta = map_angle(np.arctan2(ups, chi))
            mirrored = map_angle(np.arctan2(ups, -chi))
            for t, u in ((2, 1), (1, 2)):
                holds = condition_list(t, chi, ups, theta)
                assert holds == condition_list(u, -chi, ups, mirrored)
                outcomes.add(holds)
        assert outcomes == {True, False}


class TestCertifyFirstOrder:
    def test_gfore_demo_certifies(self):
        v = certify_first_order(gfore(1.0), ONE, ONE, tf([1.0], [1.0, 1.0]), points=800)
        assert v.certified
        assert record(v, "well-posedness-proviso").status == "pass"

    def test_ci_origin_pole_rejected(self):
        v = certify_first_order(clegg(), ONE, ONE, tf([1.0], [0.0, 1.0, 1.0]), points=800)
        assert not v.certified
        assert record(v, "ci-origin-pole-rule").status == "fail"

    def test_ci_relative_degree_rejected(self):
        g = tf([1.0], np.convolve([1.0, 1.0], [1.0, 0.5]))
        v = certify_first_order(clegg(), ONE, ONE, g, points=800)
        assert not v.certified
        assert record(v, "ci-relative-degree-rule").status == "fail"

    def test_gamma_bound_rejected(self):
        v = certify_first_order(gfore(1.0, 1.0), ONE, ONE, tf([1.0], [1.0, 1.0]), points=800)
        assert not v.certified
        assert record(v, "reset-scalar-bound").status == "fail"

    def test_shaping_filter_is_conditional(self):
        cs = tf([1.0, 0.5], [1.0, 1.0])
        v = certify_first_order(gfore(1.0), ONE, ONE, tf([1.0], [1.0, 1.0]),
                                c_s=cs, points=800)
        assert record(v, "well-posedness-proviso").status == "conditional"

    def test_pci_loop(self):
        v = certify_first_order(pci(1.0, 0.3), ONE, ONE, tf([1.0], [2.0, 1.0]), points=800)
        assert v.certified

    def test_pci_cancelling_zero_rejected(self):
        # the PCI zero at -1 cancels the plant pole at -1
        v = certify_first_order(pci(1.0, 0.3), ONE, ONE, tf([2.0], [1.0, 1.0]), points=800)
        assert not v.certified
        assert record(v, "open-loop-minimality").status == "fail"


class TestRedistributionInvariance:
    def test_bit_identical_verdicts(self):
        # power-of-two gain moves keep every float in the pipeline identical
        g = tf([1.0], [1.0, 2.0, 1.0])
        lead = tf([1.0, 0.5], [1.0, 0.25])
        elem = gfore(1.0, 0.2)
        variants = [
            (lead, ONE, g),
            (0.5 * lead, ONE, 2.0 * g),
            (2.0 * lead, 0.25 * ONE, 2.0 * g),
            (0.25 * lead, 2.0 * ONE, 2.0 * g),
        ]
        verdicts = []
        for c1, c2, gg in variants:
            _, nsv = nsv_grid_samples(gg, c1, c2, ONE, elem, points=400)
            loop = series(series(c1, base_tf(elem)), series(c2, gg))
            verdicts.append(classify(
                nsv, extra_thetas=asymptotic_angles(loop, ONE, base_tf(elem))))
        v0 = verdicts[0]
        for v in verdicts[1:]:
            assert v.is_type1 == v0.is_type1
            assert v.is_type2 == v0.is_type2
            assert v.theta1 == v0.theta1          # bitwise
            assert v.theta2 == v0.theta2


def _check_limits_against_far_samples(kind, architecture, scale, local):
    """A random loop whose features sit around ``scale`` rad/s: its exact
    NSV angle limits match the sampled angles far outside its grid."""
    wr = scale * 10.0 ** local.uniform(-0.5, 0.5)
    gamma = float(local.uniform(-0.5, 0.5))
    elem = (sosre(wr, float(local.uniform(0.5, 1.0)), gamma) if kind == "SOSRE"
            else pci(wr, gamma) if kind == "PCI" else gfore(wr, gamma))
    den = [0.0, 1.0] if local.uniform() < 0.3 else [1.0]
    for p in scale * 10.0 ** local.uniform(-1, 1, int(local.integers(1, 4))):
        den = np.convolve(den, [1.0, 1.0 / p])
    g = tf([10.0 ** local.uniform(-0.5, 0.5)], den)
    z = scale * 10.0 ** local.uniform(-1, 1)
    c_s = tf([1.0, 1.0 / z], [1.0, 0.1 / z]) if architecture == "modified" else ONE
    loop = Loop(elem, ONE, ONE, g, c_s, architecture)
    out = asymptotic_angles(loop.loop_tf, c_s, loop.c_r, loop.variant)
    grid = loop.grid()
    far = _nsv_arrays(loop.samples([1e-4 * grid[0], 1e4 * grid[-1]]),
                      loop.variant).theta
    assert len(out) == 2
    miss = np.angle(np.exp(1j * (np.asarray(out) - far)))
    assert np.all(np.abs(miss) < 1e-3), (out, far)


class TestAsymptoticAngles:
    def test_double_lag_limits(self):
        elem = gfore(1.0)
        loop = series(base_tf(elem), tf([1.0], [1.0, 1.0]))
        out = asymptotic_angles(loop, ONE, base_tf(elem))
        # w->0: N -> (2, 2): angle pi/4; w->inf: N ~ (-K_n/w^2, wr^2/w^2): angle 3pi/4
        assert pytest.approx(np.pi / 4, abs=1e-12) in out
        assert pytest.approx(3 * np.pi / 4, abs=1e-12) in out

    def test_pci_limits_hand_derived(self):
        # integrator-plus-gain element over a lag: the stability-vector angle
        # tends to atan2(1, Ks0*P(0)) at dc and to pi/2 at high frequency
        for p0 in (2.0, 0.5, 4.0):
            g = tf([p0], [1.0, 1.0])
            elem = pci(2.0)
            loop = series(base_tf(elem), g)
            out = asymptotic_angles(loop, ONE, base_tf(elem))
            assert pytest.approx(np.arctan2(1.0, p0), abs=1e-12) in out
            assert pytest.approx(np.pi / 2, abs=1e-12) in out

    @pytest.mark.parametrize("kind, architecture", [
        ("GFORE", "standard"), ("PCI", "standard"), ("GFORE", "modified"),
        ("PCI", "modified"), ("SOSRE", "standard")])
    def test_limits_match_far_samples(self, kind, architecture):
        # each exact limit is the NSV angle far outside the loop's features
        local = np.random.default_rng(len(kind) + len(architecture))
        for _ in range(4):
            _check_limits_against_far_samples(kind, architecture, 1.0, local)

    @pytest.mark.parametrize("kind", ["GFORE", "PCI", "SOSRE"])
    def test_limits_match_far_samples_at_scale(self, kind):
        # poles and corners at 100-3000 rad/s spread the coefficients of the
        # NSV numerators past 1e12; their small leading terms still set the
        # w -> inf angle
        local = np.random.default_rng(7 + len(kind))
        for _ in range(4):
            _check_limits_against_far_samples(kind, "standard", 300.0, local)

    def test_measured_plant_with_a_negative_gain(self):
        # -0.5/(s+1): at both band edges the measured phase is a half turn
        # from that of the declared slope, so each end's model takes a
        # negative gain; unflipped, the two limits would trade places
        elem, g = gfore(1.0), tf([-0.5], [1.0, 1.0])
        band = np.logspace(-3, 3, 1500)
        rational = certify_first_order(elem, ONE, ONE, g)
        measured = certify_first_order(elem, ONE, ONE, FrfTable(band, evaluate(g, band)),
                                       asymptote=(0, -2))
        exact = asymptotic_angles(series(base_tf(elem), g), ONE, base_tf(elem))
        assert exact == pytest.approx([2.03444, 1.10715], abs=1e-5)     # w -> 0, w -> inf
        got = _frf_asymptote_angles(measured.samples, ONE, base_tf(elem), "standard", 0, -2)
        assert got == pytest.approx(exact, abs=1e-5)
        for v in (rational, measured):
            tv = v.type_verdict
            # both extremes are the limits, not grid samples
            assert (tv.theta1_omega, tv.theta2_omega) == (None, None)
            assert [tv.theta2, tv.theta1] == pytest.approx(exact, abs=1e-5)
        assert measured.certified == rational.certified

    def test_grid_density_doubling_keeps_verdict(self):
        g = tf([1.0], [1.0, 1.0])
        elem = gfore(1.0)
        _, nsv1 = nsv_grid_samples(g, ONE, ONE, ONE, elem, points=500)
        _, nsv2 = nsv_grid_samples(g, ONE, ONE, ONE, elem, points=1000)
        v1 = classify(nsv1)
        v2 = classify(nsv2)
        assert (v1.is_type1, v1.is_type2) == (v2.is_type1, v2.is_type2)

    def test_density_doubling_on_random_family(self):
        for _ in range(10):
            wr = 10.0 ** rng.uniform(-0.5, 0.5)
            elem = gfore(wr, float(rng.uniform(-0.8, 0.8)))
            order = int(rng.integers(1, 4))
            den = [1.0]
            for p in 10.0 ** rng.uniform(-0.7, 0.7, order):
                den = np.convolve(den, [1.0, 1.0 / p])
            g = tf([10.0 ** rng.uniform(-0.7, 0.4)], den)
            verdicts = []
            for points in (600, 1200):
                _, nsv = nsv_grid_samples(g, ONE, ONE, ONE, elem, points=points)
                v = classify(nsv)
                verdicts.append((v.is_type1, v.is_type2))
            assert verdicts[0] == verdicts[1]


def full_rescan(plant, c_s, elem, variant, points, refine):
    """The refinement with every round rescanning the whole grid (signs and the
    unwrapped angle) and evaluating the merged grid afresh: the reference for
    the split-interval rounds of nsv_grid_samples."""
    loop = Loop(elem, ONE, ONE, plant, c_s, "modified" if variant == "modified" else "standard")
    samples, nsv = nsv_grid_samples(plant, ONE, ONE, c_s, elem, variant=variant,
                                    points=points, refine=0)
    for _ in range(refine):
        chi, ups, w = nsv.n_chi, nsv.n_upsilon, nsv.omega
        gaps = np.abs(np.diff(np.unwrap(np.arctan2(ups, chi))))
        flips = np.nonzero((np.sign(chi[:-1]) != np.sign(chi[1:]))
                           | (np.sign(ups[:-1]) != np.sign(ups[1:]))
                           | (gaps >= np.pi / 7.0))[0]
        if flips.size == 0:
            break
        samples = loop.samples(np.unique(np.concatenate([w, np.sqrt(w[flips] * w[flips + 1])])))
        nsv = compute_nsv(samples, variant)
    return samples, nsv


def assert_identical(got, ref):
    """Every array of every record of ``got`` equals ``ref``'s bit for bit."""
    for a, b in zip(got, ref):
        for f in fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


class TestGridRefinement:
    G = tf([1.0], [1.0, 1.0])
    LEAD = tf([1.0, 0.5], [1.0, 5.0])

    def cases(self):
        band = np.logspace(-2, 2, 300)
        return [
            ("standard", self.G, gfore(1.0, 0.2), ONE),
            ("standard", tf([1.0], [0.0, 1.0, 1.0]), pci(2.0, 0.3), self.LEAD),
            ("modified", self.G, gfore(1.0, 0.2), self.LEAD),
            ("sosre", tf([1.0], [0.0, 1.0, 1.0]), sosre(2.0, 1.0, 0.5), ONE),
            ("standard", FrfTable(band, evaluate(tf([2.0], [1.0, 1.0, 1.0]), band)),
             gfore(1.0), ONE),
        ]

    def test_refine_zero_is_the_base_grid(self):
        elem = gfore(1.0, 0.2)
        samples, nsv = nsv_grid_samples(self.G, ONE, ONE, ONE, elem, points=40, refine=0)
        assert np.array_equal(samples.omega, Loop(elem, ONE, ONE, self.G).grid(40))
        assert np.array_equal(nsv.omega, samples.omega)
        band = np.logspace(-2, 2, 300)
        table = FrfTable(band, evaluate(self.G, band))
        samples, _ = nsv_grid_samples(table, ONE, ONE, ONE, elem, points=50, refine=0)
        assert np.array_equal(samples.omega, np.logspace(-2, 2, 50))

    def test_default_is_refine_levels(self):
        for variant, plant, elem, c_s in self.cases():
            a = nsv_grid_samples(plant, ONE, ONE, c_s, elem, variant=variant, points=60)
            b = nsv_grid_samples(plant, ONE, ONE, c_s, elem, variant=variant, points=60,
                                 refine=8)
            c = nsv_grid_samples(plant, ONE, ONE, c_s, elem, variant=variant, points=60,
                                 refine=1)
            assert np.array_equal(a[1].omega, b[1].omega)
            assert len(c[1]) < len(a[1])

    def test_incremental_equals_fresh_evaluation(self):
        # only the midpoints of each round are evaluated; the result must be
        # bit-identical to evaluating the final grid from scratch
        for variant, plant, elem, c_s in self.cases():
            for refine in (1, 3, REFINE_LEVELS):
                samples, nsv = nsv_grid_samples(plant, ONE, ONE, c_s, elem, variant=variant,
                                                points=80, refine=refine)
                fresh = compose_loop(plant, ONE, base_tf(elem), ONE, c_s, samples.omega,
                                     include_shaping_in_loop=variant == "modified")
                for name in ("omega", "loop", "shaping", "reset_base"):
                    assert np.array_equal(getattr(samples, name), getattr(fresh, name)), name
                ref = compute_nsv(fresh, variant)
                for name in ("omega", "n_chi", "n_upsilon", "theta"):
                    assert np.array_equal(getattr(nsv, name), getattr(ref, name)), name
                assert len(nsv) == samples.omega.size > 80
                assert np.all(np.diff(nsv.omega) > 0)

    def test_split_intervals_equal_full_rescans(self, workloads):
        loops = [(*case, 80) for case in self.cases()]
        loops += [(lp.variant, lp.plant, lp.element, lp.c_s, workloads.FO_POINTS)
                  for lp in workloads.fo_loops(11)[::5]]
        assert len(loops) == 5 + 24
        grown = 0
        for variant, plant, elem, c_s, points in loops:
            for refine in (1, 3, 8):
                got = nsv_grid_samples(plant, ONE, ONE, c_s, elem, variant=variant,
                                       points=points, refine=refine)
                ref = full_rescan(plant, c_s, elem, variant, points, refine)
                assert_identical(got, ref)
            grown += len(got[1]) > points
        assert grown >= 20

    def stress_loops(self):
        """A measured table with seeded phase noise, which flags dozens of base
        intervals, and ROADMAP item 1's notched GFORE loop, which flags one."""
        band = np.logspace(-2, 2, 1200)
        noise = np.random.default_rng(5).normal(0.0, 0.3, band.size)
        noisy = FrfTable(band, evaluate(tf([2.0], [1.0, 1.0, 1.0]), band) * np.exp(1j * noise))
        zeta, wz, wp = 1e-4, 1.7, 1.7 * (1 - 3e-4)
        notch = tf([1.0, 2 * zeta / wz, 1 / wz**2], [1.0, 2 * zeta / wp, 1 / wp**2])
        return {"noisy": (noisy, gfore(1.0)),
                "notched": (series(tf([2.0], [1.0, 2.0, 1.0]), notch), gfore(1.0, 0.0))}

    @staticmethod
    def evaluations(monkeypatch, plant, elem, points, refine, allowed=None):
        """Grid sizes of the loop evaluations of one nsv_grid_samples call; with
        ``allowed``, an evaluation at any other frequency raises EvaluationAtPole."""
        sizes = []

        def compose(*args, **kwargs):
            sizes.append(np.size(args[5]))
            if allowed is not None and not np.isin(args[5], allowed).all():
                raise EvaluationAtPole("node outside the allowed grid")
            return compose_loop(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(frf, "compose_loop", compose)
            got = nsv_grid_samples(plant, ONE, ONE, ONE, elem, points=points, refine=refine)
        return sizes, got

    @pytest.mark.parametrize("case", ["noisy", "notched"])
    def test_stages_equal_full_rescans(self, case, monkeypatch):
        plant, elem = self.stress_loops()[case]
        # on 40 base points some tree intervals of the noisy table are flagged
        # although the interval they halve is not split: no level reaches them
        for points in (40, 2000, 8000):
            for refine in (1, 3, 8):
                got = nsv_grid_samples(plant, ONE, ONE, ONE, elem, points=points, refine=refine)
                ref = full_rescan(plant, ONE, elem, "standard", points, refine)
                assert_identical(got, ref)
        for points in (2000, 8000):
            flagged = self.evaluations(monkeypatch, plant, elem, points, 1)[0][1]
            stages = len(self.evaluations(monkeypatch, plant, elem, points, 8)[0]) - 1
            if case == "noisy":
                assert flagged >= 24 and stages >= 2
            else:
                assert flagged <= 3 and stages == 1

    def test_stage_costs(self, monkeypatch):
        loops = self.stress_loops()
        # one flagged base interval: the base grid, then one stage of every level
        plant, elem = loops["notched"]
        assert self.evaluations(monkeypatch, plant, elem, 2000, 1)[0] == [2000, 1]
        sizes = self.evaluations(monkeypatch, plant, elem, 2000, REFINE_LEVELS)[0]
        assert sizes == [2000, 2 ** REFINE_LEVELS - 1]
        # many flagged intervals: no stage evaluates more points than the base grid
        plant, elem = loops["noisy"]
        for points in (2000, 8000):
            sizes = self.evaluations(monkeypatch, plant, elem, points, REFINE_LEVELS)[0]
            assert sizes[0] == points and max(sizes[1:]) <= points
            assert len(sizes) <= 1 + REFINE_LEVELS

    def test_pole_off_the_refined_grid_is_not_raised(self, monkeypatch):
        # a stage also evaluates nodes that no level inserts; a pole at one of
        # them must not refuse a loop that level-by-level bisection accepts
        plant, elem = self.stress_loops()["notched"]
        ref = full_rescan(plant, ONE, elem, "standard", 2000, REFINE_LEVELS)
        sizes, got = self.evaluations(monkeypatch, plant, elem, 2000, REFINE_LEVELS,
                                      allowed=ref[0].omega)
        assert sizes == [2000, 2 ** REFINE_LEVELS - 1] + [1] * REFINE_LEVELS
        assert_identical(got, ref)
        # a pole at a node that bisection inserts is still raised
        base = Loop(elem, ONE, ONE, plant).grid(2000)
        with pytest.raises(EvaluationAtPole):
            self.evaluations(monkeypatch, plant, elem, 2000, REFINE_LEVELS, allowed=base)

    def test_too_sparse_base_grid_refused(self):
        # 2, 3 and 5 base points certified this loop although its angle range
        # at 2000 and 20 000 points is outside both type windows
        g = tf([6.795402602067963], [1.0, 3.1611319340646222, 3.4059823625147803,
                                      1.5256019764593227, 0.2425253309630471])
        elem = gfore(0.16582720168443063, 0.19990553866877359)
        for points in (2, 3, 5, 31):
            with pytest.raises(GridTooSparse):
                certify_first_order(elem, ONE, ONE, g, points=points)
        v = certify_first_order(elem, ONE, ONE, g, points=2000)
        assert not v.certified
        assert v.type_verdict.theta1 < -1.5 and v.type_verdict.theta2 > 4.7

    def test_verdict_carries_final_grid(self):
        v = certify_first_order(pci(1.0, 0.3), ONE, ONE, tf([1.0], [2.0, 1.0]), points=300)
        samples, nsv = nsv_grid_samples(tf([1.0], [2.0, 1.0]), ONE, ONE, ONE, pci(1.0, 0.3),
                                        points=300)
        assert np.array_equal(v.samples.loop, samples.loop)
        for name in ("omega", "n_chi", "n_upsilon", "theta"):
            assert np.array_equal(getattr(v.nsv, name), getattr(nsv, name))
