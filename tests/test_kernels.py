"""Bit-identity of the first-order path's rewritten kernels.

Each test holds a frozen copy of an earlier formula as its reference and
checks, on seeded inputs, that the kernel computes the same floats (or makes
the same decision) in fewer numpy calls.
"""

import numpy as np
import pytest

from resetcert.errors import EvaluationAtPole, SparseGrid
from resetcert.lti import CANONICAL_RTOL, canonical, evaluate, polyval_jw, tf
from resetcert.nsv import THETA_GAP_MAX, Nsv, _tree, classify


# ---------------------------------------------------------------------------
# frozen reference formulas
# ---------------------------------------------------------------------------

def canonical_ref(coeffs, terms):
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    kept = (np.abs(c) > CANONICAL_RTOL * np.asarray(terms)).nonzero()[0]
    return c[:kept[-1] + 1].copy() if kept.size else np.zeros(1)


def polyval_jw_ref(coeffs, omega):
    s = 1j * np.asarray(omega, dtype=float)
    acc = np.zeros_like(s, dtype=complex)
    for c in np.asarray(coeffs, float)[::-1]:
        acc = acc * s + c
    return acc


def evaluate_ref(tfn, omega):
    num_v = polyval_jw_ref(tfn.num, omega)
    den_v = polyval_jw_ref(tfn.den, omega)
    w = np.abs(np.asarray(omega, float))
    w_pos = np.maximum(w, 1e-300)
    bound = sum(abs(c) * w_pos ** k for k, c in enumerate(tfn.den))
    bad = np.abs(den_v) <= 1e-14 * bound
    if bad.any():
        w_bad = np.atleast_1d(w)[np.atleast_1d(bad)][0]
        raise EvaluationAtPole(f"denominator underflows at omega={w_bad:g}")
    out = num_v / den_v
    return complex(out) if out.ndim == 0 else out


def density_gap_ref(theta):
    return np.max(np.abs(np.diff(np.unwrap(theta))))


def tree_ref(depth):
    width = 2 ** depth
    steps = width >> np.arange(1, depth + 1)
    node = np.concatenate([np.arange(s, width, 2 * s) for s in steps])
    half = np.repeat(steps, width // (2 * steps))
    return steps, node, half


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def wide_coefficients(rng, degree):
    """Signed coefficients spread over up to 300 decades."""
    spread = rng.choice([1.0, 20.0, 150.0])
    return rng.choice([-1.0, 1.0], degree + 1) * 10.0 ** rng.uniform(-spread, spread, degree + 1)


def coefficient_sets(seed=7, count=600):
    """Degrees 0-30, exact zeros (both signs) at either end and inside."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c = wide_coefficients(rng, int(rng.integers(0, 31)))
        if rng.random() < 0.4:
            c[:int(rng.integers(1, c.size + 1))] = 0.0
        if rng.random() < 0.4:
            c[c.size - int(rng.integers(1, c.size + 1)):] = rng.choice([0.0, -0.0])
        c[rng.random(c.size) < 0.1] = 0.0
        yield c


class TestCanonical:
    def test_exact_zero_rule(self):
        seen = set()
        for c in coefficient_sets():
            got = canonical(c)
            ref = canonical_ref(c, 0.0)
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
            assert not np.shares_memory(got, c)
            seen.add((got.size == c.size, got.size == 1 and got[0] == 0.0))
        assert {(True, False), (False, False), (False, True)} <= seen
        for scalar in (0.0, -0.0, 2.5):
            assert np.array_equal(canonical(scalar), canonical_ref(scalar, 0.0))
        assert np.array_equal(canonical([]), canonical_ref([], 0.0))

    def test_noise_rule(self):
        rng = np.random.default_rng(11)
        stripped = 0
        for c in coefficient_sets(seed=12):
            # terms at or above each magnitude; noise at about 1e-12 of the
            # largest term appended at the top
            terms = np.abs(c) * rng.uniform(1.0, 3.0, c.size)
            top = float(terms.max()) or 1.0
            noisy = np.concatenate([c, top * 1e-12 * rng.uniform(0.05, 2.0, 2)])
            noisy_terms = np.concatenate([terms, [top, top]])
            for coeffs, t in ((c, terms), (noisy, noisy_terms), (noisy, top)):
                got, ref = canonical(coeffs, t), canonical_ref(coeffs, t)
                assert np.array_equal(got, ref)
                stripped += got.size < coeffs.size
        assert stripped > 300


class TestHorner:
    def test_polyval_jw_arrays_and_scalars(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            c = canonical(wide_coefficients(rng, int(rng.integers(0, 13))))
            omega = np.concatenate([[0.0], 10.0 ** rng.uniform(-6, 6, 40),
                                    -10.0 ** rng.uniform(-3, 3, 5)])
            assert np.array_equal(polyval_jw(c, omega), polyval_jw_ref(c, omega))
            for w in omega[:4]:
                got, ref = polyval_jw(c, w), polyval_jw_ref(c, w)
                assert np.ndim(got) == 0 and np.array_equal(got, ref)

    @staticmethod
    def outcome(fn, tfn, omega):
        try:
            return fn(tfn, omega)
        except EvaluationAtPole as exc:
            return str(exc)

    def test_evaluate_values_and_pole_guard(self):
        # grids straddling imaginary-axis poles, an origin pole and a lightly
        # damped pair, through w0 and a few ulps either side of it; the other
        # real poles lie in either half-plane, so den has coefficients of
        # both signs
        rng = np.random.default_rng(33)
        eps = np.finfo(float).eps
        raised = returned = 0
        for _ in range(150):
            w0 = 10.0 ** rng.uniform(-3, 3)
            k = rng.integers(0, 4)
            others = np.poly(rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-2, 2, k))
            damping = rng.choice([0.0, 2e-9, -1.0])      # -1: a pole at the origin instead
            den = np.convolve([0.0, 1.0] if damping < 0 else [w0 * w0, damping * w0, 1.0],
                              np.atleast_1d(others)[::-1])
            tfn = tf(wide_coefficients(rng, int(rng.integers(0, den.size - 1))), den)
            near = w0 * (1.0 + np.arange(-4, 5) * eps)
            grid = np.concatenate([[0.0], np.logspace(-4, 4, 40) * w0, near])
            for omega in (grid, np.logspace(-4, 4, 40) * w0):
                got, ref = (self.outcome(fn, tfn, omega) for fn in (evaluate, evaluate_ref))
                assert type(got) is type(ref) and np.array_equal(got, ref)
            # point by point: a pole is raised at exactly the same frequencies
            for w in grid:
                got, ref = (self.outcome(fn, tfn, w) for fn in (evaluate, evaluate_ref))
                assert type(got) is type(ref) and got == ref
                raised += isinstance(ref, str)
                returned += not isinstance(ref, str)
        assert raised > 300 and returned > 3000


class TestWrappedDensityGap:
    @staticmethod
    def decision(theta):
        nsv = Nsv(np.arange(1.0, theta.size + 1.0), np.cos(theta), np.sin(theta), theta)
        try:
            classify(nsv)
        except SparseGrid:
            return True
        return False

    def test_same_sparse_grid_decision(self):
        rng = np.random.default_rng(45)
        eps = np.finfo(float).eps
        decisions, seams = set(), 0
        for _ in range(400):
            n = int(rng.integers(2, 60))
            # steps near pi/6 either way, small steps, and wraps across the
            # [-pi/2, 3pi/2) seam (raw steps near 2 pi).  Within a few ulps of
            # pi/6 the two roundings of a step across the seam may differ
            near_gap = THETA_GAP_MAX * (1.0 + rng.choice([-1e-12, -1e-9, 1e-9, 1e-12], n))
            steps = np.where(rng.random(n) < 0.3, near_gap, rng.uniform(-0.4, 0.4, n))
            steps *= rng.choice([-1.0, 1.0], n)
            raw = rng.uniform(-np.pi, np.pi) + np.cumsum(steps)
            theta = np.mod(raw + np.pi / 2, 2 * np.pi) - np.pi / 2
            if rng.random() < 0.2:
                theta[rng.integers(0, n)] = 3 * np.pi / 2 - eps * 4   # next to the seam
            got = self.decision(theta)
            assert got == bool(density_gap_ref(theta) >= THETA_GAP_MAX)
            decisions.add(got)
            seams += bool(np.any(np.abs(np.diff(theta)) > np.pi))
        assert decisions == {True, False} and seams > 100


class TestTree:
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_equals_the_inline_construction(self, depth):
        got = _tree(depth)
        for a, b in zip(got, tree_ref(depth)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert not a.flags.writeable
        assert _tree(depth) is got
