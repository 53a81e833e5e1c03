"""Rational transfer functions, canonical realizations, and closed-loop assembly.

Polynomials are real coefficient arrays in ascending powers of s, e.g.
``[1.0, 2.0, 1.0]`` is ``1 + 2s + s^2``.  Trailing (high-order) zeros are
stripped on construction, and sums strip the rounding noise of their
leading terms (``polysum``), so degrees are canonical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    EvaluationAtPole,
    ImproperTransferFunction,
    InsufficientFrfResolution,
    NonStrictlyProperPlant,
    NormalizationError,
)

CANONICAL_RTOL = 1e-12      # rounding-noise threshold of a sum, relative to its terms
ROOT_MATCH_RTOL = 1e-6      # pole/zero cancellation matching tolerance
RANK_RTOL = 1e-9            # singular-value threshold for rank tests


# ---------------------------------------------------------------------------
# polynomial helpers (ascending coefficients)
# ---------------------------------------------------------------------------

def canonical(coeffs, terms=None) -> np.ndarray:
    """Strip trailing zeros and trailing rounding noise.

    ``terms`` bounds, per coefficient (or as one scalar), the sum of the
    magnitudes of the terms whose sum made it; a trailing coefficient at
    most CANONICAL_RTOL times that is rounding noise of its sum.  A product
    of canonical polynomials has a single leading term, so however far its
    leading coefficient sits below the others (wide pole spreads put it many
    decades down) it is never noise.  ``terms=None`` strips exact zeros only.
    """
    c = np.array(coeffs, dtype=float, ndmin=1)     # a copy
    if terms is None:
        if c.size and c[-1] != 0.0:
            return c
        kept = c.nonzero()[0]
    else:
        kept = (np.abs(c) > CANONICAL_RTOL * np.asarray(terms)).nonzero()[0]
    return c[:kept[-1] + 1].copy() if kept.size else np.zeros(1)


def polymul(a, b) -> np.ndarray:
    return np.convolve(np.asarray(a, float), np.asarray(b, float))


def polyadd(a, b) -> np.ndarray:
    a, b = np.asarray(a, float), np.asarray(b, float)
    n = max(a.size, b.size)
    out = np.zeros(n)
    out[: a.size] += a
    out[: b.size] += b
    return out


def polysum(*products) -> np.ndarray:
    """The sum of the polynomial products a*b over the pairs ``products``,
    with its trailing rounding noise stripped against its terms."""
    size = max(len(a) + len(b) - 1 for a, b in products)
    total, bound = np.zeros(size), np.zeros(size)
    for a, b in products:
        term = np.convolve(a, b)
        total[:term.size] += term
        bound[:term.size] += np.convolve(np.abs(a), np.abs(b))
    return canonical(total, bound)


def _horner(coeffs: np.ndarray, x, dtype):
    """sum(coeffs[k] * x**k) by Horner's scheme in place, from the leading
    coefficient; x may be an array."""
    acc = np.full(np.shape(x), coeffs[-1], dtype)
    for c in coeffs[-2::-1]:
        acc *= x
        acc += c
    return acc


def polyval_jw(coeffs, omega):
    """Evaluate p(j*omega) by Horner's scheme; omega may be an array."""
    return _horner(np.asarray(coeffs, float), 1j * np.asarray(omega, dtype=float), complex)


# ---------------------------------------------------------------------------
# rational transfer function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalTF:
    """Real-rational transfer function num(s)/den(s), ascending coefficients."""

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        num = canonical(self.num)       # the coefficients are taken as exact
        den = canonical(self.den)
        # a NaN or an infinity makes the sum non-finite; so may an overflow,
        # which the exact test then lets through
        if not math.isfinite(sum(num.tolist()) + sum(den.tolist())):
            for name, c in (("num", num), ("den", den)):
                if not np.isfinite(c).all():
                    raise DomainError(f"transfer function {name} needs finite coefficients, "
                                      f"got {c.tolist()}")
        if den.size == 1 and den[0] == 0.0:
            raise DomainError("transfer function denominator is zero")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def constant(k: float) -> "RationalTF":
        return RationalTF(np.array([float(k)]), np.array([1.0]))

    # -- structure (num and den are canonical) -----------------------------
    @property
    def degree_num(self) -> int:
        return self.num.size - 1

    @property
    def degree_den(self) -> int:
        return self.den.size - 1

    def is_zero(self) -> bool:
        return self.num.size == 1 and self.num[0] == 0.0

    def is_proper(self) -> bool:
        return self.is_zero() or self.degree_num <= self.degree_den

    def is_strictly_proper(self) -> bool:
        return self.is_zero() or self.degree_num < self.degree_den

    def poles(self) -> np.ndarray:
        return poly_roots(self.den)

    def zeros(self) -> np.ndarray:
        return np.array([]) if self.is_zero() else poly_roots(self.num)

    def __mul__(self, other) -> "RationalTF":
        if isinstance(other, RationalTF):
            return series(self, other)
        return RationalTF(self.num * float(other), self.den)

    __rmul__ = __mul__

    def __add__(self, other) -> "RationalTF":
        if not isinstance(other, RationalTF):
            other = RationalTF.constant(float(other))
        num = polysum((self.num, other.den), (other.num, self.den))
        return RationalTF(num, polymul(self.den, other.den))

    def __repr__(self):
        return f"RationalTF(num={list(self.num)}, den={list(self.den)})"


def tf(num, den=(1.0,)) -> RationalTF:
    return RationalTF(np.asarray(num, float), np.asarray(den, float))


def poly_roots(coeffs) -> np.ndarray:
    """Roots via companion-matrix eigenvalues (numpy.roots, trailing zeros
    stripped); a companion matrix past float range is a DomainError."""
    c = canonical(coeffs)
    if c.size <= 1:
        return np.array([])
    try:
        return np.roots(c[::-1])
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"no roots of the polynomial {c.tolist()}: {exc}") from None


def evaluate(tfn: RationalTF, omega):
    """Frequency response num(jw)/den(jw); omega scalar or array, rad/s."""
    num_v = polyval_jw(tfn.num, omega)
    den_v = polyval_jw(tfn.den, omega)
    # scale-free pole guard: |den(jw)| against the coefficient magnitude
    # bound sum |den_k| |w|^k
    w = np.abs(np.asarray(omega, float))
    bound = _horner(np.abs(tfn.den), w, float)
    bad = np.abs(den_v) <= 1e-14 * bound
    if bad.any():
        w_bad = np.atleast_1d(w)[np.atleast_1d(bad)][0]
        raise EvaluationAtPole(f"denominator underflows at omega={w_bad:g}")
    out = num_v / den_v
    return complex(out) if out.ndim == 0 else out


def series(a: RationalTF, b: RationalTF) -> RationalTF:
    """Cascade a*b; polynomial products, no pole-zero cancellation performed."""
    return RationalTF(polymul(a.num, b.num), polymul(a.den, b.den))


def relative_degree(tfn: RationalTF) -> int:
    return tfn.degree_den - tfn.degree_num


def leading_coefficients(loop_times_shaping: RationalTF, shaping: RationalTF):
    """High-frequency gain of L*Cs and the DC numerator constant of Cs.

    Returns ``(k_n, k_s0)`` where ``k_n = lim s^(n-m) L(s)Cs(s)`` is the ratio
    of leading coefficients, and ``k_s0 = Cs(0)`` after normalizing the
    shaping-filter denominator constant term to 1.
    """
    k_n = loop_times_shaping.num[-1] / loop_times_shaping.den[-1]
    d0 = shaping.den[0]
    if abs(d0) <= CANONICAL_RTOL * np.max(np.abs(shaping.den)):
        raise NormalizationError("shaping filter denominator constant term is zero")
    k_s0 = shaping.num[0] / d0
    return float(k_n), float(k_s0)


# ---------------------------------------------------------------------------
# state space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateSpace:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, float))
        B = np.atleast_2d(np.asarray(self.B, float))
        C = np.atleast_2d(np.asarray(self.C, float))
        D = np.atleast_2d(np.asarray(self.D, float))
        n = A.shape[0]
        if A.shape != (n, n) or B.shape[0] != n or C.shape[1] != n and n > 0:
            raise DimensionMismatch(f"incompatible shapes A{A.shape} B{B.shape} C{C.shape}")
        if n == 0:
            B = B.reshape(0, max(B.shape[1], D.shape[1]))
            C = C.reshape(max(C.shape[0], D.shape[0]), 0)
        if D.shape != (C.shape[0], B.shape[1]):
            raise DimensionMismatch(f"D{D.shape} incompatible with C{C.shape}, B{B.shape}")
        for name, m in (("A", A), ("B", B), ("C", C), ("D", D)):
            object.__setattr__(self, name, m)

    @property
    def order(self) -> int:
        return self.A.shape[0]


def to_state_space(tfn: RationalTF, form: str = "controllable") -> StateSpace:
    """Canonical realization of a proper transfer function.

    ``controllable``: top-row companion matrix, B = e1, matching the usual
    template A = [[-a_{n-1} ... -a_0], [I, 0]].  ``observable``: its dual,
    with the coefficients in the last column, B carrying the numerator and
    C = e_n.
    """
    if not tfn.is_proper():
        raise ImproperTransferFunction(f"relative degree {relative_degree(tfn)} < 0")
    den = tfn.den / tfn.den[-1]
    num = tfn.num / tfn.den[-1]
    n = den.size - 1
    d = num[n] if num.size == n + 1 else 0.0
    rem = polyadd(num, -d * den)[:n] if n else np.zeros(0)
    rem = np.pad(rem, (0, n - rem.size))
    if n == 0:
        return StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                          np.array([[d]]))
    A = np.eye(n, k=-1)
    A[0, :] = -den[:n][::-1]
    B = np.eye(n, 1)
    C = rem[::-1].reshape(1, n)
    if form == "observable":
        # the dual of the controllable form, (J A^T J, J C^T, B^T J) with J
        # the reversal permutation
        A, B, C = (np.ascontiguousarray(m) for m in (A.T[::-1, ::-1], C.T[::-1], B.T[:, ::-1]))
    elif form != "controllable":
        raise ValueError(f"unknown canonical form {form!r}")
    return StateSpace(A, B, C, np.array([[d]]))


def to_transfer_function(ss: StateSpace) -> RationalTF:
    """SISO transfer function C (sI-A)^-1 B + D via the Faddeev recursion."""
    A, B, C, D = ss.A, ss.B, ss.C, ss.D
    n = A.shape[0]
    if B.shape[1] != 1 or C.shape[0] != 1:
        raise DimensionMismatch("SISO reconstruction only")
    # den(s) = s^n + c_{n-1} s^{n-1} + ... ; num from C adj(sI-A) B
    den = np.zeros(n + 1)
    den[n] = 1.0
    num = np.zeros(n + 1)
    M = np.eye(n)
    for k in range(1, n + 1):
        num[n - k] = (C @ M @ B).item()
        AM = A @ M
        c = -np.trace(AM) / k
        den[n - k] = c
        M = AM + c * np.eye(n)
    num = polyadd(num, float(D[0, 0]) * den)
    # the recursion leaves noise above deg num; its terms are not tracked,
    # so each coefficient is judged against the largest one
    return RationalTF(canonical(num, np.abs(num).max()), den)


# ---------------------------------------------------------------------------
# closed-loop assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedLoop:
    """Hybrid closed loop: flow matrices plus the block-diagonal jump map."""

    a_bar: np.ndarray
    b_bar: np.ndarray       # columns: [reference, disturbance]
    c_bar: np.ndarray       # plant output y
    c_e_bar: np.ndarray     # reset-triggering signal e_r (state part)
    a_rho_bar: np.ndarray
    d_e: float

    @property
    def order(self) -> int:
        return self.a_bar.shape[0]


def assemble_closed_loop(reset_ss: StateSpace, a_rho, c_l1: RationalTF,
                         c_l2: RationalTF, g: RationalTF, c_s: RationalTF,
                         architecture: str = "standard") -> ClosedLoop:
    """Interconnect the reset element with the linear blocks.

    The state is x = [x_r, zeta]; jumps multiply x_r by ``a_rho`` and leave
    zeta untouched.  ``architecture="modified"`` places the shaping filter in
    the loop ahead of the reset element instead of on the trigger tap.
    """
    a_rho = np.atleast_2d(np.asarray(a_rho, float))
    n_r = reset_ss.order
    if a_rho.shape != (n_r, n_r):
        raise DimensionMismatch(f"a_rho {a_rho.shape} vs reset order {n_r}")
    if not g.is_strictly_proper():
        raise NonStrictlyProperPlant("plant block must be strictly proper")
    for name, block in (("c_l1", c_l1), ("c_l2", c_l2), ("c_s", c_s)):
        if not block.is_proper():
            raise ImproperTransferFunction(f"{name} must be proper")

    # the LTI surroundings of the reset element, state zeta: input u_r,
    # exogenous w = [r, d], outputs y, e_r and the reset element's input u_1
    s1 = to_state_space(c_l1)
    s2 = to_state_space(c_l2)
    sg = to_state_space(g)
    ss_ = to_state_space(c_s)
    n1, n2, ng, ns = s1.order, s2.order, sg.order, ss_.order
    n_p = n1 + n2 + ng + ns
    i1 = slice(0, n1)
    i2 = slice(n1, n1 + n2)
    ig = slice(n1 + n2, n1 + n2 + ng)
    is_ = slice(n1 + n2 + ng, n_p)
    D1 = float(s1.D[0, 0])
    D2 = float(s2.D[0, 0])
    Ds = float(ss_.D[0, 0])

    A = np.zeros((n_p, n_p))
    A[i1, i1] = s1.A
    A[i2, i2] = s2.A
    A[ig, ig] = sg.A
    A[is_, is_] = ss_.A
    A[i1, ig] = -s1.B @ sg.C                      # e = r - y feeds C_L1
    A[ig, i2] = sg.B @ s2.C                       # C_L2 output into plant

    B_u = np.zeros((n_p, 1))
    B_u[i2] = s2.B
    B_u[ig] = sg.B * D2

    B_w = np.zeros((n_p, 2))
    B_w[i1, 0:1] = s1.B
    B_w[ig, 1:2] = sg.B                           # disturbance enters plant input

    C_y = np.zeros((1, n_p))
    C_y[0, ig] = sg.C

    # v = C_L1(r - y) drives the shaping filter, whose output is C_s(v)
    C_v = np.zeros((1, n_p))
    C_v[0, i1] = s1.C
    C_v[0, ig] = -D1 * sg.C
    A[is_, :] += ss_.B @ C_v
    B_w[is_, 0:1] += ss_.B * D1
    C_e = Ds * C_v
    C_e[0, is_] += ss_.C[0]
    D_e = Ds * D1
    if architecture == "standard":          # e_r = C_s(v) sits outside the loop: u_1 = v
        C_u, D_1 = C_v, D1
    elif architecture == "modified":        # the filter sits in the loop: u_1 = e_r
        C_u, D_1 = C_e, D_e
    else:
        raise ValueError(f"unknown architecture {architecture!r}")
    Ar, Br, Cr, Dr = reset_ss.A, reset_ss.B, reset_ss.C, float(reset_ss.D[0, 0])

    a_bar = np.zeros((n_r + n_p, n_r + n_p))
    a_bar[:n_r, :n_r] = Ar
    a_bar[:n_r, n_r:] = Br @ C_u
    a_bar[n_r:, :n_r] = B_u @ Cr
    a_bar[n_r:, n_r:] = A + Dr * (B_u @ C_u)

    b_bar = np.zeros((n_r + n_p, 2))
    b_bar[n_r:, :] = B_w
    b_bar[:n_r, 0:1] += Br * D_1
    b_bar[n_r:, 0:1] += B_u * (Dr * D_1)

    c_bar = np.hstack([np.zeros((1, n_r)), C_y])
    c_e_bar = np.hstack([np.zeros((1, n_r)), C_e])

    a_rho_bar = np.eye(n_r + n_p)
    a_rho_bar[:n_r, :n_r] = a_rho
    return ClosedLoop(a_bar, b_bar, c_bar, c_e_bar, a_rho_bar, float(D_e))


# ---------------------------------------------------------------------------
# stability, minimality, rank tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    poles: np.ndarray = field(default_factory=lambda: np.array([]))
    encirclements: int | None = None


def base_linear_stability(loop: RationalTF) -> StabilityReport:
    """Closed-loop stability of the unity-feedback loop 1 + L(s) = 0."""
    char = polysum((loop.den, [1.0]), (loop.num, [1.0]))
    roots = poly_roots(char)
    stable = bool(np.all(roots.real < 0.0)) if roots.size else True
    return StabilityReport(stable=stable, poles=roots)


def nyquist_stability_from_samples(omega, loop_values, rhp_poles: int = 0,
                                   origin_poles: int = 0) -> StabilityReport:
    """Closed-loop stability from sampled L(jw), w > 0 ascending.

    Counts counter-clockwise encirclements of -1 by doubling the positive-
    frequency phase change of 1 + L (conjugate symmetry) and adding the
    clockwise arc contributed by declared open-loop poles at the origin.
    The declared number of open-loop RHP poles closes the criterion.
    """
    kappa = 1.0 + np.asarray(loop_values, complex)
    steps = np.angle(kappa[1:] / kappa[:-1])
    if np.any(np.abs(steps) > np.pi / 2):
        i = int(np.argmax(np.abs(steps)))
        raise InsufficientFrfResolution(
            f"phase step {steps[i]:.3f} rad between samples {i} and {i + 1}")
    total_ccw = 2.0 * float(np.sum(steps)) - origin_poles * np.pi
    n_ccw = int(np.round(total_ccw / (2.0 * np.pi)))
    return StabilityReport(stable=(n_ccw == rhp_poles), encirclements=n_ccw)


def minimality_check(loop: RationalTF):
    """Common roots of numerator and denominator (open-loop cancellations).

    Returns a list of cancelling root locations; empty means minimal.  A zero
    cancels when the denominator residual there is small relative to its
    coefficient scale; this matches the 1e-6 root distance for simple poles
    and stays robust for clustered multiple roots.
    """
    if loop.is_zero():
        return []
    zs = loop.zeros()
    den = loop.den
    hits = []
    for z in zs:
        r = max(abs(z), 1.0)
        scale = sum(abs(c) * r**k for k, c in enumerate(den))
        val = sum(c * z**k for k, c in enumerate(den))
        if abs(val) <= ROOT_MATCH_RTOL * scale:
            hits.append(complex(z))
    return hits


def balance(a: np.ndarray):
    """(D^-1 a D, d) with D = diag(d) a power-of-two scaling that brings the
    off-diagonal row and column 1-norms of each index within a factor of 2
    (Parlett & Reinsch).  The scaling is exact in floating point.  An index
    whose off-diagonal sums are zero or overflow is left as it is."""
    a = a.copy()
    d = np.ones(a.shape[0])
    done = False
    while not done:
        done = True
        for i in range(a.shape[0]):
            col = float(np.abs(a[:, i]).sum() - abs(a[i, i]))
            row = float(np.abs(a[i, :]).sum() - abs(a[i, i]))
            if col == 0.0 or row == 0.0 or not math.isfinite(col + row):
                continue
            total, f = col + row, 1.0
            while col < row / 2.0:
                col, row, f = 2.0 * col, row / 2.0, 2.0 * f
            while col >= 2.0 * row:
                col, row, f = col / 2.0, 2.0 * row, f / 2.0
            if col + row < 0.95 * total:
                done = False
                d[i] *= f
                a[:, i] *= f
                a[i, :] /= f
    return a, d


def controllability_observability(a, b=None, c=None):
    """Rank tests for controllability of (A, B) and observability of (A, C).

    Returns ``(controllable, observable)``; an omitted b or c yields None in
    the corresponding slot.  Each pair is tested through the eigenvalue
    pencil rank([lambda*I - A, B]) with the singular-value threshold RANK_RTOL,
    observability as controllability of the dual pair (A^T, C^T); the plain
    Krylov stack loses rank information in double precision once the
    eigenvalue spread exceeds a few decades.  A non-finite A, B or C is a
    DomainError, and so is an A whose pencils' 2-norms, at most three times
    that of the balanced A, overflow.
    """
    a = np.atleast_2d(np.asarray(a, float))
    b, c = (None if m is None else np.atleast_2d(np.asarray(m, float)) for m in (b, c))
    for name, m in (("A", a), ("B", b), ("C", c)):
        if m is not None and not np.isfinite(m).all():
            raise DomainError(f"rank test needs a finite {name}")
    n = a.shape[0]
    # diagonal similarity scaling D^-1 A D: rank properties are invariant and
    # the pencil conditioning improves by orders of magnitude
    a, d = balance(a)
    scale = max(np.linalg.norm(a, 2), 1.0) if n else 1.0
    if not math.isfinite(3.0 * scale):     # |lambda| <= |A|_2 and |side|_2 = scale
        raise DomainError(f"rank test needs |A|_2 below {np.finfo(float).max / 3:.3g} "
                          f"after balancing, got {scale:.3g}")
    eigs = np.linalg.eigvals(a) if n else ()      # A and A^T share them

    def pencil_full_rank(m, side):
        side = side / max(np.linalg.norm(side), 1e-300) * scale
        for lam in eigs:
            sv = np.linalg.svd(np.hstack([lam * np.eye(n) - m, side]), compute_uv=False)
            if sv[n - 1] <= RANK_RTOL * max(sv[0], scale):
                return False
        return True

    ctrb = obsv = None
    if b is not None:
        if b.shape[0] != n:
            raise DimensionMismatch(f"B rows {b.shape[0]} != {n}")
        ctrb = pencil_full_rank(a, b / d[:, None])
    if c is not None:
        if c.shape[1] != n:
            raise DimensionMismatch(f"C cols {c.shape[1]} != {n}")
        obsv = pencil_full_rank(a.T, (c * d).T)
    return ctrb, obsv


# ---------------------------------------------------------------------------
# exact real-part / limit machinery for rational responses
# ---------------------------------------------------------------------------

def jw_split(coeffs):
    """Split p(jw) into real and imaginary polynomials in w.

    p(jw) = pr(w) + j*pi(w) with pr even, pi odd (returned as full ascending
    coefficient arrays in w).
    """
    c = np.asarray(coeffs, float)
    pr = np.zeros(c.size)
    pi = np.zeros(c.size)
    cycle = [(1, 0), (0, 1), (-1, 0), (0, -1)]   # j^k for k mod 4
    for k, ck in enumerate(c):
        re, im = cycle[k % 4]
        pr[k] = re * ck
        pi[k] = im * ck
    return pr, pi


def real_part_rational(tfn: RationalTF):
    """Even polynomials (P, Q) in w with Re tfn(jw) = P(w)/Q(w), Q > 0."""
    nr, ni = jw_split(tfn.num)
    dr, di = jw_split(tfn.den)
    return polysum((nr, dr), (ni, di)), polysum((dr, dr), (di, di))


def mirror(tfn: RationalTF) -> RationalTF:
    """tfn(-s); on the jw axis the complex conjugate of tfn(jw)."""
    return RationalTF(tfn.num * (-1.0) ** np.arange(tfn.num.size),
                      tfn.den * (-1.0) ** np.arange(tfn.den.size))


def end_term(coeffs, end: str):
    """(power, coefficient) of the term of a canonical polynomial that
    dominates as w -> 0 (``end="lo"``) or w -> inf (``end="hi"``); None for
    the zero polynomial.  The coefficients are taken as exact: sums strip
    their own noise (``polysum``), and a product's leading term is real
    however small it is."""
    c = np.asarray(coeffs, float)
    powers = np.flatnonzero(c)
    if powers.size == 0:
        return None
    k = int(powers[0] if end == "lo" else powers[-1])
    return k, float(c[k])


def dc_limit(tfn: RationalTF) -> float:
    """lim_{s->0} tfn(s); +-inf when the valuation makes it diverge."""
    num = end_term(tfn.num, "lo")
    if num is None:
        return 0.0
    (vn, cn), (vd, cd) = num, end_term(tfn.den, "lo")
    if vn > vd:
        return 0.0
    if vn < vd:
        return float(np.sign(cn / cd) * np.inf)
    return cn / cd


def high_frequency_re_limit(tfn: RationalTF):
    """High-frequency behaviour of Re tfn(jw).

    Returns ``("value", H(inf))`` for a biproper function, otherwise
    ``("scaled", lim w^2 Re tfn(jw))`` (0 when the decay is faster): for a
    strictly proper H, Re H = P/Q with P and Q even and deg P < deg Q, so
    deg P <= deg Q - 2 and the scaled limit is finite.
    """
    if relative_degree(tfn) <= 0 and not tfn.is_zero():
        return "value", float(tfn.num[-1] / tfn.den[-1])
    p, q = real_part_rational(tfn)
    dq, cq = end_term(q, "hi")
    top = end_term(p, "hi")
    if top is None or top[0] < dq - 2:
        return "scaled", 0.0
    return "scaled", top[1] / cq
