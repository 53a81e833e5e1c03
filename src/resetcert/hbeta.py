"""Direct SPR verification for concrete (beta, rho) candidates.

The scalar path checks Re H(jw) > 0 on the grid together with the exact
rational limits at w -> 0 and w -> infinity, where
H = (beta' L Cs + rho' C_R) / (1 + L) for first-order elements (C_R replaced
by s*C_R for the single-state second-order element).  The matrix path checks
positive definiteness of the real symmetric part of the 2x2 response plus the
applicable limit matrices and the strict jump-map inequality.

The loop constants come from the shared loop description ``frf.Loop``;
N(w) and the 2x2 SPR entries are recomputed here from raw loop samples and
rational blocks, sharing no code path with the classifier or the certifier
it validates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import ResetElement, base_tf, jump_map_test
from .errors import GridTooSparse, NotPositiveDefinite
from .frf import Condition, Loop, LoopSamples, no_failure, pass_fail
from .lti import RationalTF, dc_limit, high_frequency_re_limit, polymul, polysum, tf

MARGIN = 1e-9   # strictness margin, relative to the local response scale


@dataclass(frozen=True)
class HbetaCandidate:
    """Scalar candidate (beta', rho') or matrix candidate (beta, rho)."""

    beta_prime: float | np.ndarray
    rho_prime: float | np.ndarray

    def as_matrix_params(self):
        """(b1, b2, r1, r2, r3): beta = (b1, b2) and the upper triangle
        [[r1, r2], [., r3]] of rho, as floats."""
        b = np.atleast_1d(np.asarray(self.beta_prime, float))
        r = np.atleast_2d(np.asarray(self.rho_prime, float))
        return float(b[0]), float(b[1]), float(r[0, 0]), float(r[0, 1]), float(r[1, 1])


@dataclass(frozen=True)
class SprReport:
    """An oracle verdict: it passes when none of its conditions failed."""

    conditions: list

    @property
    def passed(self) -> bool:
        return no_failure(self.conditions)


def build_h_scalar(p_lin: RationalTF, element: ResetElement, c_s: RationalTF,
                   beta_prime: float, rho_prime: float,
                   variant: str = "standard") -> RationalTF:
    """H as a single rational function with the structural cancellations done.

    ``p_lin`` is the product C_L1*C_L2*G.  ``variant="modified"`` places the
    shaping filter inside the loop; ``variant="sosre"`` uses the s*C_R branch.
    """
    c_r = base_tf(element)
    nr, dr = c_r.num, c_r.den
    nt, dt = p_lin.num, p_lin.den
    ns, ds = c_s.num, c_s.den
    if variant == "modified":
        # loop is L' = C_R * P * Cs; H = N_R (b' Nt + r' Dt) Ds / (Dr Dt Ds + Nr Nt Ns)
        num = polymul(nr, polymul(ds, polysum((nt, [beta_prime]), (dt, [rho_prime]))))
        den = polysum((polymul(dr, dt), ds), (polymul(nr, nt), ns))
        return RationalTF(num, den)
    rho_tap = polymul(dt, ds)
    if element.kind == "SOSRE":
        # only the first state resets: the rho tap rides on s * C_R
        rho_tap = polymul([0.0, 1.0], rho_tap)
    num = polymul(nr, polysum((polymul(nt, ns), [beta_prime]), (rho_tap, [rho_prime])))
    den = polymul(ds, polysum((dr, dt), (nr, nt)))
    return RationalTF(num, den)


def _scalar_nsv(samples: LoopSamples, element: ResetElement, variant: str):
    """(N_chi, N_upsilon) of the scalar checks, recomputed from raw loop samples."""
    L, cs, cr, w = samples.loop, samples.shaping, samples.reset_base, samples.omega
    kappa = 1.0 + np.conj(L)
    if variant == "modified":
        n_chi = (L * kappa / cs).real
    else:
        n_chi = (L * cs * kappa).real
    if element.kind == "SOSRE":
        n_ups = -(w * kappa * cr).imag
    else:
        n_ups = (kappa * cr).real
    return n_chi, n_ups


def spr_check_scalar(candidate: HbetaCandidate, samples: LoopSamples,
                     element: ResetElement, c_s: RationalTF | None = None,
                     p_lin: RationalTF | None = None,
                     variant: str = "standard") -> SprReport:
    """Grid positivity of Re H plus both limit conditions for one candidate.

    Grid test: (beta', rho') . N(w) > MARGIN * |N(w)| at every sample, with N
    recomputed here from the raw loop responses.  Limit tests need the
    rational blocks; without them the two limit records are skipped.  The
    limits: H(0) finite and positive, and H(inf) (lim w^2 Re H(jw) when H
    is strictly proper) positive.
    """
    bp = float(np.asarray(candidate.beta_prime).reshape(()))
    rp = float(np.asarray(candidate.rho_prime).reshape(()))
    c_s = c_s if c_s is not None else tf([1.0])
    if samples.omega.size < 8:
        raise GridTooSparse("need a denser grid for the SPR sweep")
    n_chi, n_ups = _scalar_nsv(samples, element, variant)
    norm = np.hypot(n_chi, n_ups) * np.hypot(bp, rp)
    margins = (bp * n_chi + rp * n_ups) / np.maximum(norm, 1e-300)
    i = int(np.argmin(margins))
    conditions = [Condition("rho-positive", pass_fail(rp > 0.0), rp),
                  Condition("grid-positivity", pass_fail(margins[i] > MARGIN),
                            float(margins[i]), float(samples.omega[i]))]
    if p_lin is None:
        return SprReport(conditions + [
            Condition(cid, "skipped", detail="needs rational blocks")
            for cid in ("zero-frequency-limit", "high-frequency-limit")])
    h = build_h_scalar(p_lin, element, c_s, bp, rp, variant)
    zero, (kind, val) = dc_limit(h), high_frequency_re_limit(h)
    finite = bool(np.isfinite(zero))
    return SprReport(conditions + [
        Condition("zero-frequency-limit", pass_fail(finite and zero > 0.0),
                  float(zero) if finite else None, detail="H(0)" if finite else f"H(0) = {zero}"),
        Condition("high-frequency-limit", pass_fail(val > 0.0), float(val),
                  detail="H(inf)" if kind == "value" else "lim w^2 Re H(jw)")])


def search_candidate_scalar(samples: LoopSamples, element: ResetElement,
                            c_s: RationalTF | None = None,
                            p_lin: RationalTF | None = None,
                            variant: str = "standard") -> HbetaCandidate | None:
    """A unit (beta', rho') candidate in closed form: the bisector of the N(w) arc.

    Positivity of Re H is scale-invariant in the candidate, so the unit norm
    loses nothing.  When the unit N(w) fill an arc [a, b] narrower than pi,
    exactly the directions phi in (b - pi/2, a + pi/2) see every sample with
    a positive margin, and the bisector (a + b)/2 maximizes the worst one.
    That interval is clipped to rho' = sin(phi) > 0 and its midpoint is
    checked with the exact limits.  Returns the candidate if it passes
    ``spr_check_scalar``, else None.
    """
    n_chi, n_ups = _scalar_nsv(samples, element, variant)
    angle = np.sort(np.arctan2(n_ups, n_chi))
    gaps = np.diff(angle, append=angle[0] + 2.0 * np.pi)
    j = int(np.argmax(gaps))
    if not (gaps[j] > np.pi and np.hypot(n_chi, n_ups).min() > 0.0):
        return None     # no open half plane holds every N(w)
    a = angle[(j + 1) % angle.size]
    b = angle[j] + (2.0 * np.pi if j + 1 < angle.size else 0.0)
    # with the bisector in [-pi/2, 3pi/2), (0, pi) is the one period of
    # sin(phi) > 0 that the interval, no wider than pi, can meet
    mid = np.mod(0.5 * (a + b) + 0.5 * np.pi, 2.0 * np.pi) - 0.5 * np.pi
    half = 0.5 * (np.pi - (b - a))
    lo, hi = max(mid - half, 0.0), min(mid + half, np.pi)
    if not lo < hi:
        return None
    phi = 0.5 * (lo + hi)
    cand = HbetaCandidate(float(np.cos(phi)), float(np.sin(phi)))
    rep = spr_check_scalar(cand, samples, element, c_s, p_lin, variant)
    return cand if rep.passed else None


# ---------------------------------------------------------------------------
# matrix path (two-state reset element)
# ---------------------------------------------------------------------------

def _sym_matrix_entries(candidate, samples: LoopSamples, omega_r: float, xi: float):
    """Entries (d1, d2, c) of the real symmetric part of the 2x2 SPR response,
    times |kappa|^2, and the sums of the magnitudes of the terms of d1 and of
    d2, the rounding bounds the strict tests compare them with."""
    b1, b2, r1, r2, r3 = candidate.as_matrix_params()
    L, cs, cr, w = samples.loop, samples.shaping, samples.reset_base, samples.omega
    kappa = 1.0 + np.conj(L)
    jw = 1j * w
    lead = jw + 2.0 * xi * omega_r
    t1 = (cr * kappa * jw).real
    t2 = (cr * kappa).real
    t3 = (L * kappa * cs).real
    u1 = (cr * kappa * lead).real
    u3 = (L * kappa * cs * lead).real
    u2 = (cr * kappa * (2j * xi * omega_r * w - w**2)).real - np.abs(kappa) ** 2
    d1 = 2.0 * (r1 * t1 + r2 * t2 + b1 * t3)
    d2 = 2.0 * (r3 * u1 + r2 * u2 + b2 * u3)
    c = (r2 * t1 + r3 * t2 + b2 * t3) + (r2 * u1 + r1 * u2 + b1 * u3)
    scale1 = 2.0 * (np.abs(r1 * t1) + np.abs(r2 * t2) + np.abs(b1 * t3))
    scale2 = 2.0 * (np.abs(r3 * u1) + np.abs(r2 * u2) + np.abs(b2 * u3))
    return d1, d2, c, scale1, scale2


def limit_matrix_infinity(params, omega_r: float, xi: float,
                          n_minus_m: int, k_n: float | None) -> np.ndarray:
    """lim w^2 (H(jw) + H(-jw)^T) at ``params`` = (b1, b2, r1, r2, r3), floats
    or equal-shape arrays; the k_n terms are 0 unless n-m = 3."""
    b1, b2, r1, r2, r3 = params
    if n_minus_m == 3 and k_n is None:
        raise ValueError("k_n required when n - m = 3")
    kb1, kb2 = (k_n * b1, 2.0 * k_n * b2) if n_minus_m == 3 else (0.0, 0.0)
    off = omega_r**2 * r1 + 2.0 * r2 * xi * omega_r - r3 - kb1
    return np.array([[4.0 * r1 * xi * omega_r - 2.0 * r2, off],
                     [off, 2.0 * omega_r**2 * r2 - kb2]])


def limit_matrix_zero(params, omega_r: float, xi: float, k_s0: float) -> np.ndarray:
    """lim w->0 of H(jw) + H(-jw)^T at ``params`` when the open loop integrates."""
    b1, b2, r1, r2, _ = params
    off = k_s0 * b2 + 2.0 * k_s0 * b1 * xi * omega_r - r1
    return np.array([[2.0 * k_s0 * b1, off],
                     [off, 4.0 * k_s0 * b2 * xi * omega_r - 2.0 * r2]])


def pd_condition(cid: str, m: np.ndarray) -> Condition:
    """Positive definiteness of a limit matrix: every eigenvalue above
    MARGIN * ||m||_F; the margin is the smallest eigenvalue over ||m||_F."""
    scale = np.linalg.norm(m, "fro")
    eig = np.linalg.eigvalsh(m)
    ok = scale != 0.0 and bool(np.all(eig > MARGIN * scale))
    return Condition(cid, pass_fail(ok), float(eig[0] / scale) if scale else 0.0)


def spr_check_matrix(candidate: HbetaCandidate, samples: LoopSamples,
                     element: ResetElement, *, k_s0: float, k_n: float | None,
                     origin_pole: bool, n_minus_m: int) -> SprReport:
    """SPR test for a (beta, rho) pair on a two-state reset element.

    Checks positive definiteness of the real symmetric part on the grid
    (leading minors), the applicable limit matrix (w -> 0 under an origin
    pole, w -> infinity per the loop relative degree), and the strict
    jump-map inequality A_rho' rho A_rho - rho < 0.  k_n may be None
    unless n_minus_m is 3.
    """
    _, _, r1, r2, r3 = params = candidate.as_matrix_params()
    if r1 <= 0.0 or r3 <= 0.0 or r1 * r3 <= r2 * r2:
        raise NotPositiveDefinite("rho must be positive definite")
    if samples.omega.size < 8:
        raise GridTooSparse("need a denser grid for the SPR sweep")
    wr, xi = element.omega_r, element.xi
    d1, d2, c, scale1, scale2 = _sym_matrix_entries(candidate, samples, wr, xi)
    # each entry against its own rounding bound: no frequency scaling of the
    # loop moves the verdict
    det = d1 * d2 - c * c
    det_scale = np.maximum(np.abs(d1 * d2), 1e-300)
    diag_ok = bool(np.all((d1 > MARGIN * scale1) & (d2 > MARGIN * scale2)))
    diag = np.minimum(d1 / np.maximum(scale1, 1e-300), d2 / np.maximum(scale2, 1e-300))
    det_margin = det / det_scale
    i, j = int(np.argmin(diag)), int(np.argmin(det_margin))
    w = samples.omega
    conditions = [
        Condition("grid-diagonal-positivity", pass_fail(diag_ok), float(diag[i]), float(w[i])),
        Condition("grid-determinant-positivity", pass_fail(np.all(det > MARGIN * det_scale)),
                  float(det_margin[j]), float(w[j])),
        pd_condition("high-frequency-limit-matrix",
                     limit_matrix_infinity(params, wr, xi, n_minus_m, k_n))]
    if origin_pole:
        conditions.append(pd_condition("zero-frequency-limit-matrix",
                                       limit_matrix_zero(params, wr, xi, k_s0)))
    jump_ok, jump_margin = jump_map_test(element.a_rho, candidate.rho_prime)
    conditions.append(Condition("jump-map-strict-inequality", pass_fail(jump_ok), jump_margin))
    return SprReport(conditions)


def loop_invariants(element: ResetElement, c_l1: RationalTF, c_l2: RationalTF,
                    plant: RationalTF, c_s: RationalTF):
    """(p_lin, loop_tf, k_s0, k_n, origin_pole, n_minus_m) for oracle contexts."""
    loop = Loop(element, c_l1, c_l2, plant, c_s)
    return (loop.p_lin, loop.loop_tf, loop.k_s0, loop.k_n, loop.origin_poles > 0,
            loop.n_minus_m)
