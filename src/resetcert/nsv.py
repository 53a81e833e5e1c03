"""Nyquist-stability-vector computation and Type I / Type II classification.

The per-frequency vector N(w) = (Re(L*Cs*kappa), Re(kappa*C_R)) with
kappa = 1 + conj(L) decides membership through the range of its angle,
mapped into [-pi/2, 3*pi/2).  The angle window is the one membership rule;
the paper's condition list, which it must agree with, is transcribed only in
the tests, as their oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace

import numpy as np

from .elements import ResetElement
from .errors import ConfigError, EvaluationAtPole, SparseGrid, ZeroShapingFilter
from .frf import GRID_POINTS, Condition, Loop, LoopSamples, no_failure, pass_fail
from .lti import (
    RationalTF,
    base_linear_stability,
    end_term,
    minimality_check,
    mirror,
    nyquist_stability_from_samples,
    polymul,
    real_part_rational,
    tf,
)

SIGN_EPS = 1e-9          # slack on the pointwise strict sign conditions
THETA_GAP_MAX = np.pi / 6
REFINE_LEVELS = 8        # bisection levels of nsv_grid_samples, run in staged trees
# (lower, upper) bounds of theta1 and of theta2 in the angle windows of the two types
TYPE1_BOUNDS = ((-np.pi / 2 + SIGN_EPS, np.pi + SIGN_EPS),
                (-np.pi / 2 + SIGN_EPS, np.pi - SIGN_EPS))
TYPE2_BOUNDS = ((SIGN_EPS, 3 * np.pi / 2 - SIGN_EPS),) * 2


@dataclass(frozen=True)
class Nsv:
    """Per-frequency NSV on one grid, as parallel float arrays.

    ``theta`` is the angle of (``n_chi``, ``n_upsilon``) mapped into
    [-pi/2, 3*pi/2); ``len`` is the number of grid points.
    """

    omega: np.ndarray
    n_chi: np.ndarray
    n_upsilon: np.ndarray
    theta: np.ndarray

    def __len__(self) -> int:
        return self.omega.size


@dataclass(frozen=True)
class TypeVerdict:
    """``conditions``: each type's side rules and angle window, which hold the
    type when none failed; the window is the one membership rule (the tests
    hold the paper's condition list as its oracle).  ``membership`` is the
    record a certified verdict reads: either type holds."""

    is_type1: bool
    is_type2: bool
    theta1: float
    theta2: float
    conditions: list
    membership: Condition
    theta1_omega: float | None = None   # grid omega of theta1; None at an asymptotic limit
    theta2_omega: float | None = None


def map_angle(theta):
    """Wrap atan2 output into the [-pi/2, 3*pi/2) convention."""
    theta = np.asarray(theta, float)
    out = np.where(theta < -np.pi / 2, theta + 2.0 * np.pi, theta)
    return float(out) if out.ndim == 0 else out


def compute_nsv(samples: LoopSamples, variant: str = "standard") -> Nsv:
    """Per-frequency NSV components for the selected loop variant.

    ``standard``: N = (Re(L Cs kappa), Re(kappa C_R)).
    ``modified``: the shaping filter sits inside the loop; the chi component
    divides it back out: N_chi = Re(L' kappa / Cs).
    ``sosre``:    N_upsilon = -Im(w kappa C_R).
    """
    if variant == "modified":
        _check_shaping(samples)
    return _nsv_arrays(samples, variant)


def _check_shaping(samples: LoopSamples) -> None:
    """Reject a shaping filter that vanishes on the grid, relative to its
    largest magnitude there (the modified variant divides by it)."""
    cs = np.abs(samples.shaping)
    small = cs < 1e-12 * max(np.max(cs), 1e-300)
    if np.any(small):
        raise ZeroShapingFilter(
            f"|Cs(jw)| below threshold at omega={samples.omega[small][0]:g}")


def _nsv_arrays(samples: LoopSamples, variant: str) -> Nsv:
    """The NSV arithmetic of ``compute_nsv``, point by point, unchecked."""
    L = samples.loop
    cs = samples.shaping
    cr = samples.reset_base
    w = samples.omega
    kappa = 1.0 + np.conj(L)
    if variant == "standard":
        n_chi = (L * cs * kappa).real
        n_ups = (kappa * cr).real
    elif variant == "modified":
        n_chi = (L * kappa / cs).real
        n_ups = (kappa * cr).real
    elif variant == "sosre":
        n_chi = (L * cs * kappa).real
        n_ups = -(w * kappa * cr).imag
    else:
        raise ValueError(f"unknown NSV variant {variant!r}")
    theta = map_angle(np.arctan2(n_ups, n_chi))
    return Nsv(np.asarray(w, float), n_chi, n_ups, theta)


def _window_slack(theta1, theta2, bounds):
    """(slack, k) of an angle window: the slack is the smallest of each
    extreme's distances to its ``bounds`` and of (pi + eps) - (theta2 - theta1),
    so the window holds exactly when it is positive; k is the extreme nearer
    its own bounds (0 for theta1, 1 for theta2)."""
    own = [min(t - lo, hi - t) for t, (lo, hi) in zip((theta1, theta2), bounds)]
    return min(*own, np.pi + SIGN_EPS - (theta2 - theta1)), int(own[1] < own[0])


def classify(nsv: Nsv, origin_pole: bool = False, k_s0: float = 1.0,
             element_kind: str = "GFORE", extra_thetas=(),
             check_density: bool = True) -> TypeVerdict:
    """Type I / Type II verdict from the NSV arrays plus side conditions.

    ``extra_thetas`` carries asymptotic angle limits so the min/max covers
    the w -> 0 and w -> inf ends of the axis.  The angle-window test decides.
    The membership record's margin is the slack of the better window among
    the types whose side rules hold (None when neither's do).
    """
    if len(nsv) == 0:
        raise SparseGrid("no NSV samples")
    n_chi, n_ups, theta, omega = nsv.n_chi, nsv.n_upsilon, nsv.theta, nsv.omega
    if check_density and theta.size > 1:
        # theta lies in [-pi/2, 3*pi/2), so each adjacent step turns by
        # min(|d theta|, 2 pi - |d theta|)
        step = np.abs(theta[1:] - theta[:-1])
        gap = np.max(np.minimum(step, 2.0 * np.pi - step))
        if gap >= THETA_GAP_MAX:
            raise SparseGrid(f"adjacent angle gap {gap:.3f} rad >= pi/6; refine the grid")
    all_theta = np.concatenate([theta, np.asarray(list(extra_thetas), float)])
    extremes = (int(np.argmin(all_theta)), int(np.argmax(all_theta)))
    theta1, theta2 = (float(all_theta[i]) for i in extremes)
    omegas = tuple(float(omega[i]) if i < omega.size else None for i in extremes)

    norms = np.hypot(n_chi, n_ups)
    k = int(np.argmin(norms))
    nonzero = Condition("nonzero-nsv", pass_fail(norms[k] > 1e-300), float(norms[k]),
                        float(omega[k]))
    conditions, holds, eligible = [nonzero], [], []
    ks0, spread = f"k_s0={k_s0:g}", f"theta range [{theta1:.4f}, {theta2:.4f}]"
    # side rules: under an origin pole Type I needs k_s0 > 0 and Type II
    # k_s0 < 0; the pure integrator element (CI) flips both signs
    for t, bounds, sign in ((1, TYPE1_BOUNDS, 1.0), (2, TYPE2_BOUNDS, -1.0)):
        rules = [Condition(f"type{t}-ks0-origin",
                           pass_fail(sign * k_s0 > 0.0) if origin_pole else "skipped", detail=ks0),
                 Condition(f"type{t}-ks0-ci",
                           pass_fail(sign * k_s0 < 0.0) if element_kind == "CI" else "skipped",
                           detail=ks0)]
        slack, j = _window_slack(theta1, theta2, bounds)
        window = Condition(f"type{t}-window", pass_fail(slack > 0.0), float(slack), omegas[j],
                           spread)
        conditions += rules + [window]
        holds.append(no_failure([nonzero, *rules, window]))
        if no_failure([nonzero, *rules]):
            eligible.append(window)
    best = max(eligible, key=lambda c: c.margin, default=Condition("type-membership", "fail"))
    membership = replace(best, id="type-membership", status=pass_fail(any(holds)),
                         detail=f"type1={holds[0]} type2={holds[1]}")
    return TypeVerdict(*holds, theta1, theta2, conditions, membership, *omegas)


# ---------------------------------------------------------------------------
# exact asymptotic NSV angles from rational blocks
# ---------------------------------------------------------------------------

def _nsv_rationals(loop_tf: RationalTF, c_s: RationalTF, c_r: RationalTF,
                   variant: str):
    """NSV components as real rational functions of w, each a pair (P, Q)."""
    kappa = mirror(loop_tf) + 1.0
    if variant == "modified":
        chi = loop_tf * kappa * RationalTF(c_s.den, c_s.num)
    else:
        chi = loop_tf * c_s * kappa
    ups = kappa * c_r
    if variant == "sosre":
        # N_upsilon = -Im(w kappa C_R) = Re(jw kappa C_R)
        ups = tf([0.0, 1.0]) * ups
    return real_part_rational(chi), real_part_rational(ups)


def _limit_angle(chi_pair, ups_pair, end: str) -> float | None:
    """Angle of (N_chi, N_ups) as w -> 0 (end='lo') or w -> inf (end='hi')."""
    (pc, qc), (pu, qu) = chi_pair, ups_pair
    # over the common denominator qc*qu > 0 the angle is that of the numerators
    terms = (end_term(polymul(pc, qu), end), end_term(polymul(pu, qc), end))
    if terms == (None, None):
        return None
    # the lowest power dominates at w -> 0, the highest at w -> inf
    rank = -1 if end == "lo" else 1
    top = max(rank * t[0] for t in terms if t is not None)
    x, y = (t[1] if t is not None and rank * t[0] == top else 0.0 for t in terms)
    return map_angle(np.arctan2(y, x))


def asymptotic_angles(loop_tf: RationalTF, c_s: RationalTF, c_r: RationalTF,
                      variant: str = "standard"):
    """Exact NSV angle limits at w -> 0 and w -> inf from rational blocks."""
    pairs = _nsv_rationals(loop_tf, c_s, c_r, variant)
    limits = (_limit_angle(*pairs, end) for end in ("lo", "hi"))
    return [angle for angle in limits if angle is not None]


# ---------------------------------------------------------------------------
# sample generation with refinement near component sign changes
# ---------------------------------------------------------------------------

def nsv_grid_samples(plant, c_l1: RationalTF, c_l2: RationalTF, c_s: RationalTF,
                     element: ResetElement, variant: str = "standard",
                     points: int = GRID_POINTS, refine: int = REFINE_LEVELS):
    """Loop samples + NSV arrays on ``Loop.grid``, refined near zero crossings.

    Refinement bisects, for at most ``refine`` levels, every interval where a
    component changes sign or the angle turns by pi/7 or more, at its
    geometric midpoint; after the base grid only the two halves of an
    interval split on the level before are tested again.  The levels run in
    stages.  A stage takes the F intervals split on its first level and
    evaluates, in one call, the whole midpoint tree of each, min(levels left,
    max(1, floor(log2(N/F + 1)))) levels deep for N base points, so while
    F <= N a stage evaluates at most N new points.  It then keeps the nodes
    whose interval and every ancestor interval pass the split test: the
    points that bisecting level by level inserts.  A sample does not depend
    on its neighbours, so the result also equals a fresh evaluation on the
    final grid.
    """
    in_loop = variant == "modified"     # the modified variant puts Cs in the loop
    loop = Loop(element, c_l1, c_l2, plant, c_s, "modified" if in_loop else "standard")
    samples = loop.samples(loop.grid(points))
    nsv = compute_nsv(samples, variant)
    pieces = [(samples, nsv)]
    keys = _split_keys(nsv)
    left, right = keys[:, :-1], keys[:, 1:]     # the ends of every base interval
    levels, cap = refine, len(nsv)              # cap: most new points per stage
    while levels > 0:
        split = _flagged(left, right)
        if not split.any():
            break
        left, right = left[:, split], right[:, split]
        depth = min(levels, max(1, (cap // left.shape[1] + 1).bit_length() - 1))
        try:
            *piece, left, right = _refine_stage(loop, variant, left, right, depth)
        except EvaluationAtPole:
            if depth == 1:
                raise
            # a node that no level inserts may sit on a pole: go on one
            # level per stage, where every evaluated node is inserted
            cap = 0
            continue
        pieces.append(piece)
        levels -= depth
    if len(pieces) > 1:
        order = np.argsort(np.concatenate([s.omega for s, _ in pieces]))
        samples, nsv = (_merged(records, order) for records in zip(*pieces))
        if in_loop:
            # the zero-shaping threshold is relative to the whole grid
            _check_shaping(samples)
    return samples, nsv


def _refine_stage(loop: Loop, variant: str, left: np.ndarray, right: np.ndarray, depth: int):
    """Evaluate the ``depth``-level midpoint trees of the split intervals
    (``left``, ``right``) in one call.

    Each tree is laid out in grid order, from its interval's ends at 0 and
    2**depth; the level-l node at an odd multiple p of s = 2**(depth - l)
    bisects the interval (p - s, p + s).  Returns the samples and NSV of the
    nodes that bisecting level by level inserts, and the ends of the halves
    of the intervals split on the last level.
    """
    width = 2 ** depth
    steps, node, half = _tree(depth)
    omega = np.empty((left.shape[1], width + 1))
    omega[:, 0], omega[:, -1] = left[0], right[0]
    for s in steps:
        omega[:, s::2 * s] = np.sqrt(omega[:, :-1:2 * s] * omega[:, 2 * s::2 * s])
    fresh = loop.samples(omega[:, 1:-1].ravel())
    fresh_nsv = _nsv_arrays(fresh, variant)
    keys = np.empty((4, *omega.shape))
    keys[..., 0], keys[..., -1] = left, right
    keys[..., 1:-1] = _split_keys(fresh_nsv).reshape(4, -1, width - 1)
    split = _flagged(keys[..., node - half], keys[..., node + half])
    for first in 2 ** np.arange(1, depth) - 1:   # a node counts when its parent did
        split[:, first:2 * first + 1] &= np.repeat(split[:, first // 2:first], 2, axis=1)
    keep = np.zeros(omega.shape, bool)
    keep[:, node] = split
    last = keep[:, 1::2]
    ends, mids = keys[..., ::2], keys[..., 1::2][:, last]
    inserted = keep[:, 1:-1].ravel()
    return (*(_merged([r], inserted) for r in (fresh, fresh_nsv)),
            np.hstack([ends[..., :-1][:, last], mids]), np.hstack([mids, ends[..., 1:][:, last]]))


@functools.cache
def _tree(depth: int):
    """(steps, node, half) of the ``depth``-level midpoint tree, read-only:
    the half-width of each level's intervals, every node's position level by
    level (node i's parent is node (i - 1) // 2) and its interval's half-width."""
    width = 2 ** depth
    steps = width >> np.arange(1, depth + 1)
    node = np.concatenate([np.arange(s, width, 2 * s) for s in steps])
    half = np.repeat(steps, width // (2 * steps))
    for a in (steps, node, half):
        a.flags.writeable = False
    return steps, node, half


def _split_keys(nsv: Nsv) -> np.ndarray:
    """Rows omega, N_chi, N_upsilon and angle: what the split test reads."""
    return np.stack([nsv.omega, nsv.n_chi, nsv.n_upsilon, nsv.theta])


def _flagged(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Intervals that a level bisects: a component changes sign or the angle
    turns by pi/7 or more, and the geometric midpoint does not round onto an
    end (such a midpoint adds no point)."""
    turn = np.abs(np.mod(right[3] - left[3] + np.pi, 2.0 * np.pi) - np.pi)
    mids = np.sqrt(left[0] * right[0])
    return (((np.sign(left[1]) != np.sign(right[1])) | (np.sign(left[2]) != np.sign(right[2]))
             | (turn >= np.pi / 7.0)) & (left[0] < mids) & (mids < right[0]))


def _merged(records, rows):
    """Join per-frequency array records of one type and take ``rows`` (an
    index order or a mask) of them."""
    return type(records[0])(*(np.concatenate([getattr(r, f.name) for r in records])[rows]
                              for f in fields(records[0])))


# ---------------------------------------------------------------------------
# aggregate first-order / SOSRE certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifiedVerdict:
    conditions: list
    type_verdict: TypeVerdict
    k_s0: float
    k_n: float | None
    samples: LoopSamples    # the final refined grid the verdict was read from
    nsv: Nsv

    @property
    def certified(self) -> bool:
        return no_failure(self.conditions)


def certify_first_order(element: ResetElement, c_l1: RationalTF, c_l2: RationalTF,
                        plant, c_s: RationalTF | None = None,
                        architecture: str = "standard", points: int = GRID_POINTS,
                        plant_rhp_poles: int | None = None,
                        plant_origin_poles: int | None = None,
                        asymptote=None) -> CertifiedVerdict:
    """Full stability verdict for CI / PCI / GFORE / SOSRE reset loops.

    Aggregates base-linear stability, open-loop minimality, the CI side
    rules, Type I/II membership, the reset-scalar bound, and the shaping
    proviso.  With a measured plant the stability check falls back to the
    winding count, with the declared ``plant_rhp_poles`` and
    ``plant_origin_poles`` (default 0), and minimality is assumed (reported
    as such).  A rational plant gives its poles and asymptotes itself, so
    passing any of those two or ``asymptote`` with one raises ConfigError.
    """
    loop = Loop(element, c_l1, c_l2, plant, c_s, architecture)
    if loop.rational and (plant_rhp_poles, plant_origin_poles, asymptote) != (None,) * 3:
        raise ConfigError("plant_rhp_poles, plant_origin_poles and asymptote are for a "
                          "measured plant; a rational plant gives them itself")
    c_s, c_r, variant = loop.c_s, loop.c_r, loop.variant
    samples, nsv = nsv_grid_samples(plant, c_l1, c_l2, c_s, element,
                                    variant=variant, points=points)
    k_s0, k_n, n_minus_m = loop.k_s0, loop.k_n, loop.n_minus_m
    if loop.rational:
        rep = base_linear_stability(loop.loop_tf)
        # the rightmost closed-loop pole binds: its distance from the axis
        # and its damped frequency
        p = rep.poles[np.argmax(rep.poles.real)] if rep.poles.size else None
        conditions = [Condition("base-linear-stability", pass_fail(rep.stable),
                                None if p is None else float(-p.real),
                                None if p is None else float(abs(p.imag)),
                                f"{rep.poles.size} closed-loop poles")]
        cancels = minimality_check(loop.loop_tf)
        conditions.append(Condition("open-loop-minimality", pass_fail(not cancels),
                                    detail=f"cancellation at {cancels[0]:.4g}" if cancels
                                    else "no cancellations"))
        origin = loop.origin_poles
        extra = asymptotic_angles(loop.loop_tf, c_s, c_r, variant=variant)
    else:
        origin = plant_origin_poles or 0
        rep = nyquist_stability_from_samples(samples.omega, samples.loop,
                                             rhp_poles=plant_rhp_poles or 0,
                                             origin_poles=origin)
        conditions = [Condition("base-linear-stability", pass_fail(rep.stable),
                                detail=f"net encirclements {rep.encirclements}"),
                      Condition("open-loop-minimality", "assumed",
                                detail="measured plant: cancellations not checkable")]
        extra = []
        if asymptote is not None:
            lo_slope, hi_slope = asymptote
            extra = _frf_asymptote_angles(samples, c_s, c_r, variant,
                                          int(lo_slope), int(hi_slope))
            n_minus_m = -int(hi_slope)

    if element.kind == "CI":
        conditions.append(Condition("ci-origin-pole-rule", pass_fail(origin == 0),
                                    detail=f"{origin} origin poles in the linear part"))
        conditions.append(Condition("ci-relative-degree-rule", pass_fail(n_minus_m == 2),
                                    detail=f"n-m = {n_minus_m}"))

    verdict = classify(nsv, origin_pole=origin > 0, k_s0=k_s0,
                       element_kind=element.kind, extra_thetas=extra)
    conditions.append(verdict.membership)

    gamma = float(element.a_rho[0, 0])
    conditions.append(Condition("reset-scalar-bound", pass_fail(-1.0 < gamma < 1.0),
                                1.0 - abs(gamma), detail=f"gamma={gamma:g}"))

    unit_shaping = (c_s.num.size == 1 and c_s.den.size == 1
                    and np.isclose(c_s.num[0] / c_s.den[0], 1.0))
    if unit_shaping and element.kind != "SOSRE":
        status, detail = "pass", "unit shaping filter"
    elif element.kind == "SOSRE":
        status, detail = "conditional", "partial reset requires well-posed reset instants"
    else:
        status, detail = "conditional", "shaping filter requires well-posed reset instants"
    conditions.append(Condition("well-posedness-proviso", status, detail=detail))
    return CertifiedVerdict(conditions, verdict, k_s0, k_n, samples, nsv)


def _frf_asymptote_angles(samples: LoopSamples, c_s, c_r, variant,
                          lo_slope, hi_slope):
    """Limit angles for a measured plant from declared asymptotic loop slopes.

    The loop is modelled as c*s^p at each end, the gain magnitude matched at
    the band edge and the sign chosen to match the measured phase there.
    """
    out = []
    for slope, idx, end in ((lo_slope, 0, "lo"), (hi_slope, -1, "hi")):
        w_edge = samples.omega[idx]
        l_edge = samples.loop[idx]
        gain = abs(l_edge) / w_edge ** slope
        model_phase = map_angle(np.angle((1j * w_edge) ** slope))
        meas_phase = map_angle(np.angle(l_edge))
        if abs(np.exp(1j * model_phase) - np.exp(1j * meas_phase)) > np.sqrt(2.0):
            gain = -gain
        if slope >= 0:
            loop_tf = tf([0.0] * slope + [gain], [1.0])
        else:
            loop_tf = tf([gain], [0.0] * (-slope) + [1.0])
        ang = _limit_angle(*_nsv_rationals(loop_tf, c_s, c_r, variant), end)
        if ang is not None:
            out.append(ang)
    return out
