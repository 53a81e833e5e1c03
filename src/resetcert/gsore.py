"""Certification of two-state (GSORE) reset loops via constrained optimization.

The certificate is a pair (beta, rho) making the real symmetric part of the
2x2 SPR response positive definite at every frequency.  Writing the diagonal
entries d1, d2 and the off-diagonal c through the quadratic forms f1/f2, the
frequency sweep reduces to

    sup_w  c(w)^2 / (d1(w) d2(w))  <  4     with  d1 > 0, d2 > 0 pointwise,

plus closed-form positivity of the limit matrices at w -> 0 (loops with an
integrator) and w -> infinity (relative degree 3 or higher), the strict
jump-map inequality, and a minimality rank check.  The ratio above and all
side conditions are jointly scale-invariant in (beta, rho), so the decision
variables are reported as the scale-free ratios Q1..Q4.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import differential_evolution, minimize_scalar

from .elements import ResetElement, reset_matrix_condition
from .errors import DomainError, GridTooSparse, NotPositiveDefinite
from .frf import MIN_GRID_POINTS, Loop, LoopSamples
from .hbeta import HbetaCandidate, limit_matrix_infinity, limit_matrix_zero, spr_check_matrix
from .lti import RationalTF, controllability_observability
from .nsv import feature_band

M_BOUND = 4.0
M_SLACK = 1e-6          # M < 4 is tested as m <= 4 - M_SLACK
STRICT_MARGIN = 1e-9
# a DE restart stops once its best objective is a feasible m <= M_BOUND / 2
# that fell by at most STALL_DROP over the last STALL_GENERATIONS generations
STALL_GENERATIONS = 20
STALL_DROP = 1e-3
PENALTY_WEIGHT = 1e3    # objective weight of the constraint violations
SEARCH_POINTS = 128     # most grid samples a DE restart starts on (see certify)


# ---------------------------------------------------------------------------
# quadratic-form components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreqData:
    """Reusable per-frequency pieces of the f1/f2 quadratic forms."""

    omega: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray

    @staticmethod
    def from_samples(samples: LoopSamples, omega_r: float, xi: float) -> "FreqData":
        L, cs, cr, w = samples.loop, samples.shaping, samples.reset_base, samples.omega
        kappa = 1.0 + np.conj(L)
        jw = 1j * w
        lead = jw + 2.0 * xi * omega_r
        return FreqData(
            omega=w,
            t1=(cr * kappa * jw).real,
            t2=(cr * kappa).real,
            t3=(L * kappa * cs).real,
            u1=(cr * kappa * lead).real,
            u2=(cr * kappa * (2j * xi * omega_r * w - w**2)).real - np.abs(kappa) ** 2,
            u3=(L * kappa * cs * lead).real,
        )

    def take(self, idx) -> "FreqData":
        return FreqData(*(getattr(self, name)[idx] for name in self.__dataclass_fields__))

    def d1(self, rho1, rho2, beta1):
        return rho1 * self.t1 + rho2 * self.t2 + beta1 * self.t3

    def d2(self, rho3, rho2, beta2):
        return rho3 * self.u1 + rho2 * self.u2 + beta2 * self.u3

    def off_diag(self, params):
        b1, b2, r1, r2, r3 = params
        return (r2 * self.t1 + r3 * self.t2 + b2 * self.t3
                + r2 * self.u1 + r1 * self.u2 + b1 * self.u3)


def f1(x1, x2, x3, samples: LoopSamples, omega_r: float, xi: float):
    """First quadratic form x1*Re(CR k jw) + x2*Re(CR k) + x3*Re(L k Cs)."""
    d = FreqData.from_samples(samples, omega_r, xi)
    return x1 * d.t1 + x2 * d.t2 + x3 * d.t3


def f2(x1, x2, x3, samples: LoopSamples, omega_r: float, xi: float):
    """Second quadratic form, with the (jw + 2 xi wr) lead and -|kappa|^2 terms."""
    d = FreqData.from_samples(samples, omega_r, xi)
    return x1 * d.u1 + x2 * d.u2 + x3 * d.u3


def gamma_factor(gamma1: float, gamma2: float) -> float:
    """(g1 g2 - 1)^2 / ((g1^2 - 1)(g2^2 - 1)); always >= 1 on (-1, 1)^2."""
    if abs(gamma1) >= 1.0 or abs(gamma2) >= 1.0:
        raise DomainError("gamma factors need -1 < gamma < 1")
    return (gamma1 * gamma2 - 1.0) ** 2 / ((gamma1**2 - 1.0) * (gamma2**2 - 1.0))


# ---------------------------------------------------------------------------
# scalar-product feasibility interval (pointwise family Q1 F1 + Q2 F2 > F3)
# ---------------------------------------------------------------------------

def prop1_bounds(F1, F2, F3, ratio: float):
    """Magnitude window for Q = Q1*(1, ratio), Q1 > 0, satisfying
    Q1*F1(w) + Q2*F2(w) > F3(w) at every sample.

    Returns ``(eta1, eta2, feasible)``: the constraint holds exactly for
    magnitudes sqrt(Q1^2 + Q2^2) in (eta1, eta2) when ``feasible``; eta1 is
    -inf when F3 < 0 everywhere, eta2 is +inf when the direction clears every
    F3 < 0 sample on its own.
    """
    F1, F2, F3 = (np.asarray(a, float) for a in (F1, F2, F3))
    denom = np.hypot(F1, F2)
    unit = np.array([1.0, ratio]) / np.hypot(1.0, ratio)
    cos_t = (unit[0] * F1 + unit[1] * F2) / np.maximum(denom, 1e-300)
    pos = F3 >= 0.0
    eta1, eta2 = -np.inf, np.inf
    if np.any(pos):
        if np.any(cos_t[pos] <= 0.0):
            return np.inf, -np.inf, False          # direction cannot beat F3 >= 0
        eta1 = float(np.max(F3[pos] / (cos_t[pos] * denom[pos])))
    hard = ~pos & (cos_t < 0.0)
    if np.any(hard):
        eta2 = float(np.min(F3[hard] / (cos_t[hard] * denom[hard])))
    return eta1, eta2, bool(eta1 < eta2)


def ratio_window(F1, F2, F3, ratios):
    """Feasible ratios from a scan, with their magnitude windows."""
    feas, lo, hi = [], [], []
    for r in ratios:
        e1, e2, ok = prop1_bounds(F1, F2, F3, r)
        if ok:
            feas.append(float(r))
            lo.append(e1)
            hi.append(e2)
    return np.array(feas), np.array(lo), np.array(hi)


# ---------------------------------------------------------------------------
# problem description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GsoreProblem:
    loop: Loop
    samples: LoopSamples
    k_s0: float
    k_n: float
    origin_pole: bool
    n_minus_m: int

    def __post_init__(self):
        g1, g2 = self.gammas
        if not (-1.0 < g1 < 1.0 and -1.0 < g2 < 1.0):
            raise DomainError(f"reset factors ({g1}, {g2}) outside (-1, 1)")
        if self.element.omega_r <= 0 or self.element.xi <= 0:
            raise DomainError("omega_r and xi must be positive")
        if self.samples.omega.size < MIN_GRID_POINTS:
            raise GridTooSparse("certification needs a denser frequency grid")
        if self.origin_pole and self.samples.omega[0] <= 0.0:
            raise DomainError("origin-pole certification uses an open grid (w > 0)")

    @property
    def element(self) -> ResetElement:
        return self.loop.element

    @property
    def gammas(self):
        a = self.element.a_rho
        return float(a[0, 0]), float(a[1, 1])

    @property
    def problem_type(self) -> str:
        if self.origin_pole:
            return "III"
        return "IV" if self.n_minus_m > 3 else "V"


def gsore_problem(element: ResetElement, c_l1: RationalTF, c_l2: RationalTF,
                  plant, c_s: RationalTF | None = None, points: int = 2000,
                  origin_pole: bool | None = None, k_n: float | None = None,
                  n_minus_m: int | None = None) -> GsoreProblem:
    """Assemble a certification problem from loop blocks.

    k_s0 = Cs(0) always comes from the loop.  A rational plant gives
    origin_pole, k_n and n_minus_m too, and passing any of them raises
    DomainError; a measured plant needs origin_pole and n_minus_m, and its
    k_n defaults to 0.
    """
    loop = Loop(element, c_l1, c_l2, plant, c_s)
    wr = element.omega_r
    if loop.rational:
        if any(v is not None for v in (origin_pole, k_n, n_minus_m)):
            raise DomainError("rational plant: the blocks give origin_pole, k_n and n_minus_m")
        origin_pole, k_n, n_minus_m = loop.origin_poles > 0, loop.k_n, loop.n_minus_m
        lo_f, hi_f = feature_band(plant, c_l1, c_l2, loop.c_s, loop.c_r, extra=(wr,))
        lo = 1e-4 * wr if origin_pole else min(lo_f * 1e-2, 1e-4 * wr)
        hi = max(hi_f, wr) * 1e2
    else:
        if origin_pole is None or n_minus_m is None:
            raise DomainError("measured plant: origin_pole and n_minus_m are required")
        lo, hi = plant.band
        k_n = 0.0 if k_n is None else k_n
    grid = np.logspace(np.log10(lo), np.log10(hi), points)
    if loop.rational and not origin_pole:
        grid = np.concatenate([[0.0], grid])    # closed interval at w = 0
    return GsoreProblem(loop, loop.samples(grid), float(loop.k_s0), float(k_n),
                        bool(origin_pole), int(n_minus_m))


# ---------------------------------------------------------------------------
# gene mappings
# ---------------------------------------------------------------------------

def _signed_pow(g):
    """Continuous sign-preserving log map: g in [-9, 9] -> +-(10^|g| - 1)."""
    return np.sign(g) * (10.0 ** np.abs(g) - 1.0)


def _params_from_genes(x, ptype: str, k_s0: float):
    """Gene array (4, S) -> (beta1, beta2, rho1, rho2, rho3) arrays.

    Type III: genes are log10 of the sign-normalized ratios (q1, q2/q1,
    q3, q4/q3) with q_i = k_s0 * Q_i > 0; beta1 is pinned to k_s0.
    Types IV/V: rho1 is pinned to 1; betas use a signed log map.
    """
    if ptype == "III":
        q1 = 10.0 ** x[0]
        q2 = q1 * 10.0 ** x[1]
        q3 = 10.0 ** x[2]
        q4 = q3 * 10.0 ** x[3]
        b1 = np.full_like(q1, k_s0)
        b2 = k_s0 * q2 / q4
        return b1, b2, q1, q2, q2 * q3 / q4
    b1 = _signed_pow(x[0])
    b2 = _signed_pow(x[1])
    rho2 = x[2]
    rho3 = 10.0 ** x[3]
    return b1, b2, np.ones_like(rho3), rho2, rho3


def _pd2_viol(a, d, off):
    """Positive-definiteness violation of [[a, off], [off, d]] (0 when PD)."""
    scale = np.abs(a) + np.abs(d) + np.abs(off) + 1e-300
    return (np.maximum(0.0, -a / scale) + np.maximum(0.0, -d / scale)
            + np.maximum(0.0, -(a * d - off**2) / scale**2))


def _population_objective(data: FreqData, ptype, k_s0, wr, xi, kn, n_minus_m,
                          gamma_bound):
    """Vectorized penalized objective over a population of gene vectors."""

    def fun(x):
        x = np.atleast_2d(np.asarray(x, float))
        if x.shape[0] != 4:
            x = x.T
        b1, b2, r1, r2, r3 = params = _params_from_genes(x, ptype, k_s0)
        # one row per population member, one column per frequency
        cb1, cb2, cr1, cr2, cr3 = cols = tuple(v[:, None] for v in params)
        d1 = data.d1(cr1, cr2, cb1)
        d2 = data.d2(cr3, cr2, cb2)
        c = data.off_diag(cols)
        dscale = np.abs(d1) + np.abs(d2) + np.abs(c) + 1e-300
        pen = (np.maximum(0.0, -d1 / dscale).max(axis=1)
               + np.maximum(0.0, -d2 / dscale).max(axis=1))
        ok = (d1 > 0) & (d2 > 0)
        ratio = np.where(ok, c**2 / np.where(ok, d1 * d2, 1.0), 0.0)
        m = ratio.max(axis=1)
        if n_minus_m == 3:
            off = wr**2 * r1 + 2 * r2 * xi * wr - r3 - kn * b1
            pen += _pd2_viol(4 * r1 * xi * wr - 2 * r2, 2 * wr**2 * r2 - 2 * kn * b2, off)
        else:
            off = wr**2 * r1 + 2 * r2 * xi * wr - r3
            pen += _pd2_viol(4 * r1 * xi * wr - 2 * r2, 2 * wr**2 * r2, off)
        if ptype == "III":
            off0 = k_s0 * b2 + 2 * k_s0 * b1 * xi * wr - r1
            pen += _pd2_viol(2 * k_s0 * b1, 4 * k_s0 * b2 * xi * wr - 2 * r2, off0)
        pscale = np.abs(r1 * r3) + r2**2 + 1e-300
        pen += np.maximum(0.0, -(r1 * r3 - r2**2) / pscale)
        pen += np.maximum(0.0, -(r1 * r3 - gamma_bound * r2**2) / pscale)
        # feasible points always outrank infeasible ones; the sup ratio only
        # orders within the feasible set
        return np.where(pen > 0.0, 1e9 + PENALTY_WEIGHT * pen, np.minimum(m, 1e8))

    return fun


def _gene_bounds(data: FreqData, ptype: str, k_s0: float, wr: float, xi: float):
    """Search boxes plus the S1/S2 interval-reduction scans.

    For integrator loops the pointwise families are pre-reduced to feasible
    (ratio, magnitude) windows, which bound the ratio genes and later seed
    the initial population inside the S1/S2-feasible set.
    """
    k = k_s0
    windows = {}
    scans = {}
    if ptype == "III":
        ratios = np.logspace(-6, 6, 241)
        feas1, lo1, hi1 = ratio_window(data.t1, data.t2, -k * data.t3, ratios)
        feas2, lo2, hi2 = ratio_window(data.u1, data.u2, -k * data.u3, ratios)
        scans["s1"] = (feas1, lo1, hi1)
        scans["s2"] = (feas2, lo2, hi2)
        b_mag = (-3.0, 12.0)
        if feas1.size:
            windows["q2_over_q1"] = (float(feas1.min()), float(feas1.max()))
            ok_lo = np.maximum(lo1[np.isfinite(lo1)], 1e-3) if np.any(np.isfinite(lo1)) else np.array([1e-3])
            # first-coordinate bound: magnitude window divided by the largest
            # feasible direction slope
            span = np.log10(np.hypot(1.0, feas1.max()))
            b_mag = (float(np.log10(ok_lo.min())) - span - 1.0, 12.0)
            r1b = (np.log10(feas1.min()) - 0.5, np.log10(feas1.max()) + 0.5)
        else:
            r1b = (-6.0, 6.0)
        if feas2.size:
            windows["q4_over_q3"] = (float(feas2.min()), float(feas2.max()))
            r2b = (np.log10(feas2.min()) - 0.5, np.log10(feas2.max()) + 0.5)
        else:
            r2b = (-6.0, 6.0)
        return [b_mag, r1b, (-3.0, 12.0), r2b], windows, scans
    rho2_hi = 2.0 * xi * wr * 0.999
    rho2_b = (-rho2_hi, rho2_hi) if ptype == "V" else (1e-12, rho2_hi)
    return [(-9.0, 9.0), (-9.0, 9.0), rho2_b, (-6.0, 9.0)], windows, scans


def _seed_population(bounds, scans, size, rng):
    """Initial gene population; integrator problems start inside the
    S1/S2-feasible (ratio, magnitude) windows, the rest is uniform."""
    genes = rng.uniform(low=[b[0] for b in bounds], high=[b[1] for b in bounds],
                        size=(size, 4))
    if "s1" in scans and scans["s1"][0].size and scans["s2"][0].size:
        half = size // 2
        for row in range(half):
            out = []
            for key, (g_mag, g_ratio) in (("s1", (0, 1)), ("s2", (2, 3))):
                feas, lo, hi = scans[key]
                i = rng.integers(0, feas.size)
                r = feas[i]
                m_lo = max(lo[i], 1e-6)
                m_hi = hi[i] if np.isfinite(hi[i]) else m_lo * 1e6
                lo_log = np.log10(m_lo) + 0.05
                hi_log = max(lo_log + 0.01, np.log10(max(m_hi, m_lo)) - 0.05)
                m = 10.0 ** rng.uniform(lo_log, hi_log)
                q_first = m / np.hypot(1.0, r)
                out.append((g_mag, np.log10(q_first)))
                out.append((g_ratio, np.log10(r)))
            for idx, val in out:
                genes[row, idx] = np.clip(val, bounds[idx][0], bounds[idx][1])
    return genes


def _stalled(best) -> bool:
    """Early-stop rule for one DE restart.

    ``best[k]`` is the best objective after generation k (``best[0]`` after
    the initial population).  The restart stops once the best value is a
    feasible m <= M_BOUND / 2 (penalized points score 1e9 and above) that
    fell by at most STALL_DROP over the last STALL_GENERATIONS generations.
    Such an m clears the bound by a wide margin, so further generations only
    push the candidate towards the boundary of the feasible set.
    """
    if len(best) <= STALL_GENERATIONS:
        return False
    now = best[-1]
    return now <= M_BOUND / 2 and best[-1 - STALL_GENERATIONS] - now <= STALL_DROP


@dataclass(frozen=True)
class OptimizerSettings:
    population: int = 200
    generations: int = 500      # a cap: a restart may stop earlier (_stalled)
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.generations < 1 or self.restarts < 1:
            raise DomainError("optimizer generations and restarts must be at least 1")
        # restart k seeds the DE with seed + 1009 k, which must fit 32 bits
        top = 2**32 - 1 - 1009 * (self.restarts - 1)
        if not 0 <= self.seed <= top:
            raise DomainError(f"optimizer seed must lie in [0, {top}] "
                              f"for {self.restarts} restarts")


@dataclass(frozen=True)
class CertificateResult:
    q: tuple
    m_value: float
    certified: bool
    constraint_report: list
    reconstructed: tuple        # (beta1, beta2, rho1, rho2, rho3)
    problem_type: str
    oracle_cross_check: str     # "pass" | "fail" | "skipped"
    rank_check: str             # "pass" | "fail" | "conditional"
    seed: int
    ratio_windows: dict = field(default_factory=dict)
    # one entry per DE restart: seed, generations summed over its DE runs,
    # and the best objective, why it stopped ("stalled", "converged" or
    # "maxiter") and the grid-sample count ("points") of its last run
    search: list = field(default_factory=list)


def _search_set(n: int) -> np.ndarray:
    """Every k-th of n grid indices from 0 (w = 0 when the grid has it) and
    the last one, with the smallest k that keeps at most SEARCH_POINTS."""
    k = max(1, -(-(n - 1) // (SEARCH_POINTS - 1)))
    return np.unique(np.r_[np.arange(0, n - 1, k), n - 1])


def _loop_params(x, ptype: str, k_s0: float, alpha: float):
    """Genes of the normalized search -> loop-scale (beta1, beta2, rho1, rho2, rho3)."""
    b1, b2, r1, r2, r3 = (float(v[0]) for v in _params_from_genes(
        np.reshape(x, (4, 1)), ptype, k_s0))
    return (b1, alpha * b2, alpha * r1, alpha**2 * r2, alpha**3 * r3)


def certify(problem: GsoreProblem, settings: OptimizerSettings | None = None) -> CertificateResult:
    """Search for a certificate and verify it strictly.

    Failure to find a feasible point is reported as ``certified=False``; the
    conditions are sufficient only, never a proof of instability.  Each DE
    restart searches at most SEARCH_POINTS grid samples and ends early once
    ``_stalled`` holds.  When its best point fails ``_grid_check``, the
    verifier's full-grid test, or stalled on a full-grid m above M_BOUND / 2,
    the restart reruns once with the same seed on the full grid.  The best
    full-grid objective over every DE run is kept.  ``search`` records how
    each restart ended, and on how many samples.
    """
    settings = settings or OptimizerSettings()
    elem = problem.element
    wr, xi = elem.omega_r, elem.xi
    gamma_bound = gamma_factor(*problem.gammas)
    ptype = problem.problem_type
    # search at the frequency-normalized scale s -> s/wr, an exact
    # equivalence of the problem: the grid, the quadratic forms and all
    # closed-form constraints become O(1) whatever the loop bandwidth
    alpha = wr
    hat = LoopSamples(problem.samples.omega / alpha, problem.samples.loop,
                      problem.samples.shaping, alpha**2 * problem.samples.reset_base)
    k_n_hat = problem.k_n / alpha**problem.n_minus_m
    data = FreqData.from_samples(hat, 1.0, xi)
    loop_data = FreqData.from_samples(problem.samples, wr, xi)
    bounds, windows_hat, scans = _gene_bounds(data, ptype, problem.k_s0, 1.0, xi)
    args = (ptype, problem.k_s0, 1.0, xi, k_n_hat, problem.n_minus_m, gamma_bound)
    full_fun, n = _population_objective(data, *args), data.omega.size
    best_x, best_j = None, np.inf
    pop = max(20, settings.population)
    search = []
    for k in range(settings.restarts):
        seed = settings.seed + 1009 * k
        init = _seed_population(bounds, scans, pop, np.random.default_rng(seed))
        points = _search_set(n)
        runs = [_de_run(_population_objective(data.take(points), *args), bounds,
                        init, seed, settings.generations)]
        res, stop = runs[0]
        # a point above the bound on the set is above it on the full grid too
        if points.size < n and float(res.fun) <= M_BOUND - M_SLACK:
            m = _grid_check(problem, loop_data,
                            _loop_params(res.x, ptype, problem.k_s0, alpha))[2]
            # the stall stop presumes m <= M_BOUND / 2, which a coarse set can fake
            if m > M_BOUND / 2 and (m > M_BOUND - M_SLACK or stop == "stalled"):
                points = np.arange(n)
                runs.append(_de_run(full_fun, bounds, init, seed, settings.generations))
        res, stop = runs[-1]
        search.append({"seed": seed, "generations": sum(int(r.nit) for r, _ in runs),
                       "best": float(res.fun), "stop": stop, "points": int(points.size)})
        for r, _ in runs:
            full_j = float(full_fun(r.x)[0])
            if full_j < best_j:
                best_j, best_x = full_j, np.array(r.x)
        if best_j < M_BOUND - 10 * M_SLACK:
            break
    params = _loop_params(best_x, ptype, problem.k_s0, alpha)
    windows = {}
    if "q2_over_q1" in windows_hat:
        lo, hi = windows_hat["q2_over_q1"]
        windows["q2_over_q1"] = (alpha * lo, alpha * hi)
    if "q4_over_q3" in windows_hat:
        lo, hi = windows_hat["q4_over_q3"]
        windows["q4_over_q3"] = (lo / alpha, hi / alpha)
    return replace(_verify_candidate(problem, params, windows, settings.seed),
                   search=search)


def _de_run(fun, bounds, init, seed: int, generations: int):
    """One DE run from ``init``: (scipy result, why it stopped)."""
    # with deferred updating each generation is one vectorized call, so the
    # running minimum after each call is population_energies[0]
    best = []

    def tracked(x):
        vals = fun(x)
        low = float(np.min(vals))
        best.append(min(best[-1], low) if best else low)
        return vals

    res = differential_evolution(
        tracked, bounds, seed=seed, maxiter=generations, tol=1e-10, polish=False,
        vectorized=True, updating="deferred", init=init,
        callback=lambda xk, convergence=None: _stalled(best))
    return res, "stalled" if _stalled(best) else "converged" if res.success else "maxiter"


def _grid_check(problem: GsoreProblem, data: FreqData, params):
    """The full-grid part of the certificate: (s1, s2, m), the S1/S2
    margins per sample and the refined sup of c^2/(d1 d2), which is
    inf unless both margins clear STRICT_MARGIN everywhere.  Each diagonal
    entry is divided by the sum of its terms' magnitudes, the rounding bound
    of that sum, so no frequency scaling of the loop moves the verdict."""
    b1, b2, r1, r2, r3 = params
    s1 = data.d1(r1, r2, b1) / (np.abs(r1 * data.t1) + np.abs(r2 * data.t2)
                                + np.abs(b1 * data.t3) + 1e-300)
    s2 = data.d2(r3, r2, b2) / (np.abs(r3 * data.u1) + np.abs(r2 * data.u2)
                                + np.abs(b2 * data.u3) + 1e-300)
    strict = s1.min() > STRICT_MARGIN and s2.min() > STRICT_MARGIN
    return s1, s2, (_refined_sup(problem, _ratio(data, params), params) if strict
                    else float("inf"))


def _ratio(data: FreqData, params):
    """c^2/(d1*d2) per frequency; +inf wherever d1 or d2 is not positive."""
    b1, b2, r1, r2, r3 = params
    d1 = data.d1(r1, r2, b1)
    d2 = data.d2(r3, r2, b2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((d1 > 0) & (d2 > 0), data.off_diag(params) ** 2 / (d1 * d2), np.inf)


def _ratio_at(problem: GsoreProblem, params, omega):
    """The ratio at arbitrary positive frequencies (off-grid refinement)."""
    sub = problem.loop.samples(np.atleast_1d(np.asarray(omega, float)))
    return _ratio(FreqData.from_samples(sub, problem.element.omega_r, problem.element.xi),
                  params)


class _Unbounded(Exception):
    """The ratio is +inf off-grid: d1 or d2 is not positive there."""


def _refined_sup(problem: GsoreProblem, ratio, params) -> float:
    """Supremum of the per-sample ``ratio`` on the problem's grid, sharpened
    around the argmax; +inf as soon as a probe finds the ratio unbounded."""
    i = int(np.argmax(ratio))
    m = float(ratio[i])
    w = problem.samples.omega
    if np.isfinite(m) and 0 < i < w.size - 1 and w[i - 1] > 0.0:
        def negative_ratio(t):
            r = float(_ratio_at(problem, params, np.exp(t))[0])
            if r == np.inf:
                raise _Unbounded
            return -r

        try:
            res = minimize_scalar(negative_ratio, bounds=(np.log(w[i - 1]), np.log(w[i + 1])),
                                  method="bounded", options={"xatol": 1e-6})
        except _Unbounded:
            return np.inf
        m = max(m, float(-res.fun))
    return m


def _verify_candidate(problem: GsoreProblem, params, windows, seed) -> CertificateResult:
    b1, b2, r1, r2, r3 = params
    elem = problem.element
    wr, xi = elem.omega_r, elem.xi
    g1, g2 = problem.gammas
    report = []
    data = FreqData.from_samples(problem.samples, wr, xi)
    s1, s2, m_value = _grid_check(problem, data, params)
    s1_ok = bool(s1.min() > STRICT_MARGIN)
    s2_ok = bool(s2.min() > STRICT_MARGIN)
    report.append({"id": "S1-diagonal-positivity", "satisfied": s1_ok,
                   "worst_omega": float(data.omega[int(np.argmin(s1))])})
    report.append({"id": "S2-diagonal-positivity", "satisfied": s2_ok,
                   "worst_omega": float(data.omega[int(np.argmin(s2))])})

    cand = HbetaCandidate(np.array([b1, b2]), np.array([[r1, r2], [r2, r3]]))
    m_inf = limit_matrix_infinity(cand, wr, xi, problem.n_minus_m,
                                  problem.k_n if problem.n_minus_m == 3 else None)
    inf_ok = bool(np.all(np.linalg.eigvalsh(m_inf) >
                         STRICT_MARGIN * np.linalg.norm(m_inf, "fro")))
    report.append({"id": "high-frequency-limit-matrix", "satisfied": inf_ok,
                   "margin": float(np.min(np.linalg.eigvalsh(m_inf)))})
    z_ok = True
    if problem.origin_pole:
        m0 = limit_matrix_zero(cand, wr, xi, problem.k_s0)
        z_ok = bool(np.all(np.linalg.eigvalsh(m0) >
                           STRICT_MARGIN * np.linalg.norm(m0, "fro")))
        report.append({"id": "zero-frequency-limit-matrix", "satisfied": z_ok,
                       "margin": float(np.min(np.linalg.eigvalsh(m0)))})

    rho = np.array([[r1, r2], [r2, r3]])
    pd_ok = bool(r1 > 0 and r3 > 0 and r1 * r3 > r2**2)
    try:
        jump_ok = pd_ok and reset_matrix_condition(np.diag([g1, g2]), rho, strict=True)
    except NotPositiveDefinite:
        jump_ok = False
    report.append({"id": "rho-positive-definite", "satisfied": pd_ok,
                   "margin": float(r1 * r3 - r2**2)})
    report.append({"id": "jump-map-strict-inequality", "satisfied": bool(jump_ok),
                   "margin": float(r1 * r3 - gamma_factor(g1, g2) * r2**2)})

    m_ok = bool(m_value <= M_BOUND - M_SLACK)
    report.append({"id": "sup-ratio-below-four", "satisfied": m_ok,
                   "margin": float(M_BOUND - m_value)})

    rank = rank_condition(problem, params)
    report.append({"id": "rank-conditions", "satisfied": rank != "fail", "detail": rank})

    if problem.problem_type == "III":
        q = (r1 / b1, r2 / b1, r3 / b2, r2 / b2)
    else:
        q = (b1 / r1, r2 / r1, b2 / r3, r2 / r3)

    oracle = "skipped"
    if s1_ok and s2_ok and pd_ok:
        pos = problem.samples.omega > 0.0
        sub = LoopSamples(problem.samples.omega[pos], problem.samples.loop[pos],
                          problem.samples.shaping[pos], problem.samples.reset_base[pos])
        rep = spr_check_matrix(cand, sub, elem, k_s0=problem.k_s0, k_n=problem.k_n,
                               origin_pole=problem.origin_pole,
                               n_minus_m=problem.n_minus_m)
        oracle = "pass" if rep.passed else "fail"

    certified = bool(s1_ok and s2_ok and inf_ok and z_ok and pd_ok and jump_ok
                     and m_ok and rank != "fail" and oracle != "fail")
    return CertificateResult(tuple(float(v) for v in q), float(m_value), certified,
                             report, tuple(float(v) for v in params),
                             problem.problem_type, oracle, rank, seed, windows)


def rank_condition(problem: GsoreProblem, params) -> str:
    """Observability/controllability of (A_bar, C_0) and (A_bar, B_0).

    Needs a rational closed loop; measured-plant problems return
    ``"conditional"`` instead of a boolean verdict.
    """
    if not problem.loop.rational:
        return "conditional"
    b1, b2, r1, r2, r3 = params
    cl = problem.loop.closed_loop()
    n = cl.order
    beta = -np.array([[b1], [b2]])
    c0 = np.hstack([np.array([[r1, r2], [r2, r3]]), beta @ cl.c_e_bar[:, 2:]])
    b0 = np.vstack([np.eye(2), np.zeros((n - 2, 2))])
    ctrb, obsv = controllability_observability(cl.a_bar, b=b0, c=c0)
    return "pass" if (ctrb and obsv) else "fail"
