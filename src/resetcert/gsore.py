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

from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import differential_evolution, minimize_scalar

from .elements import ResetElement, jump_map_test
from .errors import DomainError, NotPositiveDefinite
from .frf import GRID_POINTS, Condition, Loop, LoopSamples, no_failure, pass_fail
from .hbeta import (HbetaCandidate, limit_matrix_infinity, limit_matrix_zero, pd_condition,
                    spr_check_matrix)
from .lti import RationalTF, controllability_observability

M_BOUND = 4.0
M_SLACK = 1e-6          # M < 4 is tested as m <= 4 - M_SLACK
STRICT_MARGIN = 1e-9
# a DE restart stops once its best objective is a feasible m <= M_BOUND / 2
# that fell by at most STALL_DROP over the last STALL_GENERATIONS generations
STALL_GENERATIONS = 20
STALL_DROP = 1e-3
PENALTY_WEIGHT = 1e3    # objective weight of the constraint violations
# scipy's best1bin defaults: the range the mutation factor is drawn from once
# per generation, and the binomial crossover rate
DITHER = (0.5, 1.0)
CROSSOVER = 0.7
SEARCH_POINTS = 128     # most grid samples a DE restart starts on (see certify)
_SCAN_ELEMENTS = 2**15  # most (ratio, sample) pairs one block of a ratio scan holds


# ---------------------------------------------------------------------------
# quadratic-form components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreqData:
    """Per-frequency rows of the f1/f2 quadratic forms: ``forms`` is (6, N),
    rows t1, t2, t3, u1, u2, u3."""

    omega: np.ndarray
    forms: np.ndarray

    @staticmethod
    def from_samples(samples: LoopSamples, omega_r: float, xi: float) -> "FreqData":
        L, cs, cr, w = samples.loop, samples.shaping, samples.reset_base, samples.omega
        kappa = 1.0 + np.conj(L)
        jw = 1j * w
        lead = jw + 2.0 * xi * omega_r
        return FreqData(w, np.stack([
            (cr * kappa * jw).real, (cr * kappa).real, (L * kappa * cs).real,
            (cr * kappa * lead).real,
            (cr * kappa * (2j * xi * omega_r * w - w**2)).real - np.abs(kappa) ** 2,
            (L * kappa * cs * lead).real]))

    def take(self, idx) -> "FreqData":
        return FreqData(self.omega[idx], self.forms[:, idx])

    def entries(self, p):
        """d1 = r1 t1 + r2 t2 + b1 t3, d2 = r3 u1 + r2 u2 + b2 u3 and
        c = r2 t1 + r3 t2 + b2 t3 + r2 u1 + r1 u2 + b1 u3, each (S, N), of the
        (5, S) parameters p = (b1, b2, r1, r2, r3), in one matrix product:
        one row per parameter column, one column per frequency."""
        b1, b2, r1, r2, r3 = p
        z = np.zeros_like(r3)
        weights = np.array([[r1, r2, b1, z, z, z], [z, z, z, r3, r2, b2],
                            [r2, r3, b2, r2, r1, b1]])
        return (weights.swapaxes(1, 2).reshape(-1, 6) @ self.forms).reshape(3, z.size, -1)


def gamma_factor(gamma1: float, gamma2: float) -> float:
    """(g1 g2 - 1)^2 / ((g1^2 - 1)(g2^2 - 1)); always >= 1 on (-1, 1)^2."""
    if abs(gamma1) >= 1.0 or abs(gamma2) >= 1.0:
        raise DomainError("gamma factors need -1 < gamma < 1")
    return (gamma1 * gamma2 - 1.0) ** 2 / ((gamma1**2 - 1.0) * (gamma2**2 - 1.0))


# ---------------------------------------------------------------------------
# scalar-product feasibility interval (pointwise family Q1 F1 + Q2 F2 > F3)
# ---------------------------------------------------------------------------

def ratio_window(F1, F2, F3, ratios):
    """Feasible ratios from a scan, with their magnitude windows."""
    eta1, eta2 = _magnitude_windows(F1, F2, F3, ratios)
    ok = eta1 < eta2
    return np.asarray(ratios, float)[ok], eta1[ok], eta2[ok]


def _magnitude_windows(F1, F2, F3, ratios):
    """Magnitude window (eta1, eta2) per ratio for Q = Q1*(1, ratio), Q1 > 0:
    Q1*F1(w) + Q2*F2(w) > F3(w) holds at every sample exactly for
    sqrt(Q1^2 + Q2^2) in (eta1, eta2).  eta1 is -inf when F3 < 0 everywhere,
    eta2 is +inf when the direction clears every F3 < 0 sample on its own,
    and (inf, -inf) marks a refused ratio.  Scanned in blocks of at most
    _SCAN_ELEMENTS (ratio, sample) pairs."""
    F1, F2, F3, ratios = (np.asarray(a, float) for a in (F1, F2, F3, ratios))
    denom, pos = np.hypot(F1, F2), F3 >= 0.0
    eta1, eta2 = np.full(len(ratios), -np.inf), np.full(len(ratios), np.inf)
    step = max(1, _SCAN_ELEMENTS // max(1, F1.size))
    for i in range(0, len(ratios), step):
        r = ratios[i:i + step, None]
        unit = np.hypot(1.0, r)
        cos_t = (1.0 / unit * F1 + r / unit * F2) / np.maximum(denom, 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            mag = F3 / (cos_t * denom)
        eta1[i:i + step] = np.where(pos, mag, -np.inf).max(axis=1, initial=-np.inf)
        hard = ~pos & (cos_t < 0.0)
        eta2[i:i + step] = np.where(hard, mag, np.inf).min(axis=1, initial=np.inf)
        refused = (pos & (cos_t <= 0.0)).any(axis=1)    # cannot beat F3 >= 0
        eta1[i:i + step][refused], eta2[i:i + step][refused] = np.inf, -np.inf
    return eta1, eta2


# ---------------------------------------------------------------------------
# problem description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GsoreProblem:
    """A GSORE loop on its grid; ``data``, its quadratic forms at loop scale, and
    ``gamma_bound``, the ``gamma_factor`` of its reset factors, are checked on construction."""

    loop: Loop
    samples: LoopSamples
    k_n: float
    origin_pole: bool
    n_minus_m: int
    data: FreqData = field(init=False)
    gamma_bound: float = field(init=False)

    def __post_init__(self):
        if self.element.kind != "GSORE":
            raise DomainError(f"a GSORE problem needs a GSORE element, got {self.element.kind}")
        # gamma_factor refuses a reset factor outside (-1, 1)
        object.__setattr__(self, "gamma_bound", gamma_factor(*self.gammas))
        with np.errstate(over="ignore", invalid="ignore"):
            data = FreqData.from_samples(self.samples, self.element.omega_r, self.element.xi)
        bad = np.flatnonzero(~np.isfinite(data.forms).all(axis=0))
        if bad.size:
            raise DomainError(f"the GSORE quadratic forms are not finite at omega = "
                              f"{self.samples.omega[bad[0]]:g} rad/s, where |L| = "
                              f"{abs(self.samples.loop[bad[0]]):g}")
        object.__setattr__(self, "data", data)

    @property
    def element(self) -> ResetElement:
        return self.loop.element

    k_s0 = property(lambda self: self.loop.k_s0)

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
                  plant, c_s: RationalTF | None = None, points: int = GRID_POINTS,
                  origin_pole: bool | None = None, k_n: float | None = None,
                  n_minus_m: int | None = None) -> GsoreProblem:
    """Assemble a certification problem from loop blocks.

    The grid is ``Loop.grid(points)``, with w = 0 prepended for a rational
    loop without an origin pole.  k_s0 = Cs(0) always comes from the loop.
    A rational plant gives origin_pole, k_n and n_minus_m too, and passing
    any of them raises DomainError; a measured plant needs origin_pole and
    n_minus_m, and k_n too when n_minus_m is 3; otherwise k_n defaults to 0.
    Quadratic forms that are not finite on the grid are a DomainError.
    """
    loop = Loop(element, c_l1, c_l2, plant, c_s)
    if loop.rational:
        if any(v is not None for v in (origin_pole, k_n, n_minus_m)):
            raise DomainError("rational plant: the blocks give origin_pole, k_n and n_minus_m")
        origin_pole, k_n, n_minus_m = loop.origin_poles > 0, loop.k_n, loop.n_minus_m
    elif origin_pole is None or n_minus_m is None:
        raise DomainError("measured plant: origin_pole and n_minus_m are required")
    elif n_minus_m == 3 and k_n is None:       # the w -> inf limit matrix reads k_n
        raise DomainError("measured plant: k_n is required when n_minus_m is 3")
    k_n = 0.0 if k_n is None else k_n
    grid = loop.grid(points)
    if loop.rational and not origin_pole:
        grid = np.concatenate([[0.0], grid])    # closed interval at w = 0
    return GsoreProblem(loop, loop.samples(grid), float(k_n), bool(origin_pole),
                        int(n_minus_m))


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


def _pd2_viol(m):
    """Positive-definiteness violation of the symmetric 2x2 matrix ``m``, or
    of each matrix of a (2, 2, S) stack (0 when PD)."""
    a, d, off = m[0, 0], m[1, 1], m[0, 1]
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
        _, _, r1, r2, r3 = p = _params_from_genes(x, ptype, k_s0)
        d1, d2, c = data.entries(p)
        ok = (d1 > 0) & (d2 > 0)
        bad = ~ok.all(axis=1)           # the d-penalty is 0 on every other member
        dscale = np.abs(d1[bad]) + np.abs(d2[bad]) + np.abs(c[bad]) + 1e-300
        pen = np.zeros(r3.size)
        pen[bad] = sum(np.maximum(0.0, -d[bad] / dscale).max(axis=1) for d in (d1, d2))
        d1 *= d2
        c *= c
        m = np.divide(c, d1, out=np.zeros_like(c), where=ok).max(axis=1)
        pen += _pd2_viol(limit_matrix_infinity(p, wr, xi, n_minus_m, kn))
        if ptype == "III":
            pen += _pd2_viol(limit_matrix_zero(p, wr, xi, k_s0))
        pscale = np.abs(r1 * r3) + r2**2 + 1e-300
        pen += np.maximum(0.0, -(r1 * r3 - r2**2) / pscale)
        pen += np.maximum(0.0, -(r1 * r3 - gamma_bound * r2**2) / pscale)
        # feasible points always outrank infeasible ones; the sup ratio only
        # orders within the feasible set, and one that overflowed to NaN scores 1e8
        return np.where(pen > 0.0, 1e9 + PENALTY_WEIGHT * pen, np.fmin(m, 1e8))

    return fun


def _gene_bounds(data: FreqData, ptype: str, k_s0: float, wr: float, xi: float):
    """Search boxes plus the S1/S2 interval-reduction scans.

    For integrator loops the pointwise families are pre-reduced to feasible
    (ratio, magnitude) windows, which bound the ratio genes and later seed
    the initial population inside the S1/S2-feasible set.
    """
    windows = {}
    scans = {}
    if ptype == "III":
        ratios = np.logspace(-6, 6, 241)
        t1, t2, t3, u1, u2, u3 = data.forms
        feas1, lo1, hi1 = ratio_window(t1, t2, -k_s0 * t3, ratios)
        feas2, lo2, hi2 = ratio_window(u1, u2, -k_s0 * u3, ratios)
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


# the settable range of each setting: the objective holds population x grid
# entries at once, and generations x restarts bounds the search
OPTIMIZER_RANGES = {"population": (20, 2_000), "generations": (1, 10_000), "restarts": (1, 100)}


@dataclass(frozen=True)
class OptimizerSettings:
    population: int = 200
    generations: int = 500      # a cap: a restart may stop earlier (_stalled)
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        for name, (low, top) in OPTIMIZER_RANGES.items():
            if not low <= getattr(self, name) <= top:
                raise DomainError(f"optimizer.{name} must lie in [{low}, {top}], "
                                  f"got {getattr(self, name)!r}")
        # restart k seeds the DE with seed + 1009 k, which must fit 32 bits
        top = 2**32 - 1 - 1009 * (self.restarts - 1)
        if not 0 <= self.seed <= top:
            raise DomainError(f"optimizer seed must lie in [0, {top}] "
                              f"for {self.restarts} restarts")


@dataclass(frozen=True)
class CertificateResult:
    q: tuple
    m_value: float
    conditions: list
    reconstructed: tuple        # (beta1, beta2, rho1, rho2, rho3)
    problem_type: str
    seed: int
    ratio_windows: dict = field(default_factory=dict)
    # one entry per DE restart: seed, generations summed over its DE runs,
    # and the best objective, why it stopped ("stalled", "converged" or
    # "maxiter") and the grid-sample count ("points") of its last run
    search: list = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return no_failure(self.conditions)

    @property
    def oracle_cross_check(self) -> str:
        """The oracle-cross-check record's status: pass, fail or skipped."""
        return next(c.status for c in self.conditions if c.id == "oracle-cross-check")


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
    ptype = problem.problem_type
    # search at the frequency-normalized scale s -> s/wr, an exact
    # equivalence of the problem: the grid, the quadratic forms and all
    # closed-form constraints become O(1) whatever the loop bandwidth
    alpha = wr
    hat = LoopSamples(problem.samples.omega / alpha, problem.samples.loop,
                      problem.samples.shaping, alpha**2 * problem.samples.reset_base)
    k_n_hat = problem.k_n / alpha**problem.n_minus_m
    data = FreqData.from_samples(hat, 1.0, xi)
    bounds, windows_hat, scans = _gene_bounds(data, ptype, problem.k_s0, 1.0, xi)
    args = (ptype, problem.k_s0, 1.0, xi, k_n_hat, problem.n_minus_m, problem.gamma_bound)
    full_fun, n = _population_objective(data, *args), data.omega.size
    best_x, best_j = None, np.inf
    search = []
    for k in range(settings.restarts):
        seed = settings.seed + 1009 * k
        init = _seed_population(bounds, scans, settings.population, np.random.default_rng(seed))
        points = _search_set(n)
        runs = [_de_run(_population_objective(data.take(points), *args), bounds,
                        init, seed, settings.generations)]
        res, stop = runs[0]
        # a point above the bound on the set is above it on the full grid too
        if points.size < n and float(res.fun) <= M_BOUND - M_SLACK:
            m = _grid_check(problem, _loop_params(res.x, ptype, problem.k_s0, alpha))[2]
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
    b1, b2, r1, r2, r3 = params = _loop_params(best_x, ptype, problem.k_s0, alpha)
    q = ((r1 / b1, r2 / b1, r3 / b2, r2 / b2) if ptype == "III"
         else (b1 / r1, r2 / r1, b2 / r3, r2 / r3))
    # q2/q1 = rho2/rho1 scales as alpha, q4/q3 = rho2/rho3 as 1/alpha
    windows = {key: (alpha * lo, alpha * hi) if key == "q2_over_q1" else (lo / alpha, hi / alpha)
               for key, (lo, hi) in windows_hat.items()}
    m_value, conditions = _verify_candidate(problem, params)
    return CertificateResult(q, m_value, conditions, params, ptype, settings.seed, windows,
                             search)


def _best1bin(population, rng):
    """One generation of best1bin trials, as scipy's default strategy draws
    them, in one numpy pass: (trials, r0, r1, F).  Member i mutates to
    population[0] + F (population[r0] - population[r1]) with i, r0 and r1
    distinct and F ~ U(DITHER), then takes each coordinate from that mutant
    with probability CROSSOVER, and one drawn coordinate always.  The draws
    come in scipy's order (F, donors, forced coordinate, crossover), all
    from ``rng.uniform``, which a legacy RandomState has too."""
    s, n = population.shape
    i = np.arange(s)
    scale = rng.uniform(*DITHER)
    r0 = (rng.uniform(size=s) * (s - 1)).astype(np.intp)
    r0 += r0 >= i                                   # uniform over all but i
    r1 = (rng.uniform(size=s) * (s - 2)).astype(np.intp)
    r1 += r1 >= np.minimum(i, r0)
    r1 += r1 >= np.maximum(i, r0)                   # uniform over all but i and r0
    fill = (rng.uniform(size=s) * n).astype(np.intp)
    cross = rng.uniform(size=(s, n)) < CROSSOVER
    cross[i, fill] = True
    mutants = population[0] + scale * (population[r0] - population[r1])
    return np.where(cross, mutants, population), r0, r1, scale


class _Best1Bin:
    """scipy ``strategy`` callable: scipy asks for one trial per member and
    passes a freshly scaled population array once per generation, so the
    whole generation is built by ``_best1bin`` when a new array arrives."""

    def __init__(self):
        self.population = self.trials = None

    def __call__(self, candidate, population, rng=None):
        if population is not self.population:
            self.population, self.trials = population, _best1bin(population, rng)[0]
        return self.trials[candidate]


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
        tracked, bounds, strategy=_Best1Bin(), seed=seed, maxiter=generations, tol=1e-10,
        polish=False, vectorized=True, updating="deferred", init=init,
        callback=lambda xk, convergence=None: _stalled(best))
    return res, "stalled" if _stalled(best) else "converged" if res.success else "maxiter"


def _grid_check(problem: GsoreProblem, params):
    """The full-grid part of the certificate: (s1, s2, m, w), the S1/S2
    margins per sample and the refined sup m of c^2/(d1 d2) at frequency w;
    m is inf and w None unless both margins clear STRICT_MARGIN everywhere.
    Each diagonal entry is divided by the sum of its terms' magnitudes, the
    rounding bound of that sum, so no frequency scaling of the loop moves
    the verdict."""
    p, data = np.reshape(params, (5, 1)), problem.data
    (d1,), (d2,), (c,) = data.entries(p)
    (scale1,), (scale2,), _ = FreqData(data.omega, np.abs(data.forms)).entries(np.abs(p))
    s1, s2 = d1 / (scale1 + 1e-300), d2 / (scale2 + 1e-300)
    strict = s1.min() > STRICT_MARGIN and s2.min() > STRICT_MARGIN
    if not strict:
        return s1, s2, float("inf"), None
    return s1, s2, *_refined_sup(problem, _ratio(d1, d2, c), params)


def _ratio(d1, d2, c):
    """c^2/(d1*d2) per frequency; +inf wherever d1 or d2 is not positive."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((d1 > 0) & (d2 > 0), c**2 / (d1 * d2), np.inf)


def _ratio_at(problem: GsoreProblem, params, omega):
    """The ratio at arbitrary positive frequencies (off-grid refinement)."""
    sub = problem.loop.samples(np.atleast_1d(np.asarray(omega, float)))
    data = FreqData.from_samples(sub, problem.element.omega_r, problem.element.xi)
    (d1,), (d2,), (c,) = data.entries(np.reshape(params, (5, 1)))
    return _ratio(d1, d2, c)


class _Unbounded(Exception):
    """The ratio is +inf off-grid: d1 or d2 is not positive there."""


def _refined_sup(problem: GsoreProblem, ratio, params):
    """(sup, omega): the supremum of the per-sample ``ratio`` on the problem's
    grid, sharpened around the argmax, and where it sits; the sup is +inf as
    soon as a probe finds the ratio unbounded."""
    i = int(np.argmax(ratio))
    w = problem.samples.omega
    m, at = float(ratio[i]), float(w[i])
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
            return np.inf, at
        if -res.fun > m:
            m, at = float(-res.fun), float(np.exp(res.x))
    return m, at


def _verify_candidate(problem: GsoreProblem, params):
    """(m_value, conditions): the strict verdict on the loop-scale ``params``."""
    b1, b2, r1, r2, r3 = params
    elem = problem.element
    wr, xi = elem.omega_r, elem.xi
    s1, s2, m_value, sup_omega = _grid_check(problem, params)
    grid = [Condition(cid, pass_fail(s.min() > STRICT_MARGIN), float(s.min()),
                      float(problem.samples.omega[int(np.argmin(s))]))
            for cid, s in (("S1-diagonal-positivity", s1), ("S2-diagonal-positivity", s2))]

    cand = HbetaCandidate(np.array([b1, b2]), np.array([[r1, r2], [r2, r3]]))
    limits = {"high-frequency-limit-matrix": limit_matrix_infinity(
        params, wr, xi, problem.n_minus_m, problem.k_n)}
    if problem.origin_pole:
        limits["zero-frequency-limit-matrix"] = limit_matrix_zero(params, wr, xi, problem.k_s0)
    conditions = grid + [pd_condition(cid, m) for cid, m in limits.items()]
    # the sup over the axis takes in the ratio's limits, which the grid only nears
    for m in limits.values():
        ratio = (4.0 * m[0, 1] ** 2 / (m[0, 0] * m[1, 1])
                 if m[0, 0] > 0.0 and m[1, 1] > 0.0 else np.inf)
        if ratio > m_value:
            m_value, sup_omega = float(ratio), None

    pd_ok = bool(r1 > 0 and r3 > 0 and r1 * r3 > r2**2)
    conditions.append(Condition("rho-positive-definite", pass_fail(pd_ok),
                                float(min(r1, r3, r1 * r3 - r2**2))))
    jump_ok, jump_margin = False, None
    if pd_ok:
        with suppress(NotPositiveDefinite):
            jump_ok, jump_margin = jump_map_test(np.diag(problem.gammas), cand.rho_prime)
    conditions.append(Condition("jump-map-strict-inequality", pass_fail(jump_ok), jump_margin))
    conditions.append(Condition("sup-ratio-below-four", pass_fail(m_value <= M_BOUND - M_SLACK),
                                float(M_BOUND - m_value), sup_omega))
    rank = rank_condition(problem, params)
    conditions.append(Condition("rank-conditions", rank, detail="measured plant: needs a model"
                                if rank == "conditional" else ""))

    oracle = Condition("oracle-cross-check", "skipped", detail="S1, S2 or rho failed")
    if no_failure(grid) and pd_ok:
        pos = problem.samples.omega > 0.0
        sub = LoopSamples(problem.samples.omega[pos], problem.samples.loop[pos],
                          problem.samples.shaping[pos], problem.samples.reset_base[pos])
        rep = spr_check_matrix(cand, sub, elem, k_s0=problem.k_s0, k_n=problem.k_n,
                               origin_pole=problem.origin_pole,
                               n_minus_m=problem.n_minus_m)
        failed = [c.id for c in rep.conditions if c.status == "fail"]
        oracle = Condition(oracle.id, pass_fail(rep.passed),
                           detail="failed: " + ", ".join(failed) if failed else "")
    conditions.append(oracle)
    return float(m_value), conditions


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
