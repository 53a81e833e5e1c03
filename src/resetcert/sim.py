"""Hybrid time-domain simulation of reset control loops.

The flow between resets is linear and every input is a Bohl function, so
the simulator solves it exactly instead of integrating it numerically.
Each ``InputSignal`` is a tuple of terms a t^k e^(sigma t) cos(omega t + phi)
(a step is one term with k = sigma = omega = 0, a sinusoid one with k =
sigma = 0, the zero input none), and each term is the output c @ w of a
Jordan-chain generator w' = S w.  Appending the reference and disturbance
generators to the closed loop gives one autonomous system z' = F z, so
between resets z(t + h) = expm(F h) z (Beker, Hollot, Chait & Han,
Automatica 40, 2004).

- F is balanced once per run by an exact power-of-two diagonal scaling.
  Exponentials come from scaling and squaring of a Padé approximant (numpy
  only).
- Grid samples come from the stacked powers expm(F j dt), j = 1..CHUNK.
  A stretch without events is scanned in batches of up to BATCH chunks,
  one row per grid sample: row t is the state t steps on.  The chunk
  anchors, rows 0, CHUNK, 2 CHUNK, ..., are chained through
  expm(F CHUNK dt), and one matrix product of the anchors with the power
  stack gives the rows after each (Moler & Van Loan, SIAM Review 45, 2003,
  method 1).  A batch is cut at the first step whose end values show a
  state-norm overflow or a sign change of e_r (sign changes at the
  rounding level of the propagation from the chunk anchor are not events),
  or at an extremum that may hide two crossings: a sign change of e_r'
  between equal signs of e_r, unless on every cell the Bernstein
  coefficients of e_r's Taylor polynomial (Farouki & Rajan, CAGD 4, 1987)
  keep its sign by more than its rounding level.  Without jumps only an
  overflow cuts a batch.  After a cut the next batch holds ceil(gap / CHUNK)
  chunks, at most BATCH, where gap is the number of steps since the previous
  cut, so crossings at a steady spacing take one batch each; each batch that
  runs uncut doubles the next.
- Inside a cut step the flow is the Taylor polynomial of expm(F u) z on
  cells h = dt / cells short enough that it is exact to rounding: the
  fewest with |F h|_1 <= 1, or half as many where the bound
  |(F h)^19|_1 e^|F h|_1 / 19! on its tail is at most 1/19! (_cell_count).
  For the non-normal F of the benchmark's PCI and GSORE loops, at
  |F dt|_1 = 1.08-1.59, |(F dt)^19|_1 e^|F dt|_1 reads 1.5e-10 to 2.3e-4,
  so one cell does; |F h|_1 <= 2 keeps the rounding of the Taylor sum
  within e^2 ulps.  A step that needs more than MAX_CELLS cells is refused.
  e_r = g @ z is sampled at SCAN_MARKS marks per cell; in the first
  sub-interval with a sign change (or with an extremum that passes zero)
  the crossing is located by a safeguarded Newton iteration (e_r' = g F z)
  to BISECT_REL * dt.  The scan resumes just past it, so a rejected crossing
  does not hide a later one in the same step.
- A crossing fires a jump, which multiplies the reset substate by its reset
  matrix, only if the dwell max(lam, dt) has elapsed since the last jump
  (time regularization), (I - A_rho_bar) x is nonzero (guard), and |e_r| at
  the located instant is within CROSSING_REL_TOL of its running peak
  (tolerance).  ``SimTrace`` counts every outcome.

dt sets only the sample grid and the scale at which crossings are looked
for, not the accuracy of the flow.  State samples are recorded on the grid,
so the value stored at a reset instant is the pre-jump one and the next grid
sample is post-jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RunTooLong
from .lti import ClosedLoop, balance

OVERFLOW_NORM = 1e12
CROSSING_REL_TOL = 1e-9     # |e_r| tolerance relative to its running peak
JUMP_GUARD_REL = 1e-12      # (I - A_rho_bar) x threshold relative to |x|
BISECT_REL = 1e-10          # crossing-time resolution relative to dt
CHUNK = 128                 # grid steps between chained anchors
BATCH = 16                  # most chunks scanned by one matrix product
TAYLOR_ORDER = 18           # a cell's Taylor tail is below 1.06/19! (see _cell_count)
MAX_CELLS = 256             # most Taylor cells per grid step; |F|_1 dt above it is refused
MAX_EVENTS_PER_STEP = 8
SCAN_MARKS = 8              # sub-intervals per cell scanned inside a flagged step
SAMPLES_PER_TAU = 200       # default_dt resolution of the slowest time constant
SAMPLES_PER_PERIOD = 40     # default_dt resolution of oscillating inputs
# the trace keeps every grid sample, (order + 4) floats a step: 10^7 steps of
# a ten-state loop take 1.1 GB, over 100 times the longest benchmark run
MAX_STEPS = 10_000_000
ROUNDING_REL = 1e-12        # e_r (e_r') below this share of |g|_1 |z|
                            # (|g F|_1 |z|) is rounding of the propagation
# _BERNSTEIN @ a: Bernstein coefficients on [0, 1] of sum_j a_j s^j, j <= TAYLOR_ORDER
_BERNSTEIN = np.array([[math.comb(k, j) / math.comb(TAYLOR_ORDER, j)
                        for j in range(TAYLOR_ORDER + 1)] for k in range(TAYLOR_ORDER + 1)])


@dataclass(frozen=True)
class InputSignal:
    """Bohl-class input: the sum of amp t^power e^(sigma t) cos(omega t + phase)
    over its terms; no terms is the zero input."""

    terms: tuple = ()          # (amp, power, sigma, omega, phase) summands

    def __call__(self, t):
        t = np.asarray(t, float)
        out = np.zeros_like(t)
        for amp, power, sigma, omega, phase in self.terms:
            out = out + amp * t**power * np.exp(sigma * t) * np.cos(omega * t + phase)
        return out

    def generator(self):
        """(S, w0, c) with signal(t) = c @ expm(S t) @ w0."""
        blocks = [_exppoly_generator(*term) for term in self.terms]
        n = sum(b[1].size for b in blocks)
        s, w0, c = np.zeros((n, n)), np.zeros(n), np.zeros(n)
        i = 0
        for s_k, w_k, c_k in blocks:
            j = i + w_k.size
            s[i:j, i:j], w0[i:j], c[i:j] = s_k, w_k, c_k
            i = j
        return s, w0, c

    def frequencies(self) -> tuple:
        """Angular frequencies of the oscillating parts of the signal."""
        return tuple(abs(float(term[3])) for term in self.terms if term[3] != 0.0)


def _exppoly_generator(amp, power, sigma, omega, phase):
    """Generator of amp t^k e^(sigma t) cos(omega t + phase).

    The states are amp k! t^j/j! e^(sigma t) cos(omega t + phase) for j = 0..k
    (and the matching sin states when omega != 0): a Jordan chain of the
    scalar sigma or of the 2x2 rotation block [[sigma, -omega], [omega, sigma]],
    read out at j = k.  The amplitude sits in w0, so a step's generator is
    S = 0, w0 = amp, c = 1.
    """
    k = int(power)
    if k != power or k < 0:
        raise ValueError(f"exppoly power must be a nonnegative integer, got {power!r}")
    if omega == 0.0:
        block, start = np.array([[float(sigma)]]), np.array([np.cos(phase)])
    else:
        block = np.array([[sigma, -omega], [omega, sigma]], float)
        start = np.array([np.cos(phase), np.sin(phase)])
    m = start.size
    n = m * (k + 1)
    s = np.kron(np.eye(k + 1), block) + np.kron(np.eye(k + 1, k=-1), np.eye(m))
    w0 = np.zeros(n)
    w0[:m] = amp * math.factorial(k) * start
    c = np.zeros(n)
    c[m * k] = 1.0
    return s, w0, c


def step_input(amplitude: float = 1.0) -> InputSignal:
    return InputSignal(((amplitude, 0, 0.0, 0.0, 0.0),))


def sinusoid_input(amplitude: float = 1.0, freq: float = 1.0, phase: float = 0.0) -> InputSignal:
    """amplitude sin(freq t + phase), as the cosine term a quarter period later."""
    return InputSignal(((amplitude, 0, 0.0, freq, phase - math.pi / 2),))


@dataclass(frozen=True)
class SimConfig:
    system: ClosedLoop
    dt: float
    t_end: float
    lam: float = None           # minimum dwell; defaults to dt
    input: InputSignal = field(default_factory=step_input)
    disturbance: InputSignal = field(default_factory=InputSignal)
    x0: np.ndarray = None

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= self.dt:
            raise ValueError("need dt > 0 and t_end > dt")
        if not self.t_end / self.dt <= MAX_STEPS:
            raise RunTooLong(f"t_end = {self.t_end!r} over dt = {self.dt!r} gives "
                             f"{self.t_end / self.dt:.3g} steps; a trace holds at most "
                             f"{MAX_STEPS}")
        lam = self.dt if self.lam is None else float(self.lam)
        if lam < 0:
            raise ValueError("dwell must be nonnegative")
        object.__setattr__(self, "lam", lam)
        x0 = np.zeros(self.system.order) if self.x0 is None else np.asarray(self.x0, float)
        if x0.size != self.system.order:
            raise ValueError(f"x0 size {x0.size} != system order {self.system.order}")
        object.__setattr__(self, "x0", x0)


@dataclass
class SimTrace:
    times: np.ndarray
    states: np.ndarray          # row per grid sample
    outputs: np.ndarray         # y
    reset_signal: np.ndarray    # e_r
    reset_flags: np.ndarray     # 1 when a jump occurred in (t_prev, t]
    reset_instants: list
    max_state_norm: float
    diverged: bool = False
    reset_states: list = field(default_factory=list)   # (pre, post) pairs
    # deterministic event counters: every located crossing either fires a
    # jump or is suppressed by exactly one rule, checked in this order
    steps: int = 0                  # grid steps propagated
    batches: int = 0                # batched scans of the grid
    crossings: int = 0              # zero crossings of e_r located
    resets_fired: int = 0
    suppressed_dwell: int = 0
    suppressed_guard: int = 0
    suppressed_tolerance: int = 0
    min_reset_gap: float = math.inf
    cells: int = 1                  # Taylor cells per grid step

    def counters(self) -> dict:
        """The event counters as JSON values; ``min_reset_gap`` is None while
        fewer than two resets have fired."""
        return {"steps": self.steps, "batches": self.batches, "crossings": self.crossings,
                "resets_fired": self.resets_fired, "suppressed_dwell": self.suppressed_dwell,
                "suppressed_guard": self.suppressed_guard,
                "suppressed_tolerance": self.suppressed_tolerance,
                "min_reset_gap": (self.min_reset_gap if math.isfinite(self.min_reset_gap)
                                  else None),
                "diverged": bool(self.diverged), "cells": self.cells}

    def save_csv(self, path):
        n = self.states.shape[1]
        header = "t," + ",".join(f"x_{i + 1}" for i in range(n)) + ",y,e_r,reset_flag"
        data = np.column_stack([self.times, self.states, self.outputs,
                                self.reset_signal, self.reset_flags])
        np.savetxt(path, data, delimiter=",", header=header, comments="")


def default_dt(system: ClosedLoop, input: InputSignal | None = None,
               disturbance: InputSignal | None = None) -> float:
    """Sample step: the dominant (slowest) time constant of the flow matrix
    over SAMPLES_PER_TAU.

    Capped by the fastest eigenvalue, so the grid resolves the fastest mode
    and the crossings it drives, and by SAMPLES_PER_PERIOD samples per period
    of every oscillating term of the input and the disturbance.
    """
    eig = np.linalg.eigvals(system.a_bar)
    rates = np.abs(eig.real)
    rates = rates[rates > 1e-9]
    tau = 1.0 / rates.min() if rates.size else 1.0
    fast = np.max(np.abs(eig)) if eig.size else 1.0
    dt = min(tau / SAMPLES_PER_TAU, 1.0 / max(fast, 1e-9))
    for signal in (input, disturbance):
        for omega in (signal.frequencies() if signal is not None else ()):
            dt = min(dt, 2.0 * np.pi / (SAMPLES_PER_PERIOD * omega))
    return dt


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the (8, 8) Padé approximant.

    ``a`` may be a stack of matrices (shape (..., n, n)).  Each matrix is
    scaled to 1-norm <= 1/2, where the approximant's relative backward error
    is below 1e-22 (Golub & Van Loan, Matrix Computations, algorithm 11.3.1).
    """
    a = np.asarray(a, float)
    norms = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    squarings = np.ceil(np.log2(np.maximum(norms, 0.5) / 0.5)).astype(int)
    a = a / (2.0 ** squarings)[..., None, None]
    q = 8
    coef = 1.0
    power = np.broadcast_to(np.eye(a.shape[-1]), a.shape)
    num, den = power.copy(), power.copy()
    for k in range(1, q + 1):
        coef *= (q - k + 1) / (k * (2 * q - k + 1))
        power = a @ power
        num += coef * power
        den += (-coef if k % 2 else coef) * power
    out = np.linalg.solve(den, num)
    for i in range(int(squarings.max(initial=0))):
        more = squarings > i
        out[more] = out[more] @ out[more]
    return out


def _horner(coefs, x: float) -> float:
    out = 0.0
    for c in reversed(coefs):
        out = out * x + c
    return out


def _bracketed_root(p, dp, lo, hi, f_lo, f_hi, tol):
    """Root of the polynomial p (ascending coefficients, derivative dp) in a
    bracket where p has the sign of f_lo at lo and of f_hi at hi.

    Newton steps are safeguarded by bisection (Numerical Recipes' rtsafe).
    Returns (x, p(x)) for the end of a bracket of width <= tol on the far
    side of the root, so p(x) has the sign of f_hi or is zero.  A Newton step
    shorter than tol/2 is stretched to tol/2, which closes the bracket.
    """
    positive_lo = f_lo > 0.0
    x = lo + (hi - lo) * f_lo / (f_lo - f_hi)       # regula falsi start
    last_step = hi - lo
    while hi - lo > tol:
        fx = _horner(p, x)
        if fx == 0.0:
            return x, 0.0
        if (fx > 0.0) == positive_lo:
            lo = x
        else:
            hi, f_hi = x, fx
        slope = _horner(dp, x)
        step = -fx / slope if slope != 0.0 else math.inf
        converging = abs(step) <= 0.5 * abs(last_step)
        if abs(step) < 0.5 * tol:
            step, converging = math.copysign(0.5 * tol, step), True
        if not (converging and lo < x + step < hi):
            step = 0.5 * (lo + hi) - x
        last_step = step
        x += step
    return hi, f_hi


def _cell_count(f, dt) -> int:
    """Taylor cells per grid step, a power of two.

    The tail of expm(A) after A^T/T!, T = TAYLOR_ORDER, is at most the sum
    of |A|_1^k / k! over k > T, below 1.06/(T+1)! where |A|_1 <= 1, and at
    most |A^(T+1)|_1 e^|A|_1 / (T+1)!.  The cell length h = dt / cells comes
    from the fewest cells with |F h|_1 <= 1, or from half as many, with
    |F h|_1 <= 2, where the second bound is at most 1/(T+1)!.  For a
    non-normal F, |(F h)^(T+1)|_1 is far below |F h|_1^(T+1) (Al-Mohy &
    Higham, SIAM J. Matrix Anal. Appl. 31, 2009); for a rotation the two are
    equal.  A step that needs more than MAX_CELLS cells is refused with
    RunTooLong before anything is built.
    """
    norm = float(np.linalg.norm(f, 1))
    if not norm * dt <= MAX_CELLS:
        raise RunTooLong(f"dt = {dt!r} with |F|_1 = {norm:.3g} gives |F|_1 dt = {norm * dt:.3g}; "
                         f"a grid step holds at most {MAX_CELLS} Taylor cells")
    cells = 2 ** max(0, math.ceil(math.log2(max(norm * dt, 1.0))))
    if cells > 1:
        a = f * (2.0 * dt / cells)                  # |a|_1 <= 2
        tail = np.linalg.norm(np.linalg.matrix_power(a, TAYLOR_ORDER + 1), 1)
        if tail * math.exp(np.linalg.norm(a, 1)) <= 1.0:
            cells //= 2
    return cells


class _Flow:
    """The loop augmented with its input generators, in balanced coordinates
    z_b = z / d: the powers 1..CHUNK of Phi = expm(F dt) and the Taylor
    vectors (F h)^j / j! of the cell length h = dt / cells."""

    def __init__(self, config: SimConfig):
        sys_ = config.system
        s_r, w_r, c_r = config.input.generator()
        s_d, w_d, c_d = config.disturbance.generator()
        nx, nr = sys_.order, w_r.size
        n = nx + nr + w_d.size
        f = np.zeros((n, n))
        f[:nx, :nx] = sys_.a_bar
        f[:nx, nx:nx + nr] = np.outer(sys_.b_bar[:, 0], c_r)
        f[:nx, nx + nr:] = np.outer(sys_.b_bar[:, 1], c_d)
        f[nx:nx + nr, nx:nx + nr] = s_r
        f[nx + nr:, nx + nr:] = s_d
        g = np.concatenate([sys_.c_e_bar.ravel(), sys_.d_e * c_r, np.zeros(w_d.size)])
        f, d = balance(f)
        self.n, self.nx, self.dx = n, nx, d[:nx]
        self.g = g * d                              # e_r = g @ z_b
        self.g_dot = self.g @ f                     # e_r' = g_dot @ z_b
        self.unbalance = np.eye(n, nx) * d[:nx]     # x = z_b @ unbalance
        self.norm_weights = np.column_stack([np.ones(n), np.eye(n, nx) @ d[:nx] ** 2])
        # rounding of the propagated state is about eps |z| per entry
        self.e_floor = ROUNDING_REL * float(np.abs(self.g).sum())
        self.de_floor = ROUNDING_REL * float(np.abs(self.g_dot).sum())
        self.z0 = np.concatenate([config.x0, w_r, w_d]) / d
        dt = config.dt
        self.cells = _cell_count(f, dt)
        self.cell = dt / self.cells
        terms = [np.eye(n)]
        for j in range(1, TAYLOR_ORDER + 1):
            terms.append(terms[-1] @ f * (self.cell / j))
        self.taylor = np.concatenate(terms)
        # z @ bernstein: e_r on a cell from z in Bernstein form; z @ carry: z at its end
        self.bernstein = (_BERNSTEIN @ (self.g @ np.array(terms))).T
        self.carry = sum(terms).T
        self.orders = np.arange(TAYLOR_ORDER + 1)
        # scan edges 0, 1/SCAN_MARKS, ..., 1 of a cell and their powers
        self.edges = [j / SCAN_MARKS for j in range(SCAN_MARKS + 1)]
        self.edge_powers = self.powers_at(self.edges)
        # stacked coefficients of a polynomial and of its derivative
        self.value_and_slope = np.vstack([np.eye(TAYLOR_ORDER + 1),
                                          np.diag(self.orders[1:], 1)])
        # each power straight from the exponential, so a chunk's error does
        # not grow with its length: z @ stack holds the states after
        # 1..CHUNK steps from z, one block of n entries each
        powers = expm(f * (dt * np.arange(1, CHUNK + 1))[:, None, None])
        self.stack = powers.transpose(2, 0, 1).reshape(n, CHUNK * n)
        self.leap = powers[-1].T                    # z @ leap: CHUNK steps on

    def rows(self, z, chunks):
        """Balanced states 0..chunks CHUNK grid steps from z, one row each:
        row t is the state t steps on.  The chunk anchors, rows 0, CHUNK,
        2 CHUNK, ..., are chained through the CHUNK-th power; one product of
        the anchors with the power stack gives the rows after each."""
        anchors = np.empty((chunks, self.n))
        anchors[0] = z
        for j in range(1, chunks):
            anchors[j] = anchors[j - 1] @ self.leap
        zs = np.empty((chunks * CHUNK + 1, self.n))
        zs[0] = z
        zs[1:] = (anchors @ self.stack).reshape(-1, self.n)
        zs[CHUNK:-1:CHUNK] = anchors[1:]
        return zs

    def clears(self, zs, e, z_sq):
        """Where the step from each row of zs (e_r = e, |z|^2 = z_sq there) holds no
        zero: on every cell e_r's Bernstein coefficients keep its sign past rounding."""
        zs = zs * np.sign(e)[:, None]               # e_r > 0 at the start
        low = (zs @ self.bernstein).min(axis=1)
        for _ in range(1, self.cells):
            zs = zs @ self.carry
            low = np.minimum(low, (zs @ self.bernstein).min(axis=1))
        return low > self.e_floor * np.sqrt(z_sq)

    def slope(self, z) -> float:
        """e_r' at z, or 0 where it is below its rounding level."""
        de = float(self.g_dot @ z)
        return de if abs(de) > self.de_floor * math.sqrt(z @ z) else 0.0

    def powers_at(self, points):
        """Powers 0..TAYLOR_ORDER of the given points, one row each."""
        return np.array(points)[:, None] ** self.orders

    def taylor_vectors(self, z):
        """v with z(t + s h) = sum_j s^j v[j] for s in [0, 1]."""
        return (self.taylor @ z).reshape(TAYLOR_ORDER + 1, self.n)


class _Run:
    """Mutable state of one hybrid run: jump rule, event log and counters."""

    def __init__(self, config: SimConfig, flow: _Flow, e0: float):
        self.flow = flow
        self.a_rho = config.system.a_rho_bar
        self.i_minus_rho = np.eye(flow.nx) - self.a_rho
        self.lam = max(config.lam, config.dt)
        self.tol = BISECT_REL * flow.cells          # in cell units
        self.e_peak = abs(e0)
        self.last_reset = -math.inf
        self.instants: list[float] = []
        self.pairs: list = []
        self.crossings = self.dwell = self.guard = self.tolerance = 0

    def step(self, z, t0, e_a):
        """One grid step from balanced state z at t0, where e_r = e_a, that may
        hold a crossing or overflows, locating every crossing in time order
        and applying the jumps it allows.

        Returns (z at t0 + dt, jumped, e_r there).  The value of e_r is carried
        from segment to segment rather than recomputed from z, so a crossing
        just located keeps its far-side sign and is not found twice.
        """
        flow = self.flow
        jumped, events = False, 0
        for cell in range(flow.cells):
            t_cell = t0 + cell * flow.cell
            start = 0.0                             # cell units
            edges, powers = flow.edges, flow.edge_powers
            while True:
                v = flow.taylor_vectors(z)
                hit, e_end = self._locate(v @ flow.g, edges, powers, e_a, z)
                if hit is None or events == MAX_EVENTS_PER_STEP:
                    z, e_a = powers[-1] @ v, e_end
                    break
                s, e_a = hit
                events += 1
                z = s ** flow.orders @ v
                start += s
                jumped |= self._crossing(t_cell + start * flow.cell, z, e_a)
                edges = [0.0] + ([m - start for m in flow.edges if m > start]
                                 or [max(0.0, 1.0 - start)])
                powers = flow.powers_at(edges)
        return z, jumped, e_a

    def _locate(self, p, edges, powers, e_a, z):
        """First crossing of e_r(s) = sum_j p[j] s^j (Taylor coefficients
        from z, s in cell units) on [0, edges[-1]].

        The polynomial is sampled at the scan edges (``powers`` holds their
        powers 0..TAYLOR_ORDER); the first sub-interval with a sign change of
        e_r, or with an extremum between equal signs (a sign change of e_r')
        that passes zero, holds the crossing; the extremum's value decides,
        since the enclosure may be loose.  Sign changes within the rounding
        level of e_r or e_r' are not crossings.  Returns ((s, e_r(s)) just past
        the crossing, or None) and e_r at edges[-1].
        """
        flow = self.flow
        coefs = (flow.value_and_slope @ p).reshape(2, -1)   # e_r and e_r'
        e, de = (coefs @ powers.T).tolist()
        e[0] = e_a
        self.e_peak = max(self.e_peak, max(e), -min(e))
        z_norm = math.sqrt(z @ z)
        e_floor = flow.e_floor * z_norm
        de_floor = flow.de_floor * flow.cell * z_norm
        p_list = dp_list = None
        for i in range(len(edges) - 1):
            e_lo, e_hi = e[i], e[i + 1]
            turn = e_lo * e_hi
            if turn < 0.0:
                if max(abs(e_lo), abs(e_hi)) <= e_floor:
                    continue
            elif not (turn > 0.0 and de[i] * de[i + 1] < 0.0
                      and min(abs(de[i]), abs(de[i + 1])) > de_floor):
                continue
            if p_list is None:
                p_list, dp_list = coefs.tolist()
            lo, hi = edges[i], edges[i + 1]
            if turn > 0.0:
                # an extremum between equal signs: two crossings if it passes zero
                ddp = [j * c for j, c in enumerate(dp_list)][1:]
                hi, _ = _bracketed_root(dp_list, ddp, lo, hi, de[i], de[i + 1], self.tol)
                e_hi = _horner(p_list, hi)
                if not e_lo * e_hi < 0.0:
                    continue
            return _bracketed_root(p_list, dp_list, lo, hi, e_lo, e_hi, self.tol), e[-1]
        return None, e[-1]

    def _crossing(self, t, z, e_r) -> bool:
        """Apply the jump rule at a located crossing; z is updated in place."""
        self.crossings += 1
        if t - self.last_reset < self.lam:
            self.dwell += 1
            return False
        x = z[:self.flow.nx] * self.flow.dx
        moved = self.i_minus_rho @ x
        if not math.sqrt(moved @ moved) > JUMP_GUARD_REL * max(math.sqrt(x @ x), 1.0):
            self.guard += 1
            return False
        if abs(e_r) > max(CROSSING_REL_TOL * self.e_peak, 1e-300):
            self.tolerance += 1
            return False
        post = self.a_rho @ x
        self.instants.append(t)
        self.pairs.append((x, post))
        self.last_reset = t
        z[:self.flow.nx] = post / self.flow.dx
        return True


def _propagate(config: SimConfig, jumps: bool) -> SimTrace:
    sys_ = config.system
    flow = _Flow(config)
    nx, dx = flow.nx, flow.dx
    dt = config.dt
    n_steps = int(np.floor(config.t_end / dt + 1e-9))
    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, nx))
    e_sig = np.empty(n_steps + 1)               # e_r as the propagation saw it
    flags = np.zeros(n_steps + 1)
    z = flow.z0
    states[0] = config.x0
    e_prev, de_prev = float(flow.g @ z), flow.slope(z)
    e_sig[0] = e_prev
    run = _Run(config, flow, e_prev)
    max_norm = float(np.linalg.norm(config.x0))
    diverged = False
    k = 0
    chunks = 1
    batches = 0
    last_cut = 0                                # k just past the last cut step
    while k < n_steps:
        m = min(chunks * CHUNK, n_steps - k)
        zs = flow.rows(z, chunks)                   # step t goes from row t to row t + 1
        batches += 1
        e, de = zs @ flow.g, zs @ flow.g_dot
        e[0], de[0] = e_prev, de_prev
        z_sq, x_sq = ((zs * zs) @ flow.norm_weights).T
        event = ~(x_sq[1:] <= OVERFLOW_NORM**2)
        if jumps:
            # sign changes within the rounding level of the propagation from
            # the chunk's anchor are no events
            scale = np.sqrt(z_sq[:-1:CHUNK]).repeat(CHUNK)
            e_abs, de_abs = np.abs(e), np.abs(de)
            turn = e[:-1] * e[1:]
            event |= (turn < 0.0) & (np.maximum(e_abs[:-1], e_abs[1:]) > flow.e_floor * scale)
            extremum = ((turn > 0.0) & (de[:-1] * de[1:] < 0.0)
                        & (np.minimum(de_abs[:-1], de_abs[1:]) > flow.de_floor * scale))
        stop = event.nonzero()[0]
        stop = int(stop[0]) if stop.size else event.size
        if jumps:
            # enclose every extremum before the first event in one product
            held = extremum[:stop].nonzero()[0]
            if held.size:
                held = held[~flow.clears(zs[held], e[held], z_sq[held])]
                stop = int(held[0]) if held.size else stop
        cut = min(stop, m)
        if cut:
            run.e_peak = max(run.e_peak, float(np.abs(e[1:cut + 1]).max()))
            max_norm = max(max_norm, math.sqrt(x_sq[1:cut + 1].max()))
            # x = z[:nx] * dx as one product: dx holds powers of two, so it is exact
            np.matmul(zs[1:cut + 1], flow.unbalance, out=states[k + 1:k + 1 + cut])
            e_sig[k + 1:k + 1 + cut] = e[1:cut + 1]
            z, e_prev, de_prev = zs[cut], float(e[cut]), float(de[cut])
            k += cut
        if cut == m:
            # no cut: the next batch is twice as long
            chunks = min(2 * chunks, BATCH)
            continue
        # after a cut, enough chunks to reach the next cut if it comes as
        # many steps on as this one came after the last
        chunks = min(-(-(k + 1 - last_cut) // CHUNK), BATCH)
        # the step k -> k + 1 holds a crossing candidate or overflows
        if jumps:
            z, jumped, e_prev = run.step(z, times[k], e_prev)
            flags[k + 1] = 1.0 if jumped else 0.0
        else:                                       # no jump rule: the step is the next row
            z, e_prev = zs[cut + 1], float(e[cut + 1])
        k += 1
        last_cut = k
        x = z[:nx] * dx
        states[k], e_sig[k] = x, e_prev
        norm = math.sqrt(x @ x)
        max_norm = max(max_norm, norm)
        if not norm <= OVERFLOW_NORM:
            diverged = True
            states[k + 1:] = x
            e_sig[k + 1:] = (x @ sys_.c_e_bar.ravel()
                             + sys_.d_e * np.asarray(config.input(times[k + 1:]), float))
            break
        de_prev = flow.slope(z)

    outputs = states @ sys_.c_bar.ravel()
    gaps = np.diff(run.instants)
    return SimTrace(times, states, outputs, e_sig, flags, run.instants, max_norm,
                    diverged, run.pairs, steps=k, batches=batches, crossings=run.crossings,
                    resets_fired=len(run.instants), suppressed_dwell=run.dwell,
                    suppressed_guard=run.guard, suppressed_tolerance=run.tolerance,
                    min_reset_gap=float(gaps.min()) if gaps.size else math.inf,
                    cells=flow.cells)


def simulate(config: SimConfig) -> SimTrace:
    """Propagate the hybrid closed loop under the configured input.

    Crossings are located on the exact flow and jumps follow the dwell, guard
    and tolerance rules of the module docstring.  A state-norm overflow marks
    the trace as diverged instead of raising; the remaining samples repeat
    the last state.
    """
    return _propagate(config, jumps=True)


def simulate_linear(config: SimConfig) -> SimTrace:
    """The base linear system: the same exact propagator without jumps."""
    return _propagate(config, jumps=False)


@dataclass(frozen=True)
class StepDiagnostics:
    overshoot: float
    settling_time: float
    final_value: float


def step_response(system: ClosedLoop, amplitude: float = 1.0, t_end: float = None,
                  dt: float = None, lam: float = None):
    """Step input from t = 0; returns the trace and overshoot/settling data."""
    dt = default_dt(system) if dt is None else dt
    t_end = 2000.0 * dt if t_end is None else t_end
    cfg = SimConfig(system, dt=dt, t_end=t_end, lam=lam,
                    input=step_input(amplitude))
    trace = simulate(cfg)
    tail = trace.outputs[int(0.9 * trace.outputs.size):]
    final = float(np.mean(tail))
    scale = abs(final) if abs(final) > 1e-12 else 1.0
    overshoot = float((np.max(trace.outputs) - final) / scale)
    off = np.abs(trace.outputs - final) > 0.02 * scale
    settling = float(trace.times[int(np.max(np.nonzero(off)[0]))]) if np.any(off) else 0.0
    return trace, StepDiagnostics(overshoot, settling, final)


def realization_equivalence(assemble_a: ClosedLoop, assemble_b: ClosedLoop,
                            input_signal: InputSignal, t_end: float, dt: float,
                            lam: float = None) -> float:
    """sup_t |y_a - y_b| for two realizations driven by the same input."""
    cfg_a = SimConfig(assemble_a, dt=dt, t_end=t_end, lam=lam, input=input_signal)
    cfg_b = SimConfig(assemble_b, dt=dt, t_end=t_end, lam=lam, input=input_signal)
    tr_a = simulate(cfg_a)
    tr_b = simulate(cfg_b)
    return float(np.max(np.abs(tr_a.outputs - tr_b.outputs)))
