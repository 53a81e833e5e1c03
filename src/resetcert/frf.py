"""Measured frequency-response ingestion, interpolation, and loop composition.

File format: CSV, UTF-8, '#' comments.  ``complex`` columns are
``freq_hz,real,imag``; ``magphase`` columns are ``freq_hz,mag_db,phase_deg``.
Frequencies are stored internally in rad/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .elements import ResetElement, base_tf, realization
from .errors import (ConfigError, DomainError, EmptyTable, GridTooSparse, NonMonotoneFrequency,
                     OutOfBand, ParseError)
from .lti import (ClosedLoop, RationalTF, assemble_closed_loop, end_term, evaluate,
                  leading_coefficients, relative_degree, series, tf)

TWO_PI = 2.0 * np.pi
MIN_GRID_POINTS = 32    # fewest base grid points a certifier reads a loop from
MAX_GRID_POINTS = 100_000  # most base grid points, which bounds a verdict's memory
GRID_POINTS = 2000      # base grid points of a verdict unless the caller asks otherwise
GRID_PAD_DECADES = 2.0  # a rational loop's grid reaches this far past its features
STATUSES = ("pass", "fail", "conditional", "assumed", "skipped")


@dataclass(frozen=True)
class Condition:
    """One checked condition of a verdict: which, how it came out, by how much, where.

    ``margin`` is the number the check compares with its threshold, None for
    a structural check; ``omega`` is the frequency that number was read at,
    None at a limit or where the check reads no frequency.  README,
    "Condition records", lists every id with its unit and threshold.
    """

    id: str
    status: str
    margin: float | None = None
    omega: float | None = None
    detail: str = ""


def pass_fail(ok) -> str:
    return "pass" if ok else "fail"


def no_failure(conditions) -> bool:
    """The one verdict rule: a verdict holds when none of its conditions
    failed.  A status outside STATUSES fails too, so a misspelt one fails closed."""
    return all(c.status in STATUSES and c.status != "fail" for c in conditions)


@dataclass(frozen=True)
class FrfTable:
    """Sampled complex response on a strictly increasing positive grid (rad/s).

    ``freqs_hz`` keeps the file frequencies exactly as parsed so that a
    load/save cycle reproduces the table bit for bit.
    """

    freqs: np.ndarray
    values: np.ndarray
    freqs_hz: np.ndarray = None

    def __post_init__(self):
        f = np.asarray(self.freqs, float)
        v = np.asarray(self.values, complex)
        if f.size < 2:
            raise EmptyTable("need at least 2 FRF samples")
        if f.size != v.size:
            raise NonMonotoneFrequency("frequency and value columns differ in length")
        bad = np.flatnonzero(~(np.isfinite(f) & np.isfinite(v)))
        if bad.size:
            i = int(bad[0])
            raise DomainError(f"FRF sample {i} needs a finite frequency and value, "
                              f"got {float(f[i])} rad/s and {complex(v[i])}")
        if np.any(f <= 0.0) or np.any(np.diff(f) <= 0.0):
            raise NonMonotoneFrequency("frequencies must be positive and strictly increasing")
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "values", v)
        hz = self.freqs_hz if self.freqs_hz is not None else f / TWO_PI
        object.__setattr__(self, "freqs_hz", np.asarray(hz, float))

    @property
    def band(self):
        return float(self.freqs[0]), float(self.freqs[-1])

    @cached_property
    def _log_nodes(self):
        """(log omega, log |value|, unwrapped phase): the nodes `interpolate` reads."""
        return (np.log(self.freqs), np.log(np.maximum(np.abs(self.values), 1e-300)),
                np.unwrap(np.angle(self.values)))


def _rows(path):
    """(line number, (f_hz, a, b)) of each data row."""
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 columns, got {len(parts)}")
        try:
            row = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise ParseError(f"{path}:{lineno}: non-finite number in {line!r}")
        yield lineno, row


def load_frf(path, fmt: str = "complex") -> FrfTable:
    """Read an FRF file; ``fmt`` is ``complex`` or ``magphase``."""
    if fmt not in ("complex", "magphase"):
        raise ParseError(f"unknown FRF format {fmt!r}")
    hz, values = [], []
    for lineno, (f_hz, a, b) in _rows(path):
        hz.append(f_hz)
        if fmt == "complex":
            values.append(a + 1j * b)
            continue
        try:
            mag = 10.0 ** (a / 20.0)
        except OverflowError:
            raise ParseError(f"{path}:{lineno}: magnitude {a!r} dB is beyond a float") from None
        values.append(mag * np.exp(1j * np.pi * b / 180.0))
    if len(hz) < 2:
        raise EmptyTable(f"{path}: fewer than 2 data rows")
    hz = np.array(hz)
    return FrfTable(hz * TWO_PI, np.array(values), freqs_hz=hz)


def save_frf(table: FrfTable, path, fmt: str = "complex") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "complex":
            fh.write("# freq_hz,real,imag\n")
            for h, v in zip(table.freqs_hz, table.values):
                fh.write(f"{h:.17g},{v.real:.17g},{v.imag:.17g}\n")
        elif fmt == "magphase":
            fh.write("# freq_hz,mag_db,phase_deg\n")
            mag = 20.0 * np.log10(np.abs(table.values))
            ph = np.degrees(np.angle(table.values))
            for h, m, p in zip(table.freqs_hz, mag, ph):
                fh.write(f"{h:.17g},{m:.17g},{p:.17g}\n")
        else:
            raise ParseError(f"unknown FRF format {fmt!r}")


def interpolate(table: FrfTable, omega) -> complex:
    """Log-frequency interpolation: linear in log-magnitude, unwrapped phase.

    Exact at grid nodes; raises OutOfBand rather than extrapolating.
    """
    w = np.asarray(omega, float)
    lo, hi = table.band
    if np.any(w < lo) or np.any(w > hi):
        raise OutOfBand(f"omega outside measured band [{lo:g}, {hi:g}] rad/s")
    logf, logmag, phase = table._log_nodes
    lm = np.interp(np.log(w), logf, logmag)
    ph = np.interp(np.log(w), logf, phase)
    out = np.exp(lm) * np.exp(1j * ph)
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LoopSamples:
    """Per-frequency responses of the open loop and its named factors."""

    omega: np.ndarray
    loop: np.ndarray        # L(jw) (or L'(jw) for the in-loop shaping variant)
    shaping: np.ndarray     # Cs(jw)
    reset_base: np.ndarray  # C_R(jw)


def _response(block: RationalTF, grid):
    """A linear block's response on ``grid``; a constant block is just its gain."""
    if block.num.size == block.den.size == 1:
        return block.num[0] / block.den[0]
    return evaluate(block, grid)


def compose_loop(plant, c_l1: RationalTF, c_r: RationalTF, c_l2: RationalTF,
                 c_s: RationalTF, grid, include_shaping_in_loop: bool = False) -> LoopSamples:
    """Evaluate L = C_L1 * C_R * C_L2 * G on a grid, factor by factor.

    ``plant`` is a RationalTF or a measured FrfTable (grid must stay in band).
    ``include_shaping_in_loop`` multiplies Cs into the loop (architecture with
    the shaping filter ahead of the reset element).
    """
    grid = np.asarray(grid, float)
    if isinstance(plant, FrfTable):
        g_vals = interpolate(plant, grid)
    else:
        g_vals = evaluate(plant, grid)
    cr = evaluate(c_r, grid)
    loop = _response(c_l1, grid) * cr * _response(c_l2, grid) * g_vals
    cs_vals = _response(c_s, grid) * np.ones_like(grid, dtype=complex)
    if include_shaping_in_loop:
        loop = loop * cs_vals
    cr_vals = cr * np.ones_like(grid, dtype=complex)
    return LoopSamples(grid, np.asarray(loop, complex), cs_vals, cr_vals)


@dataclass(frozen=True)
class Loop:
    """One reset control loop and the constants every verdict reads from it.

    ``plant`` is a RationalTF or a measured FrfTable; the constants that need
    a model (``p_lin``, ``loop_tf``, ``k_n``, ``n_minus_m``, ``origin_poles``)
    are None for a table.  ``c_s=None`` is the unit shaping filter, and
    ``architecture`` is "standard" or "modified".  Each constant is derived
    on first use, once.
    """

    element: ResetElement
    c_l1: RationalTF
    c_l2: RationalTF
    plant: object
    c_s: RationalTF | None = None
    architecture: str = "standard"

    def __post_init__(self):
        if self.architecture not in ("standard", "modified"):
            raise ConfigError(f"unknown architecture {self.architecture!r}; "
                              f"use standard or modified")
        object.__setattr__(self, "c_s", tf([1.0]) if self.c_s is None else self.c_s)

    @property
    def rational(self) -> bool:
        return isinstance(self.plant, RationalTF)

    @property
    def variant(self) -> str:
        """NSV variant: "sosre" for a SOSRE element, else the architecture.
        The SOSRE NSV keeps Cs out of L, so it has no modified form."""
        if self.element.kind != "SOSRE":
            return self.architecture
        if self.architecture == "modified":
            raise ConfigError("a SOSRE element needs the standard architecture")
        return "sosre"

    @cached_property
    def c_r(self) -> RationalTF:
        return base_tf(self.element)

    @cached_property
    def p_lin(self) -> RationalTF | None:
        """C_L1 * C_L2 * G, the linear part without the reset element."""
        return series(series(self.c_l1, self.c_l2), self.plant) if self.rational else None

    @cached_property
    def _l_and_l_cs(self):
        """(L, L * Cs) of the standard architecture; L * Cs is the modified L."""
        if not self.rational:
            return None, None
        loop = series(series(self.c_l1, self.c_r), series(self.c_l2, self.plant))
        return loop, series(loop, self.c_s)

    @property
    def loop_tf(self) -> RationalTF | None:
        """L(s); Cs is in the product under the modified architecture."""
        standard, with_shaping = self._l_and_l_cs
        return with_shaping if self.architecture == "modified" else standard

    @cached_property
    def _leading(self):
        """(k_n, k_s0): lim s^(n-m) L(s) Cs(s) and Cs(0) with den(0) = 1."""
        l_cs = self._l_and_l_cs[1] if self.rational else self.c_s
        k_n, k_s0 = leading_coefficients(l_cs, self.c_s)
        return (k_n if self.rational else None), k_s0

    k_n = property(lambda self: self._leading[0])
    k_s0 = property(lambda self: self._leading[1])

    @property
    def n_minus_m(self) -> int | None:
        """Relative degree of L * Cs."""
        return relative_degree(self._l_and_l_cs[1]) if self.rational else None

    @cached_property
    def origin_poles(self) -> int | None:
        """Poles of C_L1 * C_L2 * G at s = 0, net of its zeros there."""
        if self.p_lin is None:
            return None
        num = end_term(self.p_lin.num, "lo")
        return max(0, end_term(self.p_lin.den, "lo")[0] - num[0]) if num else 0

    def grid(self, points: int = GRID_POINTS) -> np.ndarray:
        """The log-spaced base grid every verdict reads this loop on.

        A measured table's grid spans its band.  A rational loop's grid spans
        the pole and zero magnitudes of G, C_L1, C_L2, C_s and C_R and the
        corner omega_r (1 for CI), padded by GRID_PAD_DECADES on each side;
        roots at the origin have no magnitude and are left out.
        """
        if points < MIN_GRID_POINTS:
            raise GridTooSparse(f"{points} grid points; a verdict needs at least "
                                f"{MIN_GRID_POINTS}")
        if points > MAX_GRID_POINTS:
            raise DomainError(f"{points} grid points; a verdict reads at most {MAX_GRID_POINTS}")
        if not self.rational:
            lo, hi = self.plant.band
            return np.logspace(np.log10(lo), np.log10(hi), points)
        feats = [self.element.omega_r if self.element.kind != "CI" else 1.0]
        for block in (self.plant, self.c_l1, self.c_l2, self.c_s, self.c_r):
            roots = np.concatenate([block.poles(), block.zeros()])
            feats += [m for m in map(abs, roots) if m > 1e-9]
        return np.logspace(np.log10(min(feats)) - GRID_PAD_DECADES,
                           np.log10(max(feats)) + GRID_PAD_DECADES, points)

    def samples(self, grid) -> LoopSamples:
        """L, Cs and C_R on ``grid``; Cs enters L under the modified architecture."""
        return compose_loop(self.plant, self.c_l1, self.c_r, self.c_l2, self.c_s, grid,
                            include_shaping_in_loop=self.architecture == "modified")

    def closed_loop(self, a_rho=None) -> ClosedLoop:
        """Hybrid closed loop (rational plant); a_rho defaults to the element's."""
        a_rho = self.element.a_rho if a_rho is None else a_rho
        return assemble_closed_loop(realization(self.element), a_rho, self.c_l1,
                                    self.c_l2, self.plant, self.c_s,
                                    architecture=self.architecture)
