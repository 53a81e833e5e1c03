"""Catalog of reset elements: CI, PCI, GFORE, GSORE, SOSRE.

Each element is a linear filter whose state is multiplied by the reset matrix
``a_rho`` whenever the triggering signal crosses zero.  ``base_tf`` and
``realization`` describe the underlying linear filter; the jump map never
enters the flow dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError, NotPositiveDefinite, RealizationUnavailable
from .lti import RationalTF, StateSpace, tf, to_state_space

FIRST_ORDER = ("CI", "PCI", "GFORE")
SECOND_ORDER = ("GSORE", "SOSRE")
EIG_MARGIN = 1e-9   # relative strictness margin for the jump-map eigen test


@dataclass(frozen=True)
class ResetElement:
    kind: str
    omega_r: float = 1.0
    xi: float = 1.0
    realization_form: str = "controllable"   # controllable | observable | two_gfore
    a_rho: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.kind not in FIRST_ORDER + SECOND_ORDER:
            raise DomainError(f"unknown reset element kind {self.kind!r}")
        if self.kind != "CI" and self.omega_r <= 0:
            raise DomainError("omega_r must be positive")
        if self.kind in SECOND_ORDER and self.xi <= 0:
            raise DomainError("xi must be positive")
        if self.kind in SECOND_ORDER and not self.omega_r * self.omega_r < math.inf:
            raise DomainError(f"omega_r {self.omega_r!r} has no finite square")
        n = self.n_r
        a = self.a_rho
        a = np.eye(n) * 0.0 if a is None else np.atleast_2d(np.asarray(a, float))
        if a.shape != (n, n):
            raise DimensionMismatch(f"a_rho {a.shape} for order-{n} element")
        if self.kind == "SOSRE":
            expected = np.diag([a[0, 0], 1.0])
            if not np.array_equal(a, expected):
                raise DomainError("SOSRE resets only its first state: a_rho = diag(gamma, 1)")
        object.__setattr__(self, "a_rho", a)

    @property
    def n_r(self) -> int:
        return 1 if self.kind in FIRST_ORDER else 2


def clegg(gamma: float = 0.0) -> ResetElement:
    return ResetElement("CI", a_rho=[[gamma]])


def pci(omega_r: float, gamma: float = 0.0) -> ResetElement:
    return ResetElement("PCI", omega_r=omega_r, a_rho=[[gamma]])


def gfore(omega_r: float, gamma: float = 0.0) -> ResetElement:
    return ResetElement("GFORE", omega_r=omega_r, a_rho=[[gamma]])


def gsore(omega_r: float, xi: float, gamma1: float = 0.0, gamma2: float = 0.0,
          realization_form: str = "controllable") -> ResetElement:
    return ResetElement("GSORE", omega_r=omega_r, xi=xi,
                        realization_form=realization_form,
                        a_rho=[[gamma1, 0.0], [0.0, gamma2]])


def sosre(omega_r: float, xi: float, gamma: float = 0.0,
          realization_form: str = "controllable") -> ResetElement:
    return ResetElement("SOSRE", omega_r=omega_r, xi=xi,
                        realization_form=realization_form,
                        a_rho=[[gamma, 0.0], [0.0, 1.0]])


def base_tf(elem: ResetElement) -> RationalTF:
    """Base linear transfer function of the element (jump map disabled)."""
    wr = elem.omega_r
    if elem.kind == "CI":
        return tf([1.0], [0.0, 1.0])                       # 1/s
    if elem.kind == "PCI":
        return tf([wr, 1.0], [0.0, 1.0])                   # 1 + wr/s
    if elem.kind == "GFORE":
        return tf([1.0], [1.0, 1.0 / wr])                  # 1/(s/wr + 1)
    # GSORE / SOSRE
    return tf([1.0], [wr**2, 2.0 * elem.xi * wr, 1.0])


def realization(elem: ResetElement) -> StateSpace:
    """Canonical state-space realization of the base filter.

    First-order elements use the controllable companion form.  Second-order
    elements support the controllable and observable companion forms of
    ``lti.to_state_space`` plus a two-first-stage cascade (``two_gfore``),
    which exists only for xi >= 1; the cascade corners satisfy
    w1 + w2 = 2*xi*wr and w1*w2 = wr^2, larger corner first.
    """
    form = elem.realization_form if elem.kind in SECOND_ORDER else "controllable"
    if form in ("controllable", "observable"):
        return to_state_space(base_tf(elem), form)
    if form != "two_gfore":
        raise RealizationUnavailable(f"unknown realization form {form!r}")
    wr, xi = elem.omega_r, elem.xi
    if xi < 1.0:
        raise RealizationUnavailable("two_gfore cascade needs xi >= 1")
    disc = np.sqrt(xi**2 - 1.0) * wr
    w1 = xi * wr + disc
    w2 = xi * wr - disc
    return StateSpace([[-w1, 0.0], [1.0, -w2]], [[1.0], [0.0]], [[0.0, 1.0]], [[0.0]])


def jump_map_test(a_rho, rho):
    """Strict jump-map energy test on the eigenvalues of A' rho A - rho:
    (holds, margin).

    The test holds when every eigenvalue lies below -EIG_MARGIN*||rho||;
    ``margin`` is minus the largest eigenvalue over ||rho||, the number it
    compares with EIG_MARGIN.
    """
    a = np.atleast_2d(np.asarray(a_rho, float))
    r = np.atleast_2d(np.asarray(rho, float))
    if a.shape != r.shape:
        raise DimensionMismatch(f"a_rho {a.shape} vs rho {r.shape}")
    if not np.allclose(r, r.T):
        raise NotPositiveDefinite("rho must be symmetric")
    if np.any(np.linalg.eigvalsh(r) <= 0.0):
        raise NotPositiveDefinite("rho must be positive definite")
    eig = np.linalg.eigvalsh(a.T @ r @ a - r)
    scale = np.linalg.norm(r, 2)
    return bool(eig[-1] < -EIG_MARGIN * scale), float(-eig[-1] / scale)
