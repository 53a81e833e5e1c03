"""Every verdict is its list of condition records.

Two rules hold on each of the three paths (first-order certifier, SPR
oracle, GSORE certifier): the verdict's bool is "no record has status
fail", and a record that carries a numeric margin has the status its
margin gives against the threshold of its condition (README, "Condition
records").
"""

import numpy as np
import pytest

from resetcert.elements import EIG_MARGIN, clegg, gfore, gsore, pci, sosre
from resetcert.frf import STATUSES, FrfTable
from resetcert.gsore import (M_SLACK, STRICT_MARGIN, CertificateResult, _verify_candidate,
                             certify, gsore_problem)
from resetcert.hbeta import (MARGIN, HbetaCandidate, search_candidate_scalar, spr_check_matrix,
                             spr_check_scalar)
from resetcert.lti import evaluate, tf
from resetcert.nsv import certify_first_order, nsv_grid_samples

ONE = tf([1.0])

# id: (threshold, strict): a record passes when its margin is above the
# threshold (strict) or at least the threshold
THRESHOLDS = {
    "base-linear-stability": (0.0, True),
    "type-membership": (0.0, True),
    "reset-scalar-bound": (0.0, True),
    "nonzero-nsv": (1e-300, True),
    "type1-window": (0.0, True),
    "type2-window": (0.0, True),
    "rho-positive": (0.0, True),
    "grid-positivity": (MARGIN, True),
    "zero-frequency-limit": (0.0, True),
    "high-frequency-limit": (0.0, True),
    "grid-diagonal-positivity": (MARGIN, True),
    "grid-determinant-positivity": (MARGIN, True),
    "high-frequency-limit-matrix": (MARGIN, True),
    "zero-frequency-limit-matrix": (MARGIN, True),
    "jump-map-strict-inequality": (EIG_MARGIN, True),
    "S1-diagonal-positivity": (STRICT_MARGIN, True),
    "S2-diagonal-positivity": (STRICT_MARGIN, True),
    "rho-positive-definite": (0.0, True),
    "sup-ratio-below-four": (M_SLACK, False),
}


def record(verdict, cid):
    """The record ``cid`` of a verdict (anything with ``conditions``)."""
    (found,) = [c for c in verdict.conditions if c.id == cid]
    return found


def verify(problem, params):
    """The GSORE verifier's verdict on the loop-scale ``params``, as a
    certificate record (q, seed and search left empty)."""
    m_value, conditions = _verify_candidate(problem, params)
    return CertificateResult((), m_value, conditions, tuple(params), problem.problem_type, 0)


def check_records(verdict, holds: bool):
    """``holds`` is "no record failed", and each numeric margin agrees with
    its record's status."""
    assert verdict.conditions
    assert holds == all(c.status != "fail" for c in verdict.conditions)
    assert len({c.id for c in verdict.conditions}) == len(verdict.conditions)
    for c in verdict.conditions:
        assert c.status in STATUSES, c
        if c.margin is None or c.status not in ("pass", "fail"):
            continue
        threshold, strict = THRESHOLDS[c.id]
        above = c.margin > threshold if strict else c.margin >= threshold
        assert (c.status == "pass") == above, c


def measured(plant, band=np.logspace(-2, 2, 1200)):
    return FrfTable(band, evaluate(plant, band))


FO_LOOPS = {
    "gfore": (gfore(1.0), tf([1.0], [1.0, 1.0]), None, {}),
    "gfore-shaped": (gfore(1.0, 0.2), tf([1.0], [1.0, 1.0]), tf([1.0, 0.5], [1.0, 1.0]), {}),
    "gfore-gamma-1": (gfore(1.0, 1.0), tf([1.0], [1.0, 1.0]), None, {}),
    "pci-cancelling": (pci(1.0, 0.3), tf([2.0], [1.0, 1.0]), None, {}),
    "ci-origin": (clegg(), tf([1.0], [0.0, 1.0, 1.0]), None, {}),
    "ci-degree": (clegg(), tf([1.0], np.convolve([1.0, 1.0], [1.0, 0.5])), None, {}),
    "sosre": (sosre(2.0, 1.0, 0.5), tf([1.0], [0.0, 1.0, 1.0]), None, {}),
    "gfore-unstable": (gfore(1.0), tf([20.0], np.convolve([1.0, 1.0], [1.0, 1.0])), None, {}),
    "gfore-frf": (gfore(1.0, 0.2), measured(tf([1.0], [1.0, 1.0])), None,
                  {"asymptote": (0, -2)}),
    "gfore-frf-no-asymptote": (gfore(1.0, 0.2), measured(tf([1.0], [1.0, 1.0])), None, {}),
}


@pytest.mark.parametrize("name", sorted(FO_LOOPS))
def test_first_order_verdicts(name):
    elem, plant, c_s, extra = FO_LOOPS[name]
    v = certify_first_order(elem, ONE, ONE, plant, c_s=c_s, points=600, **extra)
    check_records(v, v.certified)
    tv = v.type_verdict
    # each type holds when none of its own records failed; membership when either does
    for t, holds in ((1, tv.is_type1), (2, tv.is_type2)):
        own = [c for c in tv.conditions if c.id == "nonzero-nsv" or c.id.startswith(f"type{t}-")]
        assert len(own) == 4
        assert holds == all(c.status != "fail" for c in own)
    membership = record(v, "type-membership")
    assert membership is tv.membership
    assert (membership.status == "pass") == (tv.is_type1 or tv.is_type2)
    for c in tv.conditions:
        assert c.status in STATUSES
        if c.margin is not None and c.status in ("pass", "fail"):
            threshold, strict = THRESHOLDS[c.id]
            assert (c.status == "pass") == (c.margin > threshold), c


def test_first_order_verdicts_fail_somewhere():
    # the population above exercises failing records, not only passing ones
    failed = set()
    for elem, plant, c_s, extra in FO_LOOPS.values():
        v = certify_first_order(elem, ONE, ONE, plant, c_s=c_s, points=600, **extra)
        failed |= {c.id for c in v.conditions if c.status == "fail"}
    assert {"base-linear-stability", "open-loop-minimality", "ci-origin-pole-rule",
            "ci-relative-degree-rule", "reset-scalar-bound"} <= failed


@pytest.mark.parametrize("cand, p_lin", [
    ((0.5, 1.0), True), ((1.0, 1.0), True), ((1.0, -1.0), True), ((-1.0, 0.001), True),
    ((0.5, 1.0), False), ("search", True)],
    ids=["interior", "boundary", "negative-rho", "wrong-side", "no-limits", "search"])
def test_scalar_oracle_verdicts(cand, p_lin):
    g = tf([1.0], [1.0, 1.0])
    elem = gfore(1.0)
    samples, _ = nsv_grid_samples(g, ONE, ONE, ONE, elem, points=600)
    p_lin = g if p_lin else None
    if cand == "search":
        cand = search_candidate_scalar(samples, elem, ONE, p_lin)
    else:
        cand = HbetaCandidate(*cand)
    rep = spr_check_scalar(cand, samples, elem, ONE, p_lin)
    check_records(rep, rep.passed)
    if p_lin is None:
        assert record(rep, "zero-frequency-limit").status == "skipped"


def matrix_case(name):
    elem = gsore(2.0, 0.8, 0.4, 0.3)
    g = tf([1.0], np.convolve([1.0, 1.0], [2.0, 1.0]))
    samples, _ = nsv_grid_samples(g, tf([1.0, 0.7], [1.0, 0.4]), ONE,
                                  tf([1.0, 0.3], [1.0, 0.8]), elem, points=200)
    rho = {"identity": np.eye(2), "coupled": np.array([[1.0, 0.3], [0.3, 2.0]])}[name]
    return HbetaCandidate(np.array([0.0, 0.0]), rho), samples, elem


@pytest.mark.parametrize("name", ["identity", "coupled"])
@pytest.mark.parametrize("origin_pole", [False, True])
def test_matrix_oracle_verdicts(name, origin_pole):
    cand, samples, elem = matrix_case(name)
    rep = spr_check_matrix(cand, samples, elem, k_s0=1.0, k_n=None, origin_pole=origin_pole,
                           n_minus_m=4)
    check_records(rep, rep.passed)
    # the coupled rho passes on the grid and at w -> inf; no candidate with
    # beta = 0 clears the w -> 0 limit
    assert rep.passed == (name == "coupled" and not origin_pole)


@pytest.fixture(scope="module")
def gsore_type5():
    from test_gsore import FAST
    prob = gsore_problem(gsore(2.0, 1.0, 0.4, 0.4), ONE, ONE, tf([0.8], [1.0, 1.0]), points=400)
    return prob, certify(prob, FAST)


def test_gsore_certificate(gsore_type5):
    prob, res = gsore_type5
    assert res.certified
    check_records(res, res.certified)
    assert res.oracle_cross_check == record(res, "oracle-cross-check").status == "pass"
    assert record(res, "rank-conditions").status == "pass"
    # the certified candidate also passes the oracle on its own, by the same rule
    b1, b2, r1, r2, r3 = res.reconstructed
    pos = prob.samples.omega > 0.0
    sub = type(prob.samples)(*(getattr(prob.samples, f)[pos] for f in
                               ("omega", "loop", "shaping", "reset_base")))
    rep = spr_check_matrix(HbetaCandidate(np.array([b1, b2]), np.array([[r1, r2], [r2, r3]])),
                           sub, prob.element, k_s0=prob.k_s0, k_n=prob.k_n,
                           origin_pole=prob.origin_pole, n_minus_m=prob.n_minus_m)
    check_records(rep, rep.passed)
    assert rep.passed


@pytest.mark.parametrize("params", [
    (0.5, 0.2, 1.5, 0.3, 2.0), (0.5, 0.2, 1.0, 2.0, 1.0), (0.5, 0.2, -1.0, 0.0, -1.0),
    (-3.0, 1.0, 1.0, 0.1, 1.0)], ids=["feasible-rho", "indefinite-rho", "negative-rho",
                                      "wrong-beta"])
def test_gsore_candidate_verdicts(gsore_type5, params):
    prob, _ = gsore_type5
    res = verify(prob, params)
    check_records(res, res.certified)
