import numpy as np
import pytest

from resetcert.elements import (
    ResetElement,
    base_tf,
    clegg,
    gfore,
    gsore,
    jump_map_test,
    pci,
    realization,
    sosre,
)
from resetcert.errors import DomainError, NotPositiveDefinite, RealizationUnavailable
from resetcert.lti import to_transfer_function

from test_lti import tf_close

rng = np.random.default_rng(7)


class TestBaseTransferFunctions:
    def test_gfore(self):
        assert tf_close(base_tf(gfore(2.0)), type(base_tf(gfore(2.0)))(
            np.array([1.0]), np.array([1.0, 0.5])))

    def test_pci(self):
        out = base_tf(pci(3.0))
        np.testing.assert_allclose(out.num, [3.0, 1.0])
        np.testing.assert_allclose(out.den, [0.0, 1.0])

    def test_gsore(self):
        out = base_tf(gsore(1.0, 1.0))
        np.testing.assert_allclose(out.num, [1.0])
        np.testing.assert_allclose(out.den, [1.0, 2.0, 1.0])

    def test_ci(self):
        out = base_tf(clegg())
        np.testing.assert_allclose(out.num, [1.0])
        np.testing.assert_allclose(out.den, [0.0, 1.0])


class TestRealizations:
    def test_gfore_matrices(self):
        r = realization(gfore(1.0))
        np.testing.assert_allclose(r.A, [[-1.0]])
        np.testing.assert_allclose(r.B, [[1.0]])
        np.testing.assert_allclose(r.C, [[1.0]])
        assert r.D[0, 0] == 0.0

    def test_ci_matrices(self):
        r = realization(clegg())
        assert r.A[0, 0] == 0.0 and r.B[0, 0] == 1.0 and r.C[0, 0] == 1.0

    def test_pci_feedthrough(self):
        r = realization(pci(2.0))
        assert r.D[0, 0] == 1.0 and r.C[0, 0] == 2.0

    def test_two_gfore_critical_damping(self):
        r = realization(gsore(1.0, 1.0, realization_form="two_gfore"))
        np.testing.assert_allclose(r.A, [[-1.0, 0.0], [1.0, -1.0]], atol=1e-12)

    def test_two_gfore_corner_relations(self):
        wr, xi = 3.0, 1.7
        r = realization(gsore(wr, xi, realization_form="two_gfore"))
        w1, w2 = -r.A[0, 0], -r.A[1, 1]
        assert w1 >= w2
        assert w1 + w2 == pytest.approx(2 * xi * wr)
        assert w1 * w2 == pytest.approx(wr**2)

    def test_two_gfore_needs_enough_damping(self):
        with pytest.raises(RealizationUnavailable):
            realization(gsore(1.0, 0.8, realization_form="two_gfore"))

    def test_unknown_form_is_unavailable(self):
        with pytest.raises(RealizationUnavailable):
            realization(gsore(1.0, 1.0, realization_form="diagonal"))

    def test_second_order_companion_forms(self):
        wr, xi = 1.3, 0.6
        want = {"controllable": [[-2.0 * xi * wr, -wr**2], [1.0, 0.0]],
                "observable": [[0.0, -wr**2], [1.0, -2.0 * xi * wr]]}
        for kind in (gsore, sosre):
            for form, a in want.items():
                r = realization(kind(wr, xi, realization_form=form))
                np.testing.assert_allclose(r.A, a, rtol=1e-15)
                np.testing.assert_array_equal(r.B, [[1.0], [0.0]])
                np.testing.assert_array_equal(r.C, [[0.0, 1.0]])
                assert r.D[0, 0] == 0.0

    def test_all_realizations_share_base_tf(self):
        for _ in range(100):
            wr = 10.0 ** rng.uniform(-1, 1)
            xi = rng.uniform(1.0, 3.0)
            base = base_tf(gsore(wr, xi))
            for form in ("controllable", "observable", "two_gfore"):
                r = realization(gsore(wr, xi, realization_form=form))
                assert tf_close(to_transfer_function(r), base, tol=1e-10)

    def test_first_order_reconstruction(self):
        for kind, elem in (("CI", clegg()), ("PCI", pci(2.5)), ("GFORE", gfore(0.7))):
            assert tf_close(to_transfer_function(realization(elem)), base_tf(elem),
                            tol=1e-12), kind


class TestConstruction:
    def test_sosre_reset_matrix_is_partial(self):
        e = sosre(2.0, 1.0, 0.5)
        np.testing.assert_allclose(e.a_rho, [[0.5, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError):
            ResetElement("SOSRE", omega_r=1.0, xi=1.0, a_rho=[[0.5, 0.0], [0.0, 0.5]])

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            gfore(-1.0)
        with pytest.raises(DomainError):
            gsore(1.0, 0.0)
        with pytest.raises(DomainError):
            ResetElement("FORE2")


class TestResetMatrixCondition:
    def test_half_identity(self):
        # A' rho A - rho = -0.75 I: the margin is 0.75 of ||rho||
        assert jump_map_test(0.5 * np.eye(2), np.eye(2)) == (True, 0.75)

    def test_identity_not_strict(self):
        assert jump_map_test(np.eye(2), np.eye(2)) == (False, 0.0)

    def test_mixed_case_against_eig_oracle(self):
        a = np.diag([0.5, -0.5])
        rho = np.array([[2.0, 0.1], [0.1, 1.0]])
        expected = bool(np.all(np.linalg.eigvalsh(a.T @ rho @ a - rho) < 0))
        holds, margin = jump_map_test(a, rho)
        assert holds == expected == (margin > 0.0)

    def test_rejects_indefinite_rho(self):
        with pytest.raises(NotPositiveDefinite):
            jump_map_test(np.eye(2), np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            jump_map_test(np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]))
