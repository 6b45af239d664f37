import math

import numpy as np
import pytest

from matrixbs.errors import DomainError, NotSpdError, RankDeficientError
from matrixbs.transform import (
    GbsParams,
    forward_map,
    inverse_map_branch,
    jacobian_det_form,
    jacobian_fd_oracle,
    jacobian_report,
    jacobian_sv_form,
    log_abs_gfactor,
    log_gfactor_slope,
)

from conftest import rand_spd


def scalar_params(n=1, xi=1.0, beta=1.0):
    return GbsParams(n=n, xi=np.array([[xi]]), beta=np.array([[beta]]))


def random_params(n, m, rng, lo=0.5, hi=2.0):
    return GbsParams(n=n, xi=rand_spd(m, rng, lo, hi), beta=rand_spd(m, rng, lo, hi))


class TestGbsParams:
    def test_delta_is_sqrt_of_beta(self, rng):
        p = random_params(4, 3, rng)
        assert np.abs(p.delta @ p.delta - p.beta).max() < 1e-10

    def test_scalar_beta_shorthand(self):
        p = GbsParams(n=3, xi=np.eye(2), beta=4.0)
        assert np.allclose(p.beta, 4.0 * np.eye(2))
        assert np.allclose(p.delta, 2.0 * np.eye(2))

    def test_degrees_below_order_rejected(self):
        with pytest.raises(DomainError):
            GbsParams(n=1, xi=np.eye(2), beta=np.eye(2))

    def test_non_spd_rejected(self):
        with pytest.raises(NotSpdError):
            GbsParams(n=2, xi=np.diag([1.0, -1.0]), beta=np.eye(2))


class TestForwardMap:
    def test_scalar(self):
        z = forward_map([[2.0]], scalar_params())
        assert z[0, 0] == pytest.approx(1.5, abs=1e-14)

    def test_unit_singular_values_fixed_point(self, rng):
        p = random_params(4, 2, rng)
        V = np.vstack([np.eye(2), np.zeros((2, 2))]) @ p.delta
        assert np.abs(forward_map(V, p)).max() < 1e-12

    def test_embedded_scalar(self):
        p = scalar_params(n=2)
        z = forward_map([[2.0], [0.0]], p)
        assert np.allclose(z.ravel(), [1.5, 0.0], atol=1e-14)

    def test_rank_deficient(self):
        p = GbsParams(n=3, xi=np.eye(2), beta=np.eye(2))
        with pytest.raises(RankDeficientError):
            forward_map(np.ones((3, 2)), p)


class TestInverseMapBranch:
    def test_scalar(self):
        v = inverse_map_branch([[1.5]], scalar_params())
        assert v[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_zero_convention(self, rng):
        p = random_params(5, 2, rng)
        V = inverse_map_branch(np.zeros((5, 2)), p)
        expected = np.vstack([np.eye(2), np.zeros((3, 2))]) @ p.delta
        assert np.allclose(V, expected)
        assert np.abs(forward_map(V, p)).max() < 1e-12

    def test_right_inverse_random(self, rng):
        for _ in range(25):
            p = random_params(4, 2, rng)
            Z = rng.normal(size=(4, 2))
            V = inverse_map_branch(Z, p)
            assert np.abs(forward_map(V, p) - Z).max() < 1e-10

    def test_branch_region_guarantee(self, rng):
        p = random_params(4, 2, rng)
        Z = rng.normal(size=(4, 2))
        V = inverse_map_branch(Z, p)
        sv = np.linalg.svd(V @ np.linalg.inv(p.delta), compute_uv=False)
        assert sv.min() >= 1.0 - 1e-12

    def test_left_inverse_on_branch(self, rng):
        for _ in range(25):
            p = random_params(4, 2, rng)
            # construct V with singular values of V Delta^{-1} well above 1
            U, _, Vt = np.linalg.svd(rng.normal(size=(4, 2)), full_matrices=False)
            ell = np.sort(rng.uniform(1.2, 3.0, size=2))[::-1]
            V = (U * ell) @ Vt @ p.delta
            V2 = inverse_map_branch(forward_map(V, p), p)
            assert np.abs(V2 - V).max() < 1e-10

    def test_tied_singular_values_invert(self):
        # ties are not rejected: V is a spectral function of Z Xi, so a tied
        # pair of singular values inverts like any other
        p = GbsParams(n=2, xi=np.eye(2), beta=np.eye(2))
        V = inverse_map_branch(np.eye(2), p)
        assert np.abs(forward_map(V, p) - np.eye(2)).max() <= 1e-13

    def test_stack_equals_slice_by_slice(self, rng):
        p = random_params(5, 3, rng)
        Z = rng.normal(size=(6, 5, 3))
        Z[2] = 0.0
        V = inverse_map_branch(Z, p)
        assert V.shape == (6, 5, 3)
        for k in range(6):
            assert np.array_equal(V[k], inverse_map_branch(Z[k], p))
        assert np.array_equal(V[2], inverse_map_branch(np.zeros((5, 3)), p))

    def test_stack_with_tied_slice_round_trips(self, rng):
        # ties are not rejected: a stack with a zero slice and a tied slice
        # round-trips slice by slice
        p = GbsParams(n=3, xi=np.eye(2), beta=np.eye(2))
        Z = rng.normal(size=(4, 3, 2))
        Z[1] = 0.0
        Z[3] = np.vstack([2.0 * np.eye(2), np.zeros((1, 2))])
        V = inverse_map_branch(Z, p)
        for k in range(4):
            bound = 1e-13 * max(np.abs(Z[k]).max(), 1.0)
            assert np.abs(forward_map(V[k], p) - Z[k]).max() <= bound

    def test_stack_shape_and_finiteness_checked(self, rng):
        p = random_params(4, 2, rng)
        with pytest.raises(DomainError):
            inverse_map_branch(rng.normal(size=(3, 4, 3)), p)
        Z = rng.normal(size=(3, 4, 2))
        Z[1, 0, 0] = np.nan
        with pytest.raises(DomainError):
            inverse_map_branch(Z, p)

    @pytest.mark.parametrize("ratio", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("m", [2, 3])
    def test_round_trip_at_spread_singular_values(self, m, ratio, rng):
        # singular values of Z Xi spread geometrically from 3 to 3 ratio: eigh of
        # the Gram matrix alone fixes the small directions only to eps / ratio
        n = m + 2
        p = GbsParams(n=n, xi=rand_spd(m, rng), beta=rand_spd(m, rng, 50.0, 150.0))
        Z = np.empty((10, n, m))
        for k in range(10):
            U = np.linalg.qr(rng.normal(size=(n, m)))[0]
            W = np.linalg.qr(rng.normal(size=(m, m)))[0]
            Z[k] = (U * np.geomspace(3.0, 3.0 * ratio, m)) @ W.T @ np.linalg.inv(p.xi)
        V = inverse_map_branch(Z, p)
        for k in range(10):
            assert np.abs(forward_map(V[k], p) - Z[k]).max() <= 1e-13 * np.abs(Z[k]).max()

    @pytest.mark.parametrize("full_xi", [False, True])
    @pytest.mark.parametrize("m,column", [(2, 0), (2, 1), (3, 1), (3, 2)])
    def test_zero_column_round_trips(self, m, column, full_xi, rng):
        # Z Xi has rank m - 1; with a diagonal Xi its column for the zero
        # singular value is exactly zero and has no direction of its own
        n = m + 2
        xi = rand_spd(m, rng) if full_xi else np.diag(rng.uniform(0.5, 2.0, size=m))
        p = GbsParams(n=n, xi=xi, beta=rand_spd(m, rng, 50.0, 150.0))
        Z = rng.normal(size=(n, m))
        Z[:, column] = 0.0
        V = inverse_map_branch(Z, p)
        assert np.isfinite(V).all()
        assert np.abs(forward_map(V, p) - Z).max() <= 1e-13 * np.abs(Z).max()

    @pytest.mark.parametrize("tied", ["largest", "smallest"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_ties_invert_under_rotation(self, m, tied, rng):
        # two singular values of Z Xi tied, 1e-12 or 1e-6 apart relative, in
        # random directions under a full Xi, invert with no gate
        n = m + 2
        p = GbsParams(n=n, xi=rand_spd(m, rng), beta=rand_spd(m, rng, 50.0, 150.0))
        U = np.linalg.qr(rng.normal(size=(n, m)))[0]
        W = np.linalg.qr(rng.normal(size=(m, m)))[0]
        base = 3.0 if tied == "largest" else 3e-3
        for gap in (0.0, 1e-12, 1e-6):
            d = np.array([base, base * (1.0 - gap), 1.0])[:m]
            Z = (U * d) @ W.T @ np.linalg.inv(p.xi)
            V = inverse_map_branch(Z, p)
            assert np.abs(forward_map(V, p) - Z).max() <= 1e-13 * np.abs(Z).max(), gap

    def test_second_preimage_m1(self, rng):
        # reciprocal-radius, flipped-direction vector maps to the same Z
        p = scalar_params(n=3, xi=0.8, beta=2.0)
        p = GbsParams(n=3, xi=np.array([[0.8]]), beta=np.array([[2.0]]))
        u = rng.normal(size=(3, 1))
        u *= 1.7 / np.linalg.norm(u)          # branch region: |u| > 1
        V1 = u * math.sqrt(2.0)               # V = u Delta
        ell = np.linalg.norm(u)
        V2 = -(u / ell**2) * math.sqrt(2.0)   # radius 1/ell, direction flipped
        assert np.abs(forward_map(V1, p) - forward_map(V2, p)).max() < 1e-12


class TestJacobians:
    def test_scalar_det(self):
        assert jacobian_det_form([[2.0]], scalar_params()) == pytest.approx(1.25, abs=1e-12)

    def test_scalar_sv(self):
        assert jacobian_sv_form([[2.0]], scalar_params()) == pytest.approx(1.25, abs=1e-12)

    def test_scalar_fd(self):
        assert jacobian_fd_oracle([[2.0]], scalar_params()) == pytest.approx(1.25, abs=1e-8)

    def test_embedded_det(self):
        p = scalar_params(n=2)
        val = jacobian_det_form([[2.0], [0.0]], p)
        assert val == pytest.approx((1 - 0.25) * (1 + 0.25), abs=1e-12)

    def test_embedded_sv_matches_det(self):
        p = scalar_params(n=2)
        v = [[2.0], [0.0]]
        assert jacobian_sv_form(v, p) == pytest.approx(jacobian_det_form(v, p), rel=1e-12)

    def test_xi_scaling(self, rng):
        n, m = 3, 2
        xi = rand_spd(m, rng)
        beta = rand_spd(m, rng)
        V = rng.normal(size=(n, m))
        j1 = jacobian_det_form(V, GbsParams(n=n, xi=xi, beta=beta))
        j2 = jacobian_det_form(V, GbsParams(n=n, xi=2.0 * xi, beta=beta))
        assert j2 == pytest.approx(j1 / 2.0 ** (n * m), rel=1e-10)

    def test_sv_variants_agree(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, n + 1))
            p = random_params(n, m, rng)
            V = rng.normal(size=(n, m)) * rng.uniform(0.5, 2.0)
            a = jacobian_sv_form(V, p, "first")
            b = jacobian_sv_form(V, p, "second")
            assert a == pytest.approx(b, rel=1e-10)

    def test_boundary_zero(self):
        # a singular value of V Delta^{-1} approaching 1 sends the Jacobian to 0
        p = scalar_params(n=2)
        vals = [jacobian_sv_form([[1.0 + eps], [0.0]], p) for eps in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-5

    def test_boundary_jacobian_is_zero(self):
        # on the unit boundary with n > m both routes give exactly zero
        p = scalar_params(n=2)
        assert jacobian_sv_form([[1.0], [0.0]], p) == 0.0
        assert jacobian_det_form([[1.0], [0.0]], p) == 0.0

    def test_unit_singular_value_square(self):
        # with n = m there is no (1 - 1/d) factor, so V = Delta is no zero
        p = scalar_params(n=1)
        assert jacobian_sv_form([[1.0]], p) == pytest.approx(2.0, rel=1e-15)
        assert jacobian_det_form([[1.0]], p) == pytest.approx(2.0, rel=1e-15)
        assert jacobian_fd_oracle([[1.0]], p) == pytest.approx(2.0, rel=1e-8)

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (5, 3)])
    def test_tied_spectrum_sv_matches_det(self, n, m, rng):
        # the product form has no 1/(d_i - d_j) term: tied eigenvalues of
        # beta^{-1} V'V need no care
        p = random_params(n, m, rng)
        U = np.linalg.qr(rng.normal(size=(n, m)))[0]
        W = np.linalg.qr(rng.normal(size=(m, m)))[0]
        V = (U * np.full(m, 1.7)) @ W.T @ p.delta
        det_val = jacobian_det_form(V, p)
        for form in ("first", "second"):
            assert jacobian_sv_form(V, p, form) == pytest.approx(det_val, rel=1e-12)

    def test_fd_agreement_100_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, n + 1))
            p = random_params(n, m, rng)
            V = rng.normal(size=(n, m)) * rng.uniform(0.5, 2.0)
            det_val = jacobian_det_form(V, p)
            fd_val = jacobian_fd_oracle(V, p)
            assert fd_val == pytest.approx(det_val, rel=1e-5)

    def test_fd_ratio_3x2(self, rng):
        p = random_params(3, 2, rng)
        V = rng.normal(size=(3, 2)) + 0.2
        ratio = jacobian_fd_oracle(V, p) / jacobian_det_form(V, p)
        assert 1 - 1e-5 < ratio < 1 + 1e-5

    def test_fd_step_domain(self, rng):
        p = random_params(2, 1, rng)
        with pytest.raises(DomainError):
            jacobian_fd_oracle([[2.0], [1.0]], p, step=1e-2)

    def test_report_fields(self, rng):
        p = random_params(3, 2, rng)
        V = rng.normal(size=(3, 2)) + 0.3
        rep = jacobian_report(V, p)
        assert rep.det_form > 0 and rep.sv_form > 0 and rep.fd_form > 0
        assert rep.rel_disagreement < 1e-5
        assert rep.sign in (-1, 1)

    def test_report_sign_diagnostic(self):
        # odd n - m with a singular value below 1 flips the product-form sign
        p = scalar_params(n=2)
        rep = jacobian_report([[0.5], [0.0]], p)
        assert rep.sign == -1


class TestGfactorSlope:
    @pytest.mark.parametrize("n,m", [(1, 1), (4, 1), (2, 2), (6, 2), (3, 3), (8, 3)])
    def test_central_difference_in_log_beta(self, n, m, rng):
        # deltas are the eigenvalues of T / beta: moving ln beta by h divides them by e^h
        deltas = 1.0 + rng.uniform(0.05, 3.0, size=(7, m))

        def log_g(h):
            return log_abs_gfactor(deltas * math.exp(-h), n, m)[0].sum(axis=-1)

        h = 1e-5
        value, slope, curvature = log_gfactor_slope(deltas, n, m)
        assert value == log_g(0.0)
        assert slope == pytest.approx((log_g(h) - log_g(-h)) / (2 * h), rel=1e-7, abs=1e-9)
        h = 1e-4
        assert curvature == pytest.approx((log_g(h) - 2.0 * log_g(0.0) + log_g(-h)) / h ** 2,
                                          rel=1e-5, abs=1e-6)
        # a leading row axis gives each row's values as alone
        rows = log_gfactor_slope(np.stack([deltas, 2.0 * deltas]), n, m)
        assert [r[0] for r in rows] == [value, slope, curvature]
        # and each set's log|G| is its own within a larger batch
        both = log_abs_gfactor(np.concatenate([2.0 * deltas, deltas]), n, m)[0]
        assert both[len(deltas):].sum() == log_g(0.0)
