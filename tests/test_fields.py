import numpy as np
import pytest

from ogawa_lab import (
    LinearField,
    RngSpec,
    SamplePath,
    TimeGrid,
    apply_DG,
    component_trig_basis,
    evaluate_G,
    field_from_name,
    gaussian_ramer_check,
    hs_norm_squared,
    identity_field_1d,
    kernel_T,
    sample_brownian,
)

from field_helpers import constant_field, fd_jacobian_field, swirl_field
from oracles import dense_hs_norm_squared, dense_kernel


class TestEvaluateG:
    def test_identity_on_drift_path(self):
        grid = TimeGrid(2**10)
        path = SamplePath.from_function(grid, lambda t: t)
        g = evaluate_G(identity_field_1d(), path)
        assert np.allclose(g.values[:, 0], grid.times**2 / 2, atol=1e-15)

    def test_constant_field(self):
        path = sample_brownian(TimeGrid(256), 2, RngSpec(4), 0)
        g = evaluate_G(constant_field(2, 1.5), path)
        expected = 1.5 * path.grid.times
        assert np.allclose(g.values, np.stack([expected, expected], axis=1))

    def test_linear_field_components(self):
        fld = LinearField(0.5, -1.0, 2.0, 0.25)
        path = sample_brownian(TimeGrid(512), 2, RngSpec(9), 3)
        g = evaluate_G(fld, path)
        w1 = np.concatenate([[0], np.cumsum(
            0.5 * (path.values[:-1, 0] + path.values[1:, 0]) * path.grid.dt)])
        w2 = np.concatenate([[0], np.cumsum(
            0.5 * (path.values[:-1, 1] + path.values[1:, 1]) * path.grid.dt)])
        assert np.allclose(g.values[:, 0], 0.5 * w1 - 1.0 * w2, atol=1e-12)
        assert np.allclose(g.values[:, 1], 2.0 * w1 + 0.25 * w2, atol=1e-12)

    def test_dimension_mismatch(self):
        path = sample_brownian(TimeGrid(16), 1, RngSpec(0), 0)
        with pytest.raises(ValueError, match="dimension"):
            evaluate_G(LinearField(1, 0, 0, 1), path)


class TestApplyDG:
    def test_constant_field_gives_zero(self):
        path = sample_brownian(TimeGrid(128), 2, RngSpec(1), 0)
        gamma = sample_brownian(TimeGrid(128), 2, RngSpec(1), 1)
        out = apply_DG(constant_field(2, 3.0), path, gamma)
        assert np.all(out.values == 0.0)

    def test_identity_field_drift_direction(self):
        grid = TimeGrid(2**10)
        path = sample_brownian(grid, 1, RngSpec(2), 0)
        gamma = SamplePath.from_function(grid, lambda t: t)
        out = apply_DG(identity_field_1d(), path, gamma)
        assert np.allclose(out.values[:, 0], grid.times**2 / 2, atol=1e-15)

    def test_linearity(self):
        grid = TimeGrid(256)
        fld = swirl_field()
        path = sample_brownian(grid, 2, RngSpec(3), 0)
        g1 = sample_brownian(grid, 2, RngSpec(3), 1)
        g2 = sample_brownian(grid, 2, RngSpec(3), 2)
        combo = SamplePath(grid, 2.0 * g1.values - 0.5 * g2.values)
        lhs = apply_DG(fld, path, combo).values
        rhs = 2.0 * apply_DG(fld, path, g1).values - 0.5 * apply_DG(fld, path, g2).values
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_dg_is_frechet_derivative_of_g(self):
        # ||G(w + eps gamma) - G(w) - eps DG gamma|| = O(eps^2)
        grid = TimeGrid(2**10)
        fld = swirl_field()
        path = sample_brownian(grid, 2, RngSpec(10), 0)
        gamma = SamplePath.from_function(
            grid, lambda t: np.stack([np.sin(np.pi * t), t * (1 - t)], axis=1)
        )
        errs = {}
        for eps in (1e-3, 1e-4):
            bumped = SamplePath(grid, path.values + eps * gamma.values)
            resid = (
                evaluate_G(fld, bumped).values
                - evaluate_G(fld, path).values
                - eps * apply_DG(fld, path, gamma).values
            )
            errs[eps] = np.abs(resid).max()
        ratio = errs[1e-3] / errs[1e-4]
        assert 50 <= ratio <= 200

    def test_linear_field_g_equals_dg(self):
        fld = LinearField(1.0, 2.0, -0.5, 0.75)
        path = sample_brownian(TimeGrid(512), 2, RngSpec(12), 0)
        g = evaluate_G(fld, path)
        dg = apply_DG(fld, path, path)
        assert np.abs(g.values - dg.values).max() <= 1e-12


class TestKernel:
    def test_constant_field_zero_kernel(self):
        path = sample_brownian(TimeGrid(64), 2, RngSpec(5), 0)
        ker = kernel_T(constant_field(2, 2.0), path)
        assert np.all(ker.jacobians == 0.0)
        phi = np.ones((65, 2))
        assert np.all(ker.apply(phi) == 0.0)

    def test_linear_kernel_rows(self):
        fld = LinearField(0.3, -1.1, 0.7, 0.5)
        path = sample_brownian(TimeGrid(32), 2, RngSpec(6), 0)
        dense = dense_kernel(kernel_T(fld, path))  # (j, k, l, i)
        # below the diagonal: row j of the Jacobian, independent of omega
        assert np.allclose(dense[0, 10, 3], [0.3, -1.1])
        assert np.allclose(dense[1, 10, 3], [0.7, 0.5])
        # the indicator jump at t' = t carries the symmetric value 1/2
        assert np.allclose(dense[0, 10, 10], [0.15, -0.55])
        assert np.all(dense[0, 3, 10] == 0.0)

    def test_apply_matches_conjugated_route(self):
        # T phi vs U^{-1} DG U phi, compared as cell values
        grid = TimeGrid(2**12)
        fld = LinearField(0.3, -1.1, 0.7, 0.5)
        path = sample_brownian(grid, 2, RngSpec(7), 0)
        el = component_trig_basis(2).element((1, 0, "cos"))
        t_nodes = kernel_T(fld, path).apply(el.phi(grid.times))
        gamma = SamplePath(grid, el.primitive(grid.times))
        dg = apply_DG(fld, path, gamma)
        route_b = np.diff(dg.values, axis=0) / grid.dt
        route_a = 0.5 * (t_nodes[:-1] + t_nodes[1:])
        assert np.abs(route_a - route_b).max() <= 1e-6


class TestHsNorm:
    def test_constant_field(self):
        path = sample_brownian(TimeGrid(128), 2, RngSpec(8), 0)
        assert hs_norm_squared(constant_field(2, 4.0), path) == 0.0

    def test_identity_linear_field(self):
        # sum_j int t |grad alpha_j|^2 = 2 * int t dt = 1
        path = sample_brownian(TimeGrid(2**10), 2, RngSpec(9), 0)
        fld = LinearField(1, 0, 0, 1)
        assert hs_norm_squared(fld, path) == pytest.approx(1.0, abs=1e-12)

    def test_general_linear_field_both_routes(self):
        fld = LinearField(0.3, -1.1, 0.7, 0.5)
        expected = (0.3**2 + 1.1**2 + 0.7**2 + 0.5**2) / 2
        path = sample_brownian(TimeGrid(2**12), 2, RngSpec(10), 0)
        formula = hs_norm_squared(fld, path)
        kernel = kernel_T(fld, path).hs_norm_squared()
        assert formula == pytest.approx(expected, rel=1e-12)
        assert abs(formula - kernel) / expected <= 1e-4

    def test_dense_route_small_grid(self):
        fld = LinearField(0.3, -1.1, 0.7, 0.5)
        path = sample_brownian(TimeGrid(256), 2, RngSpec(11), 0)
        ker = kernel_T(fld, path)
        assert dense_hs_norm_squared(ker) == pytest.approx(
            ker.hs_norm_squared(), rel=1e-12
        )

    def test_nonlinear_field_routes_agree(self):
        fld = swirl_field()
        path = sample_brownian(TimeGrid(2**12), 2, RngSpec(12), 0)
        formula = hs_norm_squared(fld, path)
        kernel = kernel_T(fld, path).hs_norm_squared()
        assert abs(formula - kernel) / formula <= 1e-4

    def test_dense_guard(self):
        path = sample_brownian(TimeGrid(2**12), 2, RngSpec(0), 0)
        with pytest.raises(ValueError, match="too fine"):
            dense_kernel(kernel_T(LinearField(1, 0, 0, 1), path))


class TestRamer:
    def test_zero_map(self):
        chk = gaussian_ramer_check(
            lambda x: np.zeros_like(x),
            lambda x: np.zeros(x.shape[:-1] + (2, 2)),
            2,
            1000,
            RngSpec(1),
        )
        assert chk.lhs == 0.0 and chk.rhs == 0.0
        assert chk.holds()

    def test_identity_equality_case(self):
        # lhs = E[(x^2 - 1)^2] = 2 = E[x^2 + 1] = rhs
        chk = gaussian_ramer_check(
            lambda x: x,
            lambda x: np.ones(x.shape[:-1] + (1, 1)),
            1,
            10**5,
            RngSpec(2),
        )
        assert abs(chk.lhs - 2.0) <= 3 * chk.lhs_se
        assert abs(chk.rhs - 2.0) <= 3 * chk.rhs_se
        assert abs(chk.lhs - chk.rhs) <= 3 * chk.combined_se

    def test_constant_equality_case(self):
        c = 0.8
        chk = gaussian_ramer_check(
            lambda x: np.full_like(x, c),
            lambda x: np.zeros(x.shape[:-1] + (1, 1)),
            1,
            10**5,
            RngSpec(3),
        )
        assert abs(chk.lhs - c**2) <= 3 * chk.lhs_se
        assert chk.rhs == pytest.approx(c**2, abs=1e-12)

    def test_rotational_strict_inequality(self):
        def rot(x):
            return np.stack([np.sin(x[:, 1]), -np.sin(x[:, 0])], axis=-1)

        def rot_jac(x):
            out = np.zeros(x.shape[:-1] + (2, 2))
            out[:, 0, 1] = np.cos(x[:, 1])
            out[:, 1, 0] = -np.cos(x[:, 0])
            return out

        chk = gaussian_ramer_check(rot, rot_jac, 2, 10**5, RngSpec(4))
        assert chk.lhs + 3 * chk.combined_se < chk.rhs

    def test_squared_variant_is_larger(self):
        chk = gaussian_ramer_check(
            lambda x: x,
            lambda x: np.ones(x.shape[:-1] + (1, 1)),
            1,
            10**4,
            RngSpec(5),
        )
        chk_sq = gaussian_ramer_check(
            lambda x: x,
            lambda x: np.ones(x.shape[:-1] + (1, 1)),
            1,
            10**4,
            RngSpec(5),
            squared_rhs=True,
        )
        assert chk_sq.rhs > chk.rhs


class TestFieldSpecs:
    def test_parse_linear(self):
        fld = field_from_name("linear:1,2,3,4")
        assert (fld.h1, fld.k1, fld.h2, fld.k2) == (1, 2, 3, 4)
        assert fld.divergence_value == 5
        assert fld.curl_value == 1

    def test_parse_identity(self):
        fld = field_from_name("id1d")
        assert fld.dim == 1
        x = np.array([[2.0]])
        assert fld.alpha(x)[0, 0] == 2.0

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            field_from_name("linear:1,2")
        with pytest.raises(ValueError):
            field_from_name("cubic")

    def test_fd_jacobian_matches_analytic(self):
        fld = swirl_field()
        fd = fd_jacobian_field(2, fld.alpha)
        x = np.array([[0.3, -1.2], [2.0, 0.1]])
        assert np.abs(fd.jacobian(x) - fld.jacobian(x)).max() <= 1e-8

    def test_divergence_and_curl(self):
        fld = LinearField(1.0, 2.0, 3.0, 4.0)
        x = np.zeros((1, 2))
        assert fld.divergence(x)[0] == 5.0
        assert fld.curl(x)[0] == 1.0
        with pytest.raises(ValueError):
            identity_field_1d().curl(np.zeros((1, 1)))
