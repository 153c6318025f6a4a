import io

import numpy as np
import pytest

from ogawa_lab import (
    RngSpec,
    SamplePath,
    TimeGrid,
    approximate_wiener,
    brownian_increments,
    component_trig_basis,
    dump_path_csv,
    haar_basis,
    paley_wiener,
    project_coefficients,
    sample_brownian,
)

from oracles import load_path_csv


def linear_drift_path(grid: TimeGrid) -> SamplePath:
    return SamplePath.from_function(grid, lambda t: t)


class TestTimeGrid:
    def test_nodes(self):
        grid = TimeGrid(8)
        assert grid.times[0] == 0.0
        assert grid.times[-1] == 1.0
        assert np.allclose(np.diff(grid.times), grid.dt)
        assert len(grid.times) == 9

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeGrid(0)


class TestSamplePath:
    def test_starts_at_origin(self):
        grid = TimeGrid(16)
        with pytest.raises(ValueError, match="origin"):
            SamplePath(grid, np.ones((17, 1)))

    def test_immutable(self):
        path = sample_brownian(TimeGrid(16), 1, RngSpec(0), 0)
        with pytest.raises(ValueError):
            path.values[3] = 1.0

    def test_from_function_1d(self):
        path = linear_drift_path(TimeGrid(10))
        assert path.dim == 1
        assert path.values[5, 0] == 0.5


class TestSampleBrownian:
    def test_initial_value_zero(self):
        path = sample_brownian(TimeGrid(32), 3, RngSpec(99), 7)
        assert np.all(path.values[0] == 0.0)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            sample_brownian(TimeGrid(4), 0, RngSpec(0), 0)

    def test_deterministic_streams(self):
        grid = TimeGrid(64)
        rng = RngSpec(1234)
        a = sample_brownian(grid, 2, rng, 5)
        # regenerate out of order, fresh spec object
        _ = sample_brownian(grid, 2, rng, 6)
        b = sample_brownian(grid, 2, RngSpec(1234), 5)
        assert np.array_equal(a.values, b.values)

    def test_terminal_variance(self):
        # Var W(1) = 1: sample mean of W(1)^2 within 3 standard errors
        grid = TimeGrid(64)
        rng = RngSpec(2024)
        w1sq = np.array(
            [sample_brownian(grid, 1, rng, i).values[-1, 0] ** 2 for i in range(20000)]
        )
        se = w1sq.std(ddof=1) / np.sqrt(len(w1sq))
        assert abs(w1sq.mean() - 1.0) <= 3 * se

    def test_covariance_structure(self):
        # Cov(W(1/4), W(3/4)) = 1/4
        grid = TimeGrid(64)
        rng = RngSpec(77)
        vals = np.array(
            [
                sample_brownian(grid, 1, rng, i).values[[16, 48], 0]
                for i in range(20000)
            ]
        )
        prod = vals[:, 0] * vals[:, 1]
        se = prod.std(ddof=1) / np.sqrt(len(prod))
        assert abs(prod.mean() - 0.25) <= 3 * se


class TestPaleyWiener:
    def test_constant_element_telescopes(self):
        fam = component_trig_basis(1)
        path = sample_brownian(TimeGrid(128), 1, RngSpec(5), 1)
        coeff = paley_wiener(path, fam.element(("const", 0)))
        assert coeff == pytest.approx(path.values[-1, 0], abs=1e-14)

    def test_cosine_against_drift_path(self):
        # int_0^1 sqrt(2) cos(2 pi t) dt = 0; left sums hit it exactly here
        fam = component_trig_basis(1)
        path = linear_drift_path(TimeGrid(2**10))
        coeff = paley_wiener(path, fam.element((1, 0, "cos")))
        assert abs(coeff) < 1e-12

    def test_dimension_mismatch(self):
        fam = component_trig_basis(2)
        path = sample_brownian(TimeGrid(16), 1, RngSpec(0), 0)
        with pytest.raises(ValueError, match="dimension"):
            paley_wiener(path, fam.element(("const", 0)))

    def test_gaussian_moments(self):
        # mean 0, variance ||e||^2 = 1, covariance delta_ij
        grid = TimeGrid(2**11)
        fam = component_trig_basis(1)
        rng = RngSpec(31337)
        # one phi stack and one product per block of paths; row i is
        # paley_wiener(path i, el) for the three elements
        phi = fam.phi_stack(grid.times[:-1], 3)[:, :, 0]  # (3, N)
        blocks = []
        for start in range(0, 20000, 1000):
            dw = np.stack(
                [brownian_increments(grid, 1, rng, i)[:, 0] for i in range(start, start + 1000)]
            )
            blocks.append(dw @ phi.T)
        coeffs = np.concatenate(blocks)
        m = coeffs.shape[0]
        for j in range(3):
            se = coeffs[:, j].std(ddof=1) / np.sqrt(m)
            assert abs(coeffs[:, j].mean()) <= 3 * se
            sq = coeffs[:, j] ** 2
            se2 = sq.std(ddof=1) / np.sqrt(m)
            assert abs(sq.mean() - 1.0) <= 3 * se2
        cross = coeffs[:, 0] * coeffs[:, 1]
        se3 = cross.std(ddof=1) / np.sqrt(m)
        assert abs(cross.mean()) <= 3 * se3


class TestApproximateWiener:
    def test_single_constant_term(self):
        fam = component_trig_basis(1)
        path = sample_brownian(TimeGrid(64), 1, RngSpec(8), 2)
        approx = approximate_wiener(path, fam, 1)
        expected = path.grid.times * path.values[-1, 0]
        assert np.allclose(approx.values[:, 0], expected, atol=1e-14)

    def test_drift_path_reproduced(self):
        fam = component_trig_basis(1)
        path = linear_drift_path(TimeGrid(2**10))
        approx = approximate_wiener(path, fam, 1)
        assert np.allclose(approx.values[:, 0], path.grid.times, atol=1e-12)

    def test_reconstruction_identity(self):
        # W_n(t) = sum_i coeff_i e_i(t) pointwise
        fam = haar_basis(2)
        path = sample_brownian(TimeGrid(256), 2, RngSpec(3), 0)
        n = 12
        approx = approximate_wiener(path, fam, n)
        coeffs = project_coefficients(path, fam, n)
        prim = fam.primitive_stack(path.grid.times, n)
        manual = np.tensordot(coeffs, prim, axes=(0, 0))
        assert np.abs(approx.values[1:] - manual[1:]).max() < 1e-12

    def test_sup_error_decreases_with_n(self):
        # Ito-Nisio at desk scale: median sup error nonincreasing for Haar
        grid = TimeGrid(2**10)
        fam = haar_basis(1)
        rng = RngSpec(60)
        sups = {n: [] for n in (2, 8, 32, 128)}
        for i in range(100):
            path = sample_brownian(grid, 1, rng, i)
            for n in sups:
                approx = approximate_wiener(path, fam, n)
                sups[n].append(np.abs(approx.values - path.values).max())
        medians = [np.median(sups[n]) for n in (2, 8, 32, 128)]
        assert all(a >= b for a, b in zip(medians, medians[1:]))

    def test_finite_family_overflow(self):
        from ogawa_lab import piecewise_linear_basis

        fam = piecewise_linear_basis(4, 1)
        path = sample_brownian(TimeGrid(64), 1, RngSpec(0), 0)
        with pytest.raises(ValueError, match="finite"):
            approximate_wiener(path, fam, 5)


class TestProjectCoefficients:
    def test_constant_basis(self):
        fam = component_trig_basis(1)
        path = sample_brownian(TimeGrid(32), 1, RngSpec(1), 4)
        coeffs = project_coefficients(path, fam, 1)
        assert coeffs[0] == pytest.approx(path.values[-1, 0], abs=1e-14)

    def test_componentwise_drift(self):
        fam = component_trig_basis(2)
        grid = TimeGrid(128)
        path = SamplePath.from_function(grid, lambda t: np.stack([t, t], axis=1))
        coeffs = project_coefficients(path, fam, 2)
        assert np.allclose(coeffs, [1.0, 1.0], atol=1e-14)


class TestPathCsv:
    def test_round_trip(self):
        path = sample_brownian(TimeGrid(16), 2, RngSpec(21), 9)
        buf = io.StringIO()
        dump_path_csv(path, buf)
        buf.seek(0)
        back = load_path_csv(buf)
        assert np.array_equal(back.values, path.values)

    def test_header(self):
        path = sample_brownian(TimeGrid(4), 2, RngSpec(0), 0)
        buf = io.StringIO()
        dump_path_csv(path, buf)
        assert buf.getvalue().splitlines()[0] == "t,w1,w2"
