import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import ogawa_lab
from ogawa_lab import (
    LinearField,
    RngSpec,
    TimeGrid,
    closed_form_spectrum,
    discretized_L_spectrum,
    eigenvalue_partial_sums,
    hs_norm_squared,
    matrix_A,
    sample_brownian,
    trace_class_diagnostic,
)
from ogawa_lab.spectral import _lanczos, discretized_operator

from oracles import eigenfunction_values

IDENTITY = LinearField(1, 0, 0, 1)


def _cumtrapz_matrix(grid: TimeGrid) -> np.ndarray:
    """Matrix of the cumulative trapezoid map: row k integrates up to t_k."""
    n = grid.num_steps
    dt = grid.dt
    mat = np.tril(np.full((n + 1, n + 1), dt), k=-1)
    mat[:, 0] *= 0.5
    idx = np.arange(1, n + 1)
    mat[idx, idx] = 0.5 * dt
    mat[0, 0] = 0.0
    return mat


def dense_operator(grid: TimeGrid) -> np.ndarray:
    """Dense reference for the matrix-free operator: (M + M^T) / 2, M = C (1 w^T - C)."""
    ct = _cumtrapz_matrix(grid)
    weights = np.full(grid.num_steps + 1, grid.dt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    crev = weights[None, :] - ct
    m = ct @ crev
    return 0.5 * (m + m.T)


class TestMatrixA:
    def test_identity_field(self):
        form = matrix_A(IDENTITY)
        assert np.array_equal(form.matrix, np.eye(2))
        assert np.allclose(form.eigenvalues, [1.0, 1.0])

    def test_rank_one_field(self):
        form = matrix_A(LinearField(0, 0, 1, 0))
        assert np.array_equal(form.matrix, np.diag([1.0, 0.0]))
        assert np.allclose(form.eigenvalues, [1.0, 0.0])

    def test_zero_field(self):
        form = matrix_A(LinearField(0, 0, 0, 0))
        assert np.all(form.matrix == 0.0)

    def test_eigenpairs_satisfy_definition(self):
        form = matrix_A(LinearField(0.3, -1.1, 0.7, 0.5))
        for j in range(2):
            resid = form.matrix @ form.eigenvectors[:, j] - form.eigenvalues[
                j
            ] * form.eigenvectors[:, j]
            assert np.abs(resid).max() <= 1e-12


class TestClosedForm:
    def test_ground_mode(self):
        rep = closed_form_spectrum(matrix_A(IDENTITY), 2)
        assert rep.closed[0, 0] == pytest.approx(4 / math.pi**2)
        assert rep.closed[1, 0] == pytest.approx(4 / (9 * math.pi**2))

    def test_degenerate_block_vanishes(self):
        rep = closed_form_spectrum(matrix_A(LinearField(0, 0, 1, 0)), 3)
        assert np.all(rep.closed[:, 1] == 0.0)

    def test_eigenvalues_decrease_in_n(self):
        rep = closed_form_spectrum(matrix_A(LinearField(1, 2, 3, 4)), 6)
        assert np.all(np.diff(rep.closed[:, 0]) < 0)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            closed_form_spectrum(matrix_A(IDENTITY), 0)


class TestDiscretized:
    def test_identity_matches_closed_form(self):
        rep = discretized_L_spectrum(IDENTITY, TimeGrid(2**10), 5)
        assert rep.relative_errors().max() <= 1e-3

    def test_zero_field(self):
        rep = discretized_L_spectrum(LinearField(0, 0, 0, 0), TimeGrid(512), 3)
        assert np.abs(rep.numeric).max() <= 1e-12

    def test_numeric_spectrum_nonnegative(self):
        rep = discretized_L_spectrum(LinearField(1, 2, 0, 1), TimeGrid(512), 6)
        assert np.all(rep.numeric >= 0.0)

    def test_top_eigenvector_shape(self):
        grid = TimeGrid(2**10)
        rep = discretized_L_spectrum(IDENTITY, grid, 3)
        vec = rep.scalar_eigenvectors[:, 0]
        target = np.sin(math.pi * grid.times / 2)
        cos_sim = abs(vec @ target) / (np.linalg.norm(vec) * np.linalg.norm(target))
        assert cos_sim >= 0.999

    def test_eigenfunction_evaluator(self):
        form = matrix_A(IDENTITY)
        t = np.array([0.0, 1.0])
        vals = eigenfunction_values(t, 0, 0, form)
        assert vals.shape == (2, 2)
        assert np.allclose(np.linalg.norm(vals[1]), 1.0)

    def test_refinement_improves_accuracy(self):
        coarse = discretized_L_spectrum(IDENTITY, TimeGrid(2**9), 5).relative_errors()
        fine = discretized_L_spectrum(IDENTITY, TimeGrid(2**11), 5).relative_errors()
        assert np.all(fine <= coarse)

    def test_trace_matches_hs_norm(self):
        fld = LinearField(0.3, -1.1, 0.7, 0.5)
        rep = discretized_L_spectrum(fld, TimeGrid(2**10), 3)
        path = sample_brownian(TimeGrid(2**10), 2, RngSpec(0), 0)
        hs = hs_norm_squared(fld, path)
        assert abs(rep.numeric_trace - hs) / hs <= 0.01

    def test_count_exceeding_rank(self):
        with pytest.raises(ValueError, match="rank"):
            discretized_L_spectrum(IDENTITY, TimeGrid(8), 9)


class TestMatrixFreeOperator:
    """The matrix-free route against the dense trapezoid oracle."""

    @pytest.mark.parametrize("steps", [8, 64, 1024])
    def test_matvec_matches_dense(self, steps):
        grid = TimeGrid(steps)
        dense = dense_operator(grid)
        op = discretized_operator(grid)
        v = np.random.default_rng(steps).standard_normal(steps + 1)
        ref = dense @ v
        assert np.abs(op(v) - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("steps, count", [(8, 3), (8, 8), (64, 8), (1024, 8)])
    def test_eigenvalues_match_dense(self, steps, count):
        grid = TimeGrid(steps)
        ref = scipy.linalg.eigh(dense_operator(grid), eigvals_only=True)[::-1][:count]
        rep = discretized_L_spectrum(IDENTITY, grid, count)
        assert np.all(np.abs(rep.numeric[:, 0] - ref) <= 1e-12 * np.abs(ref))
        assert np.array_equal(rep.numeric[:, 0], rep.numeric[:, 1])

    @pytest.mark.parametrize("steps", [8, 64, 1024])
    def test_trace_matches_dense(self, steps):
        grid = TimeGrid(steps)
        rep = discretized_L_spectrum(IDENTITY, grid, 1)
        assert abs(rep.numeric_trace - 2 * np.trace(dense_operator(grid))) <= 1e-14

    @pytest.mark.parametrize("steps", [8, 64, 1024])
    def test_reruns_are_byte_identical(self, steps):
        fld = LinearField(0.3, -1.1, 0.7, 0.5)
        first = discretized_L_spectrum(fld, TimeGrid(steps), min(steps, 8))
        second = discretized_L_spectrum(fld, TimeGrid(steps), min(steps, 8))
        assert first.numeric.tobytes() == second.numeric.tobytes()
        assert first.scalar_eigenvectors.tobytes() == second.scalar_eigenvectors.tobytes()
        assert np.all(first.scalar_eigenvectors[-1] > 0.0)


class TestLanczos:
    """The numpy Lanczos solve against ARPACK, the route it replaced."""

    @pytest.mark.parametrize("steps", [1024, 4096])
    def test_matches_arpack(self, steps):
        grid = TimeGrid(steps)
        op = discretized_operator(grid)
        dim = steps + 1
        v0 = np.random.default_rng(0).standard_normal(dim)
        arpack = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=op, dtype=float)
        vals, vecs = scipy.sparse.linalg.eigsh(arpack, k=8, which="LA", tol=0, v0=v0)
        order = np.argsort(vals)[::-1]
        vals = vals[order]
        vecs = vecs[:, order] * np.where(vecs[-1, order] < 0.0, -1.0, 1.0)
        rep = discretized_L_spectrum(IDENTITY, grid, 8)
        assert np.all(np.abs(rep.numeric[:, 0] - vals) <= 1e-12 * vals)
        # the top nine eigenvalues are apart by at least 1e-3 of the largest,
        # so both routes pin the vectors to about 1e-13
        assert np.abs(rep.scalar_eigenvectors - vecs).max() <= 1e-11

    def test_memory_stays_linear_in_grid(self):
        # the Krylov basis holds one row per step; a dense (N+1)^2 basis
        # on this grid would be 134 MB
        tracemalloc.start()
        try:
            discretized_L_spectrum(IDENTITY, TimeGrid(4096), 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_breakdown_below_count_raises(self):
        # e_0 spans an invariant space of 2 I: beta_1 is exactly 0
        start = np.zeros(4)
        start[0] = 1.0
        vals, vecs = _lanczos(lambda v: 2.0 * v, start, 1)
        assert np.array_equal(vals, [2.0]) and np.array_equal(vecs[:, 0], start)
        with pytest.raises(ArithmeticError, match="below count 2"):
            _lanczos(lambda v: 2.0 * v, start, 2)


def test_import_does_not_load_scipy_solvers():
    src = str(Path(ogawa_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, ogawa_lab; "
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "print(loaded()); "
        "ogawa_lab.discretized_L_spectrum("
        "ogawa_lab.LinearField(1, 0, 0, 1), ogawa_lab.TimeGrid(64), 3); "
        "print(loaded())"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["[]", "[]"]


class TestTraceClassDiagnostic:
    def test_matches_harmonic_oracle(self):
        # independent oracle: direct summation of 2(sqrt(a1)+sqrt(a2))/(pi(1+2n))
        form = matrix_A(IDENTITY)
        got = trace_class_diagnostic(form, 10**4)
        oracle_10 = sum(4 / (math.pi * (1 + 2 * n)) for n in range(10))
        oracle_1e4 = sum(4 / (math.pi * (1 + 2 * n)) for n in range(10**4))
        assert got[9] == pytest.approx(oracle_10, abs=1e-12)
        assert got[-1] == pytest.approx(oracle_1e4, abs=1e-10)
        # the sums keep growing: about (2/pi) ln 10 per decade and never level off
        assert got[-1] >= 2.5 * got[9]
        decade_growth = got[-1] - got[999]
        assert decade_growth == pytest.approx(2 * math.log(10) / math.pi, rel=0.01)

    def test_zero_matrix(self):
        sums = trace_class_diagnostic(matrix_A(LinearField(0, 0, 0, 0)), 100)
        assert np.all(sums == 0.0)

    def test_eigenvalue_sums_converge(self):
        # Hilbert-Schmidt contrast: sum of eigenvalues tends to (a1 + a2) / 2
        form = matrix_A(LinearField(0.3, -1.1, 0.7, 0.5))
        sums = eigenvalue_partial_sums(form, 10**4)
        target = form.eigenvalues.sum() / 2
        assert abs(sums[-1] - target) <= 1e-3
        fld_hs = (0.3**2 + 1.1**2 + 0.7**2 + 0.5**2) / 2
        assert target == pytest.approx(fld_hs, abs=1e-12)

    @pytest.mark.parametrize("n_terms", [0, -1])
    @pytest.mark.parametrize("partial_sums", [trace_class_diagnostic, eigenvalue_partial_sums])
    def test_n_terms_must_be_positive(self, partial_sums, n_terms):
        with pytest.raises(ValueError, match="n_terms must be >= 1"):
            partial_sums(matrix_A(IDENTITY), n_terms)
