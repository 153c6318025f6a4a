"""Spectrum of the squared derivative operator L = DG* DG for linear fields.

For alpha(x, y) = (h1 x + k1 y, h2 x + k2 y) the quadratic form of L on
Cameron-Martin paths is governed by the 2x2 symmetric matrix A with entries
(h1^2 + h2^2, h1 k1 + h2 k2; ., k1^2 + k2^2).  Diagonalizing A splits L into
two scalar problems whose closed-form eigenvalues are

    lambda_{n,j} = 4 a_j / (pi^2 (1 + 2 n)^2),   n = 0, 1, ...

with eigenfunctions sin((pi/2 + n pi) t) u_j.  The numeric route discretizes
the double-integral action gamma -> a int_0^t int_s^1 gamma(r) dr ds by
composite trapezoidal sums, symmetrizes, and finds the top eigenvalues
with a matrix-free Lanczos solve (SciPy is imported on the first solve,
not with the package); the square roots of the eigenvalues are
summable-squared but not summable, which is the trace-class failure the
diagnostics expose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .fields import LinearField, _cumtrapz, _trapezoid_weights
from .paths import TimeGrid

if TYPE_CHECKING:  # pragma: no cover
    from scipy.sparse.linalg import LinearOperator


@dataclass(frozen=True)
class QuadraticFormMatrix:
    """Symmetric PSD matrix of the quadratic form, with its eigensystem.

    ``eigenvalues`` are sorted in decreasing order; ``eigenvectors`` holds
    the matching orthonormal eigenvectors as columns.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_matrix(cls, a: np.ndarray) -> "QuadraticFormMatrix":
        a = np.asarray(a, dtype=float)
        vals, vecs = np.linalg.eigh(a)
        vals = np.clip(vals, 0.0, None)[::-1].copy()
        vecs = vecs[:, ::-1].copy()
        for arr in (a, vals, vecs):
            arr.setflags(write=False)
        return cls(a, vals, vecs)


def matrix_A(field: LinearField) -> QuadraticFormMatrix:
    """Quadratic-form matrix of L for a linear field (the Gram of the Jacobian)."""
    h1, k1, h2, k2 = field.h1, field.k1, field.h2, field.k2
    a = np.array(
        [
            [h1**2 + h2**2, h1 * k1 + h2 * k2],
            [h1 * k1 + h2 * k2, k1**2 + k2**2],
        ]
    )
    return QuadraticFormMatrix.from_matrix(a)


@dataclass(frozen=True)
class SpectrumReport:
    """Closed-form and (optionally) numeric spectra of L, indexed (n, j).

    ``closed[n, j]`` is the closed-form eigenvalue for mode n in eigenblock
    j; ``numeric`` carries the matching discretized eigenvalues when the
    numeric route has run, together with the matrix trace of the
    discretization and the top scalar eigenvectors on the grid nodes.
    """

    form: QuadraticFormMatrix
    closed: np.ndarray                    # (count, 2)
    numeric: np.ndarray | None = None     # (count, 2)
    numeric_trace: float | None = None
    scalar_eigenvectors: np.ndarray | None = None  # (N+1, count)

    @property
    def count(self) -> int:
        return self.closed.shape[0]

    def relative_errors(self) -> np.ndarray:
        """|numeric - closed| / closed, entrywise; NaN where closed is 0."""
        if self.numeric is None:
            raise ValueError("numeric spectrum has not been computed")
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                self.closed > 0.0,
                np.abs(self.numeric - self.closed) / self.closed,
                np.nan,
            )


def closed_form_spectrum(form: QuadraticFormMatrix, count: int) -> SpectrumReport:
    """Closed-form eigenvalues lambda_{n,j} for n = 0..count-1."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    modes = np.arange(count)
    denom = math.pi**2 * (1 + 2 * modes) ** 2
    return SpectrumReport(form=form, closed=4.0 * form.eigenvalues[None, :] / denom[:, None])


def _cumtrapz_adjoint(values: np.ndarray, dt: float) -> np.ndarray:
    """Transpose of the cumulative trapezoid map along axis 0.

    The map sends g to c with c_k = dt (g_0 / 2 + g_1 + ... + g_{k-1} + g_k / 2)
    and c_0 = 0, so its transpose sends h to dt (h_j / 2 + sum_{k>j} h_k) for
    j >= 1 and to dt / 2 sum_{k>=1} h_k for j = 0.
    """
    suffix = np.cumsum(values[::-1], axis=0)[::-1]
    out = dt * (suffix - 0.5 * values)
    out[0] = 0.5 * dt * (suffix[0] - values[0])
    return out


def discretized_operator(grid: TimeGrid) -> "LinearOperator":
    """Symmetrized discretization of gamma -> int_0^t int_s^1 gamma(r) dr ds.

    Composite trapezoidal double integration: with C the cumulative
    trapezoid map and w the trapezoidal weights, the inner integral from s
    to 1 is total minus cumulative, M = C (1 w^T - C).  The continuous
    operator is self-adjoint, so any asymmetry is pure discretization error
    and the operator returned is (M + M^T) / 2.  It is matrix-free: each
    product costs two cumulative sums and two of their transposes, O(N).
    """
    from scipy.sparse.linalg import LinearOperator

    dt = grid.dt
    weights = _trapezoid_weights(grid)

    def matvec(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float).reshape(-1)
        m_v = _cumtrapz(weights @ v - _cumtrapz(v, dt), dt)
        ct_v = _cumtrapz_adjoint(v, dt)
        mt_v = weights * ct_v.sum() - _cumtrapz_adjoint(ct_v, dt)
        return 0.5 * (m_v + mt_v)

    dim = grid.num_steps + 1
    return LinearOperator((dim, dim), matvec=matvec, dtype=float)


def _operator_trace(grid: TimeGrid) -> float:
    """trace((M + M^T) / 2) = sum_k (C 1)_k w_k - N (dt / 2)^2 in closed form.

    trace(C 1 w^T) is the first sum; C is lower triangular with diagonal
    (0, dt/2, ..., dt/2), so trace(C C) = N (dt / 2)^2.
    """
    ones = np.ones(grid.num_steps + 1)
    ct_one = _cumtrapz(ones, grid.dt)
    return float(ct_one @ _trapezoid_weights(grid) - grid.num_steps * (0.5 * grid.dt) ** 2)


def discretized_L_spectrum(
    field: LinearField, grid: TimeGrid, count: int
) -> SpectrumReport:
    """Top eigenvalues of the discretized L next to the closed forms.

    The 2x2 block structure is handled by diagonalizing A first and scaling
    one scalar eigenproblem by each a_j.  The scalar problem is solved by
    ARPACK's implicitly restarted Lanczos (``eigsh``) from a fixed start
    vector, so reruns are byte-identical; eigenvalues come in decreasing
    order and each eigenvector is signed positive at t = 1.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > grid.num_steps:
        raise ValueError(
            f"count {count} exceeds the rank of a grid with {grid.num_steps} cells"
        )
    from scipy.sparse.linalg import eigsh

    form = matrix_A(field)
    report = closed_form_spectrum(form, count)
    op = discretized_operator(grid)
    # ARPACK's default start vector is random; a fixed generic one keeps
    # reruns byte-identical
    v0 = np.random.default_rng(0).standard_normal(op.shape[0])
    vals, vecs = eigsh(op, k=count, which="LA", tol=0, v0=v0)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order] * np.where(vecs[-1, order] < 0.0, -1.0, 1.0)
    numeric = form.eigenvalues[None, :] * vals[:, None]
    return SpectrumReport(
        form=form,
        closed=report.closed,
        numeric=numeric,
        numeric_trace=float(form.eigenvalues.sum() * _operator_trace(grid)),
        scalar_eigenvectors=vecs,
    )


def trace_class_diagnostic(form: QuadraticFormMatrix, n_terms: int) -> np.ndarray:
    """Partial sums S_m = sum_{n<m} sum_j sqrt(lambda_{n,j}), m = 1..n_terms.

    Each term is 2 (sqrt(a_1) + sqrt(a_2)) / (pi (1 + 2n)), a harmonic-type
    tail: the sums grow without bound whenever A is nonzero, while the
    eigenvalues themselves stay summable.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    modes = np.arange(n_terms)
    root_sum = np.sqrt(form.eigenvalues).sum()
    terms = 2.0 * root_sum / (math.pi * (1 + 2 * modes))
    return np.cumsum(terms)


def eigenvalue_partial_sums(form: QuadraticFormMatrix, n_terms: int) -> np.ndarray:
    """Partial sums of the eigenvalues themselves (the convergent contrast)."""
    modes = np.arange(n_terms)
    denom = math.pi**2 * (1 + 2 * modes) ** 2
    terms = 4.0 * form.eigenvalues.sum() / denom
    return np.cumsum(terms)
