"""Vector fields alpha: R^d -> R^d, the path functional G, and its derivative.

G maps a path omega to the Cameron-Martin element
G(omega)(t) = int_0^t alpha(omega(s)) ds, its Frechet derivative acts as
(DG(omega) gamma)_j(t) = int_0^t grad(alpha_j)(omega(s)) . gamma(s) ds, and
conjugating DG by the primitive map U gives an integral operator on L^2
whose kernel is the Jacobian of alpha along the path times the indicator of
[0, t].  All cumulative integrals use the composite trapezoidal rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .paths import RngSpec, SamplePath, TimeGrid, check_dims


class VectorField:
    """A C^1 map alpha: R^d -> R^d with an evaluable Jacobian.

    ``alpha`` maps points of shape (m, d) to values of shape (m, d);
    ``jacobian`` returns shape (m, d, d) with entry [.., j, i] equal to
    d(alpha_j)/dx_i.  Evaluators must be pure; no automatic differentiation
    is attempted.
    """

    def __init__(
        self,
        dim: int,
        alpha: Callable[[np.ndarray], np.ndarray],
        jacobian: Callable[[np.ndarray], np.ndarray],
        constant_jacobian: bool = False,
    ):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.constant_jacobian = constant_jacobian
        self._alpha = alpha
        self._jacobian = jacobian

    def alpha(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self._alpha(np.asarray(x, dtype=float)), dtype=float)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self._jacobian(np.asarray(x, dtype=float)), dtype=float)

    def divergence(self, x: np.ndarray) -> np.ndarray:
        return np.trace(self.jacobian(x), axis1=-2, axis2=-1)

    def curl(self, x: np.ndarray) -> np.ndarray:
        """Scalar curl d(alpha_2)/dx_1 - d(alpha_1)/dx_2 (d = 2 only)."""
        if self.dim != 2:
            raise ValueError("scalar curl is defined for d = 2 only")
        jac = self.jacobian(x)
        return jac[..., 1, 0] - jac[..., 0, 1]


class LinearField(VectorField):
    """alpha(x, y) = (h1 x + k1 y, h2 x + k2 y) with constant Jacobian."""

    def __init__(self, h1: float, k1: float, h2: float, k2: float):
        self.h1, self.k1, self.h2, self.k2 = (
            float(h1),
            float(k1),
            float(h2),
            float(k2),
        )
        mat = np.array([[self.h1, self.k1], [self.h2, self.k2]])
        if not np.all(np.isfinite(mat)):
            raise ValueError(f"linear field coefficients must be finite, got {mat.ravel().tolist()}")
        mat.setflags(write=False)
        self.matrix = mat
        super().__init__(
            2,
            lambda x: x @ mat.T,
            lambda x: np.broadcast_to(mat, np.shape(x)[:-1] + (2, 2)),
            constant_jacobian=True,
        )

    @property
    def divergence_value(self) -> float:
        return self.h1 + self.k2

    @property
    def curl_value(self) -> float:
        return self.h2 - self.k1

    def __repr__(self) -> str:
        return f"LinearField({self.h1}, {self.k1}, {self.h2}, {self.k2})"


def identity_field_1d() -> VectorField:
    """d = 1, alpha(x) = x."""
    return VectorField(
        1,
        lambda x: x,
        lambda x: np.ones(np.shape(x)[:-1] + (1, 1)),
        constant_jacobian=True,
    )


def field_from_name(name: str) -> VectorField:
    """Resolve a field spec: ``linear:h1,k1,h2,k2`` or ``id1d``."""
    if name == "id1d":
        return identity_field_1d()
    if name.startswith("linear:"):
        parts = name.split(":", 1)[1].split(",")
        if len(parts) != 4:
            raise ValueError(f"linear field needs 4 coefficients, got {name!r}")
        return LinearField(*(float(p) for p in parts))
    raise ValueError(f"unknown field spec {name!r}")


# ---------------------------------------------------------------------------
# path functionals
# ---------------------------------------------------------------------------


def _cumtrapz(values: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid along axis 0, starting at 0."""
    avg = 0.5 * (values[:-1] + values[1:]) * dt
    out = np.empty_like(values)
    out[0] = 0.0
    np.cumsum(avg, axis=0, out=out[1:])
    return out


def _trapezoid_weights(grid: TimeGrid) -> np.ndarray:
    """Composite trapezoidal weights on the grid nodes: w . g ~ int_0^1 g."""
    w = np.full(grid.num_steps + 1, grid.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def evaluate_G(field: VectorField, path: SamplePath) -> SamplePath:
    """Cameron-Martin representative G(omega)(t) = int_0^t alpha(omega(s)) ds."""
    check_dims(path, field)
    a = field.alpha(path.values)
    return SamplePath(path.grid, _cumtrapz(a, path.grid.dt))


def apply_DG(field: VectorField, path: SamplePath, gamma: SamplePath) -> SamplePath:
    """Derivative action (DG(omega) gamma)_j(t) = int_0^t grad(alpha_j)(omega) . gamma.

    Linear in gamma; gamma must start at the origin like every SamplePath.
    """
    check_dims(path, field, gamma)
    jac = field.jacobian(path.values)  # (N+1, d, d)
    integrand = np.einsum("kji,ki->kj", jac, gamma.values)
    return SamplePath(path.grid, _cumtrapz(integrand, path.grid.dt))


@dataclass(frozen=True)
class DiscreteKernel:
    """Kernel of the L^2-conjugated derivative operator along one path.

    Row block j at time t_k is grad(alpha_j)(omega(t_k)) supported on
    t' <= t_k.  The jump of the indicator at t' = t_k is represented by the
    symmetric value 1/2, which makes the discrete Frobenius norm match the
    closed-form time-weighted norm exactly for constant Jacobians.
    """

    grid: TimeGrid
    jacobians: np.ndarray  # (N+1, d, d)

    def __post_init__(self) -> None:
        j = np.asarray(self.jacobians, dtype=float)
        j.setflags(write=False)
        object.__setattr__(self, "jacobians", j)

    @property
    def dim(self) -> int:
        return self.jacobians.shape[-1]

    def apply(self, phi_values: np.ndarray) -> np.ndarray:
        """Apply the operator to node values of phi, returning node values.

        (T phi)_j(t_k) = [J(omega(t_k)) @ int_0^{t_k} phi(t') dt']_j with the
        inner integral by cumulative trapezoid.
        """
        prim = _cumtrapz(np.asarray(phi_values, dtype=float), self.grid.dt)
        return np.einsum("kji,ki->kj", self.jacobians, prim)

    def hs_norm_squared(self) -> float:
        """Squared Frobenius norm of the kernel under trapezoid quadrature.

        The inner t' sum collapses to sum_{l<k} w_l + w_k / 2 thanks to the
        half-weight diagonal; the double sum is evaluated without
        materializing the (N+1)^2 kernel.
        """
        w = _trapezoid_weights(self.grid)
        inner = np.cumsum(w) - 0.5 * w
        frob = np.einsum("kji,kji->k", self.jacobians, self.jacobians)
        return float(np.sum(w * frob * inner))


def kernel_T(field: VectorField, path: SamplePath) -> DiscreteKernel:
    """Discretize the conjugated operator U^{-1} DG(omega) U along a path."""
    check_dims(path, field)
    return DiscreteKernel(path.grid, field.jacobian(path.values))


def hs_norm_squared(field: VectorField, path: SamplePath) -> float:
    """Squared Hilbert-Schmidt norm sum_j int_0^1 t |grad(alpha_j)(omega(t))|^2 dt."""
    check_dims(path, field)
    jac = field.jacobian(path.values)
    frob = np.einsum("kji,kji->k", jac, jac)
    return float(np.trapezoid(path.grid.times * frob, dx=path.grid.dt))


# ---------------------------------------------------------------------------
# finite-dimensional Gaussian divergence inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RamerCheck:
    """Monte Carlo estimates of both sides of the Gaussian divergence bound."""

    lhs: float
    rhs: float
    lhs_se: float
    rhs_se: float
    samples: int

    @property
    def combined_se(self) -> float:
        return self.lhs_se + self.rhs_se

    def holds(self, sigmas: float = 3.0) -> bool:
        return self.lhs <= self.rhs + sigmas * self.combined_se


def gaussian_ramer_check(
    map_fn: Callable[[np.ndarray], np.ndarray],
    jac_fn: Callable[[np.ndarray], np.ndarray],
    n: int,
    samples: int,
    rng: RngSpec,
    squared_rhs: bool = False,
) -> RamerCheck:
    """Estimate E[(f(x).x - tr Jf(x))^2] and E[|f(x)|^2 + ||Jf(x)||_2^2]
    under the standard Gaussian on R^n.

    The divergence-form left side never exceeds the right side; equality
    holds e.g. for componentwise maps.  ``squared_rhs`` additionally squares
    the right-hand integrand, a strictly larger variant kept behind this
    flag for comparison.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen = rng.generator(0)
    x = gen.standard_normal((samples, n))
    f = np.asarray(map_fn(x), dtype=float)
    jac = np.asarray(jac_fn(x), dtype=float)
    div = np.einsum("mi,mi->m", f, x) - np.trace(jac, axis1=-2, axis2=-1)
    lhs_samples = div**2
    rhs_samples = np.einsum("mi,mi->m", f, f) + np.einsum("mji,mji->m", jac, jac)
    if squared_rhs:
        rhs_samples = rhs_samples**2
    lhs = float(np.mean(lhs_samples))
    rhs = float(np.mean(rhs_samples))
    lhs_se = float(np.std(lhs_samples, ddof=1) / np.sqrt(samples))
    rhs_se = float(np.std(rhs_samples, ddof=1) / np.sqrt(samples))
    return RamerCheck(lhs, rhs, lhs_se, rhs_se, samples)
