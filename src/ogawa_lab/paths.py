"""Wiener paths on a uniform time grid and Paley-Wiener functionals.

Paths live on the grid t_k = k/num_steps, k = 0..num_steps, and always start
at the origin.  The discrete Paley-Wiener integral of a basis element phi
against a path is the left-point Riemann-Stieltjes sum

    n_e(omega) = sum_k phi(t_k) . (omega(t_{k+1}) - omega(t_k)),

which is the convention used everywhere in this package for integrals
against d(omega).  Partial-sum approximations of the path itself follow the
Ito-Nisio recipe: W_n(t) = sum_{i<=n} e_i(t) * n_{e_i}(omega) with e_i the
primitive of phi_i.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .bases import BasisElement, BasisFamily, EnumerationOrder


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, 1] with nodes t_k = k / num_steps."""

    num_steps: int

    def __post_init__(self) -> None:
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {self.num_steps}")

    @property
    def dt(self) -> float:
        return 1.0 / self.num_steps

    @cached_property
    def times(self) -> np.ndarray:
        """Node positions, shape (num_steps + 1,)."""
        t = np.linspace(0.0, 1.0, self.num_steps + 1)
        t.setflags(write=False)
        return t

    @cached_property
    def midpoints(self) -> np.ndarray:
        """Cell midpoints, shape (num_steps,)."""
        m = (np.arange(self.num_steps) + 0.5) * self.dt
        m.setflags(write=False)
        return m


@dataclass(frozen=True)
class SamplePath:
    """A continuous path omega: [0,1] -> R^d sampled on a TimeGrid.

    ``values`` has shape (num_steps + 1, dim) and ``values[0]`` must be the
    origin.  Instances are immutable and safe to share between threads.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.grid.num_steps + 1:
            raise ValueError(
                f"values must have shape (num_steps + 1, dim), got {v.shape}"
            )
        if not np.all(v[0] == 0.0):
            raise ValueError("paths must start at the origin: values[0] != 0")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @cached_property
    def increments(self) -> np.ndarray:
        """Per-cell increments omega(t_{k+1}) - omega(t_k), shape (N, dim)."""
        d = np.diff(self.values, axis=0)
        d.setflags(write=False)
        return d

    @classmethod
    def from_function(cls, grid: TimeGrid, fn: Callable[[np.ndarray], np.ndarray]) -> "SamplePath":
        """Build a deterministic path from a vectorized map t -> R^d.

        ``fn`` receives the node array and must return shape (len(t), d) or
        (len(t),) for d = 1.  fn(0) must vanish.
        """
        vals = np.asarray(fn(grid.times), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        return cls(grid, vals)

    @classmethod
    def zero(cls, grid: TimeGrid, dim: int = 1) -> "SamplePath":
        return cls(grid, np.zeros((grid.num_steps + 1, dim)))


@dataclass(frozen=True)
class RngSpec:
    """Reproducible per-path random streams.

    Stream ``path_index`` is seeded by the entropy pair
    (master_seed, path_index), so any subset of paths can be generated in
    any order, or concurrently, with bit-identical results.
    """

    master_seed: int

    def generator(self, path_index: int) -> np.random.Generator:
        if path_index < 0:
            raise ValueError("path_index must be nonnegative")
        return np.random.default_rng([self.master_seed, path_index])


def brownian_increments(
    grid: TimeGrid, dim: int, rng: RngSpec, path_index: int
) -> np.ndarray:
    """Gaussian increments with variance dt per coordinate, shape (N, dim)."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    gen = rng.generator(path_index)
    return np.sqrt(grid.dt) * gen.standard_normal((grid.num_steps, dim))


def sample_brownian(
    grid: TimeGrid, dim: int, rng: RngSpec, path_index: int
) -> SamplePath:
    """Draw one standard Wiener path on the grid.

    Increments over successive cells are independent centered Gaussians with
    variance dt per coordinate; the path starts at the origin.
    """
    dw = brownian_increments(grid, dim, rng, path_index)
    values = np.concatenate([np.zeros((1, dim)), np.cumsum(dw, axis=0)])
    return SamplePath(grid, values)


def _check_dims(path: SamplePath, elem_dim: int) -> None:
    if path.dim != elem_dim:
        raise ValueError(
            f"dimension mismatch: path has dim {path.dim}, element has dim {elem_dim}"
        )


def paley_wiener(path: SamplePath, elem: "BasisElement") -> float:
    """Discrete Paley-Wiener integral int_0^1 phi . d(omega).

    Left-point Riemann-Stieltjes sum of the (deterministic) element against
    the path increments; a deterministic function of its inputs.
    """
    _check_dims(path, elem.dim)
    phi_left = elem.phi(path.grid.times[:-1])
    return float(np.sum(phi_left * path.increments))


def project_coefficients(
    path: SamplePath,
    family: "BasisFamily",
    n: int,
    order: "EnumerationOrder | str | None" = None,
) -> np.ndarray:
    """First n Paley-Wiener coefficients (n_{e_1}, ..., n_{e_n}) of a path."""
    phi = family.phi_stack(path.grid.times[:-1], n, order)  # (n, N, d)
    return phi.reshape(n, -1) @ path.increments.reshape(-1)


def approximate_wiener(
    path: SamplePath,
    family: "BasisFamily",
    n: int,
    order: "EnumerationOrder | str | None" = None,
) -> SamplePath:
    """Ito-Nisio partial sum W_n(t) = sum_{i<=n} e_i(t) n_{e_i}(omega)."""
    _check_dims(path, family.dim)
    coeffs = project_coefficients(path, family, n, order)
    prim = family.primitive_stack(path.grid.times, n, order)  # (n, N+1, d)
    values = np.tensordot(coeffs, prim, axes=(0, 0))
    values[0] = 0.0  # e_i(0) = 0 exactly; clear any roundoff dust
    return SamplePath(path.grid, values)


def write_csv(file, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header line and one line per row, comma-separated, to a path
    (``str``, ``bytes`` or ``os.PathLike``, opened with ``newline=""``) or to
    an open text handle.  Float cells, ``np.float64`` included, are written
    with 17 significant digits, so they read back to the same double; other
    cells with ``str``."""
    if isinstance(file, (str, bytes, os.PathLike)):
        with open(file, "w", newline="") as fh:
            write_csv(fh, header, rows)
        return
    file.write(",".join(header) + "\n")
    for row in rows:
        cells = (format(x, ".17g") if isinstance(x, float) else str(x) for x in row)
        file.write(",".join(cells) + "\n")


def dump_path_csv(path: SamplePath, file) -> None:
    """Write a path as CSV with header ``t,w1[,w2,...]``."""
    header = ["t"] + [f"w{j + 1}" for j in range(path.dim)]
    write_csv(file, header, ((t, *row) for t, row in zip(path.grid.times, path.values)))
