"""Basis-indexed stochastic partial sums and their renormalized limits.

For the integrand f(t, omega) = alpha(omega(t)) of a vector field alpha and
an orthonormal family with primitives e_i, the truncated series is

    g_n = sum_{i<=n} n_{e_i}(omega) * (f, phi_i),

with the coefficient n_{e_i} a left-point Stieltjes sum against d(omega) and
the pairing (f, phi_i) a trapezoid-in-f sum against the exact primitive
increments of e_i.  With these conventions g_n coincides identically (not
just in the limit) with the Stieltjes integral of f against the partial-sum
path W_n and with the Cameron-Martin inner product of G(omega) with the
projected path, so the three routes cross-check each other to roundoff.

The renormalization term r_n is the partial trace of DG(omega) over the
first n elements; its summands are evaluated by cell-midpoint quadrature,
which is exact for the indicator-type families (breakpoints on grid nodes)
and for trigonometric integrands below the grid Nyquist frequency.  The
renormalized sums are h_n = g_n - r_n, an exact arithmetic identity per
ledger row.

Reference integrals use the discrete semantics: Ito = left-point Riemann
sums, Stratonovich = midpoint rule on the sample grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bases import BasisFamily, EnumerationOrder
from .fields import VectorField, _check_field_path, evaluate_G
from .paths import SamplePath, approximate_wiener, project_coefficients, write_csv


def _cell_averages(values: np.ndarray) -> np.ndarray:
    return 0.5 * (values[:-1] + values[1:])


# ---------------------------------------------------------------------------
# partial sums: three routes
# ---------------------------------------------------------------------------


def ogawa_partial_sum(
    field: VectorField,
    path: SamplePath,
    family: BasisFamily,
    n: int,
    order: EnumerationOrder | str | None = None,
) -> float:
    """Truncated series g_n by the coefficient route (the default route)."""
    _check_field_path(field, path)
    coeffs = project_coefficients(path, family, n, order)
    favg = _cell_averages(field.alpha(path.values))
    de = family.primitive_cell_increments(path.grid, n, order)
    pairings = np.einsum("ikd,kd->i", de, favg)
    return float(coeffs @ pairings)


def ogawa_partial_sum_stieltjes(
    field: VectorField,
    path: SamplePath,
    family: BasisFamily,
    n: int,
    order: EnumerationOrder | str | None = None,
) -> float:
    """g_n as the Stieltjes integral of f against the partial-sum path W_n.

    Agrees with the coefficient route to roundoff at every finite n.
    """
    _check_field_path(field, path)
    wn = approximate_wiener(path, family, n, order)
    favg = _cell_averages(field.alpha(path.values))
    return float(np.sum(favg * wn.increments))


def cameron_martin_inner(a: SamplePath, b: SamplePath) -> float:
    """Discrete Cameron-Martin inner product sum_k (da_k . db_k) / dt."""
    if a.grid != b.grid:
        raise ValueError("paths live on different grids")
    return float(np.sum(a.increments * b.increments) / a.grid.dt)


def ogawa_partial_sum_inner(
    field: VectorField,
    path: SamplePath,
    family: BasisFamily,
    n: int,
    order: EnumerationOrder | str | None = None,
) -> float:
    """g_n as the inner product of G(omega) with the projected path.

    Specific to the canonical integrand f = alpha(omega); a cross-check of
    the coefficient route.
    """
    g = evaluate_G(field, path)
    gamma_n = approximate_wiener(path, family, n, order)
    return cameron_martin_inner(g, gamma_n)


# ---------------------------------------------------------------------------
# renormalization trace
# ---------------------------------------------------------------------------


def _midpoint_jacobians(field: VectorField, path: SamplePath) -> np.ndarray:
    """Jacobian of alpha at linearly interpolated cell-midpoint path values."""
    mids = _cell_averages(path.values)
    return field.jacobian(mids)


def diagonal_entries(
    field: VectorField,
    path: SamplePath,
    family: BasisFamily,
    n: int,
    order: EnumerationOrder | str | None = None,
) -> np.ndarray:
    """Trace summands <phi_i, T phi_i> for the first n elements, shape (n,).

    Each summand is int_0^1 phi_i(t) . (e_i(t) . grad) alpha(omega(t)) dt by
    cell-midpoint quadrature; the running renormalization term is the
    cumulative sum of this array.  The elements are taken in blocks
    (:meth:`BasisFamily.blocks`): the midpoint phi and primitive stacks and
    their Jacobian product are held for one block at a time, never for all
    n, and each block runs the same two einsums, which give every entry the
    bytes of one einsum pair over all n.
    """
    mids = path.grid.midpoints
    jac = _midpoint_jacobians(field, path)  # (N, d, d)
    entries = np.empty(n)
    for rows, block in family.blocks(n, order, len(mids)):
        phi = block.phi_stack(mids, block.size)
        je = np.einsum("kjl,ikl->ikj", jac, block.primitive_stack(mids, block.size))
        entries[rows] = np.einsum("ikj,ikj->i", phi, je)
    return entries * path.grid.dt


def renormalization_term(
    field: VectorField,
    path: SamplePath,
    family: BasisFamily,
    n: int,
    order: EnumerationOrder | str | None = None,
) -> float:
    """Partial trace r_n = sum_{i<=n} <phi_i, T phi_i> of the derivative operator.

    For linear fields the Jacobian is constant and r_n does not depend on
    the path.
    """
    return float(np.sum(diagonal_entries(field, path, family, n, order)))


def renormalized_sum(
    field: VectorField,
    path: SamplePath,
    family: BasisFamily,
    n: int,
    order: EnumerationOrder | str | None = None,
) -> float:
    """h_n = g_n - r_n for the canonical integrand f = alpha(omega)."""
    g = ogawa_partial_sum(field, path, family, n, order)
    r = renormalization_term(field, path, family, n, order)
    return g - r


# ---------------------------------------------------------------------------
# Wong-Zakai and reference integrals
# ---------------------------------------------------------------------------


def wong_zakai_sum(
    field: VectorField,
    path: SamplePath,
    family: BasisFamily,
    n: int,
    order: EnumerationOrder | str | None = None,
) -> float:
    """Pathwise integral of alpha along the projected path:
    g'_n = int_0^1 alpha(omega_n(t)) . omega_n'(t) dt with omega_n = W_n.

    Trapezoid-in-alpha against the increments of omega_n, so for alpha(x)=x
    the sum telescopes to omega_n(1)^2 / 2 exactly.
    """
    wn = approximate_wiener(path, family, n, order)
    aavg = _cell_averages(field.alpha(wn.values))
    return float(np.sum(aavg * wn.increments))


def ito_integral(field: VectorField, path: SamplePath) -> float:
    """Left-point Riemann sum sum_k alpha(omega(t_k)) . (omega(t_{k+1}) - omega(t_k))."""
    a_left = field.alpha(path.values[:-1])
    return float(np.sum(a_left * path.increments))


def stratonovich_integral(field: VectorField, path: SamplePath) -> float:
    """Midpoint rule sum_k alpha((omega(t_k) + omega(t_{k+1})) / 2) . d(omega)_k."""
    a_mid = field.alpha(_cell_averages(path.values))
    return float(np.sum(a_mid * path.increments))


def divergence_quadrature(field: VectorField, path: SamplePath) -> float:
    """Trapezoid quadrature of int_0^1 div(alpha)(omega(t)) dt."""
    div = field.divergence(path.values)
    return float(np.trapezoid(div, dx=path.grid.dt))


def conversion_gap(field: VectorField, path: SamplePath) -> float:
    """Stratonovich minus Ito minus half the divergence quadrature.

    Vanishes in the mean at rate dt^(1/2); the discrete face of the
    Ito/Stratonovich conversion formula.
    """
    return (
        stratonovich_integral(field, path)
        - ito_integral(field, path)
        - 0.5 * divergence_quadrature(field, path)
    )


# ---------------------------------------------------------------------------
# per-path ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationStage:
    """One rung of a truncation schedule: which family prefix realizes n.

    For infinite families ``n_elements`` equals the reported ``label``; for
    the piecewise-linear route each label is a level with its own finite
    family of d * level elements.
    """

    label: int
    family: BasisFamily
    n_elements: int
    order: EnumerationOrder

    @classmethod
    def for_schedule(
        cls,
        family: BasisFamily,
        schedule: Sequence[int],
        order: EnumerationOrder | str | None = None,
    ) -> list["TruncationStage"]:
        order = EnumerationOrder.parse(order)
        return [cls(int(n), family, int(n), order) for n in schedule]


@dataclass(frozen=True)
class OgawaLedger:
    """Per-path record of g_n, r_n, h_n, g'_n and the two reference integrals."""

    basis: str
    order: str
    schedule: tuple[int, ...]
    g: np.ndarray
    r: np.ndarray
    h: np.ndarray
    gprime: np.ndarray
    ito: float
    strat: float


def build_ledger(
    field: VectorField,
    path: SamplePath,
    stages: Sequence[TruncationStage],
) -> OgawaLedger:
    """Evaluate all ledger columns for one path across a truncation schedule."""
    g = np.empty(len(stages))
    r = np.empty(len(stages))
    gp = np.empty(len(stages))
    for idx, st in enumerate(stages):
        g[idx] = ogawa_partial_sum(field, path, st.family, st.n_elements, st.order)
        r[idx] = renormalization_term(field, path, st.family, st.n_elements, st.order)
        gp[idx] = wong_zakai_sum(field, path, st.family, st.n_elements, st.order)
    return OgawaLedger(
        basis=stages[0].family.name,
        order=stages[0].order.spec,
        schedule=tuple(st.label for st in stages),
        g=g,
        r=r,
        h=g - r,
        gprime=gp,
        ito=ito_integral(field, path),
        strat=stratonovich_integral(field, path),
    )


def dump_ledgers_csv(ledgers: Sequence[OgawaLedger], file) -> None:
    """Write ledgers as CSV ``path_index,n,g,r,h,gprime,ito,strat``."""
    rows = (
        (idx, n, led.g[s], led.r[s], led.h[s], led.gprime[s], led.ito, led.strat)
        for idx, led in enumerate(ledgers)
        for s, n in enumerate(led.schedule)
    )
    write_csv(file, ("path_index", "n", "g", "r", "h", "gprime", "ito", "strat"), rows)
