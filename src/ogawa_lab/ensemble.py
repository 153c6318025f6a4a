"""Vectorized ledger evaluation over path ensembles.

Each path is drawn from its own counter-derived stream, so its increments do
not depend on chunking; the ledger columns come from GEMMs over whole
chunks, so their bytes are fixed per BLAS build and chunk shape.  All
requested basis/order combinations share one ensemble (common random
numbers), and every reduction runs in fixed path order.  Each stage list
gets one plan: basis stacks and trace entries are evaluated once at its
largest prefix, and every stage reads leading-row views of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import OgawaLedger, TruncationStage, diagonal_entries
from .fields import VectorField
from .paths import RngSpec, SamplePath, TimeGrid, brownian_increments


@dataclass(frozen=True)
class EnsembleLedger:
    """Ledger columns for a whole ensemble: arrays indexed (path, stage)."""

    basis: str
    order: str
    schedule: tuple[int, ...]
    g: np.ndarray        # (M, S)
    r: np.ndarray        # (M, S)
    h: np.ndarray        # (M, S)
    gprime: np.ndarray   # (M, S); NaN when not evaluated
    ito: np.ndarray      # (M,)
    strat: np.ndarray    # (M,)
    trace_entries: np.ndarray | None = None  # (n,) largest stage; None if path-dependent

    @property
    def num_paths(self) -> int:
        return self.g.shape[0]

    def path_ledger(self, index: int) -> OgawaLedger:
        return OgawaLedger(
            basis=self.basis,
            order=self.order,
            schedule=self.schedule,
            g=self.g[index],
            r=self.r[index],
            h=self.h[index],
            gprime=self.gprime[index],
            ito=float(self.ito[index]),
            strat=float(self.strat[index]),
        )


@dataclass
class _StagePlan:
    stage: TruncationStage
    phi_left: np.ndarray   # (n, N, d) leading rows of the shared left-node stack
    de: np.ndarray         # (n, N, d) leading rows of the shared exact cell integrals
    phi_mid: np.ndarray | None  # (n, N, d) leading rows, for path-dependent traces
    prim_mid: np.ndarray | None
    r_value: float | None  # sum of the first n shared trace entries (constant Jacobians)


def _plan_stages(
    field: VectorField, grid: TimeGrid, stages: Sequence[TruncationStage]
) -> tuple[list[_StagePlan], np.ndarray | None]:
    """Stage plans, and the trace entries of the largest stage.  Stages of one
    family and order are prefixes of one enumeration (per-level ``plin``
    stages are not), so their stacks are evaluated once, at the largest n."""
    shared: dict = {}  # (family, order) -> stacks, largest stage's first
    for st in sorted(stages, key=lambda st: st.n_elements, reverse=True):
        fam, n, order = st.family, st.n_elements, st.order
        if (fam, order) in shared:
            continue
        phi_left = fam.phi_stack(grid.times[:-1], n, order)
        de = fam.primitive_cell_increments(grid, n, order)
        if field.constant_jacobian:
            probe = SamplePath.zero(grid, field.dim)
            trace = (diagonal_entries(field, probe, fam, n, order), None, None)
        else:
            mids = grid.midpoints
            trace = (None, fam.phi_stack(mids, n, order), fam.primitive_stack(mids, n, order))
        shared[fam, order] = (phi_left, de, *trace)

    plans = []
    for st in stages:
        phi_left, de, entries, phi_mid, prim_mid = (
            None if a is None else a[: st.n_elements] for a in shared[st.family, st.order]
        )
        r_value = None if entries is None else float(np.sum(entries))
        plans.append(_StagePlan(st, phi_left, de, phi_mid, prim_mid, r_value))
    return plans, next(iter(shared.values()))[2]


def build_ensemble_ledgers(
    field: VectorField,
    stage_lists: Sequence[Sequence[TruncationStage]],
    grid: TimeGrid,
    num_paths: int,
    rng: RngSpec,
    chunk_size: int = 256,
    with_gprime: bool = True,
) -> list[EnsembleLedger]:
    """Evaluate ledgers for several basis/order choices on one shared ensemble.

    Returns one EnsembleLedger per entry of ``stage_lists``, all computed
    from the same paths (path i always comes from stream i of ``rng``).
    """
    dim = field.dim
    n_steps = grid.num_steps
    dt = grid.dt
    planned = [_plan_stages(field, grid, stages) for stages in stage_lists]
    plan_lists = [plans for plans, _ in planned]

    out_g = [np.empty((num_paths, len(p))) for p in plan_lists]
    out_r = [np.empty((num_paths, len(p))) for p in plan_lists]
    out_gp = [np.full((num_paths, len(p)), np.nan) for p in plan_lists]
    ito = np.empty(num_paths)
    strat = np.empty(num_paths)

    for start in range(0, num_paths, chunk_size):
        stop = min(start + chunk_size, num_paths)
        m = stop - start
        dw = np.stack(
            [brownian_increments(grid, dim, rng, i) for i in range(start, stop)]
        )  # (m, N, d)
        values = np.concatenate(
            [np.zeros((m, 1, dim)), np.cumsum(dw, axis=1)], axis=1
        )  # (m, N+1, d)
        alpha = field.alpha(values)
        favg = 0.5 * (alpha[:, :-1] + alpha[:, 1:])
        ito[start:stop] = np.einsum("mkd,mkd->m", alpha[:, :-1], dw)
        mids = 0.5 * (values[:, :-1] + values[:, 1:])
        strat[start:stop] = np.einsum("mkd,mkd->m", field.alpha(mids), dw)

        jac_mid = None
        if not field.constant_jacobian:
            jac_mid = field.jacobian(mids)  # (m, N, d, d)

        dw_flat = dw.reshape(m, -1)
        favg_flat = favg.reshape(m, -1)
        for si, plans in enumerate(plan_lists):
            for pi, plan in enumerate(plans):
                n = plan.stage.n_elements
                phi_flat = plan.phi_left.reshape(n, -1)
                de_flat = plan.de.reshape(n, -1)
                coeffs = dw_flat @ phi_flat.T       # (m, n)
                pairings = favg_flat @ de_flat.T    # (m, n)
                out_g[si][start:stop, pi] = np.einsum("mi,mi->m", coeffs, pairings)

                if plan.r_value is not None:
                    out_r[si][start:stop, pi] = plan.r_value
                else:
                    trace = np.zeros(m)
                    for j in range(dim):
                        for l in range(dim):
                            t_il = (plan.phi_mid[:, :, j] * plan.prim_mid[:, :, l]).sum(axis=0)
                            trace += jac_mid[:, :, j, l] @ t_il
                    out_r[si][start:stop, pi] = trace * dt

                if with_gprime:
                    dwn = (coeffs @ de_flat).reshape(m, n_steps, dim)
                    wn = np.concatenate(
                        [np.zeros((m, 1, dim)), np.cumsum(dwn, axis=1)], axis=1
                    )
                    an = field.alpha(wn)
                    aavg = 0.5 * (an[:, :-1] + an[:, 1:])
                    out_gp[si][start:stop, pi] = np.einsum("mkd,mkd->m", aavg, dwn)

    ledgers = []
    for si, (plans, trace_entries) in enumerate(planned):
        ledgers.append(
            EnsembleLedger(
                basis=plans[0].stage.family.name,
                order=plans[0].stage.order.spec,
                schedule=tuple(p.stage.label for p in plans),
                g=out_g[si],
                r=out_r[si],
                h=out_g[si] - out_r[si],
                gprime=out_gp[si],
                ito=ito,
                strat=strat,
                trace_entries=trace_entries,
            )
        )
    return ledgers
