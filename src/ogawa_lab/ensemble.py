"""Vectorized ledger evaluation over path ensembles.

Each path is drawn from its own counter-derived stream, so its increments do
not depend on chunking; the ledger columns come from GEMMs over whole
chunks, so their bytes are fixed per BLAS build and chunk shape.  All other
work acts on each path alone and runs on row blocks of about
``ROW_BLOCK_BYTES`` per path array, written into buffers reused across
chunks; the blocks split a chunk near-equally and move no byte against
whole-chunk evaluation.  All requested basis/order combinations share one
ensemble (common random numbers), and every reduction runs in fixed path
order.  Each basis family gets one plan across all stage lists: basis stacks
and zero-path trace entries are evaluated once over the union of the labels
its orders need, each order's stacks are leading rows of that union or one
gathered copy of its rows, and every stage reads leading-row views of its
order's stacks.  Path-dependent trace vectors are per order, not per union:
one :func:`engine.trace_vectors` call gives every stage size of an order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bases import row_blocks
from .engine import OgawaLedger, TruncationStage, diagonal_entries, trace_vectors
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
    trace_vectors: np.ndarray | None  # (d, d, N) path-dependent traces, see _plan_stages
    r_value: float | None  # sum of the first n shared trace entries (constant Jacobians)


def _order_key(st: TruncationStage) -> tuple:
    return st.family.name, st.family.dim, st.order


def _plan_stages(
    field: VectorField, grid: TimeGrid, stage_lists: Sequence[Sequence[TruncationStage]]
) -> tuple[list[list[_StagePlan]], list[np.ndarray | None]]:
    """Stage plans per stage list, and each list's largest-stage trace entries.

    Stages of one family and order are prefixes of one enumeration, and the
    orders of one family enumerate one label set.  So each family, keyed by
    name and dim (per-level ``plin`` families keep distinct names), is
    evaluated once over the union of the labels its orders need: the first
    order's largest prefix, then the labels later orders add, in first-seen
    order.  An order whose labels lead the union reads leading rows of the
    union's stacks; any other gets one gathered copy of its rows.  Every
    stage then reads leading rows of its order's stacks.  For a constant
    Jacobian the union's zero-path trace entries are stacked the same way.

    For a path-dependent Jacobian each order instead gets the trace vectors
    of all its stage sizes from one :func:`trace_vectors` call, and each
    stage stores its own (d, d, N) array."""
    sizes: dict = {}  # (name, dim, order) -> (a family of that order, its stage sizes)
    for st in (st for stages in stage_lists for st in stages):
        sizes.setdefault(_order_key(st), (st.family, set()))[1].add(st.n_elements)
    families: dict = {}  # (name, dim) -> [(key, labels)], orders in first-seen order
    for key, (family, ns) in sizes.items():
        families.setdefault(key[:2], []).append((key, family.labels(max(ns), key[2])))

    stacks: dict = {}  # (name, dim, order) -> phi, E and trace entries of its largest stage
    for members in families.values():
        union = list(dict.fromkeys(lab for _, labels in members for lab in labels))
        family = sizes[members[0][0]][0].enumerating(union)
        phi_left = family.phi_stack(grid.times[:-1], len(union))
        de = family.primitive_cell_increments(grid, len(union))
        entries = None
        if field.constant_jacobian:
            probe = SamplePath.zero(grid, field.dim)
            entries = diagonal_entries(field, probe, family, len(union))
        index = {lab: i for i, lab in enumerate(union)}
        for key, labels in members:
            rows = [index[lab] for lab in labels]
            take = slice(len(rows)) if rows == list(range(len(rows))) else np.array(rows)
            stacks[key] = (phi_left[take], de[take], None if entries is None else entries[take])

    vectors: dict = {}  # (name, dim, order, n) -> trace vectors of that stage
    if not field.constant_jacobian:
        for key, (family, ns) in sizes.items():
            ns = sorted(ns)
            vectors.update(zip((key + (n,) for n in ns), trace_vectors(family, ns, key[2], grid)))

    plan_lists, top_entries = [], []
    for stages in stage_lists:
        plans = []
        for st in stages:
            key, n = _order_key(st), st.n_elements
            phi_left, de, entries = stacks[key]
            r_value = None if entries is None else float(np.sum(entries[:n]))
            plans.append(_StagePlan(st, phi_left[:n], de[:n], vectors.get(key + (n,)), r_value))
        top = max(stages, key=lambda st: st.n_elements)
        entries = stacks[_order_key(top)][2]
        plan_lists.append(plans)
        top_entries.append(None if entries is None else entries[: top.n_elements])
    return plan_lists, top_entries


ROW_BLOCK_BYTES = 1 << 20  # target size of one (rows, N+1, d) float64 path block


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
    Paths are taken ``chunk_size`` at a time: the GEMMs see whole chunks,
    the per-path work runs on row blocks of each chunk.
    """
    dim = field.dim
    n_steps = grid.num_steps
    dt = grid.dt
    plan_lists, top_entries = _plan_stages(field, grid, stage_lists)
    traced = [
        (si, pi, plan.trace_vectors)
        for si, plans in enumerate(plan_lists)
        for pi, plan in enumerate(plans)
        if plan.trace_vectors is not None
    ]

    out_g = [np.empty((num_paths, len(p))) for p in plan_lists]
    # r_value on every path; traced columns (NaN here) are filled per row block
    r_values = [np.array([p.r_value for p in plans], dtype=float) for plans in plan_lists]
    out_r = [np.tile(r, (num_paths, 1)) for r in r_values]
    out_gp = [np.full((num_paths, len(p)), np.nan) for p in plan_lists]
    ito = np.empty(num_paths)
    strat = np.empty(num_paths)

    # buffers shared by every chunk: chunk-wide GEMM operands, and row blocks
    # of the path (W(0) = 0 is set here once) and of cell averages
    chunk = min(chunk_size, num_paths)
    width = (n_steps + 1) * dim
    sizes = {chunk, num_paths % chunk or chunk}
    max_rows = max(b - a for m in sizes for a, b in row_blocks(m, width, ROW_BLOCK_BYTES))
    dw_buf = np.empty((chunk, n_steps, dim))
    favg_buf = np.empty_like(dw_buf)
    dwn_buf = np.empty_like(dw_buf) if with_gprime else None
    path_buf = np.zeros((max_rows, n_steps + 1, dim))
    avg_buf = np.empty((max_rows, n_steps, dim))

    def cell_average(values: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.add(values[:, :-1], values[:, 1:], out=out)
        out *= 0.5
        return out

    def path_block(increments: np.ndarray) -> np.ndarray:
        values = path_buf[: len(increments)]
        np.cumsum(increments, axis=1, out=values[:, 1:])
        return values

    for start in range(0, num_paths, chunk_size):
        stop = min(start + chunk_size, num_paths)
        m = stop - start
        blocks = row_blocks(m, width, ROW_BLOCK_BYTES)
        dw, favg = dw_buf[:m], favg_buf[:m]
        for i in range(m):
            dw[i] = brownian_increments(grid, dim, rng, start + i)

        for a, b in blocks:
            rows = slice(start + a, start + b)
            values = path_block(dw[a:b])
            alpha = field.alpha(values)
            cell_average(alpha, favg[a:b])
            ito[rows] = np.einsum("mkd,mkd->m", alpha[:, :-1], dw[a:b])
            mids = cell_average(values, avg_buf[: b - a])
            strat[rows] = np.einsum("mkd,mkd->m", field.alpha(mids), dw[a:b])
            if traced:
                jac_mid = field.jacobian(mids)  # (rows, N, d, d)
                for si, pi, vectors in traced:
                    trace = np.zeros(b - a)
                    for j in range(dim):
                        for l in range(dim):
                            trace += np.einsum("mk,k->m", jac_mid[:, :, j, l], vectors[j, l])
                    out_r[si][rows, pi] = trace * dt

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
                if not with_gprime:
                    continue
                dwn = dwn_buf[:m]
                np.matmul(coeffs, de_flat, out=dwn.reshape(m, -1))
                for a, b in blocks:
                    an = field.alpha(path_block(dwn[a:b]))
                    aavg = cell_average(an, avg_buf[: b - a])
                    out_gp[si][start + a : start + b, pi] = np.einsum("mkd,mkd->m", aavg, dwn[a:b])

    ledgers = []
    for si, (plans, trace_entries) in enumerate(zip(plan_lists, top_entries)):
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
