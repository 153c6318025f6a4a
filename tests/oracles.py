"""Reference routes and round-trip readers that only the tests use.

Each function here is a plain, unoptimized form of something the package
computes another way: the tests compare the package against it.
"""

import math

import numpy as np

from ogawa_lab import SamplePath, TimeGrid
from ogawa_lab.harness import ConvergenceReport, EstimatorRow

_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# bases and trace entries
# ---------------------------------------------------------------------------


def closed_form(label: tuple, dim: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi(t) and e(t) of one element from its own cos/sin calls, (len(t), dim) each.

    Each element calls cos and sin itself, with the closed forms written
    out; a stack row, which reads a shared trig table, must hold these
    bytes.  Labels are the elements' own (``BasisElement.label``).
    """
    t = np.asarray(t, dtype=float)
    phi, prim = np.zeros((len(t), dim)), np.zeros((len(t), dim))
    if label[1] == "const":
        slot = label[2]
        phi[:, slot], prim[:, slot] = 1.0, t
    elif label[0] == "psi":
        _, freq, slot, kind = label
        w = 2.0 * math.pi * freq
        if kind == "cos":
            phi[:, slot] = _SQRT2 * np.cos(w * t)
            prim[:, slot] = _SQRT2 * np.sin(w * t) / w
        else:
            phi[:, slot] = _SQRT2 * np.sin(w * t)
            prim[:, slot] = _SQRT2 * (1.0 - np.cos(w * t)) / w
    elif label[0] == "xi":
        _, freq, slot = label
        w = 2.0 * math.pi * freq
        sign = -1.0 if slot in (3, 4) else 1.0
        c, s = np.cos(w * t), np.sin(w * t)
        ic, is_ = np.sin(w * t) / w, (1.0 - np.cos(w * t)) / w
        first_is_cos = slot in (1, 3)
        phi[:, 0] = sign * (c if first_is_cos else s)
        phi[:, 1] = s if first_is_cos else c
        prim[:, 0] = sign * (ic if first_is_cos else is_)
        prim[:, 1] = is_ if first_is_cos else ic
    elif label[0] == "haar":
        _, level, pos, slot = label
        a, mid, b = pos / 2.0**level, (pos + 0.5) / 2.0**level, (pos + 1.0) / 2.0**level
        amp = 2.0 ** (level / 2.0)
        phi[:, slot] = amp * (_indicator(t, a, mid) - _indicator(t, mid, b))
        prim[:, slot] = amp * (np.clip(t, a, mid) - a) - amp * (np.clip(t, mid, b) - mid)
    else:
        _, level, pos, slot = label
        a, b, amp = pos / level, (pos + 1.0) / level, math.sqrt(level)
        phi[:, slot] = amp * _indicator(t, a, b)
        prim[:, slot] = amp * (np.clip(t, a, b) - a)
    return phi, prim


def _indicator(t, a, b):
    hit = (t >= a) & (t < b)
    if b >= 1.0:
        hit |= t == 1.0
    return hit.astype(float)


def _midpoint_jacobians(field, path: SamplePath) -> np.ndarray:
    return field.jacobian(0.5 * (path.values[:-1] + path.values[1:]))


def diagonal_entries_one_block(field, path: SamplePath, family, n: int, order=None) -> np.ndarray:
    """Trace summands <phi_i, T phi_i> from whole midpoint stacks and one
    einsum pair over all n elements: the unblocked formula."""
    mids = path.grid.midpoints
    phi = family.phi_stack(mids, n, order)
    prim = family.primitive_stack(mids, n, order)
    je = np.einsum("kjl,ikl->ikj", _midpoint_jacobians(field, path), prim)
    return np.einsum("ikj,ikj->i", phi, je) * path.grid.dt


def diagonal_entry(field, path: SamplePath, elem) -> float:
    """Single trace summand <phi, T phi> for one basis element."""
    mids = path.grid.midpoints
    je = np.einsum("kjl,kl->kj", _midpoint_jacobians(field, path), elem.primitive(mids))
    return float(np.sum(elem.phi(mids) * je) * path.grid.dt)


# ---------------------------------------------------------------------------
# kernels and spectra
# ---------------------------------------------------------------------------


def _half_diagonal_indicator(n: int) -> np.ndarray:
    chi = np.zeros((n + 1, n + 1))
    rows, cols = np.tril_indices(n + 1, k=-1)
    chi[rows, cols] = 1.0
    np.fill_diagonal(chi, 0.5)
    return chi


def dense_kernel(kernel) -> np.ndarray:
    """Materialize a DiscreteKernel as an array K[j, k, l, i] (small grids only)."""
    n = kernel.grid.num_steps
    if (n + 1) ** 2 * kernel.dim**2 > 2 * 10**7:
        raise ValueError("dense kernel requested on too fine a grid")
    # K[j, k, l, i] = jac[k, j, i] * chi[k, l]
    return np.einsum("kji,kl->jkli", kernel.jacobians, _half_diagonal_indicator(n))


def dense_hs_norm_squared(kernel) -> float:
    """Squared Frobenius norm of the materialized kernel times cell areas.

    The indicator is a projector (chi^2 = chi), so the squared kernel keeps
    the half-weight diagonal linearly instead of squaring it.
    """
    n = kernel.grid.num_steps
    w = np.full(n + 1, kernel.grid.dt)
    w[[0, -1]] *= 0.5
    frob = np.einsum("kji,kji->k", kernel.jacobians, kernel.jacobians)
    return float(np.einsum("k,kl,k,l->", frob, _half_diagonal_indicator(n), w, w))


def eigenfunction_values(t: np.ndarray, n: int, j: int, form) -> np.ndarray:
    """Closed-form eigenfunction sin((pi/2 + n pi) t) u_j on given times, (m, 2)."""
    shape = np.sin((math.pi / 2 + n * math.pi) * np.asarray(t, dtype=float))
    return shape[:, None] * form.eigenvectors[:, j][None, :]


# ---------------------------------------------------------------------------
# CSV readers
# ---------------------------------------------------------------------------


def load_path_csv(file, grid: TimeGrid | None = None) -> SamplePath:
    """Inverse of ``dump_path_csv``."""
    rows = [line.strip() for line in file if line.strip()]
    data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    return SamplePath(grid or TimeGrid(data.shape[0] - 1), data[:, 1:])


def parse_report(file) -> ConvergenceReport:
    """Inverse of ``emit_report``."""
    lines = [line.strip() for line in file if line.strip()]
    rows = []
    for line in lines[1:]:
        estimator, n, value, stderr, m = line.split(",")
        rows.append(EstimatorRow(estimator, int(n), float(value), float(stderr), int(m)))
    return ConvergenceReport(tuple(rows))
