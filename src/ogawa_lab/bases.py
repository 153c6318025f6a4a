"""Orthonormal families of L^2([0,1]; R^d) with closed-form primitives.

Four families are provided:

* ``psi-trig``   -- componentwise trigonometric system: the d constants
  followed, frequency by frequency, by sqrt(2) cos(2 pi m t) and
  sqrt(2) sin(2 pi m t) placed in each coordinate slot.
* ``xi-mixed``   -- a d = 2 system whose oscillatory elements couple the two
  coordinates: (cos, sin), (sin, cos), (-cos, sin), (-sin, cos) at each
  frequency, after the two constants.
* ``haar``       -- the dyadic Haar system per coordinate slot, coordinates
  interleaved within each dyadic level.
* ``plin:<n>``   -- the finite ramp family spanning piecewise-linear paths
  with knots at i/n: derivatives sqrt(n) 1_[i/n,(i+1)/n], primitives ramping
  to the plateau 1/sqrt(n).

Every element carries closed-form writers for phi(t) and for its primitive
e(t) = int_0^t phi; no primitive is obtained by numerical integration.
Indicator-type elements use half-open supports [a, b) (closed at t = 1) so
that left-point Stieltjes sums against grid-aligned knots telescope exactly.

Stacks are written in place.  A stack call allocates one (n, len(t), d)
array, computes cos(2 pi m t) and sin(2 pi m t) once per frequency m in a
table that lives for that call only, and writes each element's row from the
table.  ``BasisElement.phi`` and ``.primitive`` are one-row stacks, so a
single element and a stack row share one formula and one set of bytes.
Callers that must not hold a whole stack take it in blocks of elements
(:meth:`BasisFamily.blocks`).

Enumeration order is a first-class knob: ``balanced`` walks the natural
sequence above, ``adversarial:<K>`` (xi-mixed only) front-loads slots 1 and
4 for frequencies 1..K before the deferred slots 2 and 3, which changes the
value of order-sensitive diagonal sums.

A prefix is exact on a grid of N cells (Gram matrix and trace entries to
roundoff) when its trig frequencies stay below N/2 and its breakpoints lie
on grid nodes; :meth:`BasisFamily.check_grid` enforces both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable

import numpy as np

from .paths import TimeGrid

Label = Hashable


class _TrigTable:
    """cos(w t) and sin(w t), w = 2 pi m, for one frequency m and one time
    array, with the primitive quotients computed on first use.  A table lives
    inside one stack call only."""

    def __init__(self, t: np.ndarray, freq: int):
        self.w = 2.0 * math.pi * freq
        wt = self.w * t
        self.cos = np.cos(wt)
        self.sin = np.sin(wt)

    @cached_property
    def one_minus_cos(self) -> np.ndarray:
        return 1.0 - self.cos

    @cached_property
    def int_cos(self) -> np.ndarray:
        """int_0^t cos(w s) ds."""
        return self.sin / self.w

    @cached_property
    def int_sin(self) -> np.ndarray:
        """int_0^t sin(w s) ds."""
        return self.one_minus_cos / self.w


# writer(t, table, row) fills the zeroed (len(t), dim) ``row`` at times t from
# the element's trig table (None for elements with freq = 0)
Writer = Callable[[np.ndarray, "_TrigTable | None", np.ndarray], None]


@dataclass(frozen=True)
class BasisElement:
    """One orthonormal element: writers of phi(t) and e(t) = int_0^t phi.

    ``freq`` is the trigonometric frequency whose table the writers read (0
    for none).  The evaluators :meth:`phi` and :meth:`primitive` accept an
    array of times with shape (m,) and return values of shape (m, dim).
    """

    dim: int
    label: tuple
    write_phi: Writer
    write_primitive: Writer
    freq: int = 0

    def phi(self, t: np.ndarray) -> np.ndarray:
        return _stack([self], t, "write_phi")[0]

    def primitive(self, t: np.ndarray) -> np.ndarray:
        return _stack([self], t, "write_primitive")[0]


def _stack(elements: list[BasisElement], t: np.ndarray, writer: str) -> np.ndarray:
    """Rows of ``writer`` for each element at times t, shape (n, len(t), dim).

    Elements of one frequency read one trig table, made and dropped here."""
    t = np.asarray(t, dtype=float)
    out = np.zeros((len(elements), len(t), elements[0].dim))
    by_freq: dict[int, list[int]] = {}
    for i, el in enumerate(elements):
        by_freq.setdefault(el.freq, []).append(i)
    for freq, rows in by_freq.items():
        table = _TrigTable(t, freq) if freq else None
        for i in rows:
            getattr(elements[i], writer)(t, table, out[i])
    return out


STACK_BLOCK_BYTES = 1 << 22  # target size of one (elements, len(t), d) float64 block


def row_blocks(m: int, width: int, budget: int) -> list[tuple[int, int]]:
    """Split m rows of ``width`` float64 values each into near-equal blocks of
    about ``budget`` bytes, one row at least."""
    rows = max(1, budget // (8 * width))
    count = max(1, -(-m // rows))
    return [(m * b // count, m * (b + 1) // count) for b in range(count)]


@dataclass(frozen=True)
class EnumerationOrder:
    """A bijection from positions 1..n onto a family's natural label set.

    ``balanced`` is the identity on the natural order.  ``adversarial`` with
    ``front_load = K`` lists, after the two constants, slots 1 and 4 for
    frequencies 1..K, then the deferred slots 2 and 3 for the same
    frequencies, then whole blocks from frequency K+1 on.  It is defined for
    the xi-mixed family only.
    """

    name: str
    front_load: int = 0

    @property
    def spec(self) -> str:
        """Round-trippable name: ``balanced`` or ``adversarial:<K>``."""
        return self.name if self.front_load == 0 else f"{self.name}:{self.front_load}"

    @classmethod
    def parse(cls, spec: "EnumerationOrder | str | None") -> "EnumerationOrder":
        if spec is None:
            return BALANCED
        if isinstance(spec, EnumerationOrder):
            return spec
        if spec == "balanced":
            return BALANCED
        if spec.startswith("adversarial:"):
            k = int(spec.split(":", 1)[1])
            if k < 1:
                raise ValueError(f"adversarial order needs K >= 1, got {k}")
            return cls("adversarial", k)
        raise ValueError(f"unknown enumeration order {spec!r}")


BALANCED = EnumerationOrder("balanced")


def adversarial(front_load: int) -> EnumerationOrder:
    return EnumerationOrder.parse(f"adversarial:{front_load}")


class BasisFamily:
    """An enumerated orthonormal system with closed-form elements.

    Instances are immutable; element evaluation is pure and reentrant.
    ``size`` is None for infinite families and the element count for finite
    ones (the piecewise-linear levels).  ``grid_needs(label)`` gives an
    element's trig frequency m and the denominator q of its breakpoints
    (multiples of 1/q), read from the label alone so that a prefix can be
    checked against a grid without building its elements.
    """

    def __init__(
        self,
        name: str,
        dim: int,
        natural_labels: Callable[[int], list],
        make_element: Callable[[tuple], BasisElement],
        grid_needs: Callable[[tuple], tuple[int, int]],
        size: int | None = None,
        supports_adversarial: bool = False,
    ):
        self.name = name
        self.dim = dim
        self.size = size
        self._natural_labels = natural_labels
        self._make_element = make_element
        self._grid_needs = grid_needs
        self._supports_adversarial = supports_adversarial
        self._cache: dict[tuple, BasisElement] = {}

    def __repr__(self) -> str:
        return f"BasisFamily({self.name!r}, dim={self.dim})"

    def labels(self, n: int, order: EnumerationOrder | str | None = None) -> list:
        """First n labels under the given enumeration order."""
        if n < 1:
            raise ValueError(f"prefix length must be >= 1, got {n}")
        if self.size is not None and n > self.size:
            raise ValueError(
                f"family {self.name} is finite with {self.size} elements; "
                f"cannot enumerate a prefix of length {n}"
            )
        order = EnumerationOrder.parse(order)
        if order.name == "balanced":
            return self._natural_labels(n)
        if not self._supports_adversarial:
            raise ValueError(
                f"order {order.name!r} is only defined for the xi-mixed family"
            )
        return _adversarial_labels(n, order.front_load)

    def element(self, label: tuple) -> BasisElement:
        elem = self._cache.get(label)
        if elem is None:
            elem = self._make_element(label)
            self._cache[label] = elem
        return elem

    def elements(
        self, n: int, order: EnumerationOrder | str | None = None
    ) -> list[BasisElement]:
        return [self.element(lab) for lab in self.labels(n, order)]

    def enumerating(self, labels: list) -> "BasisFamily":
        """This family's elements as a finite family whose balanced order
        walks ``labels``, for stacks over a set that no single order lists."""
        labels = list(labels)
        return BasisFamily(
            self.name,
            self.dim,
            lambda n: labels[:n],
            self.element,
            self._grid_needs,
            size=len(labels),
        )

    def phi_stack(
        self, t: np.ndarray, n: int, order: EnumerationOrder | str | None = None
    ) -> np.ndarray:
        """Stacked evaluations phi_i(t), shape (n, len(t), dim)."""
        return _stack(self.elements(n, order), t, "write_phi")

    def primitive_stack(
        self, t: np.ndarray, n: int, order: EnumerationOrder | str | None = None
    ) -> np.ndarray:
        """Stacked primitives e_i(t), shape (n, len(t), dim)."""
        return _stack(self.elements(n, order), t, "write_primitive")

    def blocks(
        self, n: int, order: EnumerationOrder | str | None, width: int
    ) -> list[tuple[slice, "BasisFamily"]]:
        """The first n elements as consecutive finite families, each with the
        rows it covers: near-equal blocks of about STACK_BLOCK_BYTES per stack
        at ``width`` times."""
        labels = self.labels(n, order)
        return [
            (slice(a, b), self.enumerating(labels[a:b]))
            for a, b in row_blocks(n, width * self.dim, STACK_BLOCK_BYTES)
        ]

    def primitive_cell_increments(
        self, grid: TimeGrid, n: int, order: EnumerationOrder | str | None = None
    ) -> np.ndarray:
        """Exact cell integrals int_{t_k}^{t_{k+1}} phi_i, shape (n, N, dim).

        The primitives at the nodes are stacked one block of elements at a
        time, so no (n, N+1, dim) stack is held beside the result."""
        out = np.empty((n, grid.num_steps, self.dim))
        for rows, block in self.blocks(n, order, len(grid.times)):
            prim = block.primitive_stack(grid.times, block.size)
            np.subtract(prim[:, 1:], prim[:, :-1], out=out[rows])
        return out

    def check_grid(
        self, grid: int, n: int, order: EnumerationOrder | str | None = None
    ) -> None:
        """Raise ValueError unless the first n elements are exact on ``grid``
        cells: trig frequencies below grid / 2 and breakpoints on grid nodes."""
        for label in self.labels(n, order):
            freq, knots = self._grid_needs(label)
            if 2 * freq >= grid:
                raise ValueError(
                    f"{self.name} prefix {n} reaches frequency {freq}, "
                    f"not below the Nyquist limit {grid}/2 of grid {grid}"
                )
            if grid % knots:
                raise ValueError(
                    f"{self.name} prefix {n} has breakpoints at multiples of "
                    f"1/{knots}; {knots} does not divide grid {grid}"
                )


# ---------------------------------------------------------------------------
# element constructors
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def _const_element(dim: int, slot: int, family: str) -> BasisElement:
    def phi(t, table, row):
        row[:, slot] = 1.0

    def primitive(t, table, row):
        row[:, slot] = t

    return BasisElement(dim, (family, "const", slot), phi, primitive)


def _trig_slot_element(dim: int, slot: int, freq: int, kind: str, family: str) -> BasisElement:
    if kind == "cos":

        def phi(t, table, row):
            row[:, slot] = _SQRT2 * table.cos

        def primitive(t, table, row):
            row[:, slot] = _SQRT2 * table.sin / table.w

    else:

        def phi(t, table, row):
            row[:, slot] = _SQRT2 * table.sin

        def primitive(t, table, row):
            row[:, slot] = _SQRT2 * table.one_minus_cos / table.w

    return BasisElement(dim, (family, freq, slot, kind), phi, primitive, freq=freq)


def _mixed_element(freq: int, slot: int) -> BasisElement:
    # slot 1: ( cos, sin)   slot 2: ( sin, cos)
    # slot 3: (-cos, sin)   slot 4: (-sin, cos)
    sign = -1.0 if slot in (3, 4) else 1.0
    first_is_cos = slot in (1, 3)

    def phi(t, table, row):
        row[:, 0] = sign * (table.cos if first_is_cos else table.sin)
        row[:, 1] = table.sin if first_is_cos else table.cos

    def primitive(t, table, row):
        row[:, 0] = sign * (table.int_cos if first_is_cos else table.int_sin)
        row[:, 1] = table.int_sin if first_is_cos else table.int_cos

    return BasisElement(2, ("xi", freq, slot), phi, primitive, freq=freq)


def _indicator(t: np.ndarray, a: float, b: float) -> np.ndarray:
    """Half-open indicator of [a, b), closed at the right if b == 1."""
    hit = (t >= a) & (t < b)
    if b >= 1.0:
        hit |= t == 1.0
    return hit.astype(float)


def _haar_element(dim: int, slot: int, level: int, pos: int) -> BasisElement:
    a = pos / 2.0**level
    mid = (pos + 0.5) / 2.0**level
    b = (pos + 1.0) / 2.0**level
    amp = 2.0 ** (level / 2.0)

    def phi(t, table, row):
        row[:, slot] = amp * (_indicator(t, a, mid) - _indicator(t, mid, b))

    def primitive(t, table, row):
        row[:, slot] = amp * (np.clip(t, a, mid) - a) - amp * (np.clip(t, mid, b) - mid)

    return BasisElement(dim, ("haar", level, pos, slot), phi, primitive)


def _ramp_element(dim: int, slot: int, level: int, pos: int) -> BasisElement:
    a = pos / level
    b = (pos + 1.0) / level
    amp = math.sqrt(level)

    def phi(t, table, row):
        row[:, slot] = amp * _indicator(t, a, b)

    def primitive(t, table, row):
        row[:, slot] = amp * (np.clip(t, a, b) - a)

    return BasisElement(dim, ("plin", level, pos, slot), phi, primitive)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def _trig_needs(label: tuple) -> tuple[int, int]:
    # trig labels lead with their frequency; constants have no breakpoints
    return (0, 1) if label[0] == "const" else (label[0], 1)


def component_trig_basis(d: int) -> BasisFamily:
    """Componentwise trigonometric family (psi-trig) for d in {1, 2}.

    Order: the d constants first, then frequency-major blocks of 2d
    oscillatory elements (cos then sin per coordinate slot).
    """
    if d not in (1, 2):
        raise ValueError(f"component trig basis supports d in {{1, 2}}, got {d}")

    def natural(n: int) -> list:
        labels: list = [("const", c) for c in range(d)]
        freq = 1
        while len(labels) < n:
            for slot in range(d):
                for kind in ("cos", "sin"):
                    labels.append((freq, slot, kind))
            freq += 1
        return labels[:n]

    def make(label: tuple) -> BasisElement:
        if label[0] == "const":
            return _const_element(d, label[1], "psi")
        freq, slot, kind = label
        return _trig_slot_element(d, slot, freq, kind, "psi")

    return BasisFamily("psi-trig", d, natural, make, _trig_needs)


def mixed_trig_basis() -> BasisFamily:
    """Coordinate-coupling trigonometric family (xi-mixed), d = 2 only.

    The four oscillatory elements per frequency are (cos, sin), (sin, cos),
    (-cos, sin), (-sin, cos); slots 3 and 4 are sign reflections of 1 and 2
    and are kept verbatim, which leaves the family orthonormal.
    """

    def natural(n: int) -> list:
        labels: list = [("const", 0), ("const", 1)]
        freq = 1
        while len(labels) < n:
            labels.extend((freq, j) for j in (1, 2, 3, 4))
            freq += 1
        return labels[:n]

    def make(label: tuple) -> BasisElement:
        if label[0] == "const":
            return _const_element(2, label[1], "xi")
        return _mixed_element(*label)

    return BasisFamily("xi-mixed", 2, natural, make, _trig_needs, supports_adversarial=True)


def _adversarial_labels(n: int, front_load: int) -> list:
    labels: list = [("const", 0), ("const", 1)]
    labels.extend((m, j) for m in range(1, front_load + 1) for j in (1, 4))
    labels.extend((m, j) for m in range(1, front_load + 1) for j in (2, 3))
    freq = front_load + 1
    while len(labels) < n:
        labels.extend((freq, j) for j in (1, 2, 3, 4))
        freq += 1
    return labels[:n]


def haar_basis(d: int) -> BasisFamily:
    """Dyadic Haar system per coordinate slot, d >= 1.

    Order: the d constants, then dyadic levels in increasing order with
    coordinates interleaved inside each level, so the first d * 2^(m+1)
    elements span exactly the dyadic piecewise-linear paths with 2^m knots.
    """
    if d < 1:
        raise ValueError(f"dim must be >= 1, got {d}")

    def natural(n: int) -> list:
        labels: list = [("const", c) for c in range(d)]
        level = 0
        while len(labels) < n:
            for pos in range(2**level):
                for slot in range(d):
                    labels.append((level, pos, slot))
            level += 1
        return labels[:n]

    def make(label: tuple) -> BasisElement:
        if label[0] == "const":
            return _const_element(d, label[1], "haar")
        level, pos, slot = label
        return _haar_element(d, slot, level, pos)

    def grid_needs(label: tuple) -> tuple[int, int]:
        # level l has breakpoints at multiples of 2^-(l+1)
        return (0, 1) if label[0] == "const" else (0, 2 ** (label[0] + 1))

    return BasisFamily("haar", d, natural, make, grid_needs)


def piecewise_linear_basis(level_n: int, d: int) -> BasisFamily:
    """Finite ramp family spanning piecewise-linear paths with knots i/level_n.

    d * level_n elements; derivatives are sqrt(level_n) on one knot cell and
    the primitives plateau at 1/sqrt(level_n).
    """
    if level_n < 1:
        raise ValueError(f"level must be >= 1, got {level_n}")
    if d < 1:
        raise ValueError(f"dim must be >= 1, got {d}")

    def natural(n: int) -> list:
        return [(i, c) for i in range(level_n) for c in range(d)][:n]

    def make(label: tuple) -> BasisElement:
        pos, slot = label
        return _ramp_element(d, slot, level_n, pos)

    return BasisFamily(
        f"plin:{level_n}", d, natural, make, lambda label: (0, level_n), size=d * level_n
    )


def family_from_name(name: str, dim: int) -> BasisFamily:
    """Resolve a family name: psi-trig | xi-mixed | haar | plin:<level>."""
    if name == "psi-trig":
        return component_trig_basis(dim)
    if name == "xi-mixed":
        if dim != 2:
            raise ValueError("xi-mixed requires dim = 2")
        return mixed_trig_basis()
    if name == "haar":
        return haar_basis(dim)
    if name.startswith("plin:"):
        return piecewise_linear_basis(int(name.split(":", 1)[1]), dim)
    raise ValueError(f"unknown basis family {name!r}")


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def gram_matrix(
    family: BasisFamily,
    n: int,
    grid: TimeGrid,
    order: EnumerationOrder | str | None = None,
) -> np.ndarray:
    """Pairwise L^2 inner products of the first n elements by cell-midpoint
    quadrature.  Midpoints avoid the jump nodes of indicator-type elements,
    so the Gram matrix is exact (up to roundoff) whenever breakpoints lie on
    grid nodes and trig frequencies stay below the grid Nyquist limit.
    """
    phi = family.phi_stack(grid.midpoints, n, order)
    return np.einsum("ikd,jkd->ij", phi, phi) * grid.dt


def regularity_diagnostic(
    family: BasisFamily, N: int, grid: TimeGrid
) -> np.ndarray:
    """L^2 norms of u_n(t) = sum_{i<=n} phi_i(t) . e_i(t) for n = 1..N.

    A bounded sequence is the numerical signature of a regular family;
    norms are taken by cell-midpoint quadrature.
    """
    mids = grid.midpoints
    phi = family.phi_stack(mids, N)
    prim = family.primitive_stack(mids, N)
    per_element = np.einsum("ikd,ikd->ik", phi, prim)  # (N, cells)
    partial = np.cumsum(per_element, axis=0)
    return np.sqrt(np.sum(partial**2, axis=1) * grid.dt)
