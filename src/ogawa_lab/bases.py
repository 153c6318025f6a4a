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

Every element carries a closed-form evaluator for phi(t) and for its
primitive e(t) = int_0^t phi; no primitive is obtained by numerical
integration.  Indicator-type elements use half-open supports [a, b) (closed
at t = 1) so that left-point Stieltjes sums against grid-aligned knots
telescope exactly.

Enumeration order is a first-class knob: ``balanced`` walks the natural
sequence above, ``adversarial:<K>`` (xi-mixed only) front-loads slots 1 and
4 for frequencies 1..K before the deferred slots 2 and 3, which changes the
value of order-sensitive diagonal sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from .paths import TimeGrid

Label = Hashable


@dataclass(frozen=True)
class BasisElement:
    """One orthonormal element: evaluators for phi(t) and e(t) = int_0^t phi.

    Both evaluators are vectorized: they accept an array of times with shape
    (m,) and return values of shape (m, dim).
    """

    dim: int
    label: tuple
    phi: Callable[[np.ndarray], np.ndarray]
    primitive: Callable[[np.ndarray], np.ndarray]


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
    ones (the piecewise-linear levels).
    """

    def __init__(
        self,
        name: str,
        dim: int,
        natural_labels: Callable[[int], list],
        make_element: Callable[[tuple], BasisElement],
        size: int | None = None,
        supports_adversarial: bool = False,
    ):
        self.name = name
        self.dim = dim
        self.size = size
        self._natural_labels = natural_labels
        self._make_element = make_element
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
            self.name, self.dim, lambda n: labels[:n], self.element, size=len(labels)
        )

    def phi_stack(
        self, t: np.ndarray, n: int, order: EnumerationOrder | str | None = None
    ) -> np.ndarray:
        """Stacked evaluations phi_i(t), shape (n, len(t), dim)."""
        return np.stack([el.phi(t) for el in self.elements(n, order)])

    def primitive_stack(
        self, t: np.ndarray, n: int, order: EnumerationOrder | str | None = None
    ) -> np.ndarray:
        """Stacked primitives e_i(t), shape (n, len(t), dim)."""
        return np.stack([el.primitive(t) for el in self.elements(n, order)])

    def primitive_cell_increments(
        self, grid: TimeGrid, n: int, order: EnumerationOrder | str | None = None
    ) -> np.ndarray:
        """Exact cell integrals int_{t_k}^{t_{k+1}} phi_i, shape (n, N, dim)."""
        prim = self.primitive_stack(grid.times, n, order)
        return np.diff(prim, axis=1)


# ---------------------------------------------------------------------------
# element constructors
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def _unit_slot(t: np.ndarray, dim: int, slot: int, values: np.ndarray) -> np.ndarray:
    out = np.zeros((len(t), dim))
    out[:, slot] = values
    return out


def _const_element(dim: int, slot: int, family: str) -> BasisElement:
    def phi(t: np.ndarray) -> np.ndarray:
        return _unit_slot(t, dim, slot, np.ones(len(t)))

    def primitive(t: np.ndarray) -> np.ndarray:
        return _unit_slot(t, dim, slot, np.asarray(t, dtype=float))

    return BasisElement(dim, (family, "const", slot), phi, primitive)


def _trig_slot_element(dim: int, slot: int, freq: int, kind: str, family: str) -> BasisElement:
    w = 2.0 * math.pi * freq

    if kind == "cos":

        def phi(t):
            return _unit_slot(t, dim, slot, _SQRT2 * np.cos(w * np.asarray(t)))

        def primitive(t):
            return _unit_slot(t, dim, slot, _SQRT2 * np.sin(w * np.asarray(t)) / w)

    else:

        def phi(t):
            return _unit_slot(t, dim, slot, _SQRT2 * np.sin(w * np.asarray(t)))

        def primitive(t):
            return _unit_slot(t, dim, slot, _SQRT2 * (1.0 - np.cos(w * np.asarray(t))) / w)

    return BasisElement(dim, (family, freq, slot, kind), phi, primitive)


def _mixed_element(freq: int, slot: int) -> BasisElement:
    # slot 1: ( cos, sin)   slot 2: ( sin, cos)
    # slot 3: (-cos, sin)   slot 4: (-sin, cos)
    w = 2.0 * math.pi * freq
    sign = -1.0 if slot in (3, 4) else 1.0
    first_is_cos = slot in (1, 3)

    def phi(t):
        t = np.asarray(t, dtype=float)
        c, s = np.cos(w * t), np.sin(w * t)
        out = np.empty((len(t), 2))
        out[:, 0] = sign * (c if first_is_cos else s)
        out[:, 1] = s if first_is_cos else c
        return out

    def primitive(t):
        t = np.asarray(t, dtype=float)
        ic = np.sin(w * t) / w          # primitive of cos
        is_ = (1.0 - np.cos(w * t)) / w  # primitive of sin
        out = np.empty((len(t), 2))
        out[:, 0] = sign * (ic if first_is_cos else is_)
        out[:, 1] = is_ if first_is_cos else ic
        return out

    return BasisElement(2, ("xi", freq, slot), phi, primitive)


def _indicator(t: np.ndarray, a: float, b: float) -> np.ndarray:
    """Half-open indicator of [a, b), closed at the right if b == 1."""
    t = np.asarray(t, dtype=float)
    hit = (t >= a) & (t < b)
    if b >= 1.0:
        hit |= t == 1.0
    return hit.astype(float)


def _haar_element(dim: int, slot: int, level: int, pos: int) -> BasisElement:
    a = pos / 2.0**level
    mid = (pos + 0.5) / 2.0**level
    b = (pos + 1.0) / 2.0**level
    amp = 2.0 ** (level / 2.0)

    def phi(t):
        vals = amp * (_indicator(t, a, mid) - _indicator(t, mid, b))
        return _unit_slot(np.asarray(t), dim, slot, vals)

    def primitive(t):
        t = np.asarray(t, dtype=float)
        vals = amp * (np.clip(t, a, mid) - a) - amp * (np.clip(t, mid, b) - mid)
        return _unit_slot(t, dim, slot, vals)

    return BasisElement(dim, ("haar", level, pos, slot), phi, primitive)


def _ramp_element(dim: int, slot: int, level: int, pos: int) -> BasisElement:
    a = pos / level
    b = (pos + 1.0) / level
    amp = math.sqrt(level)

    def phi(t):
        vals = amp * _indicator(t, a, b)
        return _unit_slot(np.asarray(t), dim, slot, vals)

    def primitive(t):
        t = np.asarray(t, dtype=float)
        return _unit_slot(t, dim, slot, amp * (np.clip(t, a, b) - a))

    return BasisElement(dim, ("plin", level, pos, slot), phi, primitive)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


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

    return BasisFamily("psi-trig", d, natural, make)


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

    return BasisFamily("xi-mixed", 2, natural, make, supports_adversarial=True)


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

    return BasisFamily("haar", d, natural, make)


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
        f"plin:{level_n}", d, natural, make, size=d * level_n
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
