import math

import numpy as np
import pytest

from ogawa_lab import (
    BALANCED,
    EnumerationOrder,
    TimeGrid,
    adversarial,
    component_trig_basis,
    family_from_name,
    gram_matrix,
    haar_basis,
    mixed_trig_basis,
    piecewise_linear_basis,
    regularity_diagnostic,
)
from ogawa_lab import bases

from oracles import closed_form

FINE = TimeGrid(2**14)


def all_families():
    return [
        ("psi-1d", component_trig_basis(1)),
        ("psi-2d", component_trig_basis(2)),
        ("xi", mixed_trig_basis()),
        ("haar-1d", haar_basis(1)),
        ("haar-2d", haar_basis(2)),
        ("plin-8-2d", piecewise_linear_basis(8, 2)),
    ]


class TestOrthonormality:
    @pytest.mark.parametrize("name,fam", all_families())
    def test_gram_is_identity(self, name, fam):
        n = min(32, fam.size or 32)
        gram = gram_matrix(fam, n, FINE)
        assert np.abs(gram - np.eye(n)).max() <= 1e-6

    def test_xi_gram_first_ten(self):
        gram = gram_matrix(mixed_trig_basis(), 10, TimeGrid(2**12))
        assert np.abs(gram - np.eye(10)).max() <= 1e-8

    def test_haar_gram_exact_on_dyadic_grid(self):
        gram = gram_matrix(haar_basis(1), 16, TimeGrid(2**12))
        assert np.abs(gram - np.eye(16)).max() <= 1e-10

    def test_plin_gram_exact_on_quarter_grid(self):
        # level 4, d = 2: exact whenever quarter points are grid nodes
        gram = gram_matrix(piecewise_linear_basis(4, 2), 8, TimeGrid(128))
        assert np.abs(gram - np.eye(8)).max() == 0.0


class TestComponentTrig:
    def test_constant_primitive(self):
        fam = component_trig_basis(2)
        el = fam.element(("const", 0))
        t = np.array([0.0, 0.3, 1.0])
        assert np.allclose(el.primitive(t), np.stack([t, np.zeros(3)], axis=1))

    def test_cos_primitive_quarter(self):
        # int_0^{1/4} sqrt(2) cos(2 pi s) ds = sqrt(2) / (2 pi)
        fam = component_trig_basis(2)
        el = fam.element((1, 0, "cos"))
        got = el.primitive(np.array([0.25]))[0]
        # fine-grid quadrature oracle
        s = np.linspace(0, 0.25, 2**16 + 1)
        oracle = np.trapezoid(math.sqrt(2) * np.cos(2 * np.pi * s), s)
        assert got[0] == pytest.approx(oracle, abs=1e-9)
        assert got[0] == pytest.approx(math.sqrt(2) / (2 * np.pi), abs=1e-12)
        assert got[1] == 0.0

    def test_unsupported_dim(self):
        with pytest.raises(ValueError):
            component_trig_basis(3)

    def test_block_order(self):
        labels = component_trig_basis(2).labels(10)
        assert labels[:2] == [("const", 0), ("const", 1)]
        assert labels[2:6] == [(1, 0, "cos"), (1, 0, "sin"), (1, 1, "cos"), (1, 1, "sin")]


class TestMixedTrig:
    def test_value_at_zero(self):
        el = mixed_trig_basis().element((1, 1))
        assert np.allclose(el.phi(np.array([0.0]))[0], [1.0, 0.0])

    def test_same_frequency_spans_match_componentwise(self):
        # first 6 xi elements and first 6 psi elements span the same space
        grid = TimeGrid(2**12)
        t = grid.midpoints
        xi = mixed_trig_basis().phi_stack(t, 6).reshape(6, -1)
        psi = component_trig_basis(2).phi_stack(t, 6).reshape(6, -1)
        target = np.stack([np.exp(t) - 1, np.sin(3 * t)], axis=1).reshape(-1)
        proj_xi = xi.T @ np.linalg.lstsq(xi.T, target, rcond=None)[0]
        proj_psi = psi.T @ np.linalg.lstsq(psi.T, target, rcond=None)[0]
        assert np.abs(proj_xi - proj_psi).max() <= 1e-8

    def test_adversarial_front_loads(self):
        labels = mixed_trig_basis().labels(8, adversarial(2))
        assert labels == [
            ("const", 0),
            ("const", 1),
            (1, 1),
            (1, 4),
            (2, 1),
            (2, 4),
            (1, 2),
            (1, 3),
        ]

    def test_adversarial_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="xi-mixed"):
            component_trig_basis(2).labels(4, "adversarial:3")


class TestHaar:
    def test_constants_lead(self):
        fam = haar_basis(2)
        el = fam.element(("const", 1))
        t = np.array([0.0, 0.5, 1.0])
        assert np.allclose(el.primitive(t)[:, 1], t)
        assert np.allclose(el.primitive(t)[:, 0], 0.0)

    def test_mother_wavelet_primitive_peak(self):
        el = haar_basis(1).element((0, 0, 0))
        t = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        prim = el.primitive(t)[:, 0]
        assert np.allclose(prim, [0.0, 0.25, 0.5, 0.25, 0.0])

    def test_level_interleaving(self):
        labels = haar_basis(2).labels(8)
        assert labels == [
            ("const", 0),
            ("const", 1),
            (0, 0, 0),
            (0, 0, 1),
            (1, 0, 0),
            (1, 0, 1),
            (1, 1, 0),
            (1, 1, 1),
        ]


class TestPiecewiseLinear:
    def test_level_one_is_constant(self):
        fam = piecewise_linear_basis(1, 1)
        el = fam.element((0, 0))
        t = np.array([0.1, 0.9])
        assert np.allclose(el.phi(t)[:, 0], 1.0)
        assert np.allclose(el.primitive(t)[:, 0], t)

    def test_level_two_ramp(self):
        el = piecewise_linear_basis(2, 1).element((0, 0))
        assert el.phi(np.array([0.2]))[0, 0] == pytest.approx(math.sqrt(2))
        assert el.phi(np.array([0.7]))[0, 0] == 0.0
        assert el.primitive(np.array([0.75]))[0, 0] == pytest.approx(1 / math.sqrt(2))

    def test_family_is_finite(self):
        fam = piecewise_linear_basis(4, 2)
        assert fam.size == 8
        with pytest.raises(ValueError, match="finite"):
            fam.labels(9)


class TestEnumeration:
    @pytest.mark.parametrize("name,fam", all_families())
    def test_no_repeated_labels(self, name, fam):
        n = min(40, fam.size or 40)
        labels = fam.labels(n)
        assert len(set(labels)) == len(labels)

    def test_adversarial_is_bijective(self):
        labels = mixed_trig_basis().labels(450, adversarial(100))
        assert len(set(labels)) == 450

    def test_order_specs_round_trip(self):
        assert EnumerationOrder.parse("balanced") is BALANCED
        order = EnumerationOrder.parse("adversarial:7")
        assert order.front_load == 7
        assert order.spec == "adversarial:7"
        with pytest.raises(ValueError):
            EnumerationOrder.parse("random")


class TestPrimitiveConsistency:
    @pytest.mark.parametrize("name,fam", all_families())
    def test_centred_difference_matches_phi(self, name, fam):
        # d/dt e(t) = phi(t) at cell midpoints, to O(dt)
        grid = TimeGrid(2**12)
        n = min(12, fam.size or 12)
        t = grid.midpoints[5::997]
        h = grid.dt / 2
        for el in fam.elements(n):
            diff = (el.primitive(t + h) - el.primitive(t - h)) / (2 * h)
            assert np.abs(diff - el.phi(t)).max() <= 2e-3


class TestStackBytes:
    """Stacks read one trig table per frequency and write rows in place; every
    row must hold the bytes of the element evaluated alone and of its closed
    form with its own cos/sin calls."""

    GRID = TimeGrid(96)
    TIMES = {
        "left nodes": GRID.times[:-1],
        "nodes": GRID.times,
        "midpoints": GRID.midpoints,
        "odd": np.linspace(0.0, 1.0, 37) ** 1.5,
    }
    CASES = {
        "psi-1d": (component_trig_basis(1), "balanced", 40),
        "psi-2d": (component_trig_basis(2), "balanced", 40),
        "xi-balanced": (mixed_trig_basis(), "balanced", 40),
        "xi-adversarial:4": (mixed_trig_basis(), "adversarial:4", 40),
        "haar-2d": (haar_basis(2), "balanced", 64),
        "plin:8": (piecewise_linear_basis(8, 2), "balanced", 16),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("where", sorted(TIMES))
    def test_stacks_equal_single_elements(self, case, where):
        fam, order, n = self.CASES[case]
        t = self.TIMES[where]
        elements = fam.elements(n, order)
        phi, prim = fam.phi_stack(t, n, order), fam.primitive_stack(t, n, order)
        assert np.array_equal(phi, np.stack([el.phi(t) for el in elements]))
        assert np.array_equal(prim, np.stack([el.primitive(t) for el in elements]))
        for i, el in enumerate(elements):
            ref_phi, ref_prim = closed_form(el.label, fam.dim, t)
            assert np.array_equal(phi[i], ref_phi), el.label
            assert np.array_equal(prim[i], ref_prim), el.label

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("elements_per_block", [2, 3, None])
    def test_cell_increments_equal_diff_of_primitives(self, case, elements_per_block, monkeypatch):
        fam, order, n = self.CASES[case]
        nodes = self.GRID.times
        if elements_per_block is not None:
            budget = elements_per_block * 8 * len(nodes) * fam.dim
            monkeypatch.setattr(bases, "STACK_BLOCK_BYTES", budget)
        got = fam.primitive_cell_increments(self.GRID, n, order)
        assert np.array_equal(got, np.diff(fam.primitive_stack(nodes, n, order), axis=1))

    def test_blocks_cover_the_prefix(self, monkeypatch):
        fam = mixed_trig_basis()
        monkeypatch.setattr(bases, "STACK_BLOCK_BYTES", 3 * 8 * 10 * fam.dim)
        for n in (1, 2, 3, 7, 40):
            blocks = fam.blocks(n, "adversarial:4", 10)
            assert [r.start for r, _ in blocks] == [0] + [r.stop for r, _ in blocks[:-1]]
            assert blocks[-1][0].stop == n
            assert all(b.size >= 2 for _, b in blocks) or n == 1
            labels = [lab for _, b in blocks for lab in b.labels(b.size)]
            assert labels == fam.labels(n, "adversarial:4")


class TestCheckGrid:
    """A prefix that passes check_grid has a midpoint Gram matrix equal to the
    identity to roundoff.  For the single-slot families the converse holds
    too; xi-mixed elements have |phi| = 1 everywhere, so a partial block at
    the Nyquist frequency can still have an exact Gram matrix (its trace
    entries are not exact there)."""

    @pytest.mark.parametrize(
        "fam, converse",
        [
            (component_trig_basis(1), True),
            (component_trig_basis(2), True),
            (mixed_trig_basis(), False),
            (haar_basis(1), True),
            (haar_basis(2), True),
            (piecewise_linear_basis(3, 1), True),
            (piecewise_linear_basis(4, 2), True),
        ],
        ids=lambda v: f"{v.name}-{v.dim}d" if isinstance(v, bases.BasisFamily) else "",
    )
    def test_accepted_prefixes_have_exact_gram(self, fam, converse):
        for steps in range(1, 34):
            grid = TimeGrid(steps)
            for n in range(1, min(fam.size or 40, 40) + 1):
                exact = np.abs(gram_matrix(fam, n, grid) - np.eye(n)).max() <= 1e-12
                try:
                    fam.check_grid(steps, n)
                except ValueError:
                    assert not (converse and exact), (steps, n)
                else:
                    assert exact, (steps, n)

    def test_adversarial_order_reaches_higher_frequencies(self):
        fam = mixed_trig_basis()
        fam.check_grid(64, 10)  # frequencies 1, 2
        with pytest.raises(ValueError, match="Nyquist"):
            fam.check_grid(64, 66, "adversarial:32")  # frequency 32 = 64 / 2


class TestRegularity:
    def test_constant_basis_norm(self):
        # u_1(t) = t, so ||u_1|| = 1 / sqrt(3)
        fam = component_trig_basis(1)
        norms = regularity_diagnostic(fam, 1, TimeGrid(2**12))
        assert norms[0] == pytest.approx(1 / math.sqrt(3), abs=1e-6)

    @pytest.mark.parametrize("maker", [haar_basis, component_trig_basis])
    def test_bounded_at_desk_scale(self, maker):
        norms = regularity_diagnostic(maker(1), 64, TimeGrid(2**12))
        assert norms[:64].max() <= 1.1 * norms[:16].max()


class TestFamilyNames:
    def test_known_names(self):
        assert family_from_name("psi-trig", 2).name == "psi-trig"
        assert family_from_name("xi-mixed", 2).name == "xi-mixed"
        assert family_from_name("haar", 1).name == "haar"
        assert family_from_name("plin:8", 2).size == 16

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            family_from_name("fourier", 1)
        with pytest.raises(ValueError):
            family_from_name("xi-mixed", 1)
