import io
import math

import numpy as np
import pytest

from ogawa_lab import (
    LinearField,
    RngSpec,
    SamplePath,
    TimeGrid,
    TruncationStage,
    adversarial,
    build_ensemble_ledgers,
    build_ledger,
    component_trig_basis,
    conversion_gap,
    diagonal_entries,
    divergence_quadrature,
    dump_ledgers_csv,
    field_from_name,
    haar_basis,
    harness,
    identity_field_1d,
    ito_integral,
    mixed_trig_basis,
    ogawa_partial_sum,
    ogawa_partial_sum_inner,
    ogawa_partial_sum_stieltjes,
    piecewise_linear_basis,
    renormalization_term,
    renormalized_sum,
    sample_brownian,
    stratonovich_integral,
    wong_zakai_sum,
)
from ogawa_lab.engine import cameron_martin_inner, trace_vectors

from field_helpers import constant_field, sine_field_1d, skew_field, swirl_field
from oracles import diagonal_entries_one_block, diagonal_entry, trace_vectors_whole_stack


class TestPartialSums:
    def test_zero_integrand(self):
        f = constant_field(1, 0.0)
        path = sample_brownian(TimeGrid(128), 1, RngSpec(0), 0)
        fam = haar_basis(1)
        for n in (1, 4, 16):
            assert ogawa_partial_sum(f, path, fam, n) == 0.0

    @pytest.mark.parametrize(
        "route",
        [
            ogawa_partial_sum, ogawa_partial_sum_stieltjes, ogawa_partial_sum_inner,
            diagonal_entries, renormalization_term, renormalized_sum, wong_zakai_sum,
            pytest.param(lambda fld, path, fam, n: ito_integral(fld, path), id="ito"),
            pytest.param(lambda fld, path, fam, n: stratonovich_integral(fld, path), id="strat"),
            pytest.param(lambda fld, path, fam, n: conversion_gap(fld, path), id="gap"),
            pytest.param(
                lambda fld, path, fam, n: divergence_quadrature(fld, path), id="divergence"
            ),
            pytest.param(
                lambda fld, path, fam, n: cameron_martin_inner(
                    SamplePath.zero(path.grid, fld.dim), path
                ),
                id="cameron_martin",
            ),
            pytest.param(
                lambda fld, path, fam, n: build_ledger(
                    fld, path, TruncationStage.for_schedule(fam, [n])
                ),
                id="ledger",
            ),
        ],
    )
    def test_field_path_dimension_mismatch(self, route):
        # the family matches the path; only the field has the wrong dimension.
        # alpha(x) = x on a planar path would broadcast silently.
        for fld, dim in ((field_from_name("linear:1,0,0,1"), 1), (identity_field_1d(), 2)):
            path = sample_brownian(TimeGrid(64), dim, RngSpec(0), 0)
            with pytest.raises(ValueError, match="dimension mismatch"):
                route(fld, path, haar_basis(dim), 4)

    def test_drift_path_constant_basis(self):
        # coefficient 1, pairing int_0^1 t dt = 1/2, exactly
        grid = TimeGrid(2**10)
        path = SamplePath.from_function(grid, lambda t: t)
        g1 = ogawa_partial_sum(identity_field_1d(), path, component_trig_basis(1), 1)
        assert g1 == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize(
        "family,n",
        [(haar_basis(1), 8), (component_trig_basis(1), 6)],
    )
    def test_routes_agree_to_roundoff(self, family, n):
        fld = identity_field_1d()
        rng = RngSpec(17)
        grid = TimeGrid(2**10)
        for i in range(5):
            path = sample_brownian(grid, 1, rng, i)
            a = ogawa_partial_sum(fld, path, family, n)
            b = ogawa_partial_sum_stieltjes(fld, path, family, n)
            c = ogawa_partial_sum_inner(fld, path, family, n)
            assert abs(a - b) <= 1e-10
            assert abs(a - c) <= 1e-10

    def test_routes_agree_d2(self):
        fld = LinearField(0.5, -0.25, 1.0, 0.75)
        path = sample_brownian(TimeGrid(2**10), 2, RngSpec(23), 0)
        fam = mixed_trig_basis()
        a = ogawa_partial_sum(fld, path, fam, 10)
        b = ogawa_partial_sum_stieltjes(fld, path, fam, 10)
        c = ogawa_partial_sum_inner(fld, path, fam, 10)
        assert abs(a - b) <= 1e-10
        assert abs(a - c) <= 1e-10


class TestRenormalizationTerm:
    def test_constant_field_vanishes(self):
        path = sample_brownian(TimeGrid(256), 2, RngSpec(2), 0)
        fam = component_trig_basis(2)
        for n in (1, 2, 10):
            assert renormalization_term(constant_field(2, 3.0), path, fam, n) == 0.0

    @pytest.mark.parametrize("level", [1, 2, 4, 8])
    def test_piecewise_linear_trace(self, level):
        fld = LinearField(0.9, 0.2, -0.4, 1.7)
        path = sample_brownian(TimeGrid(256), 2, RngSpec(3), 0)
        fam = piecewise_linear_basis(level, 2)
        r = renormalization_term(fld, path, fam, 2 * level)
        assert abs(r - fld.divergence_value / 2) <= 1e-10

    @pytest.mark.parametrize("n", [2, 5, 9, 32])
    def test_component_trig_trace(self, n):
        fld = LinearField(0.9, 0.2, -0.4, 1.7)
        path = sample_brownian(TimeGrid(2**10), 2, RngSpec(4), 0)
        r = renormalization_term(fld, path, component_trig_basis(2), n)
        assert abs(r - fld.divergence_value / 2) <= 1e-10

    def test_path_independent_for_linear(self):
        fld = LinearField(1.0, -2.0, 0.5, 0.25)
        grid = TimeGrid(512)
        rng = RngSpec(5)
        fam = mixed_trig_basis()
        values = [
            renormalization_term(fld, sample_brownian(grid, 2, rng, i), fam, 7)
            for i in range(20)
        ]
        assert max(values) - min(values) <= 1e-10


class TestDiagonalEntries:
    def test_mixed_trig_closed_forms(self):
        fld = LinearField(0.3, -1.1, 0.7, 0.5)
        path = SamplePath.zero(TimeGrid(2**12), 2)
        fam = mixed_trig_basis()
        curl = fld.curl_value
        for m in range(1, 9):
            signs = {1: 1, 2: -1, 3: -1, 4: 1}
            for slot, sign in signs.items():
                got = diagonal_entry(fld, path, fam.element((m, slot)))
                assert got == pytest.approx(sign * curl / (4 * m * np.pi), abs=1e-12)

    def test_prefix_sum_consistency(self):
        fld = LinearField(1.0, 0.5, -0.5, 2.0)
        path = sample_brownian(TimeGrid(512), 2, RngSpec(6), 0)
        fam = mixed_trig_basis()
        entries = diagonal_entries(fld, path, fam, 10)
        singles = [diagonal_entry(fld, path, el) for el in fam.elements(10)]
        assert np.allclose(entries, singles, atol=1e-14)
        assert renormalization_term(fld, path, fam, 10) == pytest.approx(
            float(np.sum(entries)), abs=1e-14
        )


class TestRenormalizedSum:
    def test_constant_field_telescopes(self):
        c = 2.5
        fld = constant_field(1, c)
        path = sample_brownian(TimeGrid(256), 1, RngSpec(7), 0)
        fam = haar_basis(1)
        for n in (1, 4, 16):
            h = renormalized_sum(fld, path, fam, n)
            assert h == pytest.approx(c * path.values[-1, 0], abs=1e-12)

    def test_drift_path_cancellation(self):
        # g_1 = 1/2 and r_1 = int_0^1 t dt = 1/2, so h_1 = 0 exactly
        grid = TimeGrid(2**10)
        path = SamplePath.from_function(grid, lambda t: t)
        h = renormalized_sum(identity_field_1d(), path, component_trig_basis(1), 1)
        assert abs(h) <= 1e-14

    def test_basis_independence_improves_with_n(self):
        fld = LinearField(1, 0, 0, 1)
        grid = TimeGrid(2**10)
        rng = RngSpec(8)
        psi = component_trig_basis(2)
        haar = haar_basis(2)
        sq_diffs = {4: [], 64: []}
        for i in range(200):
            path = sample_brownian(grid, 2, rng, i)
            for n in sq_diffs:
                d = renormalized_sum(fld, path, psi, n) - renormalized_sum(
                    fld, path, haar, n
                )
                sq_diffs[n].append(d * d)
        assert np.mean(sq_diffs[64]) < np.mean(sq_diffs[4])


class TestWongZakai:
    def test_constant_field_exact(self):
        c = -1.25
        fld = constant_field(1, c)
        path = sample_brownian(TimeGrid(256), 1, RngSpec(9), 0)
        gp = wong_zakai_sum(fld, path, piecewise_linear_basis(4, 1), 4)
        assert gp == pytest.approx(c * path.values[-1, 0], abs=1e-12)

    @pytest.mark.parametrize("level", [1, 2, 8, 32])
    def test_chain_rule_telescoping(self, level):
        fld = identity_field_1d()
        path = sample_brownian(TimeGrid(256), 1, RngSpec(10), 1)
        gp = wong_zakai_sum(fld, path, piecewise_linear_basis(level, 1), level)
        assert abs(gp - path.values[-1, 0] ** 2 / 2) <= 1e-10

    def test_haar_complete_prefix_telescopes(self):
        fld = identity_field_1d()
        path = sample_brownian(TimeGrid(256), 1, RngSpec(11), 0)
        gp = wong_zakai_sum(fld, path, haar_basis(1), 8)
        assert abs(gp - path.values[-1, 0] ** 2 / 2) <= 1e-10

    def test_projection_gap_shrinks(self):
        # E[(g_n - g'_n)^2] decreasing along n for the Haar basis
        fld = identity_field_1d()
        grid = TimeGrid(2**10)
        rng = RngSpec(12)
        fam = haar_basis(1)
        gaps = {4: [], 64: []}
        for i in range(200):
            path = sample_brownian(grid, 1, rng, i)
            for n in gaps:
                gap = ogawa_partial_sum(fld, path, fam, n) - wong_zakai_sum(
                    fld, path, fam, n
                )
                gaps[n].append(gap * gap)
        assert np.mean(gaps[64]) < np.mean(gaps[4])


class TestReferenceIntegrals:
    def test_ito_constant_field(self):
        c = 3.0
        path = sample_brownian(TimeGrid(128), 1, RngSpec(13), 0)
        assert ito_integral(constant_field(1, c), path) == pytest.approx(
            c * path.values[-1, 0], abs=1e-12
        )

    def test_ito_martingale_mean(self):
        grid = TimeGrid(256)
        rng = RngSpec(14)
        fld = identity_field_1d()
        vals = np.array(
            [ito_integral(fld, sample_brownian(grid, 1, rng, i)) for i in range(4000)]
        )
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) <= 3 * se

    def test_ito_smooth_path(self):
        grid = TimeGrid(2**10)
        path = SamplePath.from_function(grid, lambda t: t)
        got = ito_integral(identity_field_1d(), path)
        assert abs(got - 0.5) <= grid.dt

    def test_strat_smooth_path(self):
        grid = TimeGrid(2**10)
        path = SamplePath.from_function(grid, lambda t: t)
        got = stratonovich_integral(identity_field_1d(), path)
        assert got == pytest.approx(0.5, abs=1e-14)

    def test_strat_telescopes_for_identity(self):
        path = sample_brownian(TimeGrid(512), 1, RngSpec(15), 0)
        got = stratonovich_integral(identity_field_1d(), path)
        assert got == pytest.approx(path.values[-1, 0] ** 2 / 2, abs=1e-12)

    def test_conversion_formula_in_mean(self):
        fld = LinearField(1, 1, 1, 1)
        grid = TimeGrid(2**10)
        rng = RngSpec(16)
        gaps = np.array(
            [conversion_gap(fld, sample_brownian(grid, 2, rng, i)) for i in range(500)]
        )
        se = gaps.std(ddof=1) / math.sqrt(len(gaps))
        assert abs(gaps.mean()) <= 3 * se


class TestLedger:
    def test_identity_h_equals_g_minus_r(self):
        fld = LinearField(1, 0.25, -0.5, 1)
        path = sample_brownian(TimeGrid(512), 2, RngSpec(17), 0)
        stages = TruncationStage.for_schedule(component_trig_basis(2), (4, 16))
        led = build_ledger(fld, path, stages)
        assert np.array_equal(led.h, led.g - led.r)
        assert led.schedule == (4, 16)

    def test_csv_dump_format(self):
        fld = identity_field_1d()
        path = sample_brownian(TimeGrid(64), 1, RngSpec(18), 0)
        stages = TruncationStage.for_schedule(haar_basis(1), (2, 4))
        led = build_ledger(fld, path, stages)
        buf = io.StringIO()
        dump_ledgers_csv([led], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "path_index,n,g,r,h,gprime,ito,strat"
        assert len(lines) == 3
        assert lines[1].startswith("0,2,")


class TestEnsembleMatchesReference:
    FAMILIES = {
        "psi": component_trig_basis(2),
        "xi": mixed_trig_basis(),
        "haar": haar_basis(2),
    }

    @pytest.mark.parametrize(
        "field,basis_name",
        [
            (LinearField(1, 0, 0, 1), "psi"),
            (LinearField(0.5, -1.0, 0.25, 2.0), "xi"),
            (None, "haar"),  # None -> swirl (non-constant Jacobian)
        ],
    )
    def test_vectorized_equals_per_path(self, field, basis_name):
        fld = field or swirl_field()
        grid = TimeGrid(256)
        rng = RngSpec(19)
        fam = self.FAMILIES[basis_name]
        stages = TruncationStage.for_schedule(fam, (4, 12))
        ensemble = build_ensemble_ledgers(fld, [stages], grid, 7, rng, chunk_size=3)[0]
        for i in range(7):
            path = sample_brownian(grid, 2, rng, i)
            ref = build_ledger(fld, path, stages)
            got = ensemble.path_ledger(i)
            assert np.abs(got.g - ref.g).max() <= 1e-10
            assert np.abs(got.r - ref.r).max() <= 1e-10
            assert np.abs(got.gprime - ref.gprime).max() <= 1e-10
            assert got.ito == pytest.approx(ref.ito, abs=1e-10)
            assert got.strat == pytest.approx(ref.strat, abs=1e-10)

    @pytest.mark.parametrize(
        "basis_name,order,schedule",
        [
            ("haar", "balanced", (3, 5, 7)),
            ("psi", "balanced", (3, 5, 7)),
            ("xi", "balanced", (3, 5, 7)),
            ("xi", "adversarial:4", (4, 8, 18)),
        ],
    )
    def test_nonlinear_trace_route(self, basis_name, order, schedule):
        # skew_field's Jacobian has a nonzero diagonal and J_12 != J_21, so a
        # scaled trace or swapped Jacobian indices move r on these schedules
        fld = skew_field()
        grid = TimeGrid(256)
        rng = RngSpec(23)
        fam = self.FAMILIES[basis_name]
        stages = TruncationStage.for_schedule(fam, schedule, order)
        ensemble = build_ensemble_ledgers(fld, [stages], grid, 7, rng, chunk_size=3)[0]
        assert ensemble.trace_entries is None
        for i in range(7):
            path = sample_brownian(grid, 2, rng, i)
            ref = build_ledger(fld, path, stages)
            got = ensemble.path_ledger(i)
            assert np.abs(ref.r).max() > 1e-3
            assert np.abs(got.g - ref.g).max() <= 1e-10
            assert np.abs(got.r - ref.r).max() <= 1e-10
            assert np.abs(got.gprime - ref.gprime).max() <= 1e-10
            assert got.ito == pytest.approx(ref.ito, abs=1e-10)
            assert got.strat == pytest.approx(ref.strat, abs=1e-10)

    def test_plin_stages(self):
        from ogawa_lab.bases import BALANCED

        fld = identity_field_1d()
        grid = TimeGrid(64)
        rng = RngSpec(20)
        stages = [
            TruncationStage(lv, piecewise_linear_basis(lv, 1), lv, BALANCED)
            for lv in (2, 8)
        ]
        ensemble = build_ensemble_ledgers(fld, [stages], grid, 5, rng, chunk_size=2)[0]
        for i in range(5):
            path = sample_brownian(grid, 1, rng, i)
            ref = build_ledger(fld, path, stages)
            got = ensemble.path_ledger(i)
            assert np.abs(got.g - ref.g).max() <= 1e-12
            assert np.abs(got.gprime - ref.gprime).max() <= 1e-12


class TestPrefixPlan:
    """A multi-stage call reads prefixes of one plan; its bytes must equal
    one-stage calls that evaluate each prefix on its own."""

    COLUMNS = ("g", "r", "h", "gprime", "ito", "strat")

    @pytest.mark.parametrize(
        "case",
        ["psi", "haar", "xi-adversarial", "plin-levels", "skew-haar", "skew-xi"],
    )
    def test_multi_stage_equals_single_stages(self, case):
        from ogawa_lab.bases import BALANCED

        linear = LinearField(0.5, -1.0, 0.25, 2.0)
        plin = [
            TruncationStage(lv, piecewise_linear_basis(lv, 1), lv, BALANCED)
            for lv in (2, 8, 16)
        ]
        fld, stages = {
            "psi": (linear, TruncationStage.for_schedule(component_trig_basis(2), (3, 8, 13))),
            "haar": (linear, TruncationStage.for_schedule(haar_basis(2), (4, 7, 16))),
            "xi-adversarial": (
                linear,
                TruncationStage.for_schedule(mixed_trig_basis(), (4, 8, 18), adversarial(4)),
            ),
            "plin-levels": (identity_field_1d(), plin),
            "skew-haar": (skew_field(), TruncationStage.for_schedule(haar_basis(2), (3, 5, 7))),
            "skew-xi": (
                skew_field(),
                TruncationStage.for_schedule(mixed_trig_basis(), (4, 8, 18), adversarial(4)),
            ),
        }[case]
        grid, rng = TimeGrid(64), RngSpec(29)
        multi = build_ensemble_ledgers(fld, [stages], grid, 9, rng, chunk_size=4)[0]
        for idx, st in enumerate(stages):
            one = build_ensemble_ledgers(fld, [[st]], grid, 9, rng, chunk_size=4)[0]
            for col in self.COLUMNS:
                a, b = getattr(multi, col), getattr(one, col)
                if a.ndim == 2:
                    a, b = a[:, idx], b[:, 0]
                assert np.array_equal(a, b), (case, st.label, col)
        # ``one`` now holds the largest stage's call
        if fld.constant_jacobian:
            assert np.array_equal(multi.trace_entries, one.trace_entries)
        else:
            assert multi.trace_entries is None


class TestBlockedDiagonalEntries:
    """diagonal_entries takes the elements in blocks, down to one element
    each; every entry must keep the bytes of one einsum pair over all n
    elements."""

    GRID = TimeGrid(1024)

    @pytest.mark.parametrize("n", [1, 3, 64, 1024])
    @pytest.mark.parametrize(
        "case",
        ["xi-balanced", "xi-adversarial:100", "psi-trig", "haar", "skew-xi", "skew-haar",
         "sine1d-haar"],
    )
    @pytest.mark.parametrize("elements_per_block", [1, 2, 5, None])
    def test_blocks_equal_one_einsum(self, n, case, elements_per_block, monkeypatch):
        from ogawa_lab import bases

        linear = field_from_name("linear:0.25,0.25,1.25,0.75")
        fld, basis, order = {
            "xi-balanced": (linear, "xi-mixed", "balanced"),
            "xi-adversarial:100": (linear, "xi-mixed", "adversarial:100"),
            "psi-trig": (linear, "psi-trig", "balanced"),
            "haar": (linear, "haar", "balanced"),
            "skew-xi": (skew_field(), "xi-mixed", "adversarial:4"),
            "skew-haar": (skew_field(), "haar", "balanced"),
            "sine1d-haar": (sine_field_1d(), "haar", "balanced"),
        }[case]
        fam = harness.resolve_stages(basis, order, fld.dim, [n], self.GRID.num_steps)[0].family
        if elements_per_block is not None:
            width = len(self.GRID.midpoints) * fam.dim
            monkeypatch.setattr(bases, "STACK_BLOCK_BYTES", elements_per_block * 8 * width)
        # the zero path of the ensemble plan for a constant Jacobian, else a Wiener path
        path = (
            SamplePath.zero(self.GRID, fld.dim)
            if fld.constant_jacobian
            else sample_brownian(self.GRID, fld.dim, RngSpec(17), 3)
        )
        got = diagonal_entries(fld, path, fam, n, order)
        assert np.array_equal(got, diagonal_entries_one_block(fld, path, fam, n, order))


class TestTraceVectors:
    """trace_vectors is one running sum over midpoint blocks; every prefix
    must keep the bytes of the whole-stack sum, and the ensemble must never
    stack more than one block of midpoint elements."""

    GRID = TimeGrid(1024)

    @pytest.mark.parametrize(
        "case", ["haar-1", "haar-2", "psi-trig", "xi-balanced", "xi-adversarial:4", "plin:8"]
    )
    @pytest.mark.parametrize("elements_per_block", [1, 2, 3, None])
    def test_prefixes_equal_whole_stack(self, case, elements_per_block, monkeypatch):
        from ogawa_lab import bases

        prefixes = (1, 2, 5, 16) if case == "plin:8" else (1, 2, 5, 16, 64, 200)
        fam, order = {
            "haar-1": (haar_basis(1), "balanced"),
            "haar-2": (haar_basis(2), "balanced"),
            "psi-trig": (component_trig_basis(2), "balanced"),
            "xi-balanced": (mixed_trig_basis(), "balanced"),
            "xi-adversarial:4": (mixed_trig_basis(), "adversarial:4"),
            "plin:8": (piecewise_linear_basis(8, 2), "balanced"),  # 16 elements
        }[case]
        if elements_per_block is not None:
            width = self.GRID.num_steps * fam.dim
            monkeypatch.setattr(bases, "STACK_BLOCK_BYTES", elements_per_block * 8 * width)
        got = trace_vectors(fam, prefixes, order, self.GRID)
        want = trace_vectors_whole_stack(fam, prefixes, order, self.GRID)
        assert len(got) == len(prefixes)
        for n, a, b in zip(prefixes, got, want):
            assert a.shape == (fam.dim, fam.dim, self.GRID.num_steps)
            assert np.array_equal(a, b), (case, n)

    def test_ensemble_stacks_one_block_of_midpoints(self, monkeypatch):
        from ogawa_lab import bases
        from ogawa_lab.bases import BasisFamily

        grid, per_block = TimeGrid(256), 10
        monkeypatch.setattr(bases, "STACK_BLOCK_BYTES", per_block * 8 * grid.num_steps * 2)
        sizes = []
        for name in ("phi_stack", "primitive_stack"):
            original = getattr(BasisFamily, name)

            def counted(self, t, n, order=None, _original=original):
                if len(t) == grid.num_steps and t[0] == 0.5 * grid.dt:
                    sizes.append(n)
                return _original(self, t, n, order)

            monkeypatch.setattr(BasisFamily, name, counted)
        lists = [
            harness.resolve_stages("xi-mixed", order, 2, (4, 16, 64), grid.num_steps)
            for order in ("balanced", "adversarial:4")
        ]
        build_ensemble_ledgers(skew_field(), lists, grid, 3, RngSpec(5), chunk_size=2)
        # each order's 64 elements, phi and primitive stacks, in blocks
        assert max(sizes) <= per_block
        assert sum(sizes) == 2 * 2 * 64


class TestUnionPlan:
    """Stage lists of one family share one plan over the union of their
    labels; a call with two lists must give the bytes of one call per list."""

    COLUMNS = ("g", "r", "h", "gprime", "ito", "strat", "trace_entries")

    @pytest.mark.parametrize(
        "case", ["xi-adversarial:100", "xi-adversarial:4", "skew-xi", "psi-haar"]
    )
    def test_two_lists_equal_separate_calls(self, case):
        linear = field_from_name("linear:0.25,0.25,1.25,0.75")
        xi = ("xi-mixed", "balanced")
        fld, specs, schedule = {
            "xi-adversarial:100": (
                linear, [xi, ("xi-mixed", "adversarial:100")], (4, 16, 64, 256)
            ),
            "xi-adversarial:4": (linear, [xi, ("xi-mixed", "adversarial:4")], (4, 8, 18)),
            "skew-xi": (skew_field(), [xi, ("xi-mixed", "adversarial:4")], (4, 8, 18)),
            "psi-haar": (linear, [("psi-trig", "balanced"), ("haar", "balanced")], (4, 16, 64)),
        }[case]
        grid, rng = TimeGrid(512), RngSpec(41)
        lists = [
            harness.resolve_stages(basis, order, 2, schedule, grid.num_steps)
            for basis, order in specs
        ]
        if case == "xi-adversarial:100":
            # the union holds labels that the balanced prefix lacks
            top = [set(stages[-1].family.labels(256, stages[-1].order)) for stages in lists]
            assert len(top[0] & top[1]) == 183
        both = build_ensemble_ledgers(fld, lists, grid, 9, rng, chunk_size=4)
        for stages, got in zip(lists, both):
            ref = build_ensemble_ledgers(fld, [stages], grid, 9, rng, chunk_size=4)[0]
            for col in self.COLUMNS:
                a, b = getattr(got, col), getattr(ref, col)
                if a is None or b is None:
                    assert a is None and b is None and not fld.constant_jacobian
                else:
                    assert np.array_equal(a, b), (case, got.order, col)

    def test_order_experiment_evaluates_union_once(self, monkeypatch):
        from ogawa_lab import bases
        from ogawa_lab import ensemble as ens
        from ogawa_lab.bases import BasisFamily

        # blocks of 10 elements at 1024 or 1025 times (d = 2), so the blocked
        # stacks split into several calls
        per_block = 10
        monkeypatch.setattr(bases, "STACK_BLOCK_BYTES", per_block * 8 * 1025 * 2)
        evaluated, traces = [], []
        for name in ("phi_stack", "primitive_stack"):
            original = getattr(BasisFamily, name)

            def counted(self, t, n, order=None, _original=original, _name=name):
                evaluated.append(((_name, len(t), float(t[0])), self.labels(n, order)))
                return _original(self, t, n, order)

            monkeypatch.setattr(BasisFamily, name, counted)
        original_trace = ens.diagonal_entries

        def counted_trace(*args, **kwargs):
            traces.append(args[3])
            return original_trace(*args, **kwargs)

        monkeypatch.setattr(ens, "diagonal_entries", counted_trace)
        cfg = harness.ExperimentConfig(
            field="linear:0.25,0.25,1.25,0.75", basis_a="xi-mixed", order_a="balanced",
            order_b="adversarial:20", grid=1024, paths=4, schedule=(4, 16, 64),
        )
        res = harness.run_order_dependence(cfg)

        fam = mixed_trig_basis()
        balanced, adv = fam.labels(64), fam.labels(64, "adversarial:20")
        union = list(dict.fromkeys(balanced + adv))
        assert len(union) > 64  # adversarial:20 needs labels beyond balanced's prefix
        # left nodes (one call), cell-integral nodes and the trace's midpoints
        # (blocks): each stack kind's calls list the union once, in order
        kinds: dict = {}
        for kind, labels in evaluated:
            kinds.setdefault(kind, []).append(labels)
        half_cell = 0.5 / cfg.grid
        assert sorted(kinds) == [
            ("phi_stack", 1024, 0.0), ("phi_stack", 1024, half_cell),
            ("primitive_stack", 1024, half_cell), ("primitive_stack", 1025, 0.0),
        ]
        for kind, blocks in kinds.items():
            assert [lab for labels in blocks for lab in labels] == union, kind
            expected = 1 if kind == ("phi_stack", 1024, 0.0) else -(-len(union) // per_block)
            assert len(blocks) == expected, kind
        assert traces == [len(union)]
        probe = SamplePath.zero(TimeGrid(cfg.grid), 2)
        fld = harness.resolve_field(cfg)
        for order in ("balanced", "adversarial:20"):
            got = np.array([r for (o, _, r) in res.r_rows if o == order])
            expected = np.cumsum(original_trace(fld, probe, fam, 64, order))
            assert np.array_equal(got, expected), order


class TestRowBlocks:
    """Per-path work runs on row blocks of each chunk while the GEMMs see the
    whole chunk, so the block size must not move a byte.  One block per chunk
    replays whole-chunk evaluation."""

    COLUMNS = ("g", "r", "h", "gprime", "ito", "strat")
    GRID = 1024

    @staticmethod
    def stage_lists(dim, *specs):
        return [
            harness.resolve_stages(basis, order, dim, schedule, TestRowBlocks.GRID)
            for basis, order, schedule in specs
        ]

    @pytest.mark.parametrize(
        "case",
        ["linear-psi-haar", "id1d-plin-haar", "skew-haar-xi", "swirl-haar", "sine1d-haar"],
    )
    def test_block_size_moves_no_byte(self, case, monkeypatch):
        from ogawa_lab import ensemble as ens

        psi, haar = ("psi-trig", "balanced", (4, 16, 64)), ("haar", "balanced", (4, 16, 64))
        fld, stage_lists = {
            "linear-psi-haar": (
                field_from_name("linear:0.3,-1.7,2.2,0.9"), self.stage_lists(2, psi, haar)
            ),
            "id1d-plin-haar": (
                identity_field_1d(),
                self.stage_lists(1, ("plin", "balanced", (4, 16, 64)), haar),
            ),
            "skew-haar-xi": (
                skew_field(),
                self.stage_lists(2, haar, ("xi-mixed", "adversarial:4", (4, 8, 18))),
            ),
            "swirl-haar": (swirl_field(), self.stage_lists(2, haar)),
            "sine1d-haar": (sine_field_1d(), self.stage_lists(1, haar)),
        }[case]
        grid, rng = TimeGrid(self.GRID), RngSpec(31)
        row_bytes = 8 * (self.GRID + 1) * fld.dim
        budgets = {
            "1 row": row_bytes,
            "2 rows": 2 * row_bytes,
            "3 rows": 3 * row_bytes,
            "default": ens.ROW_BLOCK_BYTES,
            "one block": 1 << 60,
        }
        # tails of 2 and 7 paths, and a run without g'
        for paths, chunk, with_gprime in ((130, 64, True), (7, 256, True), (130, 64, False)):
            runs = {}
            for name, budget in budgets.items():
                monkeypatch.setattr(ens, "ROW_BLOCK_BYTES", budget)
                runs[name] = build_ensemble_ledgers(
                    fld, stage_lists, grid, paths, rng, chunk_size=chunk, with_gprime=with_gprime
                )
            whole = runs.pop("one block")
            for name, ledgers in runs.items():
                for got, ref in zip(ledgers, whole):
                    for col in self.COLUMNS:
                        assert np.array_equal(
                            getattr(got, col), getattr(ref, col), equal_nan=col == "gprime"
                        ), (case, paths, chunk, with_gprime, name, ref.basis, col)


def test_swirl_exact_moments(monkeypatch):
    """The row-blocked Ito and Stratonovich sums against exact moments that
    share no code with the per-path oracle.  For alpha = (sin y, cos x) each
    cell's terms are odd in one coordinate's increment and independent
    across coordinates, so cross terms vanish and, with sin^2 + cos^2 = 1,
    E[ito] = E[strat] = 0, E[ito^2] = E[strat^2] = N dt = 1 and
    E[(strat - ito)^2] = N dt * 2 (1 - E cos(dW/2)) = 2 (1 - exp(-dt/8))."""
    from ogawa_lab import ensemble as ens

    grid, paths = TimeGrid(64), 4000
    monkeypatch.setattr(ens, "ROW_BLOCK_BYTES", 5 * 8 * (grid.num_steps + 1) * 2)
    stages = TruncationStage.for_schedule(haar_basis(2), (4,))
    led = build_ensemble_ledgers(
        swirl_field(), [stages], grid, paths, RngSpec(37), with_gprime=False
    )[0]
    gap = led.strat - led.ito
    for name, samples, exact in (
        ("E[ito]", led.ito, 0.0),
        ("E[strat]", led.strat, 0.0),
        ("E[ito^2]", led.ito**2, 1.0),
        ("E[strat^2]", led.strat**2, 1.0),
        ("E[(strat-ito)^2]", gap**2, 2.0 * (1.0 - math.exp(-grid.dt / 8.0))),
    ):
        z = (samples.mean() - exact) / (samples.std(ddof=1) / math.sqrt(paths))
        assert abs(z) <= 4.0, (name, float(samples.mean()), exact, float(z))
