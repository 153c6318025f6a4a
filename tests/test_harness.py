import importlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import ogawa_lab
from ogawa_lab import (
    RngSpec,
    SamplePath,
    TimeGrid,
    TruncationStage,
    build_ledger,
    diagonal_entries,
    discretized_L_spectrum,
    dump_ledgers_csv,
    dump_path_csv,
    field_from_name,
    haar_basis,
    harness,
    sample_brownian,
)
from ogawa_lab import cli
from ogawa_lab.cli import main
from ogawa_lab.fields import RamerCheck
from ogawa_lab.harness import (
    ConfigError,
    ExperimentConfig,
    compare_with_expectations,
    config_from_mapping,
    emit_report,
    parse_config_file,
    run_convergence,
    run_order_dependence,
    run_ramer_battery,
    store_expectations,
)
from ogawa_lab.paths import write_csv

from oracles import parse_report


class TestConfig:
    def test_parse_file(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "# comment\n"
            "field = linear:1,0,0,1\n"
            "basis.a = haar\n"
            "grid = 512  # inline comment\n"
            "schedule = 2,4,8\n"
        )
        raw = parse_config_file(cfg_file)
        cfg = config_from_mapping(raw)
        assert cfg.basis_a == "haar"
        assert cfg.grid == 512
        assert cfg.schedule == (2, 4, 8)

    def test_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("knob = 3\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(cfg_file)

    def test_schedule_must_increase(self):
        cfg = ExperimentConfig(schedule=(4, 4, 8), paths=2, grid=64)
        with pytest.raises(ConfigError, match="increasing"):
            run_convergence(cfg)

    def test_plin_level_must_divide_grid(self):
        cfg = ExperimentConfig(
            field="id1d", basis_a="plin", grid=100, paths=2, schedule=(3, 7)
        )
        with pytest.raises(ConfigError, match="divide"):
            run_convergence(cfg)

    def test_schedule_exceeding_finite_family(self):
        cfg = ExperimentConfig(
            field="id1d", basis_a="plin:4", grid=64, paths=2, schedule=(2, 8)
        )
        with pytest.raises(ConfigError, match="exceeds"):
            run_convergence(cfg)

    @pytest.mark.parametrize("basis", ["plin", "haar"])
    def test_resolve_stages_rejects_nonpositive_entries(self, basis):
        # called directly, without validate_config in front of it
        with pytest.raises(ConfigError, match="schedule entries must be >= 1"):
            harness.resolve_stages(basis, "balanced", 1, [0, 4], 64)

    def test_non_integer_value(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("grid = abc\n")
        with pytest.raises(ConfigError, match="bad grid 'abc'"):
            config_from_mapping(parse_config_file(cfg_file))

    def test_unresolvable_basis(self):
        cfg = ExperimentConfig(basis_a="wavelets", paths=2, grid=64, schedule=(2,))
        with pytest.raises(ConfigError, match="unknown basis"):
            run_convergence(cfg)


def test_benchmark_configs_resolve(monkeypatch):
    """Every perfbench workload still validates and resolves its stages."""
    import importlib.util
    from pathlib import Path

    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_child", bench / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert len(child.WORKLOADS) == 4
    for name, make in child.WORKLOADS.items():
        make(8161)  # raises ConfigError if a stage list no longer resolves


def test_benchmark_tracer_finds_every_traced_call(monkeypatch):
    """perfbench wraps each traced call at every place its callers look it up,
    by name.  A moved or renamed name fails here, not only in a traced run."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spans = importlib.import_module("spans")
    originals = [
        (site, attr, getattr(site, attr))
        for _, sites, attr, _ in spans.traced_sites(ogawa_lab)
        for site in sites
    ]
    with spans.Tracer().installed(ogawa_lab):
        assert all(getattr(site, attr) is not fn for site, attr, fn in originals)
    assert all(getattr(site, attr) is fn for site, attr, fn in originals)


class TestRunConvergence:
    def test_zero_field_all_estimators_vanish(self):
        cfg = ExperimentConfig(
            field="linear:0,0,0,0",
            basis_a="psi-trig",
            basis_b="haar",
            grid=128,
            paths=6,
            schedule=(2, 4),
        )
        rep = run_convergence(cfg)
        assert len(rep.rows) > 0
        for row in rep.rows:
            assert row.value == 0.0
            assert row.stderr == 0.0

    def test_identical_bases_give_zero_cross_estimator(self):
        cfg = ExperimentConfig(
            field="linear:1,0,0,1",
            basis_a="haar",
            basis_b="haar",
            grid=128,
            paths=5,
            schedule=(2, 4),
        )
        rep = run_convergence(cfg)
        for row in rep.by_estimator("E[(h_a-h_b)^2]"):
            assert row.value == 0.0

    def test_row_metadata(self):
        cfg = ExperimentConfig(
            field="id1d", basis_a="haar", grid=128, paths=9, schedule=(2, 8)
        )
        rep = run_convergence(cfg)
        names = {r.estimator for r in rep.rows}
        assert names == {
            "E[(g_a-gprime_a)^2]",
            "E[(gprime_a-strat)^2]",
            "E[(g_a-strat)^2]",
            "E[(h_a-ito)^2]",
        }
        assert all(r.paths == 9 for r in rep.rows)
        assert all(r.stderr >= 0.0 for r in rep.rows)


class TestReportCsv:
    def test_round_trip(self):
        cfg = ExperimentConfig(
            field="id1d", basis_a="haar", grid=64, paths=4, schedule=(2, 4)
        )
        rep = run_convergence(cfg)
        buf = io.StringIO()
        emit_report(rep, buf)
        buf.seek(0)
        back = parse_report(buf)
        assert back == rep

    def test_empty_report_is_header_only(self):
        buf = io.StringIO()
        emit_report(harness.ConvergenceReport(()), buf)
        assert buf.getvalue() == "estimator,n,value,stderr,M\n"

    def test_reruns_are_byte_identical(self):
        cfg = ExperimentConfig(
            field="linear:1,0,0,1", basis_a="psi-trig", grid=128, paths=7,
            schedule=(2, 4),
        )
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            emit_report(run_convergence(cfg), buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]


class TestCsvWriters:
    """Every report and dump is written by paths.write_csv, so a str path, a
    Path and an open handle receive the same bytes."""

    WRITERS = (
        "emit_report", "emit_r_table", "emit_spectrum", "emit_ramer",
        "dump_path_csv", "dump_ledgers_csv", "cmd_trace",
    )

    @staticmethod
    def writer(name, monkeypatch):
        if name in ("emit_report", "emit_r_table"):
            res = run_order_dependence(ExperimentConfig(
                field="linear:0,0,1,0", basis_a="xi-mixed", order_b="adversarial:2",
                grid=64, paths=3, schedule=(2, 4),
            ))
            if name == "emit_report":
                return lambda f: emit_report(res.report, f)
            return lambda f: harness.emit_r_table(res.r_rows, f)
        if name == "emit_spectrum":
            spec = discretized_L_spectrum(field_from_name("linear:1,0,0,1"), TimeGrid(64), 2)
            return lambda f: harness.emit_spectrum(spec, f)
        if name == "emit_ramer":
            rows = run_ramer_battery(max_dim=2, samples=100, seed=5)
            return lambda f: harness.emit_ramer(rows, f)
        grid = TimeGrid(16)
        paths = [sample_brownian(grid, 2, RngSpec(3), i) for i in range(2)]
        if name == "dump_path_csv":
            return lambda f: dump_path_csv(paths[0], f)
        if name == "dump_ledgers_csv":
            stages = TruncationStage.for_schedule(haar_basis(2), (2, 4))
            fld = field_from_name("linear:1,0.5,0,1")
            ledgers = [build_ledger(fld, p, stages) for p in paths]
            return lambda f: dump_ledgers_csv(ledgers, f)
        # cmd_trace hands its writer to cli._emit
        captured = []
        monkeypatch.setattr(cli, "_emit", lambda write, out: captured.append(write))
        code = main([
            "trace", "--field", "linear:2,0,0,4", "--basis-a", "psi-trig",
            "--grid", "64", "--n-max", "4",
        ])
        assert code == 0
        return captured[0]

    @pytest.mark.parametrize("name", WRITERS)
    def test_str_path_and_handle_get_the_same_bytes(self, name, tmp_path, monkeypatch):
        write = self.writer(name, monkeypatch)
        write(str(tmp_path / "str.csv"))
        write(tmp_path / "path.csv")
        buf = io.StringIO()
        write(buf)
        expected = buf.getvalue().encode()
        assert expected.count(b"\n") >= 4
        assert (tmp_path / "str.csv").read_bytes() == expected
        assert (tmp_path / "path.csv").read_bytes() == expected

    def test_cells(self):
        buf = io.StringIO()
        write_csv(buf, ("a", "b", "c", "d", "e"), [(0.1, np.float64(1 / 3), 7, "x", math.nan)])
        assert buf.getvalue() == "a,b,c,d,e\n0.10000000000000001,0.33333333333333331,7,x,nan\n"


class TestOrderDependence:
    def base_config(self, field="linear:0.25,0.25,1.25,0.75", k=20):
        # h2 - k1 = 1 by default
        return ExperimentConfig(
            field=field,
            basis_a="xi-mixed",
            order_a="balanced",
            order_b=f"adversarial:{k}",
            grid=2**10,
            paths=4,
            schedule=(4, 16, 64),
        )

    def test_balanced_blocks_cancel(self):
        res = run_order_dependence(self.base_config())
        div_half = (0.25 + 0.75) / 2
        balanced = {n: r for (o, n, r) in res.r_rows if o == "balanced"}
        for boundary in (2, 6, 10, 14, 18):
            assert abs(balanced[boundary] - div_half) <= 1e-10

    def test_adversarial_excess_matches_harmonic_number(self):
        k = 20
        res = run_order_dependence(self.base_config(k=k))
        adv = {n: r for (o, n, r) in res.r_rows if o == f"adversarial:{k}"}
        h_k = sum(1.0 / m for m in range(1, k + 1))
        div_half = (0.25 + 0.75) / 2
        assert adv[2 + 2 * k] == pytest.approx(div_half + h_k / (2 * math.pi), abs=1e-10)

    def test_curl_free_orders_agree(self):
        res = run_order_dependence(self.base_config(field="linear:1,0.5,0.5,1"))
        balanced = {n: r for (o, n, r) in res.r_rows if o == "balanced"}
        adversarial = {n: r for (o, n, r) in res.r_rows if o != "balanced"}
        # same multiset of prefix values: every diagonal entry is order-blind
        for n in balanced:
            assert abs(balanced[n] - adversarial[n]) <= 1e-10

    def test_r_rows_are_cumsum_of_diagonal_entries(self):
        cfg = self.base_config(k=4)
        res = run_order_dependence(cfg)
        fld = harness.resolve_field(cfg)
        probe = SamplePath.zero(TimeGrid(cfg.grid), fld.dim)
        for order in (cfg.order_a, cfg.order_b):
            st = harness.resolve_stages(cfg.basis_a, order, fld.dim, [64], cfg.grid)[0]
            expected = np.cumsum(diagonal_entries(fld, probe, st.family, 64, st.order))
            got = np.array([r for (o, _, r) in res.r_rows if o == order])
            assert [n for (o, n, _) in res.r_rows if o == order] == list(range(1, 65))
            assert np.array_equal(got, expected)

    def test_requires_order_b(self):
        cfg = ExperimentConfig(basis_a="xi-mixed", paths=2, grid=64, schedule=(2,))
        with pytest.raises(ConfigError, match="order.b"):
            run_order_dependence(cfg)


class TestExpectations:
    def make_report(self):
        cfg = ExperimentConfig(
            field="id1d", basis_a="haar", grid=128, paths=8, schedule=(2, 4)
        )
        return cfg, run_convergence(cfg)

    def test_store_and_compare(self):
        cfg, rep = self.make_report()
        exp = {"version": 1, "entries": {}}
        store_expectations(exp, cfg, rep)
        assert compare_with_expectations(exp, cfg, rep) == []

    def test_detects_drift(self):
        cfg, rep = self.make_report()
        exp = {"version": 1, "entries": {}}
        store_expectations(exp, cfg, rep)
        rows = list(rep.rows)
        bad = rows[0]
        rows[0] = harness.EstimatorRow(
            bad.estimator, bad.n, bad.value + 1.0, bad.stderr, bad.paths
        )
        failures = compare_with_expectations(
            exp, cfg, harness.ConvergenceReport(tuple(rows))
        )
        assert len(failures) == 1
        assert bad.estimator in failures[0]

    def test_missing_key_raises(self):
        cfg, rep = self.make_report()
        with pytest.raises(ConfigError, match="no expectations"):
            compare_with_expectations({"entries": {}}, cfg, rep)


class TestRamerBattery:
    def test_all_cases_hold(self):
        rows = run_ramer_battery(max_dim=2, samples=20000, seed=5)
        cases = {(r.case, r.n) for r in rows}
        assert ("identity", 1) in cases and ("rotational", 2) in cases
        for row in rows:
            assert row.check.holds(), f"{row.case} n={row.n}"


class TestCli:
    def run_cli(self, *args):
        return main(list(args))

    def test_converge_writes_report(self, tmp_path):
        out = tmp_path / "rep.csv"
        code = self.run_cli(
            "converge", "--field", "id1d", "--basis-a", "haar",
            "--grid", "128", "--paths", "5", "--schedule", "2,4",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "estimator,n,value,stderr,M"
        assert len(lines) == 9  # 4 estimators x 2 schedule entries

    def test_cli_runs_are_byte_identical(self, tmp_path):
        args = [
            "converge", "--field", "linear:1,0,0,1", "--basis-a", "psi-trig",
            "--grid", "128", "--paths", "6", "--schedule", "2,4", "--seed", "9",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert self.run_cli(*args, "--out", str(out1)) == 0
        assert self.run_cli(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        code = self.run_cli("converge", "--field", "linear:1,2")
        assert code == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["converge", "--schedule", "0,4"], "schedule entries must be >= 1"),
            (["trace", "--n-max", "0"], "--n-max must be >= 1"),
        ],
    )
    def test_nonpositive_sizes_exit_2(self, capsys, args, message):
        assert self.run_cli(*args, "--grid", "64", "--paths", "2") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error:") and message in err[0]

    def config_error_line(self, capsys) -> str:
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        return err[0]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--basis-a", "psi-trig", "--grid", "64", "--schedule", "4,16,64,256"], "Nyquist"),
            (["--basis-a", "haar", "--grid", "1000"], "does not divide grid 1000"),
        ],
    )
    def test_inexact_grid_exit_2(self, tmp_path, capsys, args, message):
        # trig frequencies at or past N/2, and Haar breakpoints off the grid
        out = tmp_path / "rep.csv"
        assert self.run_cli("converge", *args, "--paths", "2", "--out", str(out)) == 2
        assert message in self.config_error_line(capsys)
        assert list(tmp_path.iterdir()) == []

    def test_non_integer_flag_value_exit_2(self, capsys):
        assert self.run_cli("converge", "--grid", "abc", "--paths", "2") == 2
        assert "bad grid 'abc'" in self.config_error_line(capsys)

    def test_non_integer_config_value_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("grid = abc\n")
        assert self.run_cli("converge", "--config", str(cfg_file)) == 2
        assert "bad grid 'abc'" in self.config_error_line(capsys)

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "rep.csv"
        code = self.run_cli(
            "converge", "--field", "id1d", "--basis-a", "haar", "--grid", "64",
            "--paths", "2", "--schedule", "2", "--out", str(out),
        )
        assert code == 2
        assert "cannot write" in self.config_error_line(capsys)
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["converge", "order"])
    def test_unwritable_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch, command):
        def must_not_run(cfg):
            raise AssertionError("the run started before --out was checked")

        monkeypatch.setattr(harness, "run_convergence", must_not_run)
        monkeypatch.setattr(harness, "run_order_dependence", must_not_run)
        args = [
            command, "--basis-a", "xi-mixed", "--order-b", "adversarial:4",
            "--grid", "64", "--paths", "2", "--schedule", "2",
        ]
        out = tmp_path / "missing" / "rep.csv"
        assert self.run_cli(*args, "--out", str(out)) == 2
        assert "No such file or directory" in self.config_error_line(capsys)
        if command == "order":
            # the report path is fine, its r-trajectory sibling is a directory
            (tmp_path / "rep_rtrajectory.csv").mkdir()
            assert self.run_cli(*args, "--out", str(tmp_path / "rep.csv")) == 2
            assert "rep_rtrajectory.csv" in self.config_error_line(capsys)
            assert not (tmp_path / "rep.csv").exists()

    @pytest.mark.parametrize("command", ["spectrum", "trace", "ramer"])
    def test_unwritable_out_fails_before_the_work(self, tmp_path, capsys, monkeypatch, command):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the work started before --out was checked")

        monkeypatch.setattr(cli, "discretized_L_spectrum", must_not_run)
        monkeypatch.setattr(cli, "diagonal_entries", must_not_run)
        monkeypatch.setattr(harness, "run_ramer_battery", must_not_run)
        args = {
            "spectrum": ["--field", "linear:1,0,0,1", "--grid", "64"],
            "trace": ["--field", "linear:2,0,0,4", "--grid", "64"],
            "ramer": ["--samples", "100"],
        }[command]
        out = tmp_path / "missing" / "out.csv"
        assert self.run_cli(command, *args, "--out", str(out)) == 2
        assert "No such file or directory" in self.config_error_line(capsys)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--samples", "1"], "samples must be >= 2"),
            (["--samples", "0"], "samples must be >= 2"),
            (["--samples", "-5"], "samples must be >= 2"),
            (["--max-dim", "0"], "max_dim must be >= 1"),
        ],
    )
    def test_ramer_bad_sizes_exit_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "ram.csv"
        assert self.run_cli("ramer", *flags, "--out", str(out)) == 2
        assert message in self.config_error_line(capsys)
        assert not out.exists()

    def test_ramer_non_finite_rows_exit_2(self, tmp_path, capsys, monkeypatch):
        nan_row = harness.RamerBatteryRow("zero", 1, RamerCheck(0.0, 0.0, math.nan, 0.0, 100))
        monkeypatch.setattr(harness, "run_ramer_battery", lambda *args: [nan_row])
        out = tmp_path / "ram.csv"
        assert self.run_cli("ramer", "--out", str(out)) == 2
        assert "is not finite" in self.config_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["converge", "order"])
    def test_non_finite_rows_exit_2(self, tmp_path, capsys, command):
        # finite coefficients whose squares overflow
        out = tmp_path / "rep.csv"
        code = self.run_cli(
            command, "--field", "linear:1e300,0,0,1", "--basis-a", "xi-mixed",
            "--order-b", "adversarial:4", "--grid", "16", "--paths", "4",
            "--schedule", "2,4", "--out", str(out),
        )
        assert code == 2
        assert "is not finite" in self.config_error_line(capsys)
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_field_coefficient_exit_2(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        code = self.run_cli(
            "converge", "--field", "linear:nan,0,0,1", "--grid", "64",
            "--paths", "2", "--schedule", "2", "--out", str(out),
        )
        assert code == 2
        assert "must be finite" in self.config_error_line(capsys)
        assert not out.exists()

    def test_assert_mode_lifecycle(self, tmp_path):
        exp_file = tmp_path / "expectations.json"
        base = [
            "converge", "--field", "id1d", "--basis-a", "haar",
            "--grid", "128", "--paths", "5", "--schedule", "2,4", "--seed", "3",
            "--out", str(tmp_path / "rep.csv"), "--expectations", str(exp_file),
        ]
        # no expectations recorded yet -> config error
        assert self.run_cli(*base, "--assert") == 2
        # record, then assert passes
        assert self.run_cli(*base, "--update-expectations") == 0
        assert self.run_cli(*base, "--assert") == 0
        # tamper with the stored value -> assertion failure
        data = json.loads(exp_file.read_text())
        key = next(iter(data["entries"]))
        data["entries"][key]["rows"][0]["value"] += 1.0
        exp_file.write_text(json.dumps(data))
        assert self.run_cli(*base, "--assert") == 3

    def test_order_writes_r_table(self, tmp_path):
        out = tmp_path / "ord.csv"
        code = self.run_cli(
            "order", "--field", "linear:0,0,1,0", "--basis-a", "xi-mixed",
            "--order-a", "balanced", "--order-b", "adversarial:5",
            "--grid", "256", "--paths", "3", "--schedule", "2,8",
            "--out", str(out),
        )
        assert code == 0
        r_table = tmp_path / "ord_rtrajectory.csv"
        assert r_table.exists()
        lines = r_table.read_text().splitlines()
        assert lines[0] == "order,n,r"
        assert len(lines) == 1 + 2 * 8

    def test_spectrum_csv(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = self.run_cli(
            "spectrum", "--field", "linear:1,0,0,1", "--grid", "256",
            "--count", "2", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,j,lambda_closed,lambda_numeric,rel_err"
        assert len(lines) == 5

    def test_spectrum_requires_linear_field(self):
        assert self.run_cli("spectrum", "--field", "id1d", "--grid", "64") == 2

    @pytest.mark.parametrize(
        "flags, message",
        [(["--count", "0"], "count must be >= 1"), (["--grid", "8", "--count", "9"], "rank")],
    )
    def test_spectrum_count_out_of_range(self, capsys, flags, message):
        assert self.run_cli("spectrum", "--field", "linear:1,0,0,1", *flags) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error:") and message in err[0]

    def test_trace_csv(self, tmp_path):
        out = tmp_path / "tr.csv"
        code = self.run_cli(
            "trace", "--field", "linear:2,0,0,4", "--basis-a", "psi-trig",
            "--grid", "256", "--n-max", "4", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "basis,order,n,r"
        # constants enter first: r = h1/2 then (h1+k2)/2 afterwards
        assert lines[1].endswith(",1,1")
        assert lines[2].endswith(",2,3")

    def test_ramer_csv(self, tmp_path):
        out = tmp_path / "ram.csv"
        code = self.run_cli(
            "ramer", "--samples", "5000", "--max-dim", "1", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "case,n,samples,lhs,lhs_se,rhs,rhs_se,holds"
        assert all(line.endswith(",1") for line in lines[1:])
