"""Command-line entry points: converge, order, spectrum, trace, ramer.

Every subcommand accepts ``--config FILE`` (flat key = value text) plus flag
overrides.  Exit codes: 0 on success, 2 on configuration errors, 3 when
``--assert`` finds results outside the recorded expectation bands.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import harness
from .engine import diagonal_entries
from .harness import ConfigError, ExperimentConfig
from .paths import SamplePath, TimeGrid, write_csv
from .spectral import discretized_L_spectrum


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value experiment file")
    for key, spec in harness.CONFIG_KEYS.items():
        p.add_argument("--" + key.replace(".", "-"), dest=spec.attr, help=spec.help)


def _add_assert_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--assert",
        dest="assert_mode",
        action="store_true",
        help="compare results against the expectations file",
    )
    p.add_argument(
        "--update-expectations",
        action="store_true",
        help="record this run's estimator values as the new expectations",
    )
    p.add_argument("--expectations", help="expectations JSON path (packaged default)")


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict[str, str] = {}
    if args.config:
        raw.update(harness.parse_config_file(args.config))
    for key, spec in harness.CONFIG_KEYS.items():
        value = getattr(args, spec.attr)
        if value is not None:
            raw[key] = value
    return harness.config_from_mapping(raw)


def _emit(writer, out: str | None) -> None:
    if out is None:
        writer(sys.stdout)
        return
    try:
        writer(out)
    except OSError as exc:
        raise ConfigError(f"cannot write {out!r}: {exc.strerror}") from None


def _check_writable(*outs: str | None) -> None:
    """Fail before a run, not after it, when an output file cannot be written."""
    for out in outs:
        if out is None:
            continue
        path = Path(out)
        if path.is_dir():
            code = errno.EISDIR
        elif not path.parent.is_dir():
            code = errno.ENOENT
        elif not os.access(path if path.exists() else path.parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise ConfigError(f"cannot write {out!r}: {os.strerror(code)}")


def _require_finite(rows) -> None:
    """Refuse to write a report whose (name, n, value, ...) rows hold inf or NaN."""
    for name, n, *values in rows:
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{name} at n = {n} is not finite; no CSV written")


def _report_rows(report) -> list:
    return [(r.estimator, r.n, r.value, r.stderr) for r in report.rows]


def _handle_expectations(args, cfg, report) -> int:
    if args.update_expectations:
        exp = harness.load_expectations(args.expectations)
        harness.store_expectations(exp, cfg, report)
        harness.save_expectations(exp, args.expectations)
        print(f"expectations updated for key {cfg.key()!r}", file=sys.stderr)
    if args.assert_mode:
        exp = harness.load_expectations(args.expectations)
        failures = harness.compare_with_expectations(exp, cfg, report)
        if failures:
            for msg in failures:
                print(f"assertion failure: {msg}", file=sys.stderr)
            return 3
        print("all estimator rows within expectation bands", file=sys.stderr)
    return 0


def cmd_converge(args) -> int:
    cfg = build_config(args)
    _check_writable(cfg.out)
    with np.errstate(all="ignore"):  # non-finite results are refused below
        report = harness.run_convergence(cfg)
    _require_finite(_report_rows(report))
    _emit(lambda f: harness.emit_report(report, f), cfg.out)
    return _handle_expectations(args, cfg, report)


def _r_table_path(out: str) -> str:
    p = Path(out)
    return str(p.with_name(p.stem + "_rtrajectory" + (p.suffix or ".csv")))


def cmd_order(args) -> int:
    cfg = build_config(args)
    r_out = _r_table_path(cfg.out) if cfg.out else None
    _check_writable(cfg.out, r_out)
    with np.errstate(all="ignore"):  # non-finite results are refused below
        result = harness.run_order_dependence(cfg)
    _require_finite(_report_rows(result.report) + list(result.r_rows))
    _emit(lambda f: harness.emit_report(result.report, f), cfg.out)
    _emit(lambda f: harness.emit_r_table(result.r_rows, f), r_out)
    return _handle_expectations(args, cfg, result.report)


def cmd_spectrum(args) -> int:
    cfg = build_config(args)
    _check_writable(cfg.out)
    fld = harness.resolve_field(cfg)
    if not hasattr(fld, "matrix"):
        raise ConfigError("spectrum requires a linear field")
    try:
        report = discretized_L_spectrum(fld, TimeGrid(cfg.grid), args.count)
    except ValueError as exc:  # a --count outside 1..grid
        raise ConfigError(str(exc)) from exc
    _emit(lambda f: harness.emit_spectrum(report, f), cfg.out)
    return 0


def cmd_trace(args) -> int:
    cfg = build_config(args)
    _check_writable(cfg.out)
    fld = harness.resolve_field(cfg)
    if not fld.constant_jacobian:
        raise ConfigError("trace trajectories are defined for constant-Jacobian fields")
    if args.n_max < 1:
        raise ConfigError(f"--n-max must be >= 1, got {args.n_max}")
    stages = harness.resolve_stages(
        cfg.basis_a, cfg.order_a, fld.dim, [args.n_max], cfg.grid
    )
    st = stages[0]
    probe = SamplePath.zero(TimeGrid(cfg.grid), fld.dim)
    with np.errstate(all="ignore"):  # non-finite results are refused below
        trajectory = np.cumsum(diagonal_entries(fld, probe, st.family, st.n_elements, st.order))
    _require_finite((f"r ({st.family.name})", i + 1, r) for i, r in enumerate(trajectory))
    rows = [(st.family.name, st.order.spec, i + 1, r) for i, r in enumerate(trajectory)]
    _emit(lambda f: write_csv(f, ("basis", "order", "n", "r"), rows), cfg.out)
    return 0


def cmd_ramer(args) -> int:
    _check_writable(args.out)
    rows = harness.run_ramer_battery(args.max_dim, args.samples, args.seed)
    _require_finite(
        (f"ramer {r.case}", r.n, r.check.lhs, r.check.lhs_se, r.check.rhs, r.check.rhs_se)
        for r in rows
    )
    _emit(lambda f: harness.emit_ramer(rows, f), args.out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ogawa-lab",
        description="Monte Carlo laboratory for basis-expansion stochastic integrals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("converge", help="basis/limit convergence estimators")
    _add_config_flags(p)
    _add_assert_flags(p)
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("order", help="enumeration-order dependence of the trace term")
    _add_config_flags(p)
    _add_assert_flags(p)
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("spectrum", help="closed-form vs discretized spectrum of DG*DG")
    _add_config_flags(p)
    p.add_argument("--count", type=int, default=8, help="number of modes per block")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("trace", help="renormalization-term trajectory for one basis")
    _add_config_flags(p)
    p.add_argument("--n-max", dest="n_max", type=int, default=64)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("ramer", help="Gaussian divergence-inequality battery")
    p.add_argument("--samples", type=int, default=10**5)
    p.add_argument("--max-dim", dest="max_dim", type=int, default=3)
    p.add_argument("--seed", type=int, default=90210)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ramer)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
