"""Configuration-driven Monte Carlo experiments with CSV reports.

An experiment is described by a flat key = value text file (keys: ``field``,
``basis.a``, ``basis.b``, ``order.a``, ``order.b``, ``grid``, ``paths``,
``seed``, ``schedule``, ``out``) plus command-line overrides.  All bases and
orders within one experiment consume the same path ensemble (common random
numbers), so cross-basis differences are not drowned in Monte Carlo noise,
and every reduction runs in fixed path order: a (config, seed) pair yields
byte-identical reports across reruns.

Basis specs: ``psi-trig``, ``xi-mixed``, ``haar``, ``plin`` (one
piecewise-linear level per schedule entry), or ``plin:<level>`` (prefixes of
one fixed level).  Pilot-calibrated tolerances live in a versioned
expectations file; it is regenerated only by an explicit
``--update-expectations`` run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bases import EnumerationOrder, family_from_name, piecewise_linear_basis
# perfbench/spans.py traces diagonal_entries under every module that imports it
from .engine import TruncationStage, diagonal_entries  # noqa: F401
from .ensemble import EnsembleLedger, build_ensemble_ledgers
from .fields import RamerCheck, VectorField, field_from_name, gaussian_ramer_check
from .paths import RngSpec, TimeGrid, write_csv


class ConfigError(Exception):
    """Raised for unresolvable names, malformed values, or bad schedules."""


def _parse_schedule(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


class ConfigKey(NamedTuple):
    """One config key: the ExperimentConfig attribute it sets, the parser of
    its text value, and the help of its flag (``--`` + key, '.' -> '-')."""

    attr: str
    parse: Callable[[str], object]
    help: str


CONFIG_KEYS = {
    "field": ConfigKey("field", str, "field spec: linear:h1,k1,h2,k2 or id1d"),
    "basis.a": ConfigKey("basis_a", str, "basis spec for slot a"),
    "basis.b": ConfigKey("basis_b", str, "basis spec for slot b"),
    "order.a": ConfigKey("order_a", str, "enumeration order for slot a"),
    "order.b": ConfigKey("order_b", str, "enumeration order for slot b"),
    "grid": ConfigKey("grid", int, "number of grid steps"),
    "paths": ConfigKey("paths", int, "ensemble size M"),
    "seed": ConfigKey("seed", int, "master seed"),
    "schedule": ConfigKey("schedule", _parse_schedule, "comma-separated truncation schedule"),
    "out": ConfigKey("out", str, "output CSV path (stdout when omitted)"),
}

DEFAULT_SCHEDULE = (4, 16, 64, 256)


@dataclass(frozen=True)
class ExperimentConfig:
    field: str = "linear:1,0,0,1"
    basis_a: str = "psi-trig"
    basis_b: str | None = None
    order_a: str = "balanced"
    order_b: str | None = None
    grid: int = 4096
    paths: int = 10_000
    seed: int = 8161
    schedule: tuple[int, ...] = DEFAULT_SCHEDULE
    out: str | None = None

    def key(self) -> str:
        """Canonical identity of the experiment (excludes the output path)."""
        parts = [
            f"field={self.field}",
            f"basis.a={self.basis_a}",
            f"basis.b={self.basis_b or '-'}",
            f"order.a={self.order_a}",
            f"order.b={self.order_b or '-'}",
            f"grid={self.grid}",
            f"paths={self.paths}",
            f"seed={self.seed}",
            "schedule=" + ",".join(str(n) for n in self.schedule),
        ]
        return "|".join(parts)


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment, blank lines ignored."""
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc.strerror}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        raw[key] = value
    return raw


def config_from_mapping(raw: dict[str, str]) -> ExperimentConfig:
    updates: dict = {}
    for key, value in raw.items():
        if value is None:
            continue
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        attr, parse, _ = CONFIG_KEYS[key]
        try:
            updates[attr] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"bad {key} {value!r}: {exc}") from None
    return replace(ExperimentConfig(), **updates)


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.grid < 1:
        raise ConfigError(f"grid must be >= 1, got {cfg.grid}")
    if cfg.paths < 1:
        raise ConfigError(f"paths must be >= 1, got {cfg.paths}")
    if len(cfg.schedule) == 0:
        raise ConfigError("schedule must be nonempty")
    if min(cfg.schedule) < 1:
        raise ConfigError(f"schedule entries must be >= 1, got {cfg.schedule}")
    if any(b <= a for a, b in zip(cfg.schedule, cfg.schedule[1:])):
        raise ConfigError(f"schedule must be strictly increasing, got {cfg.schedule}")


def resolve_field(cfg: ExperimentConfig) -> VectorField:
    try:
        return field_from_name(cfg.field)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def resolve_stages(
    basis_spec: str,
    order_spec: str,
    dim: int,
    schedule: Sequence[int],
    grid: int,
) -> list[TruncationStage]:
    """Turn a basis spec into truncation stages, one per schedule entry.

    ``plin`` reads schedule entries as levels (one finite family each, taken
    in full); any other family reads them as prefix lengths.  Every stage
    must be exact on the grid (:meth:`BasisFamily.check_grid`): trig
    frequencies below grid / 2, breakpoints on grid nodes.
    """
    if min(schedule, default=1) < 1:
        raise ConfigError(f"schedule entries must be >= 1, got {tuple(schedule)}")
    try:
        order = EnumerationOrder.parse(order_spec)
        if basis_spec == "plin":
            stages = [
                TruncationStage(level, piecewise_linear_basis(level, dim), dim * level, order)
                for level in schedule
            ]
        else:
            fam = family_from_name(basis_spec, dim)
            for n in schedule:
                if fam.size is not None and n > fam.size:
                    raise ConfigError(
                        f"schedule entry {n} exceeds the {fam.size} elements of {fam.name}"
                    )
            stages = [TruncationStage(int(n), fam, int(n), order) for n in schedule]
        for st in stages:
            st.family.check_grid(grid, st.n_elements, order)
        return stages
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorRow:
    estimator: str
    n: int
    value: float
    stderr: float
    paths: int


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[EstimatorRow, ...]

    def by_estimator(self, name: str) -> list[EstimatorRow]:
        return [r for r in self.rows if r.estimator == name]

    def value(self, name: str, n: int) -> EstimatorRow:
        for r in self.rows:
            if r.estimator == name and r.n == n:
                return r
        raise KeyError(f"no row for estimator {name!r} at n = {n}")


def _mse_row(name: str, n: int, samples: np.ndarray) -> EstimatorRow:
    m = samples.shape[0]
    value = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return EstimatorRow(name, n, value, stderr, m)


def _ledger_rows(led: EnsembleLedger, suffix: str) -> list[EstimatorRow]:
    rows = []
    specs = (
        (f"E[(g_{suffix}-gprime_{suffix})^2]", led.g - led.gprime),
        (f"E[(gprime_{suffix}-strat)^2]", led.gprime - led.strat[:, None]),
        (f"E[(g_{suffix}-strat)^2]", led.g - led.strat[:, None]),
        (f"E[(h_{suffix}-ito)^2]", led.h - led.ito[:, None]),
    )
    for name, diff in specs:
        for idx, n in enumerate(led.schedule):
            rows.append(_mse_row(name, n, diff[:, idx] ** 2))
    return rows


def estimator_rows(
    ledger_a: EnsembleLedger, ledger_b: EnsembleLedger | None
) -> ConvergenceReport:
    """The estimator catalog over one or two common-random-number ledgers."""
    rows = _ledger_rows(ledger_a, "a")
    if ledger_b is not None:
        rows.extend(_ledger_rows(ledger_b, "b"))
        if ledger_a.schedule != ledger_b.schedule:
            raise ConfigError("schedules of basis a and b differ")
        diff = ledger_a.h - ledger_b.h
        for idx, n in enumerate(ledger_a.schedule):
            rows.append(_mse_row("E[(h_a-h_b)^2]", n, diff[:, idx] ** 2))
    return ConvergenceReport(tuple(rows))


def run_convergence(
    cfg: ExperimentConfig, return_ledgers: bool = False
):
    """Run the convergence experiment described by ``cfg``.

    Builds per-path ledgers for basis a (and b, when configured) over one
    shared ensemble and aggregates the estimator catalog; deterministic
    given the seed.
    """
    validate_config(cfg)
    fld = resolve_field(cfg)
    stage_lists = [
        resolve_stages(cfg.basis_a, cfg.order_a, fld.dim, cfg.schedule, cfg.grid)
    ]
    if cfg.basis_b is not None:
        stage_lists.append(
            resolve_stages(
                cfg.basis_b, cfg.order_b or "balanced", fld.dim, cfg.schedule, cfg.grid
            )
        )
    grid = TimeGrid(cfg.grid)
    ledgers = build_ensemble_ledgers(
        fld, stage_lists, grid, cfg.paths, RngSpec(cfg.seed)
    )
    report = estimator_rows(ledgers[0], ledgers[1] if len(ledgers) > 1 else None)
    if return_ledgers:
        return report, ledgers
    return report


@dataclass(frozen=True)
class OrderDependenceResult:
    report: ConvergenceReport
    r_rows: tuple[tuple[str, int, float], ...]  # (order spec, prefix length, r)


def run_order_dependence(cfg: ExperimentConfig) -> OrderDependenceResult:
    """Order-dependence experiment: one family, two enumeration orders.

    Emits the renormalization term as a function of prefix length for both
    orders (at every prefix, since the order dependence is the phenomenon
    under study) next to the usual estimator report.
    """
    validate_config(cfg)
    if cfg.order_b is None:
        raise ConfigError("order dependence needs order.b")
    cfg = replace(cfg, basis_b=cfg.basis_b or cfg.basis_a)
    fld = resolve_field(cfg)
    if not fld.constant_jacobian:
        raise ConfigError("order dependence is defined for constant-Jacobian fields")
    report, ledgers = run_convergence(cfg, return_ledgers=True)

    r_rows: list[tuple[str, int, float]] = []
    for led in ledgers:
        trajectory = np.cumsum(led.trace_entries)
        r_rows.extend((led.order, i + 1, float(r)) for i, r in enumerate(trajectory))
    return OrderDependenceResult(report, tuple(r_rows))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def emit_report(report: ConvergenceReport, file) -> None:
    """Write ``estimator,n,value,stderr,M`` rows; an empty report is header-only."""
    rows = ((r.estimator, r.n, r.value, r.stderr, r.paths) for r in report.rows)
    write_csv(file, ("estimator", "n", "value", "stderr", "M"), rows)


def emit_r_table(rows: Sequence[tuple[str, int, float]], file) -> None:
    """Write ``order,n,r`` rows of the running renormalization term."""
    write_csv(file, ("order", "n", "r"), rows)


def emit_spectrum(report, file) -> None:
    """Write ``n,j,lambda_closed,lambda_numeric,rel_err`` rows for a SpectrumReport."""
    rel = report.relative_errors()
    rows = (
        (n, j + 1, report.closed[n, j], report.numeric[n, j], rel[n, j])
        for n in range(report.count)
        for j in (0, 1)
    )
    write_csv(file, ("n", "j", "lambda_closed", "lambda_numeric", "rel_err"), rows)


# ---------------------------------------------------------------------------
# Gaussian divergence-inequality battery
# ---------------------------------------------------------------------------


def _battery_maps(n: int) -> list[tuple[str, object, object]]:
    c = 0.7

    def const_map(x):
        out = np.zeros_like(x)
        out[:] = c
        return out

    def zero_jac(x):
        return np.zeros(x.shape[:-1] + (n, n))

    def identity_jac(x):
        return np.broadcast_to(np.eye(n), x.shape[:-1] + (n, n)).copy()

    def sin_map(x):
        return 0.5 + 0.8 * np.sin(x)

    def sin_jac(x):
        out = np.zeros(x.shape[:-1] + (n, n))
        idx = np.arange(n)
        out[..., idx, idx] = 0.8 * np.cos(x)
        return out

    cases = [
        ("zero", lambda x: np.zeros_like(x), zero_jac),
        ("identity", lambda x: x, identity_jac),
        ("constant", const_map, zero_jac),
        ("sinusoidal", sin_map, sin_jac),
    ]
    if n >= 2:

        def rot_map(x):
            out = np.zeros_like(x)
            out[:, 0] = np.sin(x[:, 1])
            out[:, 1] = -np.sin(x[:, 0])
            return out

        def rot_jac(x):
            out = np.zeros(x.shape[:-1] + (n, n))
            out[:, 0, 1] = np.cos(x[:, 1])
            out[:, 1, 0] = -np.cos(x[:, 0])
            return out

        cases.append(("rotational", rot_map, rot_jac))
    return cases


@dataclass(frozen=True)
class RamerBatteryRow:
    case: str
    n: int
    check: RamerCheck


def run_ramer_battery(
    max_dim: int = 3, samples: int = 10**5, seed: int = 90210
) -> list[RamerBatteryRow]:
    """Divergence-inequality battery over the standard test maps, n = 1..max_dim."""
    if samples < 2:
        raise ConfigError(f"samples must be >= 2 for a standard error, got {samples}")
    if max_dim < 1:
        raise ConfigError(f"max_dim must be >= 1, got {max_dim}")
    rows = []
    rng = RngSpec(seed)
    for n in range(1, max_dim + 1):
        for case, fn, jac in _battery_maps(n):
            chk = gaussian_ramer_check(fn, jac, n, samples, rng)
            rows.append(RamerBatteryRow(case, n, chk))
    return rows


def emit_ramer(rows: Sequence[RamerBatteryRow], file) -> None:
    """Write ``case,n,samples,lhs,lhs_se,rhs,rhs_se,holds`` rows."""
    cells = (
        (row.case, row.n, c.samples, c.lhs, c.lhs_se, c.rhs, c.rhs_se, int(c.holds()))
        for row in rows
        for c in (row.check,)
    )
    write_csv(file, ("case", "n", "samples", "lhs", "lhs_se", "rhs", "rhs_se", "holds"), cells)


# ---------------------------------------------------------------------------
# expectations file
# ---------------------------------------------------------------------------


def default_expectations_path() -> Path:
    return Path(str(resources.files("ogawa_lab").joinpath("data/expectations.json")))


def load_expectations(path: str | Path | None = None) -> dict:
    p = Path(path) if path is not None else default_expectations_path()
    if not p.exists():
        return {"version": 1, "entries": {}}
    return json.loads(p.read_text())


def store_expectations(
    expectations: dict, cfg: ExperimentConfig, report: ConvergenceReport
) -> dict:
    entry_rows = [
        {"estimator": r.estimator, "n": r.n, "value": r.value, "stderr": r.stderr}
        for r in report.rows
    ]
    expectations.setdefault("entries", {})[cfg.key()] = {
        "paths": cfg.paths,
        "rows": entry_rows,
    }
    return expectations


def save_expectations(expectations: dict, path: str | Path | None = None) -> None:
    p = Path(path) if path is not None else default_expectations_path()
    p.write_text(json.dumps(expectations, indent=1, sort_keys=True) + "\n")


def compare_with_expectations(
    expectations: dict, cfg: ExperimentConfig, report: ConvergenceReport, sigmas: float = 3.0
) -> list[str]:
    """Mismatch messages for rows outside value +- sigmas * (se_old + se_new)."""
    entry = expectations.get("entries", {}).get(cfg.key())
    if entry is None:
        raise ConfigError(f"no expectations recorded for experiment key {cfg.key()!r}")
    stored = {(row["estimator"], row["n"]): row for row in entry["rows"]}
    failures = []
    seen = set()
    for r in report.rows:
        key = (r.estimator, r.n)
        seen.add(key)
        if key not in stored:
            failures.append(f"unexpected row {key}")
            continue
        ref = stored[key]
        band = sigmas * (ref["stderr"] + r.stderr)
        if abs(r.value - ref["value"]) > band:
            failures.append(
                f"{r.estimator} at n={r.n}: value {r.value:.6g} outside "
                f"{ref['value']:.6g} +- {band:.3g}"
            )
    for key in stored:
        if key not in seen:
            failures.append(f"missing row {key}")
    return failures
