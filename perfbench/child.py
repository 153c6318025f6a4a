"""Run one ogawa-lab benchmark workload in a fresh process.

``run.py`` starts this script once per repetition:

    python3 perfbench/child.py --workload NAME --seed N --spawned-at T --out DIR [--trace]
    python3 perfbench/child.py --workload NAME --seed N --spawned-at T --probe

``T`` is the parent's ``time.monotonic()`` just before the spawn, so
``setup_s`` runs from process start to ready: interpreter start, importing
numpy, scipy and ogawa_lab, and resolving field, stages and grid.  ``--probe``
stops there and reports the library environment instead of running.

``wall_s`` runs from the first call into the workload to its report files
being written and checked (finite values, expectation bands, identities).
The per-path oracle comparison runs after ``wall_s`` and after peak RSS is
read: it is the benchmark's cross-check, not work a user of the CLI pays.

The last stdout line is one JSON object.
"""

import time

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ogawa_lab  # noqa: E402
from ogawa_lab import engine, ensemble, harness, spectral  # noqa: E402
from ogawa_lab.fields import VectorField  # noqa: E402
from ogawa_lab.paths import RngSpec, TimeGrid, sample_brownian  # noqa: E402

from spans import ROOT_SPAN, Tracer, layer_metrics  # noqa: E402

SCHEDULE = (4, 16, 64, 256)
ORACLE_PATHS = 3
# TestEnsembleMatchesReference bounds: 1e-10 in general, 1e-12 for g and g'
# on piecewise-linear stages
ORACLE_TOL = 1e-10
PLIN_TOL = 1e-12


class Checks:
    """Counts correctness checks attempted and failed, keeping the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def tally(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures.extend(failures)

    def finite(self, name: str, values) -> None:
        bad = int(np.size(values) - np.count_nonzero(np.isfinite(values)))
        self.expect(bad == 0, f"{name}: {bad} non-finite values")


def _report_values(report) -> np.ndarray:
    return np.array([(r.value, r.stderr) for r in report.rows])


def _check_shrink(checks: Checks, report, names) -> None:
    """Criterion 5: E[(h-ito)^2] falls at least fourfold from n = 4 to n = 256."""
    for name in names:
        rows = sorted(report.by_estimator(name), key=lambda r: r.n)
        checks.expect(
            bool(rows) and rows[0].value >= 4.0 * rows[-1].value,
            f"{name} does not shrink fourfold: {[r.value for r in rows]}",
        )


def _check_oracle(checks: Checks, field, grid, rng, stage_lists, ledgers) -> None:
    """Compare the first paths of each ensemble ledger with engine.build_ledger."""
    for i in range(ORACLE_PATHS):
        path = sample_brownian(grid, field.dim, rng, i)
        for stages, led in zip(stage_lists, ledgers):
            ref = engine.build_ledger(field, path, stages)
            got = led.path_ledger(i)
            tight = PLIN_TOL if led.basis.startswith("plin") else ORACLE_TOL
            for col, tol in (("g", tight), ("r", ORACLE_TOL), ("gprime", tight)):
                err = float(np.abs(getattr(got, col) - getattr(ref, col)).max())
                checks.expect(err <= tol, f"oracle {led.basis} path {i} {col}: {err:.3g} > {tol}")
            for col in ("ito", "strat"):
                err = abs(getattr(got, col) - getattr(ref, col))
                checks.expect(err <= ORACLE_TOL, f"oracle {led.basis} path {i} {col}: {err:.3g}")


class Converge:
    """``converge`` on two bases over one shared ensemble, as the CLI runs it."""

    def __init__(self, seed: int, **spec):
        self.cfg = harness.ExperimentConfig(
            grid=4096, paths=10_000, seed=seed, schedule=SCHEDULE, **spec
        )
        harness.validate_config(self.cfg)
        self.field = harness.resolve_field(self.cfg)
        cfg = self.cfg
        self.stage_lists = [
            harness.resolve_stages(basis, order or "balanced", self.field.dim, cfg.schedule, cfg.grid)
            for basis, order in ((cfg.basis_a, cfg.order_a), (cfg.basis_b, cfg.order_b))
        ]
        self.grid = TimeGrid(cfg.grid)
        self.paths = cfg.paths

    def run(self, out: Path, checks: Checks) -> None:
        report, self.ledgers = harness.run_convergence(self.cfg, return_ledgers=True)
        harness.emit_report(report, out / "report.csv")
        checks.finite("report", _report_values(report))
        _check_shrink(checks, report, ("E[(h_a-ito)^2]", "E[(h_b-ito)^2]"))
        expectations = harness.load_expectations()
        if self.cfg.key() in expectations["entries"]:
            # one check per row, in the 3-SE bands that --assert uses
            mismatches = harness.compare_with_expectations(expectations, self.cfg, report)
            checks.tally(max(len(report.rows), len(mismatches)), mismatches)

    def oracle(self, checks: Checks) -> None:
        _check_oracle(
            checks, self.field, self.grid, RngSpec(self.cfg.seed), self.stage_lists, self.ledgers
        )


def swirl_field() -> VectorField:
    """alpha(x, y) = (sin y, cos x): a Jacobian that varies along the path."""

    def alpha(x):
        return np.stack([np.sin(x[..., 1]), np.cos(x[..., 0])], axis=-1)

    def jac(x):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 1] = np.cos(x[..., 1])
        out[..., 1, 0] = -np.sin(x[..., 0])
        return out

    return VectorField(2, alpha, jac)


class Swirl:
    """build_ensemble_ledgers on the swirl field: the path-dependent trace route."""

    def __init__(self, seed: int):
        self.field = swirl_field()
        self.grid = TimeGrid(4096)
        self.stage_lists = [harness.resolve_stages("haar", "balanced", 2, SCHEDULE, 4096)]
        self.rng = RngSpec(seed)
        self.paths = 2000

    def run(self, out: Path, checks: Checks) -> None:
        self.ledgers = ensemble.build_ensemble_ledgers(
            self.field, self.stage_lists, self.grid, self.paths, self.rng
        )
        report = harness.estimator_rows(self.ledgers[0], None)
        harness.emit_report(report, out / "report.csv")
        led = self.ledgers[0]
        checks.finite("report", _report_values(report))
        columns = (led.g, led.r, led.gprime, led.ito[:, None], led.strat[:, None])
        checks.finite("ledger", np.concatenate(columns, axis=1))

    def oracle(self, checks: Checks) -> None:
        _check_oracle(checks, self.field, self.grid, self.rng, self.stage_lists, self.ledgers)


class Operators:
    """``order`` on xi-mixed (balanced vs adversarial:100), then ``spectrum``."""

    ORDER_FIELD = "linear:0.25,0.25,1.25,0.75"  # h2 - k1 = 1, divergence 1

    def __init__(self, seed: int):
        self.order_cfg = harness.ExperimentConfig(
            field=self.ORDER_FIELD,
            basis_a="xi-mixed",
            order_a="balanced",
            order_b="adversarial:100",
            grid=4096,
            paths=64,
            seed=seed,
            schedule=(16, 128, 512, 1024),
        )
        cfg = self.order_cfg
        harness.validate_config(cfg)
        fld = harness.resolve_field(cfg)
        for order in (cfg.order_a, cfg.order_b):
            harness.resolve_stages(cfg.basis_a, order, fld.dim, cfg.schedule, cfg.grid)
        self.order_field = fld
        self.spectrum_field = harness.resolve_field(harness.ExperimentConfig(field="linear:1,0,0,1"))
        self.grid = TimeGrid(4096)
        self.count = 8
        self.paths = cfg.paths

    def run(self, out: Path, checks: Checks) -> None:
        result = harness.run_order_dependence(self.order_cfg)
        harness.emit_report(result.report, out / "order.csv")
        harness.emit_r_table(result.r_rows, out / "order_rtrajectory.csv")
        spec = spectral.discretized_L_spectrum(self.spectrum_field, self.grid, self.count)
        harness.emit_spectrum(spec, out / "spectrum.csv")

        checks.finite("order report", _report_values(result.report))
        checks.finite("r trajectory", [r for _, _, r in result.r_rows])
        checks.finite("spectrum", spec.numeric)
        # criterion 3: the balanced trace sits at div/2 after every whole
        # frequency block; front-loading 100 frequencies lifts it by H_100/(2 pi)
        balanced = {n: r for o, n, r in result.r_rows if o == "balanced"}
        adversarial = [r for o, n, r in result.r_rows if o != "balanced"]
        half_div = 0.5 * self.order_field.divergence_value
        off = max(abs(balanced[2 + 4 * b] - half_div) for b in range(len(balanced) // 4))
        checks.expect(off <= 1e-10, f"balanced trace off div/2 by {off:.3g}")
        lift = max(adversarial) - balanced[max(balanced)]
        checks.expect(lift >= 0.82, f"adversarial lift {lift:.4g} < 0.82")
        rel = float(np.max(spec.relative_errors()))
        checks.expect(rel <= 1e-3, f"spectrum relative error {rel:.3g} > 1e-3")

    def oracle(self, checks: Checks) -> None:
        """No per-path oracle: the identities checked in ``run`` are exact."""


WORKLOADS = {
    "mc-psi-haar-2d": lambda seed: Converge(
        seed, field="linear:1,0,0,1", basis_a="psi-trig", basis_b="haar", order_b="balanced"
    ),
    "mc-plin-haar-1d": lambda seed: Converge(seed, field="id1d", basis_a="plin", basis_b="haar"),
    "operators-xi-spectrum": Operators,
    "mc-swirl-haar": Swirl,
}


def environment() -> dict:
    """Library and BLAS description recorded next to each result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {
        var: os.environ.get(var)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ogawa_lab": ogawa_lab.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy_blas_config": blas.get("openblas configuration"),
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "scipy_blas_config": scipy_blas.get("openblas configuration"),
        "blas_threads": threads,
    }


def _sha256(files: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    if args.out is None and not args.probe:
        parser.error("--out is required unless --probe is given")

    if Path(ogawa_lab.__file__).resolve().parent != SRC / "ogawa_lab":
        print(f"ogawa_lab imported from {ogawa_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "env": environment()}))
        return 0

    checks = Checks()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.trace:
        tracer = Tracer()
        with tracer.installed(ogawa_lab), tracer.span(ROOT_SPAN):
            workload.run(args.out, checks)
        layers = layer_metrics(tracer.spans)
        wall_s = layers["trace.wall_s"]
    else:
        start = time.perf_counter()
        workload.run(args.out, checks)
        wall_s = time.perf_counter() - start
        layers = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.oracle(checks)

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "peak_rss_mb": peak_rss_mb,
                "paths": workload.paths,
                "sha256": _sha256(list(args.out.iterdir())),
                "attempted": checks.attempted,
                "failures": checks.failures,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
