"""ogawa-lab benchmark: one named workload, in fresh processes, behind a correctness gate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each repetition of the workload is a fresh ``child.py`` process
that calls the package's public functions, writes the workload's report
CSVs and checks them.  Repetitions continue until ``--seconds`` have passed
and at least three have run (two traced and two untraced in a traced run).

``--trace 0`` reports end-to-end medians over the repetitions: ``wall_s``,
``setup_s`` (also sampled by two set-up-only processes before each
repetition), ``paths_per_s`` and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
medians of the traced ones, plus ``trace.overhead_frac``, the relative
difference of the traced and untraced ``wall_s`` medians.

Correctness: every check a repetition makes counts as attempted, and so
does the byte identity of every repetition's reports with the first one's
(all repetitions use the same seed).  A failed check, or a repetition that
does not finish, makes the run fail: it prints ``"correct": false`` and exits
with code 1.

Standard output ends with two JSON lines: a ``detail`` record (environment,
per-repetition figures, report hash, failures) and the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).with_name("child.py")
SCRATCH = ROOT / ".perfbench_runs"

WORKLOADS = ("mc-psi-haar-2d", "mc-plin-haar-1d", "operators-xi-spectrum", "mc-swirl-haar")
MIN_REPS = 3        # untraced repetitions (median, byte identity)
MIN_TRACED = 2      # traced and untraced repetitions of a traced run
TIME_LIMIT = 165.0  # start no repetition that would end after this
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "paths_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "paths.rng_s": "s",
    "paths.rng_calls": "count",
    "bases.eval_s": "s",
    "bases.elements_evaluated": "count",
    "bases.plan_bytes": "bytes-computed",
    "fields.alpha_s": "s",
    "fields.alpha_calls": "count",
    "fields.jacobian_s": "s",
    "engine.trace_s": "s",
    "engine.trace_calls": "count",
    "ensemble.self_s": "s",
    "ensemble.gemm_flops": "flop-computed",
    "ensemble.chunks": "count",
    "spectral.operator_s": "s",
    "spectral.eigh_s": "s",
    "harness.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def cpu_info() -> dict:
    """nproc, CPU model and cache sizes, read from /proc and /sys."""
    info: dict = {"nproc": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    info["caches"] = caches
    return info


def child_env(nproc: int) -> dict:
    """The parent's environment with BLAS threads pinned to at most nproc."""
    env = dict(os.environ)
    try:
        threads = int(env.get("OPENBLAS_NUM_THREADS") or env.get("OMP_NUM_THREADS") or nproc)
    except ValueError:
        threads = nproc
    threads = max(1, min(threads, nproc))
    env.update({var: str(threads) for var in BLAS_VARS})
    return env


class Runner:
    """Spawns the child processes of one run, collecting their failures."""

    def __init__(self, args, env: dict, scratch: Path):
        self.args = args
        self.env = env
        self.scratch = scratch
        self.born = time.monotonic()
        self.errors: list[str] = []
        self.longest = 0.0

    def has_time(self) -> bool:
        return time.monotonic() - self.born + self.longest <= TIME_LIMIT

    def spawn(self, *flags: str) -> dict | None:
        """Run one child to completion; its result, or None after recording why not."""
        begun = time.monotonic()
        cmd = [
            sys.executable,
            str(CHILD),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--spawned-at", repr(begun),
            *flags,
        ]
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, TIME_LIMIT + 10.0 - (begun - self.born)),
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"child {flags} timed out")
            return None
        finally:
            self.longest = max(self.longest, time.monotonic() - begun)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.errors.append(f"child {flags} exited {proc.returncode}: {tail[0]}")
            return None
        return json.loads(lines[-1])

    def measure(self) -> dict[str, list[dict]]:
        """Repetitions until --seconds have passed and the minimum counts are met."""
        trace = self.args.trace
        runs: dict[str, list[dict]] = {"probe": [], "plain": [], "traced": []}
        start = time.monotonic()

        def enough() -> bool:
            if time.monotonic() - start < self.args.seconds:
                return False
            if trace:
                return min(len(runs["plain"]), len(runs["traced"])) >= MIN_TRACED
            return len(runs["plain"]) >= MIN_REPS

        kinds = ("plain", "traced") if trace else ("probe", "probe", "plain")
        while not enough():
            for kind in kinds:
                if not self.has_time():
                    return runs
                out = self.scratch / f"rep{len(runs['plain']) + len(runs['traced'])}"
                flags = {
                    "probe": ("--probe",),
                    "plain": ("--out", str(out)),
                    "traced": ("--out", str(out), "--trace"),
                }[kind]
                result = self.spawn(*flags)
                if result is None:
                    return runs
                runs[kind].append(result)
        return runs


def median_of(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=8161)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "ogawa_lab" / "__init__.py").is_file():
        print(f"no ogawa_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cpu = cpu_info()
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args, child_env(cpu["nproc"]), scratch)
        # warm-up: fills bytecode and file caches; its set-up time is dropped
        warm = runner.spawn("--probe")
        runs = runner.measure() if warm is not None else {"probe": [], "plain": [], "traced": []}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    plain, traced = runs["plain"], runs["traced"]
    if not plain or (args.trace and not traced):
        print("; ".join(runner.errors) or "no repetition finished", file=sys.stderr)
        return 1

    # a child that failed counts as one failed check
    failures = list(runner.errors)
    attempted = len(runner.errors)
    digest = plain[0]["sha256"]
    for rep in plain + traced:
        attempted += rep["attempted"]
        failures.extend(rep["failures"])
    for rep in plain[1:] + traced:
        attempted += 1
        if rep["sha256"] != digest:
            failures.append(f"report bytes differ between repetitions: {rep['sha256']} != {digest}")

    if args.trace:
        values = {
            name: median_of([rep["layers"][name] for rep in traced])
            for name in traced[0]["layers"]
        }
        values["trace.overhead_frac"] = (
            median_of([rep["wall_s"] for rep in traced])
            / median_of([rep["wall_s"] for rep in plain])
            - 1.0
        )
        units = PER_LAYER_UNITS
    else:
        setups = [rep["setup_s"] for rep in runs["probe"] + plain]
        values = {
            "wall_s": median_of([rep["wall_s"] for rep in plain]),
            "setup_s": median_of(setups),
            "paths_per_s": median_of([rep["paths"] / rep["wall_s"] for rep in plain]),
            "peak_rss_mb": median_of([rep["peak_rss_mb"] for rep in plain]),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    figures = ("setup_s", "wall_s", "peak_rss_mb")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": dict(warm["env"], **cpu),
        "report_sha256": digest,
        "repetitions": [
            dict({k: rep[k] for k in figures}, traced=flag)
            for reps, flag in ((plain, False), (traced, True))
            for rep in reps
        ],
        "setup_probes": [rep["setup_s"] for rep in runs["probe"]],
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
    }
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
