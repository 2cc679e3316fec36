"""qhydro benchmark: scenario workloads run through the CLI, timed end to end.

    python3 perfbench/run.py --workload spread_dense --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the package is imported from
./src, and scratch output goes to ./.perfbench_out and is removed at exit.
Each workload's INI is generated with `qhydro print-default-config` and
overrides only N, snapshot_stride and enable_von_neumann.  The CLI runs one
subprocess at a time (a closed loop), with BLAS/OpenMP threads capped at
the number of usable cores.  Repetitions of the workload continue until the
next one would overrun --seconds; there is always at least one.

--trace 0 reports the end-to-end metrics: median wall time of a
repetition's CLI invocations (`wall_s`), median set-up time of fresh
interpreters (`setup_s`), median peak resident memory of the CLI process
(`peak_rss_mb`) and the largest measured/tolerance over the identities in
report.json (`worst_identity_margin`).

--trace 1 runs every repetition twice, untraced and through traced.py,
which spans each module's public functions; it reports per-layer metrics,
each the median over traced repetitions, and `trace.overhead_s`, the
traced minus the untraced median wall time.

An invocation fails on a nonzero exit, a missing or unparsable report.json,
an identity that did not pass, or data files or identity margins that differ
from the first invocation of the same command (so traced and untraced runs
must agree byte for byte).  The line before the result holds the details:
failure causes, per-identity margins, samples and layer shares.  The last
line is the result: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 30
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Workload:
    scenario: str
    commands: tuple[str, ...]
    overrides: dict


# Only N, snapshot_stride and enable_von_neumann are overridden; precision,
# vn_max_N and vn_stride are slated for removal, so no workload sets them.
WORKLOADS = {
    # ~982k longdouble Strang steps at N=128: evolve is ~99% of the run,
    # diagnostics and output round to zero (propagator changes show here)
    "trap_ground": Workload("harmonic_ground", ("run",), {}),
    # ~111k float64 steps at N=256, the RK4 width oracle and 446 rows; the
    # only workload that reaches `analytic.harmonic_sigma`.  `qhydro run`
    # exits 1 on it (report.json cannot serialize a numpy.bool_), so it is
    # left out of BENCHMARK.json until the CLI is fixed
    "trap_breathing": Workload("harmonic_perturbed", ("run",), {}),
    # 4001 diagnostics rows at N=1024 and, in `compare`, 4001 heat-kernel
    # snapshots; ~5 MB of CSV/JSON (per-row transforms and output show here)
    "spread_dense": Workload("free_gaussian", ("run", "compare"), {"snapshot_stride": "1"}),
    # 81 O(N^2) von Neumann evaluations at N=512, inside the default budget
    "spread_vn": Workload(
        "free_gaussian", ("run",),
        {"N": "512", "snapshot_stride": "5", "enable_von_neumann": "true"},
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "worst_identity_margin": "ratio"}

PER_LAYER_UNITS = {
    "schrodinger.evolve_s": "s",
    "schrodinger.us_per_step": "us",
    "schrodinger.fft_per_step": "count",
    "schrodinger.bytes_per_step": "B_computed",
    "schrodinger.energy_s": "s",
    "entropy.diagnostics_s": "s",
    "entropy.us_per_row": "us",
    "entropy.fft_per_row": "count",
    "entropy.von_neumann_s": "s",
    "entropy.von_neumann_ms_per_call": "ms",
    "madelung.density_s": "s",
    "madelung.advective_velocity_s": "s",
    "diffusion.diffuse_step_s": "s",
    "diffusion.us_per_snapshot": "us",
    "analytic.harmonic_sigma_s": "s",
    "analytic.reference_s": "s",
    "grid.make_grid_s": "s",
    "grid.fft_calls": "count",
    "grid.integrate_s": "s",
    "traces.centered_difference_s": "s",
    "cli.parse_config_s": "s",
    "cli.self_s": "s",
    "cli.emit_timeseries_s": "s",
    "cli.write_report_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_s": "s",
    "repo.src_lines": "lines",
}

# the per-row diagnostics of a `run` row, counted where no other one encloses them
ENTROPY_ROW = frozenset(
    f"entropy.{name}" for name in ("boltzmann_entropy", "fisher_information",
                                   "production_advective", "production_correlation",
                                   "production_diffusive")
)


@dataclass
class Call:
    """One CLI invocation and what it left behind."""

    command: str
    wall_s: float
    rss_mb: float
    margins: dict | None
    rows: int
    output_bytes: int
    sums: Counter | None  # span_sums of a traced call
    absent: list[str]  # traced functions the package no longer has


class Bench:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.rng = random.Random(seed)
        self.started = time.monotonic()
        self.work = ROOT / ".perfbench_out" / f"{name}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        cores = str(len(os.sched_getaffinity(0)))
        self.env.update({var: cores for var in THREAD_VARS})
        self.reference: dict[str, tuple] = {}  # command -> (data hashes, margins) of its first call
        self.failures: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def left(self) -> float:
        return TIME_LIMIT_S - (time.monotonic() - self.started)

    def python(self, *args: str) -> str:
        done = subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env, check=True,
                              capture_output=True, text=True, timeout=max(self.left(), 1.0))
        return done.stdout

    def write_ini(self) -> Path:
        text = self.python("-m", "qhydro.cli", "print-default-config", self.workload.scenario)
        for key, value in self.workload.overrides.items():
            text, found = re.subn(rf"^{key}\s*=.*$", f"{key} = {value}", text, flags=re.M)
            if found != 1:
                raise SystemExit(f"default {self.workload.scenario} config has no single {key!r} line")
        path = self.work / f"{self.name}.ini"
        path.write_text(text, encoding="ascii")
        return path

    def setup_seconds(self, ini: Path, probes: int) -> list[float]:
        # write_ini has imported the package once, so bytecode and page caches are warm
        return [float(self.python(str(HERE / "setup_probe.py"), str(ini))) for _ in range(probes)]

    def repetition(self, ini: Path, traced: bool) -> list[Call]:
        commands = list(self.workload.commands)
        self.rng.shuffle(commands)
        return [self.invoke(command, ini, traced) for command in commands]

    def invoke(self, command: str, ini: Path, traced: bool) -> Call:
        out = self.work / f"{self.attempted:04d}-{command}"
        spans = out.with_suffix(".spans.json")
        log = out.with_suffix(".log")
        head = [str(HERE / "traced.py"), str(spans)] if traced else ["-m", "qhydro.cli"]
        argv = [sys.executable, *head, command, str(ini), "--output-dir", str(out)]
        started = time.perf_counter()
        with open(log, "wb") as sink:
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=sink,
                                    stderr=subprocess.STDOUT)
        killer = threading.Timer(max(self.left(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1

        problems = []
        if proc.returncode != 0:
            lines = log.read_text(errors="replace").strip().splitlines()
            problems.append(("exit", f"exit {proc.returncode}: {lines[-1] if lines else ''}"))
        margins = None
        try:
            identities = json.loads((out / "report.json").read_text())["identities"]
            margins = {f"{command}.{c['name']}": c["measured"] / c["tolerance"]
                       for c in identities if c["tolerance"] > 0}
            problems += [("identity", f"{c['name']} did not pass")
                         for c in identities if c["passed"] is not True]
        except FileNotFoundError:
            problems.append(("report", "report.json missing"))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(("report", f"report.json unusable: {exc!r}"))
        files = sorted(out.iterdir()) if out.is_dir() else []
        data = [p for p in files if p.name != "report.json"]
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in data}
        first_hashes, first_margins = self.reference.setdefault(command, (hashes, margins))
        if hashes != first_hashes:
            problems.append(("data", "data files differ from the first invocation"))
        if margins != first_margins:
            problems.append(("margins", "identity margins differ from the first invocation"))
        for kind, detail in problems:
            self.failures.append({"command": command, "traced": traced, "kind": kind,
                                  "detail": detail})
        self.failed += bool(problems)

        rows = sum(len(p.read_text().splitlines()) - 1 for p in data if p.suffix == ".csv")
        trace = json.loads(spans.read_text()) if traced and spans.exists() else None
        call = Call(command, wall, usage.ru_maxrss / 1024, margins, rows,
                    sum(p.stat().st_size for p in files),
                    span_sums(trace) if trace else None, trace["absent"] if trace else [])
        shutil.rmtree(out, ignore_errors=True)
        spans.unlink(missing_ok=True)
        log.unlink()
        return call

    def repeat(self, seconds: float, once) -> list:
        """Call `once` until another call would overrun `seconds` or the time limit."""
        results, started = [], time.monotonic()
        while True:
            results.append(once())
            spent = time.monotonic() - started
            if spent / len(results) > min(seconds - spent, self.left() - 5.0):
                return results


def has_ancestor(spans: list, index: int, names) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def span_sums(trace: dict) -> Counter:
    """Inclusive and self seconds and FFT counts by span name, plus group totals."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    analytic = {s[0] for s in spans if s[0].startswith("analytic.")}
    sums = Counter(fft_calls=trace["fft_calls"])
    for i, (name, start, end, _, fft0, fft1, meta) in enumerate(spans):
        seconds = end - start
        sums[name] += seconds
        sums[name + ":calls"] += 1
        sums[name + ":self"] += seconds - child[i]
        if name in ENTROPY_ROW and not has_ancestor(spans, i, ENTROPY_ROW):
            sums["entropy_row"] += seconds
            sums["entropy_row:fft"] += fft1 - fft0
        if name in analytic and not has_ancestor(spans, i, analytic):
            sums["analytic"] += seconds
        if name == "schrodinger.evolve" and meta:
            steps, n, itemsize = meta
            ffts = fft1 - fft0
            sums["evolve:steps"] += steps
            sums["evolve:fft"] += ffts
            # computed traffic: each transform reads and writes the state once,
            # and each step's two phase products read two arrays and write one
            sums["evolve:bytes"] += (2 * ffts + 6 * steps) * n * itemsize
    return sums


def ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(calls: list[Call]) -> dict:
    """Per-layer metrics of one traced repetition; an absent layer reads 0."""
    total, run, rows = Counter(), Counter(), 0
    for call in calls:
        total.update(call.sums or {})
        if call.command == "run":
            run.update(call.sums or {})
            rows += call.rows
    steps = total["evolve:steps"]
    return {
        "schrodinger.evolve_s": total["schrodinger.evolve"],
        "schrodinger.us_per_step": ratio(total["schrodinger.evolve"], steps, 1e6),
        "schrodinger.fft_per_step": ratio(total["evolve:fft"], steps),
        "schrodinger.bytes_per_step": ratio(total["evolve:bytes"], steps),
        "schrodinger.energy_s": total["schrodinger.energy"],
        "entropy.diagnostics_s": total["entropy_row"],
        "entropy.us_per_row": ratio(run["entropy_row"], rows, 1e6),
        "entropy.fft_per_row": ratio(run["entropy_row:fft"], rows),
        "entropy.von_neumann_s": total["entropy.von_neumann_entropy"],
        "entropy.von_neumann_ms_per_call": ratio(
            total["entropy.von_neumann_entropy"], total["entropy.von_neumann_entropy:calls"], 1e3),
        "madelung.density_s": total["madelung.density"],
        "madelung.advective_velocity_s": total["madelung.advective_velocity"],
        "diffusion.diffuse_step_s": total["diffusion.diffuse_step"],
        "diffusion.us_per_snapshot": ratio(
            total["diffusion.diffuse_step"], total["diffusion.diffuse_step:calls"], 1e6),
        "analytic.harmonic_sigma_s": total["analytic.harmonic_sigma"],
        "analytic.reference_s": total["analytic"],
        "grid.make_grid_s": total["grid.make_grid"],
        "grid.fft_calls": total["fft_calls"],
        "grid.integrate_s": total["grid.integrate"],
        "traces.centered_difference_s": total["traces.centered_difference"],
        "cli.parse_config_s": total["cli.parse_config"],
        "cli.self_s": total["cli.run_scenario:self"] + total["cli.compare_quantum_diffusion:self"],
        "cli.emit_timeseries_s": total["cli.emit_timeseries"],
        "cli.write_report_s": total["cli.write_report"],
        "cli.output_bytes": sum(c.output_bytes for c in calls),
    }


def identity_margins(calls: list[Call]) -> dict | None:
    if any(c.margins is None for c in calls):
        return None
    return {name: value for c in calls for name, value in c.margins.items()}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def measure_end_to_end(bench: Bench, ini: Path, seconds: float):
    # half the set-up probes run before the repetitions and half after, so a
    # passing burst of load on the machine moves their median less
    setup = bench.setup_seconds(ini, SETUP_PROBES // 2)
    reps = bench.repeat(seconds, lambda: bench.repetition(ini, traced=False))
    setup += bench.setup_seconds(ini, SETUP_PROBES - SETUP_PROBES // 2)
    walls = [sum(c.wall_s for c in rep) for rep in reps]
    margins = identity_margins(reps[0])
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in rep) for rep in reps),
        "worst_identity_margin": max(margins.values()) if margins else None,
    }
    detail = {"wall_s_samples": walls, "setup_s_samples": setup, "identity_margins": margins}
    return values, END_TO_END_UNITS, detail


def measure_layers(bench: Bench, ini: Path, seconds: float):
    def pair():
        order = [False, True]
        bench.rng.shuffle(order)
        return {traced: bench.repetition(ini, traced) for traced in order}

    pairs = bench.repeat(seconds, pair)
    per_rep = [layer_metrics(p[True]) for p in pairs]
    values = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    untraced = statistics.median(sum(c.wall_s for c in p[False]) for p in pairs)
    traced = statistics.median(sum(c.wall_s for c in p[True]) for p in pairs)
    values["trace.overhead_s"] = traced - untraced
    values["repo.src_lines"] = src_lines()
    absent = sorted({a for p in pairs for c in p[True] for a in c.absent})
    shares = {name: value / traced for name, value in values.items()
              if PER_LAYER_UNITS[name] == "s" and name != "trace.overhead_s"}
    detail = {"traced_wall_s": traced, "untraced_wall_s": untraced, "absent": absent,
              "share_of_traced_wall": shares,
              "identity_margins": identity_margins(pairs[0][False])}
    return values, PER_LAYER_UNITS, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the commands within each repetition")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qhydro" / "__init__.py").is_file():
        print(f"no qhydro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        ini = bench.write_ini()
        measure = measure_layers if args.trace else measure_end_to_end
        values, units, detail = measure(bench, ini, args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    detail.update(workload=args.workload, seed=args.seed, attempted=bench.attempted,
                  failed_share=bench.failed / bench.attempted, failures=bench.failures)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
