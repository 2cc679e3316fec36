"""Compare the data files and identity values of two qhydro source trees.

    python3 tools/golden.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are `src/` directories (each holding the `qhydro`
package).  Both sides run the same golden set of CLI invocations, one
subprocess at a time, each case REPEATS (3) times per side with parent and
change alternating, with the same environment: OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS are taken from the caller, or set to the number of usable
cores when unset, and the CPU affinity is the caller's (run the tool under
`taskset` to pin both sides).  The golden set is the five default
scenarios, the default `compare`, `run` and `compare` at snapshot_stride 1
(the spread_dense workload), the von Neumann workload (spread_vn) and the
`emit_fields` + `enable_von_neumann` runs of free_gaussian, harmonic_ground,
harmonic_perturbed (446 rows in four pooled row blocks, the one trap field dump
on the pool) and a `custom` trap, the `emit_fields` run of a free `custom`
packet chirped at `width_rate` = 0.2 (custom_chirp_fields, whose u_a fills
the column window), the `emit_fields` run of diffusion_gaussian (which does
not read `enable_von_neumann`), the default diffusion_gaussian
with its clock started at `start_time` = 1e6 and 1e13 (diffusion_clock_1e6
and diffusion_clock_1e13), harmonic_perturbed at the prime snapshot_stride
331 (perturbed_prime_stride), a one-row `compare` of a harmonic_perturbed
config with a free potential, which does not check the width model that only
`run` computes (compare_perturbed_no_step), and twenty-three runs that exit
nonzero: a failing identity (1), a config error, five keys that the command
does not read (2: a free_gaussian given a `width_rate` or a `start_time`, a
`compare` of a `custom` packet given a `width_rate`, of a
diffusion_gaussian given a `start_time` and of a free_gaussian given
`emit_fields`), a harmonic_perturbed at omega0 = 1e6 whose width model would
take 1.11e10 RK4 steps (perturbed_rk4_cap), a grid that cannot be allocated
and a snapshot list that cannot be built (2), a diffusion_gaussian whose
clock stalls at start_time = 1e18 and whose sigma0**2 underflows, refused
for the clock before its start state is built (clock_before_start, 2), a
harmonic_ground whose 2 mass omega0 underflows to 0, so that its ground width
is inf (ground_width_denominator_underflows, 2), and eleven numeric aborts
(3): extreme
constants, a diffusion_gaussian whose sigma0**2 underflows, a free_gaussian
whose width reference overflows, a free_gaussian on so wide a grid that its
measured width overflows (width_overflow), a `custom` trap whose potential
overflows, a `custom` packet whose width-rate phase overflows, a
free_gaussian whose tiny mass overflows the productions, a
diffusion_gaussian `run` and a `compare` whose k_B overflows the entropy,
and a one-row free_gaussian `run` and `compare` whose references divide 0/0
(reference_0_over_0_run and reference_0_over_0_compare).  PYTHONUNBUFFERED is removed
from the children's environment, so their stdout is block-buffered and
output that a process does not flush before it ends shows as a stdout
difference.  A child still running after TIMEOUT_S (60) seconds is killed
and its exit reads -9, since a tree without a refusal may run a case for
hours.  Each case's INI is the scenario's `print-default-config` with each
override's line replaced; an override key that matches no line of it, or more
than one, stops the tool with a message that names the case and the key, so a
misspelt key cannot run the default.

Every repeat must match its own side's first run in exit code, stdout,
stderr, data files, identity values and config hash, since identical
configurations must give byte-identical runs; a mismatch is a difference.
Between the sides, every data file must be byte-identical; from report.json,
the config hash and each identity's name, tolerance, `measured` value and
outcome must be equal (by repr, so a NaN equals a NaN), as must the exit code, stdout and stderr.  Each side writes to `out`
under its own working directory, so both hash the same configuration.  In
stderr, each side's resolved source and working directories read as <src>
and <work>, since numpy's warnings name the source file by its path.  Every
difference is printed, and for a CSV that differs, each column's count of
moved rows, its largest absolute move |a - b| and its largest relative move
|a - b| / max(|a|, |b|); the exit code is 0 when there is none and 1
otherwise.

Each case's line also prints the median over the repeats of the peak RSS of
its CLI child on both sides (`ru_maxrss` from os.wait4, MB as perfbench
reports it, 1024 KiB) and the change, the median of the child's minor page
faults on both sides (`ru_minflt`), and a
first line gives each tree's `qhydro/*.py` line count and the change.  That
is information beside the byte-identity check, not a difference, and it does
not move the exit code.  Linux carries a process's peak RSS into the children
it starts (through fork and exec), so a child's `ru_maxrss` is never below
this tool's own peak: the tool keeps a SHA-256 of each data file rather than
its bytes, reads two files back only when their digests differ, removes each
case's outputs once it is compared, and prints its own peak on the last line.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

# name -> (command, scenario, INI overrides)
FIELDS = {"emit_fields": "true", "enable_von_neumann": "true"}
ONE_ROW = {"N": "32", "t_final": "0.0", "dt": "0.01", "snapshot_stride": "1"}
CASES = {
    **{name: ("run", name, {}) for name in (
        "free_gaussian", "harmonic_ground", "harmonic_perturbed", "diffusion_gaussian", "custom",
    )},
    "compare": ("compare", "free_gaussian", {}),
    "spread_dense_run": ("run", "free_gaussian", {"snapshot_stride": "1"}),
    "spread_dense_compare": ("compare", "free_gaussian", {"snapshot_stride": "1"}),
    "spread_vn": (
        "run", "free_gaussian",
        {"N": "512", "snapshot_stride": "5", "enable_von_neumann": "true"},
    ),
    **{f"{name}_fields": ("run", name, FIELDS) for name in (
        "free_gaussian", "harmonic_ground", "harmonic_perturbed",
    )},
    "diffusion_gaussian_fields": ("run", "diffusion_gaussian", {"emit_fields": "true"}),
    "custom_trap_fields": (
        "run", "custom",
        {"potential": "harmonic", "omega0": "1.0", "L": "12.0", "N": "256", **FIELDS},
    ),
    # a free chirped packet: its u_a is nonzero across the whole column window
    "custom_chirp_fields": ("run", "custom", {"width_rate": "0.2", "emit_fields": "true"}),
    # t = start_time + step * dt rounds to float64's spacing at start_time; the
    # references and dS/dt read the elapsed time step * dt
    **{f"diffusion_clock_{start}": ("run", "diffusion_gaussian", {"start_time": start})
       for start in ("1e6", "1e13")},
    # a prime stride: the width model's steps cut each 0.0662 interval into 34
    "perturbed_prime_stride": ("run", "harmonic_perturbed", {"snapshot_stride": "331"}),
    # one row: compare models no width, so it needs no step of one
    "compare_perturbed_no_step": (
        "compare", "harmonic_perturbed", {"potential": "free", "t_final": "0.0"},
    ),
    "identity_failure": ("run", "free_gaussian", {"sigma0": "0.001"}),
    "config_error": ("run", "free_gaussian", {"N": "7"}),
    # keys the command does not read: free_gaussian runs an unchirped packet from t = 0,
    # and compare evolves one and a density from t = 0, and has no field tables
    "width_rate_refused": ("run", "free_gaussian", {"width_rate": "0.2"}),
    "quantum_start_time_refused": ("run", "free_gaussian", {"start_time": "1.0"}),
    "compare_width_rate_refused": ("compare", "custom", {"width_rate": "0.2"}),
    "compare_start_time_refused": ("compare", "diffusion_gaussian", {"start_time": "1.0"}),
    "compare_fields_refused": ("compare", "free_gaussian", {"emit_fields": "true"}),
    # epsilon0 at 1% of the ground width; the width model would take 1.11e10 RK4 steps
    "perturbed_rk4_cap": ("run", "harmonic_perturbed", {"omega0": "1e6", "epsilon0": "7.07e-6"}),
    # 2**58 float64 samples are 2 EiB, beyond any 64-bit address space
    "grid_unallocatable": ("run", "harmonic_ground", {"N": str(2**58)}),
    # 1e18 + 1 steps, one int each: a list beyond any 64-bit address space
    "snapshot_list_unbuildable": (
        "run", "free_gaussian", {"t_final": "1e18", "dt": "1", "snapshot_stride": "1"},
    ),
    # 1e18 + step * 1e-3 rounds to equal neighbours; the clock is checked first
    "clock_before_start": (
        "run", "diffusion_gaussian", {"sigma0": "1e-300", "start_time": "1e18"},
    ),
    "numeric_abort": (
        "run", "custom", {"hbar": "1e300", "L": "4.0", "N": "8", "t_final": "0.0"},
    ),
    # sigma0**2 underflows to 0, so the initial Gaussian is 0/0 at x = 0
    "diffusion_numeric_abort": ("run", "diffusion_gaussian", {"sigma0": "1e-300"}),
    # (hbar t / 2 m sigma0)**2 overflows in ref_sigma2
    "reference_overflow": ("run", "free_gaussian", {"sigma0": "1e-120"}),
    # x**2 overflows in the measured width of the first row
    "width_overflow": ("run", "free_gaussian", {"L": "1e160", "N": "64", "t_final": "0.01"}),
    # (omega0 x)**2 overflows on the trap Hamiltonian's diagonal
    "trap_overflow": (
        "run", "custom", {"potential": "harmonic", "omega0": "1e200", "N": "64"},
    ),
    # the width-rate phase overflows in the initial packet
    "width_rate_overflow": (
        "run", "custom", {"width_rate": "1.7e308", "L": "4.0", "N": "8", "t_final": "0.0"},
    ),
    # hbar/m overflows the velocities and the productions
    "tiny_mass": ("run", "free_gaussian", {"mass": "1e-300"}),
    # k_B overflows the Boltzmann entropy and the diffusive production
    "huge_k_B": ("run", "diffusion_gaussian", {"k_B": "1.7e308"}),
    "compare_huge_k_B": ("compare", "free_gaussian", {"k_B": "1.7e308"}),
    # 2 m sigma0^2 / hbar underflows: ref_divergence is 0/0 at t = 0
    "reference_0_over_0_run": ("run", "free_gaussian", {
        "hbar": "1.532433770076865e+105", "sigma0": "3.732955387138587e-72", **ONE_ROW}),
    # 2 m sigma0 underflows: ref_sigma2_quantum is 0/0 at t = 0
    "reference_0_over_0_compare": ("compare", "free_gaussian", {
        "mass": "7.53506115320154e-286", "sigma0": "2.338621637729937e-134",
        "k_B": "2.80867773725623e-277", **ONE_ROW}),
    "ground_width_denominator_underflows": (
        "run", "harmonic_ground", {"mass": "1e-300", "omega0": "1e-300"},
    ),
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
TIMEOUT_S = 60
REPEATS = 3  # runs of each case per side, parent and change alternating
SIDES = ("parent", "change")


def _environment(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)  # a block-buffered stdout shows a lost flush
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in THREAD_VARS:
        env.setdefault(var, str(cores or 1))
    return env


def _ini(src: Path, case: str) -> str:
    """The case's INI on one side: each override replaces the one line of its key."""
    _, scenario, overrides = CASES[case]
    lines = subprocess.run(
        [sys.executable, "-m", "qhydro.cli", "print-default-config", scenario],
        env=_environment(src), check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    for key, value in overrides.items():
        at = [i for i, line in enumerate(lines) if line.split("=")[0].strip() == key]
        if len(at) != 1:
            raise SystemExit(f"golden case {case}: override key {key!r} matches {len(at)} lines "
                             f"of the default {scenario} config, not one")
        lines[at[0]] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


def _run_case(src: Path, work: Path, case: str, ini_text: str) -> dict:
    """Run one golden case on one side; its exit code, streams, data files and identities."""
    command = CASES[case][0]
    work.mkdir(parents=True)
    ini = work / "config.ini"
    ini.write_text(ini_text)
    out = work / "out"
    with open(work / "stdout", "wb") as stdout, open(work / "stderr", "wb") as stderr:
        # a relative output directory, so that both sides hash the same configuration
        child = subprocess.Popen(
            [sys.executable, "-m", "qhydro.cli", command, str(ini), "--output-dir", "out"],
            env=_environment(src), cwd=work, stdout=stdout, stderr=stderr,
        )
    # os.wait4 reaps the child with its own resource usage, peak RSS included
    timer = threading.Timer(TIMEOUT_S, child.kill)
    timer.start()
    _, status, usage = os.wait4(child.pid, 0)
    timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = ((work / name).read_text() for name in ("stdout", "stderr"))
    files, identities, config_hash = {}, None, None
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        if path.name == "report.json":
            report = json.loads(path.read_text())
            identities, config_hash = report["identities"], report["provenance"]["config_hash"]
        else:  # a digest: the tool's own peak RSS must stay below its children's
            files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    stderr = stderr.replace(str(src), "<src>").replace(str(work), "<work>")
    return {"exit": child.returncode, "stdout": stdout, "stderr": stderr, "out": out,
            "files": files, "identities": identities, "config_hash": config_hash,
            "peak_rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
            "minor_faults": usage.ru_minflt}


def _src_lines(src: Path) -> int:
    return sum(len(path.read_bytes().splitlines()) for path in (src / "qhydro").glob("*.py"))


def _move(x: str, y: str) -> tuple[float, float]:
    """|a - b| and |a - b| / max(|a|, |b|) of two differing CSV fields; both inf when
    one is not a number."""
    try:
        a, b = float(x), float(y)
    except ValueError:
        return math.inf, math.inf
    if math.isnan(a) or math.isnan(b):
        return math.inf, math.inf
    scale = max(abs(a), abs(b))
    return abs(a - b), abs(a - b) / scale if scale else 0.0


def _column_moves(a: bytes, b: bytes) -> list[str]:
    """For each column of two CSVs that differs, its count of moved rows and largest move."""
    table_a, table_b = (list(csv.reader(text.decode().splitlines())) for text in (a, b))
    if table_a[:1] != table_b[:1] or len(table_a) != len(table_b):
        return ["header or row count differs"]
    moves = []
    for j, name in enumerate(table_a[0]):
        moved = [(x[j], y[j]) for x, y in zip(table_a[1:], table_b[1:]) if x[j] != y[j]]
        if moved:
            absolute, relative = (max(m) for m in zip(*(_move(x, y) for x, y in moved)))
            moves.append(f"column {name}: {len(moved)} of {len(table_a) - 1} rows moved, "
                         f"largest absolute move {absolute:.3g}, relative {relative:.3g}")
    return moves


def _differences(case: str, parent: dict, change: dict, sides=SIDES) -> list[str]:
    """What differs between two runs of a case; `sides` names them in the messages."""
    found = []
    for key in ("exit", "stdout", "stderr", "config_hash"):
        if parent[key] != change[key]:
            found.append(f"{case}: {key} differs: {parent[key]!r} -> {change[key]!r}")
    for name in sorted(parent["files"].keys() | change["files"].keys()):
        a, b = parent["files"].get(name), change["files"].get(name)
        if a is None or b is None:
            found.append(f"{case}: {name} only in the {sides[1] if a is None else sides[0]}")
        elif a != b:
            a, b = ((run["out"] / name).read_bytes() for run in (parent, change))
            lines = zip(a.decode().splitlines(), b.decode().splitlines())
            first = next((i for i, (x, y) in enumerate(lines) if x != y), None)
            moves = _column_moves(a, b) if name.endswith(".csv") else []
            found.append(f"{case}: {name} differs (first at line {first})"
                         + "".join(f"\n    {move}" for move in moves))
    a, b = parent["identities"] or [], change["identities"] or []
    if [c["name"] for c in a] != [c["name"] for c in b]:
        found.append(f"{case}: identity names differ")
    for x, y in zip(a, b):
        for key in ("tolerance", "measured", "passed"):
            if repr(x.get(key)) != repr(y.get(key)):  # so that a NaN matches a NaN
                found.append(f"{case}: identity {x['name']} {key} {x.get(key)!r} -> {y.get(key)!r}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's src/ directory")
    parser.add_argument("change", type=Path, help="the change's src/ directory")
    args = parser.parse_args(argv)
    for src in (args.parent, args.change):
        if not (src / "qhydro" / "__init__.py").is_file():
            parser.error(f"no qhydro package under {src}")
    lines = _src_lines(args.parent), _src_lines(args.change)
    print(f"qhydro/*.py lines {lines[0]} -> {lines[1]} ({lines[1] - lines[0]:+d})", flush=True)
    root = Path(tempfile.mkdtemp(prefix="qhydro-golden-"))
    found, total = [], 0
    trees = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    try:
        for case in CASES:
            inis = {side: _ini(src, case) for side, src in trees.items()}
            runs = {side: [] for side in SIDES}
            for repeat in range(REPEATS):  # parent, change, parent, change, ...
                for side, src in trees.items():
                    work = root / side / case / str(repeat)
                    runs[side].append(_run_case(src, work, case, inis[side]))
            parent, change = runs["parent"][0], runs["change"][0]
            total += len(parent["files"])
            diffs = []
            for side in SIDES:  # each repeat against its side's first run
                for repeat, again in enumerate(runs[side][1:], 2):
                    label = f"{case} ({side} run {repeat} against run 1)"
                    diffs += _differences(label, runs[side][0], again, ("run 1", f"run {repeat}"))
            diffs += _differences(case, parent, change)
            status = "differs" if diffs else "identical"
            rss, faults = (
                [statistics.median(run[key] for run in runs[side]) for side in SIDES]
                for key in ("peak_rss_mb", "minor_faults")
            )
            print(f"{case}: exit {parent['exit']}, {len(parent['files'])} data files, "
                  f"{len(parent['identities'] or [])} identities: {status}; medians of "
                  f"{REPEATS}: peak RSS {rss[0]:.2f} -> {rss[1]:.2f} MB ({rss[1] - rss[0]:+.2f}); "
                  f"minor faults {faults[0]:.0f} -> {faults[1]:.0f} ({faults[1] - faults[0]:+.0f})",
                  flush=True)
            found += diffs
            for side in SIDES:
                shutil.rmtree(root / side / case)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for line in found:
        print(f"DIFF {line}")
    # a child's ru_maxrss is at least this: Linux carries the peak across fork and exec
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{len(found)} differences over {total} data files; this tool's peak RSS {own:.2f} MB")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
