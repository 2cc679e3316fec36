"""Compare the data files and identity values of two qhydro source trees.

    python3 tools/golden.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are `src/` directories (each holding the `qhydro`
package).  Both sides run the same golden set of CLI invocations, one
subprocess at a time, with the same environment: OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS are taken from the caller, or set to the number of usable
cores when unset, and the CPU affinity is the caller's (run the tool under
`taskset` to pin both sides).  The golden set is the five default
scenarios, the default `compare`, `run` and `compare` at snapshot_stride 1
(the spread_dense workload), the von Neumann workload (spread_vn) and the
`emit_fields` + `--vn on` runs of free_gaussian, harmonic_ground,
diffusion_gaussian and a `custom` trap, and eleven runs that exit nonzero: a
failing identity (1), a config error and a grid that cannot be allocated
(2), and eight numeric aborts (3): extreme constants, a diffusion_gaussian
whose sigma0**2 underflows, a free_gaussian whose width reference overflows,
a `custom` trap whose potential overflows, a `custom` packet whose width-rate
phase overflows, a free_gaussian whose tiny mass overflows the productions,
and a diffusion_gaussian `run` and a `compare` whose k_B overflows the
entropy.  PYTHONUNBUFFERED is removed
from the children's environment, so their stdout is block-buffered and
output that a process does not flush before it ends shows as a stdout
difference.

Every data file must be byte-identical; from report.json, the config hash
and each identity's name, tolerance, `measured` value and outcome must be
equal, as must the exit code, stdout and stderr.  Each side writes to `out`
under its own working directory, so both hash the same configuration.  In
stderr, each side's resolved source and working directories read as <src>
and <work>, since numpy's warnings name the source file by its path.  Every
difference is printed, and for a CSV that differs, each column's count of
moved rows and its largest relative move |a - b| / max(|a|, |b|); the exit
code is 0 when there is none and 1 otherwise.

Each case's line also prints the peak RSS of its CLI child on both sides
(`ru_maxrss` from os.wait4, MB as perfbench reports it, 1024 KiB) and the
change, the child's minor page faults on both sides (`ru_minflt`), and a
first line gives each tree's `qhydro/*.py` line count and the change.  That
is information beside the byte-identity check, not a difference, and it does
not move the exit code.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# name -> (command, scenario, INI overrides, extra CLI arguments)
CASES = {
    **{name: ("run", name, {}, []) for name in (
        "free_gaussian", "harmonic_ground", "harmonic_perturbed", "diffusion_gaussian", "custom",
    )},
    "compare": ("compare", "free_gaussian", {}, []),
    "spread_dense_run": ("run", "free_gaussian", {"snapshot_stride": "1"}, []),
    "spread_dense_compare": ("compare", "free_gaussian", {"snapshot_stride": "1"}, []),
    "spread_vn": (
        "run", "free_gaussian",
        {"N": "512", "snapshot_stride": "5", "enable_von_neumann": "true"}, [],
    ),
    **{f"{name}_fields": ("run", name, {"emit_fields": "true"}, ["--vn", "on"]) for name in (
        "free_gaussian", "harmonic_ground", "diffusion_gaussian",
    )},
    "custom_trap_fields": (
        "run", "custom",
        {"potential": "harmonic", "omega0": "1.0", "L": "12.0", "N": "256", "emit_fields": "true"},
        ["--vn", "on"],
    ),
    "identity_failure": ("run", "free_gaussian", {"sigma0": "0.001"}, []),
    "config_error": ("run", "free_gaussian", {"N": "7"}, []),
    # 2**58 float64 samples are 2 EiB, beyond any 64-bit address space
    "grid_unallocatable": ("run", "harmonic_ground", {"N": str(2**58)}, []),
    "numeric_abort": (
        "run", "custom", {"hbar": "1e300", "L": "4.0", "N": "8", "t_final": "0.0"}, [],
    ),
    # sigma0**2 underflows to 0, so the initial Gaussian is 0/0 at x = 0
    "diffusion_numeric_abort": ("run", "diffusion_gaussian", {"sigma0": "1e-300"}, []),
    # (hbar t / 2 m sigma0)**2 overflows in ref_sigma2
    "reference_overflow": ("run", "free_gaussian", {"sigma0": "1e-120"}, []),
    # (omega0 x)**2 overflows on the trap Hamiltonian's diagonal
    "trap_overflow": (
        "run", "custom", {"potential": "harmonic", "omega0": "1e200", "N": "64"}, [],
    ),
    # the width-rate phase overflows in the initial packet
    "width_rate_overflow": (
        "run", "custom", {"width_rate": "1.7e308", "L": "4.0", "N": "8", "t_final": "0.0"}, [],
    ),
    # hbar/m overflows the velocities and the productions
    "tiny_mass": ("run", "free_gaussian", {"mass": "1e-300"}, []),
    # k_B overflows the Boltzmann entropy and the diffusive production
    "huge_k_B": ("run", "diffusion_gaussian", {"k_B": "1.7e308"}, []),
    "compare_huge_k_B": ("compare", "free_gaussian", {"k_B": "1.7e308"}, []),
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _environment(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)  # a block-buffered stdout shows a lost flush
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in THREAD_VARS:
        env.setdefault(var, str(cores or 1))
    return env


def _ini(src: Path, scenario: str, overrides: dict) -> str:
    text = subprocess.run(
        [sys.executable, "-m", "qhydro.cli", "print-default-config", scenario],
        env=_environment(src), check=True, capture_output=True, text=True,
    ).stdout
    lines = []
    for line in text.splitlines():
        key = line.split("=")[0].strip()
        lines.append(f"{key} = {overrides[key]}" if key in overrides else line)
    return "\n".join(lines) + "\n"


def _run_case(src: Path, work: Path, case: str) -> dict:
    """Run one golden case on one side; its exit code, streams, data files and identities."""
    command, scenario, overrides, extra = CASES[case]
    work.mkdir(parents=True)
    ini = work / "config.ini"
    ini.write_text(_ini(src, scenario, overrides))
    out = work / "out"
    with open(work / "stdout", "wb") as stdout, open(work / "stderr", "wb") as stderr:
        # a relative output directory, so that both sides hash the same configuration
        child = subprocess.Popen(
            [sys.executable, "-m", "qhydro.cli", command, str(ini), "--output-dir", "out", *extra],
            env=_environment(src), cwd=work, stdout=stdout, stderr=stderr,
        )
    # os.wait4 reaps the child with its own resource usage, peak RSS included
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = ((work / name).read_text() for name in ("stdout", "stderr"))
    files, identities, config_hash = {}, None, None
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        if path.name == "report.json":
            report = json.loads(path.read_text())
            identities, config_hash = report["identities"], report["provenance"]["config_hash"]
        else:
            files[path.name] = path.read_bytes()
    stderr = stderr.replace(str(src), "<src>").replace(str(work), "<work>")
    return {"exit": child.returncode, "stdout": stdout, "stderr": stderr, "files": files,
            "identities": identities, "config_hash": config_hash,
            "peak_rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
            "minor_faults": usage.ru_minflt}


def _src_lines(src: Path) -> int:
    return sum(len(path.read_bytes().splitlines()) for path in (src / "qhydro").glob("*.py"))


def _relative_move(x: str, y: str) -> float:
    """|a - b| / max(|a|, |b|) of two differing CSV fields; inf when one is not a number."""
    try:
        a, b = float(x), float(y)
    except ValueError:
        return math.inf
    if math.isnan(a) or math.isnan(b):
        return math.inf
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _column_moves(a: bytes, b: bytes) -> list[str]:
    """For each column of two CSVs that differs, its count of moved rows and largest move."""
    table_a, table_b = (list(csv.reader(text.decode().splitlines())) for text in (a, b))
    if table_a[:1] != table_b[:1] or len(table_a) != len(table_b):
        return ["header or row count differs"]
    moves = []
    for j, name in enumerate(table_a[0]):
        moved = [(x[j], y[j]) for x, y in zip(table_a[1:], table_b[1:]) if x[j] != y[j]]
        if moved:
            largest = max(_relative_move(x, y) for x, y in moved)
            moves.append(f"column {name}: {len(moved)} of {len(table_a) - 1} rows moved, "
                         f"largest relative move {largest:.3g}")
    return moves


def _differences(case: str, parent: dict, change: dict) -> list[str]:
    found = []
    for key in ("exit", "stdout", "stderr", "config_hash"):
        if parent[key] != change[key]:
            found.append(f"{case}: {key} differs: {parent[key]!r} -> {change[key]!r}")
    for name in sorted(parent["files"].keys() | change["files"].keys()):
        a, b = parent["files"].get(name), change["files"].get(name)
        if a is None or b is None:
            found.append(f"{case}: {name} only in the {'change' if a is None else 'parent'}")
        elif a != b:
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
            if x.get(key) != y.get(key):
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
    try:
        for case in CASES:
            parent = _run_case(args.parent.resolve(), root / "parent" / case, case)
            change = _run_case(args.change.resolve(), root / "change" / case, case)
            total += len(parent["files"])
            diffs = _differences(case, parent, change)
            status = "differs" if diffs else "identical"
            rss = parent["peak_rss_mb"], change["peak_rss_mb"]
            faults = parent["minor_faults"], change["minor_faults"]
            print(f"{case}: exit {parent['exit']}, {len(parent['files'])} data files, "
                  f"{len(parent['identities'] or [])} identities: {status}; "
                  f"peak RSS {rss[0]:.2f} -> {rss[1]:.2f} MB ({rss[1] - rss[0]:+.2f}); "
                  f"minor faults {faults[0]} -> {faults[1]} ({faults[1] - faults[0]:+d})", flush=True)
            found += diffs
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for line in found:
        print(f"DIFF {line}")
    print(f"{len(found)} differences over {total} data files")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
