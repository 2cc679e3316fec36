"""Self-test of the benchmark: one short run of every workload, untraced and traced.

    python3 perfbench/selftest.py

For every workload in run.WORKLOADS it checks that
- every metric BENCHMARK.json names is printed with its unit (end-to-end
  metrics untraced, per-layer metrics traced);
- tracing does not change numerics: within the traced run, the traced and
  untraced invocations write byte-identical data files and identical
  identity margins (run.py records a difference as a failure of kind
  "data" or "margins");
- per-identity margins are printed beside worst_identity_margin, whose
  value is their maximum;
- the workloads listed in BENCHMARK.json fail no invocation.
It prints each workload's failure causes and largest layer shares, and
checks that run.py exits nonzero without a result in a directory holding
only BENCHMARK.json and perfbench/.  It takes about two minutes, most of it
trap_ground.  Exit status 1 means a check failed.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=200)


def check_workload(name: str, spec: dict, listed: bool) -> list[str]:
    errors = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = bench(name, trace)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            return [f"{name} --trace {trace}: exit {done.returncode}\n{done.stderr[-2000:]}"]
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        metrics = result["metrics"]
        for metric in spec[group]:
            got = metrics.get(metric["name"], {})
            if got.get("unit") != metric["unit"] or "value" not in got:
                errors.append(f"{name} --trace {trace}: {metric['name']} missing or without unit")
        drift = [f for f in detail["failures"] if f["kind"] in ("data", "margins")]
        if drift:
            errors.append(f"{name} --trace {trace}: tracing changed the output: {drift}")
        if listed and result["failed"]:
            errors.append(f"{name} --trace {trace}: failed invocations: {detail['failures']}")
        margins = detail["identity_margins"]
        worst = metrics.get("worst_identity_margin", {}).get("value")
        if trace == 0 and margins is not None and worst != max(margins.values()):
            errors.append(f"{name}: worst_identity_margin {worst} is not the largest margin")
        if trace == 0 and margins is None and worst is not None:
            errors.append(f"{name}: worst_identity_margin without per-identity margins")
        causes = sorted({f["detail"] for f in detail["failures"]})
        print(f"{name} --trace {trace}: failed_share {detail['failed_share']}"
              + "".join(f"\n    cause: {c}" for c in causes))
        if trace == 1:
            shares = sorted(detail["share_of_traced_wall"].items(), key=lambda kv: -kv[1])[:3]
            print("    largest shares: " + ", ".join(f"{k} {v:.2f}" for k, v in shares))
    return errors


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("spread_vn", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"without sources run.py exited {done.returncode} and printed {done.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {w["name"] for w in spec["workloads"]}
    errors = check_bare_directory()
    for name in WORKLOADS:
        errors += check_workload(name, spec, name in listed)
    for error in errors:
        print("FAIL", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
