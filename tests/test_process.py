"""The CLI as a process: `python -m qhydro.cli` and the `qhydro` console-script
function, each run as a child with block-buffered stdout, and what a child
that runs the CLI has imported.

PYTHONUNBUFFERED is removed from the child's environment, so its stdout (a
pipe) is block-buffered: output that the process does not flush before it
ends is lost, and these tests see it missing.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qhydro
from qhydro.cli import SCENARIOS, default_config, render_config

SRC = Path(qhydro.__file__).resolve().parent.parent

LAUNCHERS = {
    "module": ["-m", "qhydro.cli"],
    # what the generated `qhydro` script does
    "console_script": ["-c", "import sys; from qhydro.cli import console_main; sys.exit(console_main())"],
}

# 500 steps at stride 100: 6 snapshots
QUICK_FREE = (
    "[scenario]\nname = free_gaussian\n[grid]\nL = 20.0\nN = 256\n"
    "[evolution]\ndt = 1e-3\nt_final = 0.5\nsnapshot_stride = 100\n"
)


def _child(*args, stdout=subprocess.PIPE):
    """Run the interpreter with `args` in a child that imports this tree's qhydro."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, *args],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
    )


@pytest.fixture(params=sorted(LAUNCHERS))
def qhydro_process(request):
    """Run the CLI in a child process with the given arguments; returns the CompletedProcess."""

    def run(*args, stdout=subprocess.PIPE):
        return _child(*LAUNCHERS[request.param], *args, stdout=stdout)

    return run


def _ini(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "cfg.ini"
    path.write_text(f"{text}[output]\ndirectory = {tmp_path / 'out'}\n")
    return path


def test_list_scenarios(qhydro_process):
    done = qhydro_process("list-scenarios")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "".join(f"{name}: {SCENARIOS[name]}\n" for name in sorted(SCENARIOS))


def test_print_default_config(qhydro_process):
    done = qhydro_process("print-default-config", "harmonic_perturbed")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == render_config(default_config("harmonic_perturbed"))


def test_passing_run(qhydro_process, tmp_path):
    done = qhydro_process("run", str(_ini(tmp_path, QUICK_FREE)))
    assert (done.returncode, done.stderr) == (0, "")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["exit_code"] == 0
    assert done.stdout.splitlines() == [
        f"IDENTITY scenario=free_gaussian name={c['name']} "
        f"tolerance={c['tolerance']:.3g} measured={c['measured']:.6g} PASS"
        for c in report["identities"]
    ]
    assert len(report["identities"]) > 0
    assert len((tmp_path / "out" / "timeseries.csv").read_text().splitlines()) == 6 + 1


def test_failing_identity_exits_1(qhydro_process, tmp_path):
    # a packet far narrower than the grid spacing: the references miss
    done = qhydro_process("run", str(_ini(tmp_path, "[scenario]\nname = free_gaussian\n[physics]\nsigma0 = 1e-3\n")))
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    assert lines and all(line.startswith("IDENTITY scenario=free_gaussian ") for line in lines)
    assert any(line.endswith(" FAIL") for line in lines)


def test_config_error_exits_2(qhydro_process, tmp_path):
    done = qhydro_process("run", str(_ini(tmp_path, "[scenario]\nname = free_gaussian\n[grid]\nN = 7\n")))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "config error: N must be an even integer >= 8, got 7\n"


def test_numeric_abort_exits_3(qhydro_process, tmp_path):
    text = "[scenario]\nname = custom\n[physics]\nhbar = 1e300\n[grid]\nL = 4.0\nN = 8\n[evolution]\nt_final = 0\n"
    done = qhydro_process("run", str(_ini(tmp_path, text)))
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("numeric abort: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("scenario, field", [
    ("free_gaussian", "wavefunction"),
    ("diffusion_gaussian", "density"),
])
def test_underflowing_width_is_one_numeric_abort_line(qhydro_process, tmp_path, scenario, field):
    # sigma0**2 underflows to 0, so the Gaussian is 0/0 at x = 0; numpy warns of nothing
    text = f"[scenario]\nname = {scenario}\n[physics]\nsigma0 = 1e-300\n[grid]\nN = 64\n"
    done = qhydro_process("run", str(_ini(tmp_path, text)))
    message = f"numeric abort: the {field} has no finite positive norm on the grid (nan)\n"
    assert (done.returncode, done.stdout, done.stderr) == (3, "", message)


def test_overflowing_trap_is_one_numeric_abort_line(qhydro_process, tmp_path):
    # (omega0 x)**2 overflows to inf on the Hamiltonian's diagonal; numpy warns of nothing
    text = "[scenario]\nname = custom\n[physics]\npotential = harmonic\nomega0 = 1e200\n[grid]\nN = 64\n"
    done = qhydro_process("run", str(_ini(tmp_path, text)))
    assert (done.returncode, done.stdout, done.stderr) == (3, "", "numeric abort: non-finite Hamiltonian\n")


@pytest.mark.parametrize("command, text", [
    # the width-rate phase overflows in the initial packet
    ("run", "[scenario]\nname = custom\n[physics]\nwidth_rate = 1.7e308\n[grid]\nL = 4.0\nN = 8\n"
     "[evolution]\nt_final = 0\n"),
    # hbar/m overflows u_a, u_d and the productions
    ("run", "[scenario]\nname = free_gaussian\n[physics]\nmass = 1e-300\n"),
    # k_B overflows the Boltzmann entropy and the diffusive production
    ("run", "[scenario]\nname = diffusion_gaussian\n[physics]\nk_B = 1.7e308\n"),
    # k_B overflows both entropies of a comparison, which exited 0 with inf columns
    ("compare", "[scenario]\nname = free_gaussian\n[physics]\nk_B = 1.7e308\n[grid]\nN = 256\n"
     "[evolution]\nsnapshot_stride = 1000\n"),
], ids=["width_rate_phase", "tiny_mass", "huge_k_B", "compare_huge_k_B"])
def test_overflowing_constants_are_one_numeric_abort_line(qhydro_process, tmp_path, command, text):
    done = qhydro_process(command, str(_ini(tmp_path, text)))
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("numeric abort: ") and done.stderr.count("\n") == 1
    assert "np.float64(" not in done.stderr


def test_runs_load_no_openssl(tmp_path):
    # config_hash takes CPython's built-in SHA-256, so neither command maps libcrypto
    ini = _ini(tmp_path, QUICK_FREE)
    code = (
        "import sys; from qhydro.cli import main; "
        f"codes = main(['run', {str(ini)!r}]), main(['compare', {str(ini)!r}]); "
        "print(codes, '_hashlib' in sys.modules)"
    )
    done = _child("-c", code)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "(0, 0) False"


def test_pooled_runs_load_no_executor_or_logging(tmp_path):
    # 501 rows at N = 256 are four blocks on two workers, run on threads from
    # `threading`: neither concurrent.futures nor the logging it imports is
    # loaded, and the data files are the one-worker run's
    ini = _ini(tmp_path, QUICK_FREE.replace("snapshot_stride = 100", "snapshot_stride = 1"))
    run = "main(['run', {!r}, '--output-dir', {!r}])".format
    code = (
        "import sys; from qhydro import grid; from qhydro.cli import main; "
        "grid._WORKERS = 2; blocks = len(grid._row_blocks(list(range(500)), 256)); "
        f"pooled = {run(str(ini), str(tmp_path / 'pooled'))}; "
        f"grid._WORKERS = 1; alone = {run(str(ini), str(tmp_path / 'alone'))}; "
        "print(blocks, pooled, alone, 'concurrent.futures' in sys.modules, 'logging' in sys.modules)"
    )
    done = _child("-c", code)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "4 0 0 False False"
    for name in ("timeseries.csv", "timeseries.json"):
        assert (tmp_path / "pooled" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


def test_config_hash_without_the_builtin_modules():
    # a build without _sha2 and _sha256 hashes with hashlib, to the same digest
    code = (
        "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
        "import hashlib; from qhydro import cli; "
        "assert cli._sha256 is hashlib.sha256; "
        "print(*(cli.config_hash(cli.default_config(name)) for name in sorted(cli.SCENARIOS)))"
    )
    done = _child("-c", code)
    assert (done.returncode, done.stderr) == (0, "")
    digests = [
        hashlib.sha256(render_config(default_config(name)).encode()).hexdigest()
        for name in sorted(SCENARIOS)
    ]
    assert done.stdout.split() == digests


def test_usage_error_exits_2(qhydro_process):
    done = qhydro_process("run")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: qhydro run ")
    assert done.stderr.endswith("error: the following arguments are required: config\n")


def test_closed_stdout_takes_the_normal_exit(qhydro_process):
    # the flush fails, so the interpreter's own exit reports the broken pipe
    read, write = os.pipe()
    os.close(read)
    try:
        done = qhydro_process("list-scenarios", stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 120
    assert "BrokenPipeError" in done.stderr
