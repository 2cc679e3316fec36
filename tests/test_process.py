"""The CLI as a process: `python -m qhydro.cli` and the `qhydro` console-script
function, each run as a child with block-buffered stdout, what a child that
runs the CLI has imported, and the allocator policy of the process entry
point.

PYTHONUNBUFFERED is removed from the child's environment, so its stdout (a
pipe) is block-buffered: output that the process does not flush before it
ends is lost, and these tests see it missing.
"""
import ctypes
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import qhydro
from qhydro import cli, grid
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

# 501 rows at N = 256: four blocks on two workers
POOLED_FREE = QUICK_FREE.replace("snapshot_stride = 100", "snapshot_stride = 1")


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
    # a tiny L overflows k**2, so the kinetic or heat rates (or the trap's
    # Hamiltonian) are infinite
    *[(command, f"[scenario]\nname = {name}\n[grid]\nL = 1e-300\n") for command, name in [
        ("run", "free_gaussian"), ("run", "custom"), ("compare", "free_gaussian"),
        ("run", "harmonic_ground"), ("run", "diffusion_gaussian"),
    ]],
    # a huge L overflows x**2, so the width columns are NaN
    *[(command, f"[scenario]\nname = {name}\n[grid]\nL = 1e300\nN = 64\n") for command, name in [
        ("run", "free_gaussian"), ("run", "diffusion_gaussian"), ("compare", "free_gaussian"),
        ("run", "custom"),
    ]],
], ids=[
    "width_rate_phase", "tiny_mass", "huge_k_B", "compare_huge_k_B",
    "tiny_L_free", "tiny_L_custom", "tiny_L_compare", "tiny_L_trap", "tiny_L_diffusion",
    "huge_L_free", "huge_L_diffusion", "huge_L_compare", "huge_L_custom",
])
def test_overflowing_constants_are_one_numeric_abort_line(qhydro_process, tmp_path, command, text):
    done = qhydro_process(command, str(_ini(tmp_path, text)))
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("numeric abort: ") and done.stderr.count("\n") == 1
    assert "np.float64(" not in done.stderr
    assert not (tmp_path / "out").exists()


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
    ini = _ini(tmp_path, POOLED_FREE)
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


def _libc_has(*names) -> bool:
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return False
    return all(hasattr(libc, name) for name in names)


# the pooled run of test_pooled_runs_load_no_executor_or_logging, by console_main
# or by main alone, then libc's account of its malloc arenas, one "Arena i:"
# line each, on stderr
ARENA_CHILD = """\
import ctypes, sys
from qhydro import cli, grid
grid._WORKERS = 2
entry, run = sys.argv.pop(1), cli.main
def main(argv=None):
    code = run(argv)
    ctypes.CDLL(None).malloc_stats()
    return code
cli.main = main
sys.exit(cli.console_main() if entry == "console_main" else cli.main())
"""


@pytest.mark.skipif(grid._WORKERS < 2, reason="fewer than two usable cores")
@pytest.mark.skipif(not _libc_has("mallopt", "malloc_stats"), reason="libc without mallopt or malloc_stats")
@pytest.mark.parametrize("entry", ["console_main", "main"])
def test_pooled_workers_share_one_malloc_arena_in_a_qhydro_process(tmp_path, entry):
    # four blocks on two workers: each worker takes a malloc arena of its own
    # unless console_main has limited glibc to one before main() runs
    ini = _ini(tmp_path, POOLED_FREE)
    done = _child("-c", ARENA_CHILD, entry, "run", str(ini))
    assert done.returncode == 0
    arenas = sum(line.startswith("Arena ") for line in done.stderr.splitlines())
    assert arenas == 1 if entry == "console_main" else arenas > 1


# 1001 rows at N = 1024, pooled as in ARENA_CHILD, then the minor page faults
# that main() took, on stderr
FAULT_CHILD = """\
import resource, sys
from qhydro import cli, grid
grid._WORKERS = 2
entry, run = sys.argv.pop(1), cli.main
def main(argv=None):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    code = run(argv)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, file=sys.stderr)
    return code
cli.main = main
sys.exit(cli.console_main() if entry == "console_main" else cli.main())
"""


@pytest.mark.skipif(not _libc_has("mallopt"), reason="libc without mallopt")
@pytest.mark.parametrize("entry", ["console_main", "main"])
def test_block_arrays_are_faulted_in_once_in_a_qhydro_process(tmp_path, entry):
    # Each block allocates its arrays afresh.  console_main keeps what a block
    # frees in the one heap for the next block, so the run faults in fewer
    # pages than one complex array of all its rows would take (measured ~1.4k
    # against 4004).  Through main() alone glibc returns them to the kernel
    # block after block and faults them in again (measured 10k-17k).
    ini = _ini(tmp_path, POOLED_FREE.replace("L = 20.0\nN = 256", "L = 40.0\nN = 1024")
               .replace("t_final = 0.5", "t_final = 1.0"))
    done = _child("-c", FAULT_CHILD, entry, "run", str(ini))
    assert done.returncode == 0
    faults, bound = int(done.stderr.split()[-1]), 1001 * 1024 * 16 // resource.getpagesize()
    assert faults < bound if entry == "console_main" else faults > bound


def test_console_main_sets_one_arena_once_before_main(monkeypatch):
    # one arena, a 256 MiB trim threshold and a 32 MiB mmap threshold, each once
    calls = []

    def mallopt(param, value):
        calls.append(("mallopt", param, value))

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
    monkeypatch.setattr(os, "_exit", lambda code: calls.append(("exit", code)))
    cli.console_main()
    assert calls == [
        ("mallopt", -8, 1), ("mallopt", -1, 256 << 20), ("mallopt", -3, 32 << 20),
        "main", ("exit", 0),
    ]


def test_import_and_main_keep_the_allocator(tmp_path):
    # no C library is opened while qhydro is imported or main() runs the pool
    ini = _ini(tmp_path, POOLED_FREE)
    code = (
        "import ctypes; opened = []; libc = ctypes.CDLL; "
        "ctypes.CDLL = lambda *args, **kwargs: opened.append(args) or libc(*args, **kwargs); "
        "import qhydro; from qhydro import grid; from qhydro.cli import main; grid._WORKERS = 2; "
        f"print(main(['run', {str(ini)!r}]), opened)"
    )
    done = _child("-c", code)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "0 []"


def test_a_libc_without_mallopt_changes_no_output(tmp_path):
    # console_main skips the arena policy where the lookup fails, silently
    ini = _ini(tmp_path, QUICK_FREE)
    libcs = {
        "glibc": "",
        "no_mallopt": "ctypes.CDLL = lambda name: object()\n",
        "no_handle": "def CDLL(name):\n    raise OSError(name)\nctypes.CDLL = CDLL\n",
    }
    runs = {}
    for name, patch in libcs.items():
        code = f"import ctypes, sys\nfrom qhydro.cli import console_main\n{patch}sys.exit(console_main())"
        done = _child("-c", code, "run", str(ini), "--output-dir", str(tmp_path / name))
        files = [(tmp_path / name / f).read_bytes() for f in ("timeseries.csv", "timeseries.json")]
        runs[name] = done.returncode, done.stdout, done.stderr, files
    code, stdout, stderr, _ = runs["glibc"]
    assert (code, stderr) == (0, "") and stdout
    assert runs["no_mallopt"] == runs["glibc"] == runs["no_handle"]
