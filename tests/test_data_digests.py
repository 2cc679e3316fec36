"""Data bytes pinned: the SHA-256 of every data file of the default runs.

The ratchet (`test_identity_ratchet.py`) holds each identity's error, not the
bytes behind it, so a change could move a column unseen.  Here each default
run whose bytes do not depend on the core count writes its data files with
`emit_timeseries`, and each file's digest must match `data_digests.json`.
`harmonic_perturbed` is not among them: its trap `eigh` runs on as many
OpenBLAS threads as there are cores, and its bytes move with them.

The digests are keyed by the numpy version and by the numpy dispatch targets
the CPU supports, since SIMD exp/log and OpenBLAS `eigh` may round
differently on another instruction set.  A key with no digests fails rather
than skips, since a skip would hide a change in the bytes.  A change that
moves data bytes (or a new key) rewrites the current key's digests with

    PYTHONPATH=src python3 tests/test_data_digests.py

and lists the moved files in CHANGES.md.
"""
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath

from qhydro.cli import compare_quantum_diffusion, default_config, emit_timeseries, run_scenario

PINNED = Path(__file__).with_name("data_digests.json")
REWRITE = "PYTHONPATH=src python3 tests/test_data_digests.py"
RUNS = {
    **{name: (run_scenario, name) for name in (
        "free_gaussian", "harmonic_ground", "diffusion_gaussian", "custom",
    )},
    "compare": (compare_quantum_diffusion, "free_gaussian"),
}
# the default runs that conftest.py already holds
SHARED = {"free_gaussian": "free_report", "harmonic_ground": "ground_report"}


def _key() -> str:
    targets = [name for name in _multiarray_umath.__cpu_dispatch__
               if _multiarray_umath.__cpu_features__.get(name)]
    return f"numpy {np.__version__} on {' '.join(targets) or 'baseline'}"


def _digests(report, directory: Path) -> dict:
    emit_timeseries(report, directory)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir())}


def _report(run: str, request):
    if run in SHARED:
        return request.getfixturevalue(SHARED[run])
    runner, scenario = RUNS[run]
    return runner(default_config(scenario))


@pytest.mark.parametrize("run", RUNS)
def test_data_files_keep_their_bytes(run, request, tmp_path):
    pinned = json.loads(PINNED.read_text()).get(_key())
    assert pinned is not None, f"no digests for {_key()!r}: write them with {REWRITE}"
    assert _digests(_report(run, request), tmp_path) == pinned[run]


if __name__ == "__main__":
    keys = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    runs = {}
    for run, (runner, scenario) in RUNS.items():
        with tempfile.TemporaryDirectory() as directory:
            runs[run] = _digests(runner(default_config(scenario)), Path(directory))
    keys[_key()] = runs
    PINNED.write_text(json.dumps(keys, indent=1, sort_keys=True) + "\n")
