"""Identity-error ratchet: no identity's measured error may grow.

The acceptance tolerances sit orders of magnitude above today's errors, so a
change could lose digits and still pass every identity.  `identity_errors.json`
holds each identity's measured value for the five default scenarios and the
default `compare`, with the tree and the number of usable cores it was
measured on.  A measured error fails above max(4 x pinned, pinned + 64 eps):
the factor covers the trap values, which move with the core count (OpenBLAS
threads `eigh`), and the offset errors pinned at or near 0.  A signed measure,
a margin that passes below 0, may not rise above its pinned value by more than
64 eps of its size.

A change that moves an error rewrites the file with

    PYTHONPATH=src python3 tests/test_identity_ratchet.py

and lists the old and new values in CHANGES.md.
"""
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

from qhydro import grid
from qhydro.cli import compare_quantum_diffusion, default_config, run_scenario

PINNED = Path(__file__).with_name("identity_errors.json")
EPS = float(np.finfo(np.float64).eps)
SIGNED = {"entropy_nondecreasing", "quantum_entropy_overtakes_diffusive"}
RUNS = {
    **{name: (run_scenario, name) for name in (
        "free_gaussian", "harmonic_ground", "harmonic_perturbed", "diffusion_gaussian", "custom",
    )},
    "compare": (compare_quantum_diffusion, "free_gaussian"),
}
# the default runs that conftest.py already holds
SHARED = {"free_gaussian": "free_report", "harmonic_ground": "ground_report",
          "harmonic_perturbed": "perturbed_report"}


def _measured(report) -> dict:
    return {check.name: check.measured for check in report.identities}


def _bound(name: str, pinned: float) -> float:
    if name in SIGNED:
        return pinned + 64 * EPS * max(1.0, abs(pinned))
    return max(4 * pinned, pinned + 64 * EPS)


@pytest.mark.parametrize("run", RUNS)
def test_no_identity_error_grows(run, request):
    pinned = json.loads(PINNED.read_text())["runs"][run]
    runner, scenario = RUNS[run]
    if run in SHARED:
        report = request.getfixturevalue(SHARED[run])
    else:
        report = runner(default_config(scenario))
    measured = _measured(report)
    assert measured.keys() == pinned.keys(), "identities added or removed: update the pins"
    grown = {
        name: f"{value!r} > {_bound(name, pinned[name])!r} (pinned {pinned[name]!r})"
        for name, value in measured.items()
        if not value <= _bound(name, pinned[name])
    }
    assert not grown, grown


if __name__ == "__main__":
    runs = {run: _measured(runner(default_config(scenario)))
            for run, (runner, scenario) in RUNS.items()}
    tree = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
    payload = {"tree": tree.stdout.strip(), "workers": grid._WORKERS, "numpy": np.__version__,
               "runs": runs}
    PINNED.write_text(json.dumps(payload, indent=1) + "\n")
