"""Block and public results are never shared: a column, a field row, a
`Field` or a `propagate` snapshot that aliased an array a later block or
call writes would change under the caller.  How the allocator keeps block
arrays from faulting their pages in again is in `tests/test_process.py`.
"""
from dataclasses import replace

import numpy as np
import pytest

from qhydro import cli
from qhydro.grid import make_grid, spectral_derivatives
from qhydro.madelung import complex_velocity
from qhydro.schrodinger import (
    EvolutionConfig, free_potential, gaussian_packet, harmonic_potential, propagate,
)


def _arrays(result):
    """Every array of a block's (columns, fields), keyed by where it sits."""
    columns, fields = result
    found = {f"column {k}": v for k, v in columns.items() if v is not None}
    found.update({f"field {k}": v for k, v in (fields or {}).items()})
    return found


BLOCK_CASES = {
    "free": (cli._ENTRIES["free_gaussian"], dict(scenario="free_gaussian", width_rate=0.2,
                                                 enable_von_neumann=True)),
    "trap": (cli._ENTRIES["custom"], dict(scenario="custom", potential="harmonic", omega0=2.0,
                                          sigma0=0.6, width_rate=0.1, enable_von_neumann=True)),
    "diffusion": (cli._ENTRIES["diffusion_gaussian"], dict(scenario="diffusion_gaussian",
                                                           start_time=0.3)),
    "compare": (cli._COMPARE, dict(scenario="free_gaussian")),
}


@pytest.mark.parametrize("case", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
def test_a_block_result_outlives_the_next_block(case):
    entry, overrides = case
    cfg = replace(cli.default_config(overrides["scenario"]),
                  **dict(L=10.0, N=64, dt=0.01, t_final=0.1, snapshot_stride=1,
                         emit_fields=True), **overrides)
    grid = make_grid(cfg.L, cfg.N)
    block = entry.blocks(cfg, grid, cli._evolution(cfg), *entry.start(cfg, grid))
    first = _arrays(block([1, 2, 3]))
    kept = {key: value.copy() for key, value in first.items()}
    # a shorter block, as the last one of a run, reuses the leading rows
    second = _arrays(block([4, 5]))
    assert first.keys() == second.keys()
    assert ("field rho" in first) == (entry is not cli._COMPARE)
    for key, value in first.items():
        assert value.tobytes() == kept[key].tobytes(), key
        for other in second.values():
            assert not np.shares_memory(value, other), key


@pytest.mark.parametrize("pot", [free_potential(), harmonic_potential(1.5)], ids=["free", "trap"])
def test_propagate_snapshots_share_no_memory(pot):
    state = gaussian_packet(make_grid(10.0, 64), 0.8, width_rate=0.2)
    snapshots = propagate(state, pot, EvolutionConfig(0.01, 0.4, 1))
    again = propagate(state, pot, EvolutionConfig(0.01, 0.2, 1))
    values = [s.psi.values for s in snapshots + again[1:]]
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert not np.shares_memory(a, b)
    assert np.array_equal(snapshots[5].psi.values, again[5].psi.values)


def test_public_results_share_no_memory(unit_gaussian):
    shifted = gaussian_packet(unit_gaussian.grid, 1.3, width_rate=0.4)
    v1, v2 = complex_velocity(unit_gaussian), complex_velocity(shifted)
    assert not np.shares_memory(v1.values, v2.values)
    assert not np.shares_memory(v1.valid, v2.valid)
    d1 = spectral_derivatives(unit_gaussian.psi.values, unit_gaussian.grid, (1, 2))
    d2 = spectral_derivatives(shifted.psi.values, shifted.grid, (1, 2))
    for a in d1:
        for b in d2:
            assert not np.shares_memory(a, b)
