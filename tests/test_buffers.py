"""Block and public results are never shared: a column, a field row, a
`Field` or a `propagate` snapshot that aliased an array a later block or
call writes would change under the caller.  A warm block holds a bounded
number of (rows x N) arrays at its peak.  How the allocator keeps block
arrays from faulting their pages in again is in `tests/test_process.py`.
"""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qhydro import cli, grid as grid_module
from qhydro.grid import make_grid, spectral_derivatives
from qhydro.madelung import complex_velocity
from qhydro.schrodinger import (
    EvolutionConfig, free_potential, gaussian_packet, harmonic_potential, propagate,
)


def _arrays(columns, tables):
    """Every array of a block's columns and of its field tables but the grid's x,
    keyed by where it sits."""
    found = {f"column {k}": v for k, v in columns.items() if v is not None}
    for i, table in enumerate(tables):
        found.update({f"field {k} {i}": v for k, v in table.items() if k != "x"})
    return found


BLOCK_CASES = {
    "free": (cli._ENTRIES["custom"], dict(scenario="custom", width_rate=0.2,
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
    block = entry.blocks(cfg, grid)
    # a block's field tables come from the arrays of its columns; `compare` dumps none
    columns, fields = block([1, 2, 3])
    first = _arrays(columns, fields() if fields else [])
    kept = {key: value.copy() for key, value in first.items()}
    # a shorter block, as the last one of a run, reuses the leading rows
    columns, later = block([4, 5])
    second = _arrays(columns, later() if later else [])
    # the same columns, and the field tables of all but the first block's third row
    assert second.keys() == first.keys() - {key for key in first if key.endswith(" 2")}
    assert ("field rho 0" in first) == ("field rho 1" in second) == (fields is not None)
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


# a default scenario's block at the two-worker block size, and the most (rows x N)
# complex arrays that its traced peak may reach: a `run` block makes psi'' from the
# spectrum of psi and psi' over it in place, and computes every later term on the
# density's column window; a `compare` block drops psi before the heat kernel
# runs.  With every term at full width the peaks are 5.07 (free), 5.144 (trap),
# 2.881 (diffusion) and 3.75 (`compare`): the trap and diffusion bounds.
PEAK_CASES = {
    "free": (cli._ENTRIES["free_gaussian"], "free_gaussian", 4.0),
    "trap": (cli._ENTRIES["harmonic_ground"], "harmonic_ground", 5.15),
    "diffusion": (cli._ENTRIES["diffusion_gaussian"], "diffusion_gaussian", 2.89),
    "compare": (cli._COMPARE, "free_gaussian", 2.5),
}


@pytest.mark.parametrize("case", PEAK_CASES.values(), ids=PEAK_CASES.keys())
def test_a_warm_block_holds_few_block_arrays(monkeypatch, case):
    entry, scenario, most = case
    monkeypatch.setattr(grid_module, "_WORKERS", 2)
    cfg = cli.default_config(scenario)
    grid = make_grid(cfg.L, cfg.N)
    rows = len(next(grid_module._row_blocks(list(range(1 << 20)), cfg.N)))
    steps = [i * cfg.snapshot_stride for i in range(1, 2 * rows + 1)]
    block = entry.blocks(cfg, grid)
    block(steps[:rows])  # the first block of a run is warmed by the initial row
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        block(steps[rows:])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (16 * rows * cfg.N) <= most
