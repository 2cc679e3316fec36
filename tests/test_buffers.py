"""Per-thread block buffers: reused from block to block, never handed out.

Row blocks are computed in arrays that each thread keeps (`grid._Buffer`);
the next block overwrites them.  Whatever a block or a public function
returns must therefore be a fresh array: a column, a field row, a
`Field` or a `propagate` snapshot that aliased a buffer would change
under the caller when the next block runs.
"""
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from qhydro import cli, grid as grid_module
from qhydro.grid import _Buffer, make_grid, spectral_derivatives
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


def test_buffer_is_replaced_when_its_shape_or_dtype_changes():
    buffer = _Buffer()
    a = buffer((4, 8), np.complex128)
    assert a.flags.c_contiguous and a.shape == (4, 8)
    shorter = buffer((2, 8), np.complex128)
    assert shorter.shape == (2, 8) and np.shares_memory(a, shorter)
    # shorter rows are the C-contiguous front of the array, not a strided slice
    narrower = buffer((4, 5), np.complex128)
    assert narrower.flags.c_contiguous and np.shares_memory(a, narrower)
    assert not np.shares_memory(a, buffer((4, 8), np.complex128, key=1))
    for shape, dtype in [((4, 16), np.complex128), ((4, 8), np.float64), ((5, 8), np.complex128)]:
        replaced = buffer(shape, dtype)
        assert replaced.shape == shape and replaced.dtype == dtype
        assert not np.shares_memory(a, replaced)
        a = replaced


def test_each_thread_has_its_own_arrays():
    buffer = _Buffer()
    mine = buffer((4, 8), np.float64)
    with ThreadPoolExecutor(1) as pool:
        theirs = pool.submit(buffer, (4, 8), np.float64).result()
    assert not np.shares_memory(mine, theirs)


def test_a_warm_free_block_allocates_less_than_one_block():
    # A warmed 16-row block at N = 1024 traced 2.25 MB (~9 such arrays) when
    # every block allocated its temporaries.  What it still traces, ~0.17 MB
    # with numpy 2.4, is numpy's own ufunc-iterator buffers (64-128 KiB each,
    # for a broadcast operand), whose size is numpy's choice: a numpy that
    # grows them can fail this bound with no change here.
    cfg = replace(cli.default_config("free_gaussian"), snapshot_stride=1)
    grid = make_grid(cfg.L, cfg.N)
    entry = cli._ENTRIES["free_gaussian"]
    block = entry.blocks(cfg, grid, cli._evolution(cfg), *entry.start(cfg, grid))
    block(list(range(1, 17)))
    tracemalloc.start()
    try:
        block(list(range(17, 33)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * cfg.N * np.dtype(np.complex128).itemsize


# While the phase exponents and the energy integrand had arrays of their own
# instead of the `_work` scratch, a quantum block kept ~7.1 (rows x N) complex
# arrays of buffers and a compare block ~5.3.
@pytest.mark.parametrize("entry, arrays", [(cli._ENTRIES["free_gaussian"], 6), (cli._COMPARE, 5)],
                         ids=["free", "compare"])
def test_a_cold_block_keeps_few_buffers(entry, arrays):
    cfg = replace(cli.default_config("free_gaussian"), snapshot_stride=1)
    grid = make_grid(cfg.L, cfg.N)
    block = entry.blocks(cfg, grid, cli._evolution(cfg), *entry.start(cfg, grid))
    snapshots = []

    def cold():  # a new thread has no `_Buffer` arrays yet
        tracemalloc.start()
        try:
            block(list(range(1, 17)))
            snapshots.append(tracemalloc.take_snapshot())
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=cold)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and snapshots
    # what is still allocated from grid.py after the block is its `_Buffer` arrays
    kept = snapshots[0].filter_traces([tracemalloc.Filter(True, grid_module.__file__)])
    held = sum(stat.size for stat in kept.statistics("filename"))
    assert held < arrays * 16 * cfg.N * np.dtype(np.complex128).itemsize
