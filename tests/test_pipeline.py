"""The row-block snapshot pipeline against the per-state public functions.

The runners propagate, diffuse and diagnose snapshots in (rows, N) blocks;
every value they report must be bit for bit what `propagate`/`diffuse_step`,
`entropy_report` and `energy` give for each snapshot alone, whatever the
number of workers that compute the blocks.  The block size is shrunk to 3
rows per worker so that small runs cover one row, one block and a row count
that is not a multiple of the block.
"""
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from qhydro import cli, grid as grid_module, madelung, schrodinger
from qhydro.cli import compare_quantum_diffusion, default_config, main, render_config, run_scenario
from qhydro.diffusion import DiffusionState, diffuse_step, gaussian_density
from qhydro.entropy import boltzmann_entropy, entropy_report
from qhydro.grid import integrate, make_grid
from qhydro.madelung import advective_velocity, density, diffusive_velocity
from qhydro.schrodinger import (
    EvolutionConfig,
    energy,
    free_potential,
    gaussian_packet,
    harmonic_potential,
    propagate,
)

BLOCK_ROWS = 3
N = 64
# t = 0 alone; t = 0 plus one full block; t = 0 plus two blocks and one row
ROW_COUNTS = {"one_row": 1, "one_block": 1 + BLOCK_ROWS, "ragged": 1 + 2 * BLOCK_ROWS + 1}


def _workers(monkeypatch, workers):
    """Blocks of BLOCK_ROWS rows, computed on `workers` workers."""
    monkeypatch.setattr(grid_module, "_WORKERS", workers)
    # the budget is shared by the blocks in flight, one per worker
    monkeypatch.setattr(grid_module, "_BLOCK_BYTES", BLOCK_ROWS * 16 * N * workers)


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    _workers(monkeypatch, grid_module._WORKERS)


def _config(scenario, rows, **overrides):
    base = dict(L=10.0, N=N, dt=0.01, t_final=(rows - 1) * 0.01, snapshot_stride=1,
                emit_fields=True)
    return replace(default_config(scenario), **{**base, **overrides})


QUANTUM_CASES = {
    "free": dict(scenario="custom", width_rate=0.2, enable_von_neumann=True),
    "trap": dict(scenario="custom", potential="harmonic", omega0=2.0, sigma0=0.6,
                 width_rate=0.1),
    # the one scenario whose identities read max|u_a| and max|rho - rho0| of each row
    "ground": dict(scenario="harmonic_ground", potential="harmonic", omega0=2.0),
    "free_gaussian": dict(scenario="free_gaussian"),
    "perturbed": dict(scenario="harmonic_perturbed", potential="harmonic", omega0=2.0),
}
# (case, rows) pairs; harmonic_perturbed refuses a run with no step, so it has no one-row case
QUANTUM_RUNS = [
    pytest.param(case, rows, id=f"{name}-{rows_id}")
    for name, case in QUANTUM_CASES.items()
    for rows_id, rows in ROW_COUNTS.items()
    if not (name == "perturbed" and rows == 1)
]


def _quantum_start(cfg):
    grid = make_grid(cfg.L, cfg.N)
    pot = harmonic_potential(cfg.omega0) if cfg.potential == "harmonic" else free_potential()
    # both traps start at their ground width plus epsilon0 (held at 0 for harmonic_ground)
    trap = cfg.scenario in ("harmonic_ground", "harmonic_perturbed")
    sigma0 = np.sqrt(cfg.hbar / (2 * cfg.mass * cfg.omega0)) + cfg.epsilon0 if trap else cfg.sigma0
    state = gaussian_packet(grid, sigma0, cfg.hbar, cfg.mass, width_rate=cfg.width_rate)
    return grid, pot, state


def _evolution(cfg):
    return EvolutionConfig(cfg.dt, cfg.t_final, cfg.snapshot_stride)


def _sigma2(rho):
    return float(rho.grid.dx * np.sum(rho.grid.x**2 * rho.values))


@pytest.mark.parametrize("case, rows", QUANTUM_RUNS)
def test_quantum_runner_matches_per_state_path(case, rows):
    cfg = _config(rows=rows, **case)
    report = run_scenario(cfg)
    tab = report.table
    grid, pot, state = _quantum_start(cfg)
    snapshots = propagate(state, pot, _evolution(cfg))
    assert len(tab["t"]) == len(snapshots) == rows
    for i, snap in enumerate(snapshots):
        rho = density(snap)
        ent = entropy_report(snap, cfg.k_B)
        assert tab["t"][i] == snap.time
        assert tab["norm"][i] == integrate(rho)
        assert tab["energy"][i] == energy(snap, pot)
        assert tab["sigma2_measured"][i] == _sigma2(rho)
        assert tab["ent_boltzmann"][i] == ent.ent_boltzmann
        assert tab["fisher"][i] == ent.fisher_information
        assert tab["production_diffusive"][i] == ent.production_diffusive
        assert tab["production_advective"][i] == ent.production_advective
        assert tab["production_correlation"][i] == ent.production_correlation
        if cfg.enable_von_neumann:
            assert tab["ent_von_neumann"][i] == ent.ent_von_neumann
        else:
            assert tab["ent_von_neumann"] is None
    u_a = [advective_velocity(s).values for s in snapshots]
    if cfg.scenario == "harmonic_ground":
        assert tab["ua_max"].tolist() == [float(np.abs(u).max()) for u in u_a]
        rho0 = density(snapshots[0]).values
        drift = [float(np.abs(density(s).values - rho0).max()) for s in snapshots]
        assert tab["rho_drift"].tolist() == drift
    else:
        assert "ua_max" not in tab and "rho_drift" not in tab
    for table, snap, u in zip(report.field_tables(), snapshots, u_a, strict=True):
        assert np.array_equal(table["rho"], density(snap).values)
        assert np.array_equal(table["u_advective"], u)
        assert not np.signbit(table["u_advective"][~advective_velocity(snap).mask]).any()


def _diffused(initial, cfg):
    ev = _evolution(cfg)
    return [initial] + [diffuse_step(initial, i * ev.dt) for i in ev.snapshot_steps()[1:]]


@pytest.mark.parametrize("rows", ROW_COUNTS.values(), ids=ROW_COUNTS.keys())
def test_diffusion_runner_matches_per_state_path(rows):
    cfg = _config("diffusion_gaussian", rows, start_time=0.3)
    report = run_scenario(cfg)
    tab = report.table
    initial = gaussian_density(make_grid(cfg.L, cfg.N), cfg.sigma0, cfg.D, time=cfg.start_time)
    snapshots = _diffused(initial, cfg)
    assert len(tab["t"]) == len(snapshots) == rows
    assert tab.get("energy") is None
    assert tab.get("production_advective") is None
    for i, (snap, table) in enumerate(zip(snapshots, report.field_tables(), strict=True)):
        ent = entropy_report(snap, cfg.k_B)
        assert tab["t"][i] == snap.time
        assert tab["norm"][i] == integrate(snap.rho)
        assert tab["sigma2_measured"][i] == _sigma2(snap.rho)
        assert tab["ent_boltzmann"][i] == ent.ent_boltzmann
        assert tab["fisher"][i] == ent.fisher_information
        assert tab["production_diffusive"][i] == ent.production_diffusive
        assert np.array_equal(table["rho"], snap.rho.values)
        assert np.array_equal(table["u_diffusive"], diffusive_velocity(snap.rho, cfg.D).values)


@pytest.mark.parametrize("rows", ROW_COUNTS.values(), ids=ROW_COUNTS.keys())
def test_compare_matches_per_state_path(rows):
    cfg = _config("free_gaussian", rows, emit_fields=False)  # compare has no field tables
    report = compare_quantum_diffusion(cfg)
    grid = make_grid(cfg.L, cfg.N)
    q_state = gaussian_packet(grid, cfg.sigma0, cfg.hbar, cfg.mass)
    q_snaps = propagate(q_state, free_potential(), _evolution(cfg))
    d_snaps = _diffused(DiffusionState(density(q_state), cfg.D, time=0.0), cfg)
    tab = report.table
    assert len(tab["t"]) == rows
    for i, (qs, ds) in enumerate(zip(q_snaps, d_snaps)):
        rho_q = density(qs)
        assert tab["t"][i] == qs.time
        assert tab["sigma2_quantum"][i] == _sigma2(rho_q)
        assert tab["sigma2_diffusive"][i] == _sigma2(ds.rho)
        assert tab["ent_boltzmann_quantum"][i] == boltzmann_entropy(rho_q, cfg.k_B)
        assert tab["ent_boltzmann_diffusive"][i] == boltzmann_entropy(ds.rho, cfg.k_B)
        l2 = float(np.sqrt(grid.dx * np.sum((rho_q.values - ds.rho.values) ** 2)))
        assert tab["rho_l2_divergence"][i] == l2


@pytest.mark.parametrize("pot", [free_potential(), harmonic_potential(1.5)], ids=["free", "trap"])
def test_propagate_does_not_depend_on_the_block_size(monkeypatch, pot):
    state = gaussian_packet(make_grid(10.0, N), 0.8, width_rate=0.2)
    cfg = EvolutionConfig(0.01, 0.1, 1)
    blocked = propagate(state, pot, cfg)
    monkeypatch.setattr(grid_module, "_BLOCK_BYTES", 1)  # one row per block
    single = propagate(state, pot, cfg)
    assert blocked[0] is state
    assert len(blocked) == len(single) == 11
    for a, b in zip(blocked, single):
        assert a.time == b.time
        assert np.array_equal(a.psi.values, b.psi.values)


def _dumped(report):
    """The report's field tables, recomputed now: with the workers set at the call."""
    return list(report.field_tables()) if report.field_tables else []


def _tables_equal(a, b):
    assert a.keys() == b.keys()
    for key in a:
        assert (a[key] is None) == (b[key] is None), key
        assert a[key] is None or a[key].tobytes() == b[key].tobytes(), key


POOLED_CASES = {
    "free": (run_scenario, QUANTUM_CASES["free"]),
    "trap": (run_scenario, QUANTUM_CASES["trap"]),
    "diffusion": (run_scenario, dict(scenario="diffusion_gaussian", start_time=0.3)),
    "compare": (compare_quantum_diffusion, dict(scenario="free_gaussian", emit_fields=False)),
}


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("case", POOLED_CASES.values(), ids=POOLED_CASES.keys())
def test_tables_do_not_depend_on_the_worker_count(monkeypatch, case, workers):
    # 26 later rows: 9 blocks, more than the workers, so they run pooled
    runner, overrides = case
    cfg = _config(rows=27, **overrides)
    _workers(monkeypatch, 1)
    serial = runner(cfg)
    serial_fields = _dumped(serial)
    _workers(monkeypatch, workers)
    pooled = runner(cfg)
    _tables_equal(serial.table, pooled.table)
    assert [c.measured for c in serial.identities] == [c.measured for c in pooled.identities]
    assert len(serial_fields) == (0 if runner is compare_quantum_diffusion else 27)
    for a, b in zip(serial_fields, _dumped(pooled), strict=True):
        _tables_equal(a, b)


FIELD_CASES = {**QUANTUM_CASES, "diffusion": POOLED_CASES["diffusion"][1]}


@pytest.mark.parametrize("case", FIELD_CASES.values(), ids=FIELD_CASES.keys())
def test_field_tables_read_twice_give_the_same_bytes(monkeypatch, case):
    # each read recomputes the 27 rows, in 9 pooled blocks, on the run's kernel; nothing
    # is kept between reads, and a trap diagonalizes its Hamiltonian once per run
    _workers(monkeypatch, 2)
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: shapes.append(h.shape) or eigh(h))
    report = run_scenario(_config(rows=27, **case))
    first, again = _dumped(report), _dumped(report)
    assert len(first) == len(again) == 27
    assert shapes == ([(N, N)] if case.get("potential") == "harmonic" else [])
    for a, b in zip(first, again):
        _tables_equal(a, b)
        assert all(not np.shares_memory(a[key], b[key]) for key in a if key != "x")


@pytest.mark.parametrize("case", FIELD_CASES.values(), ids=FIELD_CASES.keys())
def test_field_tables_take_no_per_state_path(monkeypatch, case):
    # the dumps come from each row block's own rho and u_a + i u_d (or rho'), so the
    # per-state functions above stay an independent oracle for them
    report, calls = run_scenario(_config(rows=7, **case)), []

    def recording(name, function):
        return lambda *args, **kwargs: calls.append(name) or function(*args, **kwargs)

    built = madelung.QuantumState.__post_init__
    monkeypatch.setattr(madelung.QuantumState, "__post_init__",
                        recording("QuantumState", built))
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "qhydro"]:
        for name in ("advective_velocity", "diffusive_velocity"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    assert len(list(report.field_tables())) == 7
    assert calls == []


def test_blocks_reach_the_diagnostics_c_contiguous(monkeypatch):
    # a strided block would sum each row in another order
    _workers(monkeypatch, 2)
    seen = []

    def recording(diagnose):
        def wrapper(block, *args):
            seen.append(block.flags.c_contiguous)
            return diagnose(block, *args)
        return wrapper

    for name in ("_quantum_rows", "_diffusion_rows", "_boltzmann_rows"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    for runner, overrides in POOLED_CASES.values():
        runner(_config(rows=11, **overrides))
    # five blocks each: three runs, and a comparison of two densities per block
    assert len(seen) == 3 * 5 + 2 * 5 and all(seen)


def _wait(event: threading.Event):
    """Block until `event` is set; a handshake that never comes fails the block."""
    assert event.wait(timeout=60), "a pool handshake timed out"


def _poison(monkeypatch, bad_steps, held=None):
    """NaN in the phase table of each step in `bad_steps` (dt = 0.01, hbar = 1).
    With `held` = (step, later), the block of `step` waits until the block of
    step `later` has asked for its table."""
    exponentials = schrodinger._exponentials
    later_started = threading.Event()

    def poisoned(rates):
        table = exponentials(rates)

        def with_nan(times):
            steps = np.rint(np.asarray(times) / 0.01).astype(int)
            if held and held[1] in steps:
                later_started.set()
            if held and held[0] in steps:
                _wait(later_started)
            out = table(times)
            out[np.isin(steps, bad_steps), 5] = np.nan
            return out

        return with_nan

    monkeypatch.setattr(schrodinger, "_exponentials", poisoned)


def _aborts_at(tmp_path, capsys, step):
    out = tmp_path / "out"
    path = tmp_path / "cfg.ini"
    path.write_text(render_config(_config("free_gaussian", 11, directory=str(out))))
    assert main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numeric abort at step {step}: non-finite wavefunction")
    assert not out.exists()


# steps 0..10 are cut into [0], [1-3], [4-6], [7-9], [10]; on two workers the
# last four blocks are pooled
def test_nan_in_a_later_block_aborts_at_its_step(tmp_path, capsys, monkeypatch):
    _workers(monkeypatch, 2)
    _poison(monkeypatch, [8])
    _aborts_at(tmp_path, capsys, 8)


def test_nan_in_two_blocks_aborts_at_the_earlier_step(tmp_path, capsys, monkeypatch):
    # the block of step 5 holds its worker until block [10] starts, which the
    # other worker does only once its block of step 8 has failed
    _workers(monkeypatch, 2)
    _poison(monkeypatch, [5, 8], held=(5, 10))
    _aborts_at(tmp_path, capsys, 5)


def test_pool_runs_at_most_two_blocks_per_worker_ahead(monkeypatch):
    # the blocks come from a generator, as `_row_blocks` cuts them: the pool pulls
    # at most two per worker beyond the one consumed, and starts no block it has not pulled
    _workers(monkeypatch, 2)
    started, pulled = [], []

    def block(steps):
        started.append(steps[0])
        return steps[0]

    def blocks():
        for i in range(1, 41):
            pulled.append(i)
            yield [i]

    for consumed, value in enumerate(cli._pooled(block, blocks()), 1):
        assert value == consumed
        assert len(started) <= len(pulled) <= consumed + 2 * 2
    assert sorted(started) == pulled == list(range(1, 41))


def _finishes(target, seconds=60) -> bool:
    """Run `target` in a daemon thread; whether it returned within `seconds`."""
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    return not thread.is_alive()


def test_a_failing_block_starts_no_queued_block_and_joins_the_workers(monkeypatch):
    # block 3 fails while blocks 4 and 5 hold the two workers: block 6, queued
    # within the look-ahead, never starts, and the generator returns only after
    # both workers have exited.  Block 1 ends only once block 3 has started,
    # so block 2 finishes first; blocks 4 and 5 end once the pool has put its
    # stop markers ahead of the queued blocks.
    _workers(monkeypatch, 2)
    started, threads, consumed = [], set(), []
    three_started, five_started, stopping = (threading.Event() for _ in range(3))

    class Tasks(cli.deque):
        def extendleft(self, items):
            super().extendleft(items)
            stopping.set()

    monkeypatch.setattr(cli, "deque", Tasks)

    def block(steps):
        started.append(steps[0])
        threads.add(threading.current_thread())
        if steps[0] == 5:
            five_started.set()
        if steps[0] == 1:
            _wait(three_started)
        elif steps[0] == 3:
            three_started.set()
            raise ValueError("block 3")
        elif steps[0] > 3:
            _wait(stopping)
        return steps[0]

    def consume():
        pooled = cli._pooled(block, [[i] for i in range(1, 41)])
        consumed.extend([threading.current_thread(), next(pooled), next(pooled)])
        # the permit released for block 1 lets the worker not on block 4 take
        # block 5 before the error is read
        _wait(five_started)
        with pytest.raises(ValueError, match="block 3"):
            next(pooled)
        consumed.append("raised")

    assert _finishes(consume)
    assert consumed[1:] == [1, 2, "raised"]
    assert threads and consumed[0] not in threads
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(started) == [1, 2, 3, 4, 5]


def test_pool_of_more_workers_than_cores_runs_each_block_once(monkeypatch):
    # workers switched every microsecond share the task list and the look-ahead:
    # a lost or repeated task shows as a block run twice or not at all
    _workers(monkeypatch, 8)
    started, results = [], []

    def consume():
        results.extend(cli._pooled(lambda steps: started.append(steps[0]) or steps[0],
                                   [[i] for i in range(400)]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _finishes(consume)
    finally:
        sys.setswitchinterval(interval)
    assert results == list(range(400))
    assert sorted(started) == list(range(400))
