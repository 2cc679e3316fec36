"""Config-driven scenario runner with CSV/JSON time-series output.

Scenarios are described by an INI file (sections: scenario, physics, grid,
evolution, diagnostics, output).  A run evolves the configured state,
records one diagnostics row per snapshot, compares the traces against the
closed-form references, writes the data files, and exits nonzero when an
asserted identity misses its tolerance.

Exit codes: 0 all identities pass, 1 identity failure, 2 configuration
error, 3 numeric abort.  Data files are byte-identical across runs with the
same configuration; wall time and provenance live in report.json only.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (
    GaussianParams,
    entropy_of_width,
    free_divergence,
    free_entropy,
    free_sigma,
    harmonic_ground_width,
    harmonic_sigma,
)
from .diffusion import DiffusionState, gaussian_density, _kernel_blocks
from .entropy import _boltzmann_rows, _diffusion_rows, _quantum_rows
from .grid import make_grid, spectral_derivatives
from .madelung import density, _drift
from .schrodinger import (
    EvolutionConfig,
    NumericsError,
    free_potential,
    gaussian_packet,
    harmonic_potential,
    _energy_rows,
    _snapshot_blocks,
)
from .traces import centered_difference

__all__ = [
    "ScenarioConfig",
    "ConfigError",
    "DiagnosticsRow",
    "IdentityCheck",
    "RunReport",
    "SCENARIOS",
    "CSV_COLUMNS",
    "default_config",
    "parse_config",
    "render_config",
    "config_hash",
    "run_scenario",
    "compare_quantum_diffusion",
    "emit_timeseries",
    "main",
]

SCENARIOS = {
    "free_gaussian": "spreading Gaussian packet, no potential",
    "harmonic_ground": "stationary Gaussian in a harmonic trap",
    "harmonic_perturbed": "harmonic trap with a 1% width perturbation",
    "diffusion_gaussian": "classical Fickian spreading of a Gaussian density",
    "custom": "Gaussian initial state with a free or harmonic potential",
}

CSV_COLUMNS = [
    "t",
    "norm",
    "energy",
    "sigma2_measured",
    "ent_boltzmann",
    "dEntB_dt_fd",
    "production_advective",
    "production_correlation",
    "fisher",
    "production_diffusive",
    "ent_von_neumann",
    "ref_sigma2",
    "ref_entropy",
    "ref_divergence",
]

COMPARE_COLUMNS = [
    "t",
    "sigma2_quantum",
    "ref_sigma2_quantum",
    "sigma2_diffusive",
    "ref_sigma2_diffusive",
    "ent_boltzmann_quantum",
    "ent_boltzmann_diffusive",
    "rho_l2_divergence",
]


class ConfigError(ValueError):
    """Invalid configuration; `problems` lists every violation found."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str = "free_gaussian"
    # physics
    hbar: float = 1.0
    mass: float = 1.0
    k_B: float = 1.0
    sigma0: float = 1.0
    omega0: float = 1.0
    D: float = 0.5
    epsilon0: float = 0.0
    start_time: float = 0.0
    width_rate: float = 0.0
    potential: str = "free"
    # grid
    L: float = 40.0
    N: int = 1024
    # evolution
    dt: float = 1e-3
    t_final: float = 4.0
    snapshot_stride: int = 50
    # diagnostics
    enable_von_neumann: bool = False
    emit_fields: bool = False
    # output
    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "json")


_DEFAULTS = {
    "free_gaussian": dict(
        scenario="free_gaussian", sigma0=1.0, L=40.0, N=1024, dt=1e-3, t_final=4.0,
        snapshot_stride=50,
    ),
    # snapshots are exact, so dt and snapshot_stride only place the rows
    "harmonic_ground": dict(
        scenario="harmonic_ground", omega0=1.0, sigma0=float(np.sqrt(0.5)), potential="harmonic",
        L=9.0, N=128, dt=3.2e-5, t_final=float(5 * 2 * np.pi), snapshot_stride=6545,
    ),
    "harmonic_perturbed": dict(
        scenario="harmonic_perturbed", omega0=1.0, sigma0=float(np.sqrt(0.5)),
        epsilon0=float(0.01 * np.sqrt(0.5)), potential="harmonic",
        L=12.0, N=256, dt=2e-4, t_final=float(5 * 2 * np.pi / np.sqrt(2)), snapshot_stride=250,
    ),
    "diffusion_gaussian": dict(
        scenario="diffusion_gaussian", D=0.5, sigma0=1.0, start_time=0.0,
        L=40.0, N=1024, dt=1e-3, t_final=2.0, snapshot_stride=10,
    ),
    "custom": dict(scenario="custom", potential="free"),
}

_SECTIONS = {
    "physics": [
        "hbar", "mass", "k_B", "sigma0", "omega0", "D", "epsilon0",
        "start_time", "width_rate", "potential",
    ],
    "grid": ["L", "N"],
    "evolution": ["dt", "t_final", "snapshot_stride"],
    "diagnostics": ["enable_von_neumann", "emit_fields"],
    "output": ["directory", "formats"],
}


def default_config(scenario: str) -> ScenarioConfig:
    if scenario not in SCENARIOS:
        raise ConfigError([f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}"])
    return ScenarioConfig(**_DEFAULTS[scenario])


def validate_config(cfg: ScenarioConfig) -> list[str]:
    problems = [
        f"{name} must be finite, got {value}"
        for name, value in vars(cfg).items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    if cfg.scenario not in SCENARIOS:
        problems.append(f"unknown scenario {cfg.scenario!r}")
    if not cfg.hbar > 0:
        problems.append(f"hbar must be positive, got {cfg.hbar}")
    if not cfg.mass > 0:
        problems.append(f"mass must be positive, got {cfg.mass}")
    if not cfg.k_B > 0:
        problems.append(f"k_B must be positive, got {cfg.k_B}")
    if not cfg.sigma0 > 0:
        problems.append(f"sigma0 must be positive, got {cfg.sigma0}")
    if not cfg.L > 0:
        problems.append(f"L must be positive, got {cfg.L}")
    if cfg.N % 2 != 0 or cfg.N < 8:
        problems.append(f"N must be an even integer >= 8, got {cfg.N}")
    if not cfg.dt > 0:
        problems.append(f"dt must be positive, got {cfg.dt}")
    if cfg.t_final < 0:
        problems.append(f"t_final must be nonnegative, got {cfg.t_final}")
    if cfg.dt > 0 and math.isfinite(cfg.t_final):
        ratio = cfg.t_final / cfg.dt
        if not (math.isfinite(ratio) and round(ratio) <= sys.maxsize):
            problems.append(f"t_final/dt overflows the step count, got {cfg.t_final}/{cfg.dt}")
    if cfg.snapshot_stride < 1:
        problems.append(f"snapshot_stride must be >= 1, got {cfg.snapshot_stride}")
    if cfg.scenario in ("harmonic_ground", "harmonic_perturbed") or cfg.potential == "harmonic":
        if not cfg.omega0 > 0:
            problems.append(f"omega0 must be positive, got {cfg.omega0}")
    if cfg.scenario in ("harmonic_ground", "harmonic_perturbed") and not problems:
        if not 0 < _ground_width(cfg) < math.inf:
            problems.append(
                f"ground width sqrt(hbar/(2 mass omega0)) is {_ground_width(cfg)}, "
                "not a positive finite number"
            )
    if cfg.scenario == "harmonic_perturbed" and not problems:
        # the width-equation reference needs one step and a linearized start
        if round(cfg.t_final / cfg.dt) < 1:
            problems.append(f"harmonic_perturbed needs at least one step of dt={cfg.dt}")
        ratio = abs(cfg.epsilon0) / _ground_width(cfg)
        if not ratio < 0.05:
            problems.append(f"|epsilon0|/sigma_ground must be < 0.05, got {ratio:.3g}")
    if cfg.scenario == "diffusion_gaussian":
        if not cfg.D > 0:
            problems.append(f"D must be positive, got {cfg.D}")
        if cfg.start_time < 0:
            problems.append(f"start_time must be nonnegative, got {cfg.start_time}")
    if cfg.potential not in ("free", "harmonic"):
        problems.append(f"potential must be free or harmonic, got {cfg.potential!r}")
    for fmt in cfg.formats:
        if fmt not in ("csv", "json"):
            problems.append(f"unknown output format {fmt!r}")
    return problems


def parse_config(path: str | Path) -> ScenarioConfig:
    """Read and validate an INI scenario file; all violations are reported."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (k_B, L, N)
    read = parser.read(str(path))
    if not read:
        raise ConfigError([f"cannot read config file {path}"])
    if not parser.has_option("scenario", "name"):
        raise ConfigError(["missing [scenario] section with a `name` key"])
    name = parser.get("scenario", "name").strip()
    if name not in SCENARIOS:
        raise ConfigError([f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"])
    cfg = default_config(name)
    problems = []
    overrides = {}
    for section, keys in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        for key in parser.options(section):
            if key not in keys:
                problems.append(f"unknown key {key!r} in section [{section}]")
                continue
            raw = parser.get(section, key)
            try:
                overrides[key] = _parse_value(key, raw)
            except ValueError as exc:
                problems.append(f"[{section}] {key}: {exc}")
    if problems:
        raise ConfigError(problems)
    cfg = replace(cfg, **overrides)
    problems = validate_config(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in ("N", "snapshot_stride"):
        return int(raw)
    if key in ("enable_von_neumann", "emit_fields"):
        low = raw.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if key == "formats":
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    if key in ("directory", "potential", "scenario"):
        return raw
    return float(raw)


def render_config(cfg: ScenarioConfig) -> str:
    """Canonical INI text of a configuration (also the hashing input)."""
    lines = ["[scenario]", f"name = {cfg.scenario}", ""]
    for section, keys in _SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            value = getattr(cfg, key)
            if key == "formats":
                value = ",".join(value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(render_config(cfg).encode()).hexdigest()


@dataclass
class DiagnosticsRow:
    """One snapshot's scalar diagnostics; None marks a non-applicable value."""

    t: float
    norm: float
    energy: float | None
    sigma2_measured: float
    ent_boltzmann: float
    dEntB_dt_fd: float | None
    production_advective: float | None
    production_correlation: float | None
    fisher: float
    production_diffusive: float
    ent_von_neumann: float | None
    ref_sigma2: float | None
    ref_entropy: float | None
    ref_divergence: float | None


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    tolerance: float
    measured: float
    passed: bool

    def __post_init__(self):
        # numpy reductions yield numpy scalars, which report.json cannot encode;
        # a non-finite measurement never passes
        object.__setattr__(self, "measured", float(self.measured))
        object.__setattr__(self, "passed", bool(self.passed) and math.isfinite(self.measured))


@dataclass
class RunReport:
    scenario: str
    columns: list[str]
    rows: list[DiagnosticsRow]
    identities: list[IdentityCheck]
    provenance: dict
    field_tables: list[dict] | None = None

    @property
    def exit_code(self) -> int:
        return 0 if all(check.passed for check in self.identities) else 1

    def identity_lines(self) -> list[str]:
        out = []
        for c in self.identities:
            status = "PASS" if c.passed else "FAIL"
            out.append(
                f"IDENTITY scenario={self.scenario} name={c.name} "
                f"tolerance={c.tolerance:.3g} measured={c.measured:.6g} {status}"
            )
        return out


def _worst(values) -> float:
    """Largest of the values, NaN if any is NaN (Python's max() can drop a NaN)."""
    values = [float(v) for v in values]
    return math.nan if any(map(math.isnan, values)) else max(values)


def _floored_rel(a: float, b: float, floor: float = 1e-3) -> float:
    """|a-b| relative to max(|a|,|b|), floored so near-zero rates compare sanely."""
    return abs(a - b) / max(abs(a), abs(b), floor)


def _sigma2(rho: np.ndarray, grid) -> np.ndarray:
    """Second moment about x = 0 of each row of a (rows, N) block of densities."""
    return grid.dx * np.sum(grid.x**2 * rho, axis=-1)


def _rows_of(columns: dict, count: int) -> list[dict]:
    """One dict per row from a block's columns (arrays or lists; None where not applicable)."""
    lists = [[None] * count if c is None else np.asarray(c).tolist() for c in columns.values()]
    return [dict(zip(columns, values)) for values in zip(*lists)]


def _ground_width(cfg: ScenarioConfig) -> float:
    # harmonic scenarios derive the width from omega0; cfg.sigma0 is not used
    return harmonic_ground_width(
        GaussianParams(max(cfg.sigma0, 1e-300), cfg.hbar, cfg.mass, omega0=cfg.omega0)
    )


def _evolution(cfg: ScenarioConfig) -> EvolutionConfig:
    return EvolutionConfig(cfg.dt, cfg.t_final, cfg.snapshot_stride)


def _run_quantum(cfg: ScenarioConfig) -> tuple[RunReport, dict]:
    """The report, and per row the maxima the stationarity identities reduce.

    The maxima are max|u_a| ("ua_max") and max|rho - rho0| ("rho_drift").
    """
    grid = make_grid(cfg.L, cfg.N)
    if cfg.scenario == "free_gaussian":
        pot = free_potential()
        state = gaussian_packet(grid, cfg.sigma0, cfg.hbar, cfg.mass, width_rate=cfg.width_rate)
    elif cfg.scenario in ("harmonic_ground", "harmonic_perturbed"):
        pot = harmonic_potential(cfg.omega0)
        width = _ground_width(cfg)
        if cfg.scenario == "harmonic_perturbed":
            width += cfg.epsilon0
        state = gaussian_packet(grid, width, cfg.hbar, cfg.mass)
    else:  # custom
        pot = harmonic_potential(cfg.omega0) if cfg.potential == "harmonic" else free_potential()
        state = gaussian_packet(grid, cfg.sigma0, cfg.hbar, cfg.mass, width_rate=cfg.width_rate)

    ev = _evolution(cfg)
    refs = _quantum_references(cfg, ev.snapshot_steps())
    rho0 = np.abs(state.psi.values) ** 2
    rows, maxima = [], {"ua_max": [], "rho_drift": []}
    tables = [] if cfg.emit_fields else None
    for steps, psi in _snapshot_blocks(state, pot, ev):
        times = [state.time + i * ev.dt for i in steps]
        derivatives = spectral_derivatives(psi, grid, (1, 2))
        ent, rho, mask, v = _quantum_rows(
            psi, derivatives, grid, cfg.hbar, cfg.mass, cfg.k_B, cfg.enable_von_neumann, times
        )
        energies = _energy_rows(psi, derivatives[1], grid, pot, cfg.hbar, cfg.mass, steps)
        block_refs = refs[len(rows):len(rows) + len(steps)]
        rows += _diagnostics_rows(times, rho, grid, ent, energies, block_refs)
        maxima["ua_max"] += np.abs(v.real).max(axis=-1).tolist()
        maxima["rho_drift"] += np.abs(rho - rho0).max(axis=-1).tolist()
        if tables is not None:
            u_a = np.where(mask, v.real, 0.0)
            tables += [{"x": grid.x, "rho": r, "u_advective": u} for r, u in zip(rho, u_a)]
    _fill_entropy_rate(rows)
    identities = _quantum_identities(cfg, rows, maxima)
    return RunReport(cfg.scenario, CSV_COLUMNS, rows, identities, {}, tables), maxima


def _diagnostics_rows(times, rho, grid, ent: dict, energies, refs) -> list[DiagnosticsRow]:
    """A block's rows: norm and width from rho, entropy terms from `ent`, references from `refs`."""
    ref_s2, ref_ent, ref_div = zip(*refs)
    columns = dict(
        t=times,
        norm=grid.dx * np.sum(rho, axis=-1),
        energy=energies,
        sigma2_measured=_sigma2(rho, grid),
        ent_boltzmann=ent["ent_boltzmann"],
        dEntB_dt_fd=None,
        production_advective=ent.get("production_advective"),
        production_correlation=ent.get("production_correlation"),
        fisher=ent["fisher_information"],
        production_diffusive=ent["production_diffusive"],
        ent_von_neumann=ent.get("ent_von_neumann"),
        ref_sigma2=ref_s2,
        ref_entropy=ref_ent,
        ref_divergence=ref_div,
    )
    return [DiagnosticsRow(**row) for row in _rows_of(columns, len(times))]


def _quantum_references(cfg: ScenarioConfig, steps: list[int]):
    times = [i * cfg.dt for i in steps]
    p_kwargs = dict(hbar=cfg.hbar, mass=cfg.mass)
    if cfg.scenario == "free_gaussian":
        p = GaussianParams(cfg.sigma0, **p_kwargs)
        return [
            (free_sigma(p, t) ** 2, free_entropy(p, t, cfg.k_B), free_divergence(p, t))
            for t in times
        ]
    if cfg.scenario == "harmonic_ground":
        s0 = _ground_width(cfg)
        ent0 = float(entropy_of_width(s0, cfg.k_B))
        return [(s0**2, ent0, 0.0) for _ in times]
    if cfg.scenario == "harmonic_perturbed":
        # width model integrated on the full step grid so every snapshot
        # time is hit exactly
        s0 = _ground_width(cfg)
        p = GaussianParams(s0, omega0=cfg.omega0, epsilon0=cfg.epsilon0, **p_kwargs)
        t_grid = np.arange(steps[-1] + 1) * cfg.dt
        trace = harmonic_sigma(p, t_grid)
        return [
            (
                float(trace.sigma[j] ** 2),
                float(entropy_of_width(trace.sigma[j], cfg.k_B)),
                float(trace.dlnsigma_dt[j]),
            )
            for j in steps
        ]
    return [(None, None, None) for _ in times]


def _fill_entropy_rate(rows: list[DiagnosticsRow]):
    if len(rows) < 3:
        return
    times = np.array([r.t for r in rows])
    ent = np.array([r.ent_boltzmann for r in rows])
    # np.gradient handles the possibly shorter final stride interval
    rate = centered_difference(times, ent)
    for row, value in zip(rows, rate):
        row.dEntB_dt_fd = float(value)


def _quantum_identities(cfg: ScenarioConfig, rows, maxima: dict) -> list[IdentityCheck]:
    checks = []
    norm_drift = _worst(abs(r.norm - 1.0) for r in rows)
    checks.append(IdentityCheck("norm_conservation", 1e-10, norm_drift, norm_drift < 1e-10))

    e0 = rows[0].energy
    energy_drift = _worst(abs(r.energy - e0) for r in rows) / max(abs(e0), 1e-300)
    checks.append(IdentityCheck("energy_conservation", 1e-5, energy_drift, energy_drift < 1e-5))

    ident = _worst(
        _floored_rel(r.production_advective, r.production_correlation) for r in rows
    )
    checks.append(
        IdentityCheck("production_advective_equals_correlation", 1e-6, ident, ident < 1e-6)
    )

    rate_errs = [
        abs(r.dEntB_dt_fd - r.production_advective) / abs(r.production_advective)
        for r in rows[1:-1]
        if not abs(r.production_advective) <= 1e-3
    ]
    if rate_errs:
        worst = _worst(rate_errs)
        checks.append(IdentityCheck("entropy_rate_matches_production", 1e-2, worst, worst < 1e-2))

    if cfg.scenario == "free_gaussian":
        s2 = _worst(abs(r.sigma2_measured - r.ref_sigma2) / r.ref_sigma2 for r in rows)
        checks.append(IdentityCheck("sigma2_matches_reference", 1e-3, s2, s2 < 1e-3))
        ent = _worst(abs(r.ent_boltzmann - r.ref_entropy) for r in rows)
        checks.append(IdentityCheck("entropy_matches_reference", 1e-3, ent, ent < 1e-3))
    elif cfg.scenario == "harmonic_ground":
        ent0 = rows[0].ent_boltzmann
        ent_drift = _worst(abs(r.ent_boltzmann - ent0) for r in rows)
        checks.append(IdentityCheck("entropy_constant", 1e-6, ent_drift, ent_drift < 1e-6))
        ua_max = _worst(maxima["ua_max"])
        checks.append(IdentityCheck("advective_velocity_zero", 1e-6, ua_max, ua_max < 1e-6))
        rho_drift = _worst(maxima["rho_drift"])
        checks.append(IdentityCheck("density_stationary", 1e-10, rho_drift, rho_drift < 1e-10))
    elif cfg.scenario == "harmonic_perturbed":
        # solver check against the exact oscillator width formula
        # sigma^2(t) = s^2 cos^2(w t) + (s0^4/s^2) sin^2(w t); the emitted
        # ref columns carry the width-equation model instead, which breathes
        # at sqrt(2) w0 and visibly departs from the measured trace
        s0 = _ground_width(cfg)
        s_init = s0 + cfg.epsilon0

        def rel_err(r):
            c, s_ = np.cos(cfg.omega0 * r.t), np.sin(cfg.omega0 * r.t)
            exact = s_init**2 * c**2 + (s0**4 / s_init**2) * s_**2
            return abs(r.sigma2_measured - exact) / exact

        worst = _worst(rel_err(r) for r in rows)
        checks.append(IdentityCheck("sigma2_matches_oscillator", 1e-3, worst, worst < 1e-3))
    return checks


def _run_diffusion(cfg: ScenarioConfig) -> RunReport:
    grid = make_grid(cfg.L, cfg.N)
    initial = gaussian_density(grid, cfg.sigma0, cfg.D, time=cfg.start_time)
    ev = _evolution(cfg)
    rows = []
    tables = [] if cfg.emit_fields else None
    for steps, rho in _kernel_blocks(initial, ev):
        times = [initial.time + i * ev.dt for i in steps]
        ent, mask, grad = _diffusion_rows(rho, grid, cfg.D, cfg.k_B, times)
        s2_refs = [cfg.sigma0**2 + 2 * cfg.D * (t - cfg.start_time) for t in times]
        refs = [(s2, float(entropy_of_width(np.sqrt(s2), cfg.k_B)), cfg.D / s2) for s2 in s2_refs]
        rows += _diagnostics_rows(times, rho, grid, ent, None, refs)
        if tables is not None:
            u_d = _drift(rho, grad, mask, cfg.D)
            tables += [{"x": grid.x, "rho": r, "u_diffusive": u} for r, u in zip(rho, u_d)]
    _fill_entropy_rate(rows)
    identities = _diffusion_identities(cfg, rows)
    return RunReport(cfg.scenario, CSV_COLUMNS, rows, identities, {}, tables)


def _diffusion_identities(cfg: ScenarioConfig, rows) -> list[IdentityCheck]:
    checks = []
    mass_drift = _worst(abs(r.norm - 1.0) for r in rows)
    checks.append(IdentityCheck("mass_conservation", 1e-10, mass_drift, mass_drift < 1e-10))

    s2 = _worst(abs(r.sigma2_measured - r.ref_sigma2) / r.ref_sigma2 for r in rows)
    checks.append(IdentityCheck("sigma2_exact_kernel", 1e-12, s2, s2 < 1e-12))

    defn = _worst(
        abs(r.production_diffusive - cfg.k_B * cfg.D * r.fisher)
        / max(abs(r.production_diffusive), 1e-300)
        for r in rows
    )
    checks.append(IdentityCheck("production_is_kB_D_fisher", 1e-12, defn, defn < 1e-12))

    if len(rows) >= 2:
        ent = np.array([r.ent_boltzmann for r in rows])
        monotone = float(np.diff(ent).min())
        checks.append(IdentityCheck("entropy_nondecreasing", 1e-12, -monotone, -monotone < 1e-12))

    rate_errs = [
        abs(r.dEntB_dt_fd - r.production_diffusive) / abs(r.production_diffusive)
        for r in rows[1:-1]
        if not abs(r.production_diffusive) <= 1e-3
    ]
    if rate_errs:
        worst = _worst(rate_errs)
        checks.append(IdentityCheck("entropy_rate_matches_production", 1e-2, worst, worst < 1e-2))

    # on the similarity branch (sigma0^2 = 2 D start_time) production is 1/(2t)
    if cfg.start_time > 0 and abs(cfg.sigma0**2 - 2 * cfg.D * cfg.start_time) < 1e-9:
        worst = _worst(
            abs(r.production_diffusive - cfg.k_B / (2 * r.t)) / (cfg.k_B / (2 * r.t))
            for r in rows
        )
        checks.append(IdentityCheck("production_matches_half_inverse_time", 1e-3, worst, worst < 1e-3))
    return checks


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Evolve the configured scenario and assemble its report.

    The report carries one DiagnosticsRow per snapshot, every asserted
    identity with its tolerance and measured error, and provenance (config
    hash, package version, wall time).
    """
    problems = validate_config(cfg)
    if problems:
        raise ConfigError(problems)
    started = time.perf_counter()
    if cfg.scenario == "diffusion_gaussian":
        report = _run_diffusion(cfg)
    else:
        report, _ = _run_quantum(cfg)
    report.provenance = {
        "config_hash": config_hash(cfg),
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
    }
    return report


def compare_quantum_diffusion(cfg: ScenarioConfig) -> RunReport:
    """Run the unitary and Fickian evolutions from the same initial density.

    The quantum width grows quadratically in time while the diffusive width
    grows linearly, so the densities separate immediately; the report tracks
    both widths, both entropies, and the L2 distance between the densities.
    The quantum entropy overtakes the diffusive entropy once
    t > 2 D (2 m sigma0 / hbar)^2, which is asserted when the run reaches
    1.05x that time.
    """
    problems = validate_config(cfg)
    if cfg.scenario != "diffusion_gaussian" and not cfg.D > 0:
        # only the diffusion scenario needs D to run; every comparison does
        problems.append(f"D must be positive, got {cfg.D}")
    if problems:
        raise ConfigError(problems)
    started = time.perf_counter()
    grid = make_grid(cfg.L, cfg.N)
    q_state = gaussian_packet(grid, cfg.sigma0, cfg.hbar, cfg.mass)
    d_state = DiffusionState(density(q_state), cfg.D, time=0.0)
    ev = _evolution(cfg)
    p = GaussianParams(cfg.sigma0, cfg.hbar, cfg.mass, D=cfg.D)
    rows = []
    # both runs cut the same steps into the same blocks
    blocks = zip(_snapshot_blocks(q_state, free_potential(), ev), _kernel_blocks(d_state, ev))
    for (steps, psi), (_, rho_d) in blocks:
        rho_q = np.abs(psi) ** 2
        times = [q_state.time + i * ev.dt for i in steps]
        columns = {
            "t": times,
            "sigma2_quantum": _sigma2(rho_q, grid),
            "ref_sigma2_quantum": [free_sigma(p, t) ** 2 for t in times],
            "sigma2_diffusive": _sigma2(rho_d, grid),
            "ref_sigma2_diffusive": [
                cfg.sigma0**2 + 2 * cfg.D * (d_state.time + i * ev.dt) for i in steps
            ],
            "ent_boltzmann_quantum": _boltzmann_rows(rho_q, grid.dx, cfg.k_B),
            "ent_boltzmann_diffusive": _boltzmann_rows(rho_d, grid.dx, cfg.k_B),
            "rho_l2_divergence": np.sqrt(grid.dx * np.sum((rho_q - rho_d) ** 2, axis=-1)),
        }
        rows += _rows_of(columns, len(steps))

    report = RunReport(
        "compare_quantum_diffusion", COMPARE_COLUMNS, rows, _compare_identities(cfg, rows), {}
    )
    report.provenance = {
        "config_hash": config_hash(cfg),
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
    }
    return report


def _compare_identities(cfg: ScenarioConfig, rows: list[dict]) -> list[IdentityCheck]:
    checks = []
    initial_div = rows[0]["rho_l2_divergence"]
    checks.append(IdentityCheck("matched_initial_density", 1e-13, initial_div, initial_div < 1e-13))
    worst_q = _worst(
        abs(r["sigma2_quantum"] - r["ref_sigma2_quantum"]) / r["ref_sigma2_quantum"] for r in rows
    )
    checks.append(IdentityCheck("quantum_width_quadratic_in_time", 1e-3, worst_q, worst_q < 1e-3))
    worst_d = _worst(
        abs(r["sigma2_diffusive"] - r["ref_sigma2_diffusive"]) / r["ref_sigma2_diffusive"]
        for r in rows
    )
    checks.append(IdentityCheck("diffusive_width_linear_in_time", 1e-12, worst_d, worst_d < 1e-12))
    t_cross = 2 * cfg.D * (2 * cfg.mass * cfg.sigma0 / cfg.hbar) ** 2
    if cfg.t_final > 1.05 * t_cross:
        gap = rows[-1]["ent_boltzmann_diffusive"] - rows[-1]["ent_boltzmann_quantum"]
        checks.append(IdentityCheck("quantum_entropy_overtakes_diffusive", 0.0, gap, gap < 0.0))
    return checks


def _format_value(v) -> str:
    if v is None:
        return ""
    return f"{v:.17g}"


def _row_mapping(report: RunReport, row) -> dict:
    if isinstance(row, dict):
        return row
    return {name: getattr(row, name) for name in report.columns}


def emit_timeseries(report: RunReport, directory: str | Path, formats=("csv", "json")) -> list[Path]:
    """Write the per-snapshot table; CSV is ASCII with 17 significant digits.

    Identical configurations produce byte-identical data files; provenance
    (which includes wall time) goes to report.json, written separately.
    """
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {directory}: {exc}") from exc
    stem = "compare" if report.scenario == "compare_quantum_diffusion" else "timeseries"
    written = []
    if "csv" in formats:
        path = directory / f"{stem}.csv"
        lines = [",".join(report.columns)]
        for row in report.rows:
            mapping = _row_mapping(report, row)
            lines.append(",".join(_format_value(mapping[name]) for name in report.columns))
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        written.append(path)
    if "json" in formats:
        path = directory / f"{stem}.json"
        payload = {
            "columns": report.columns,
            "rows": [
                {
                    name: (None if v is None else float(v))
                    for name, v in _row_mapping(report, row).items()
                }
                for row in report.rows
            ],
        }
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="ascii")
        written.append(path)
    if report.field_tables is not None:
        for i, table in enumerate(report.field_tables):
            path = directory / f"fields_{i:04d}.csv"
            names = list(table)
            lines = [",".join(names)]
            for j in range(len(table[names[0]])):
                lines.append(",".join(_format_value(float(table[name][j])) for name in names))
            path.write_text("\n".join(lines) + "\n", encoding="ascii")
            written.append(path)
    return written


def write_report(report: RunReport, directory: str | Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "scenario": report.scenario,
        "provenance": report.provenance,
        "identities": [
            {
                "name": c.name,
                "tolerance": c.tolerance,
                "measured": c.measured,
                "passed": c.passed,
            }
            for c in report.identities
        ],
        "exit_code": report.exit_code,
    }
    path = directory / "report.json"
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="ascii")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qhydro", description="quantum hydrodynamics and diffusion scenario runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("config", help="path to an INI scenario file")
        p.add_argument("--output-dir", default=None, help="override the output directory")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="restrict data output to one format")
        p.add_argument("--vn", choices=("on", "off"), default=None,
                       help="toggle the von Neumann entropy column")

    add_run_flags(sub.add_parser("run", help="run one scenario"))
    add_run_flags(sub.add_parser("compare", help="run matched quantum and diffusive evolutions"))
    sub.add_parser("list-scenarios", help="list scenario names")
    p_def = sub.add_parser("print-default-config", help="print a scenario's default INI")
    p_def.add_argument("scenario", choices=sorted(SCENARIOS))

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name in sorted(SCENARIOS):
            print(f"{name}: {SCENARIOS[name]}")
        return 0
    if args.command == "print-default-config":
        print(render_config(default_config(args.scenario)), end="")
        return 0

    try:
        cfg = parse_config(args.config)
        if args.output_dir is not None:
            cfg = replace(cfg, directory=args.output_dir)
        if args.format is not None:
            cfg = replace(cfg, formats=(args.format,))
        if args.vn is not None:
            cfg = replace(cfg, enable_von_neumann=(args.vn == "on"))
        if args.command == "run":
            report = run_scenario(cfg)
        else:
            report = compare_quantum_diffusion(cfg)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (NumericsError, ArithmeticError) as exc:
        # an ArithmeticError is Python float arithmetic overflowing or dividing by 0
        step = getattr(exc, "step_index", None)
        step_part = f" at step {step}" if step is not None else ""
        print(f"numeric abort{step_part}: {exc}", file=sys.stderr)
        return 3

    try:
        emit_timeseries(report, cfg.directory, cfg.formats)
        write_report(report, cfg.directory)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    for line in report.identity_lines():
        print(line)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
