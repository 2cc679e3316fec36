"""Config-driven scenario runner with CSV/JSON time-series output.

Scenarios are described by an INI file (sections: scenario, physics, grid,
evolution, diagnostics, output) and declared as entries of `_ENTRIES`;
`compare` is one more entry.  One loop runs any entry: it builds one table
of column arrays from the snapshot blocks, derives the reference columns,
reduces every identity over the table, writes the data files from it, and
exits nonzero when an asserted identity misses its tolerance.

Exit codes: 0 all identities pass, 1 identity failure, 2 configuration
error, 3 numeric abort.  Data files are byte-identical across runs with the
same configuration; wall time and provenance live in report.json only.
"""
from __future__ import annotations

import argparse
import configparser
import ctypes
import json
import math
import os
import queue
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .analytic import (
    GaussianParams,
    diffusive_sigma2,
    entropy_of_width,
    free_divergence,
    free_entropy,
    free_sigma,
    harmonic_ground_width,
    harmonic_sigma,
)
from .diffusion import DiffusionState, gaussian_density, _kernel_blocks
from .entropy import _boltzmann_rows, _diffusion_rows, _quantum_rows, _require_finite
from . import grid as grid_module
from .grid import _row_blocks, make_grid
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

# CPython's own SHA-256 (`_sha2` from 3.12, `_sha256` before): hashlib would map
# and initialise OpenSSL (~3.8 MB of peak RSS) to hash ~400 bytes of INI
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:  # a build without the built-in modules
        from hashlib import sha256 as _sha256

__all__ = [
    "ScenarioConfig",
    "ConfigError",
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
    return ScenarioConfig(scenario=scenario, **_ENTRIES[scenario].defaults)


_GRID_TOO_LARGE = "N = {} asks for a grid larger than memory holds"


def validate_config(cfg: ScenarioConfig) -> list[str]:
    problems = [
        f"{name} must be finite, got {value}"
        for name, value in vars(cfg).items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    entry = _ENTRIES.get(cfg.scenario)
    if entry is None:
        problems.append(f"unknown scenario {cfg.scenario!r}")
    problems += _positive(cfg, "hbar", "mass", "k_B", "sigma0", "L", "dt")
    if cfg.N % 2 != 0 or cfg.N < 8:
        problems.append(f"N must be an even integer >= 8, got {cfg.N}")
    elif cfg.N > sys.maxsize // 16:  # numpy cannot even size a complex grid array
        problems.append(_GRID_TOO_LARGE.format(cfg.N))
    elif 0 < cfg.L < math.inf and not math.isfinite(2 * cfg.L + math.pi / cfg.L * cfg.N):
        problems.append(f"L = {cfg.L} on N = {cfg.N} points overflows the grid span or wavenumbers")
    if cfg.t_final < 0:
        problems.append(f"t_final must be nonnegative, got {cfg.t_final}")
    if cfg.dt > 0 and math.isfinite(cfg.t_final):
        ratio = cfg.t_final / cfg.dt
        if not (math.isfinite(ratio) and round(ratio) <= sys.maxsize):
            problems.append(f"t_final/dt overflows the step count, got {cfg.t_final}/{cfg.dt}")
    if cfg.snapshot_stride < 1:
        problems.append(f"snapshot_stride must be >= 1, got {cfg.snapshot_stride}")
    if entry is not None:
        problems += entry.validate(cfg, problems)
    if cfg.potential not in ("free", "harmonic"):
        problems.append(f"potential must be free or harmonic, got {cfg.potential!r}")
    for fmt in cfg.formats:
        if fmt not in ("csv", "json"):
            problems.append(f"unknown output format {fmt!r}")
    return problems


def _own_potential(cfg: ScenarioConfig, problems: list[str]) -> list[str]:
    """Every scenario but `custom` runs its own potential, whatever the `potential` key says."""
    own = default_config(cfg.scenario).potential
    if cfg.potential == own:
        return []
    return [f"{cfg.scenario} runs potential = {own}, got potential = {cfg.potential}"]


def _positive(cfg: ScenarioConfig, *names: str) -> list[str]:
    """The one positivity check, of every key that a run needs positive."""
    return [f"{name} must be positive, got {getattr(cfg, name)}" for name in names
            if not getattr(cfg, name) > 0]


def _trap_problems(cfg: ScenarioConfig, problems: list[str]) -> list[str]:
    found = _own_potential(cfg, problems) + _positive(cfg, "omega0")
    if problems or found or 0 < _ground_width(cfg) < math.inf:
        return found
    width = _ground_width(cfg)
    return [f"ground width sqrt(hbar/(2 mass omega0)) is {width}, not a positive finite number"]


def _perturbed_problems(cfg: ScenarioConfig, problems: list[str]) -> list[str]:
    found = _trap_problems(cfg, problems)
    if problems or found:
        return found
    # the width-equation reference needs one step and a linearized start
    if round(cfg.t_final / cfg.dt) < 1:
        found.append(f"harmonic_perturbed needs at least one step of dt={cfg.dt}")
    ratio = abs(cfg.epsilon0) / _ground_width(cfg)
    if not ratio < 0.05:
        found.append(f"|epsilon0|/sigma_ground must be < 0.05, got {ratio:.3g}")
    return found


def _diffusion_problems(cfg: ScenarioConfig, problems: list[str]) -> list[str]:
    found = _own_potential(cfg, problems) + _positive(cfg, "D")
    if cfg.start_time < 0:
        found.append(f"start_time must be nonnegative, got {cfg.start_time}")
    return found


def parse_config(path: str | Path) -> ScenarioConfig:
    """Read and validate an INI scenario file; all violations are reported."""
    parser = configparser.ConfigParser(default_section="")  # [DEFAULT] is one more section
    parser.optionxform = str  # keys are case-sensitive (k_B, L, N)
    try:
        read = parser.read(str(path), encoding="utf-8")
        sections = {section: dict(parser.items(section)) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        # a duplicate key or section, a line outside a section or without `=`, a non-UTF-8 byte
        problem = f"cannot parse config file {path}: {' '.join(str(exc).split())}"
        raise ConfigError([problem]) from None
    if not read:
        raise ConfigError([f"cannot read config file {path}"])
    problems = [f"unknown section [{s}]" for s in sections if s not in ("scenario", *_SECTIONS)]
    scenario = sections.get("scenario", {})
    problems += [f"unknown key {key!r} in section [scenario]" for key in scenario if key != "name"]
    name = scenario.get("name", "").strip()
    if "name" not in scenario:
        problems.append("missing [scenario] section with a `name` key")
    elif name not in SCENARIOS:
        problems.append(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    overrides = {}
    for section, keys in _SECTIONS.items():
        for key, raw in sections.get(section, {}).items():
            if key not in keys:
                problems.append(f"unknown key {key!r} in section [{section}]")
                continue
            try:
                overrides[key] = _parse_value(key, raw)
            except ValueError as exc:
                problems.append(f"[{section}] {key}: {exc}")
    if problems:
        raise ConfigError(problems)
    cfg = replace(default_config(name), **overrides)
    problems = validate_config(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg


def _parse_value(key: str, raw: str):
    """`raw` as the type of the key's `ScenarioConfig` default (a bool is an int too)."""
    raw, default = raw.strip(), getattr(ScenarioConfig, key)
    if isinstance(default, bool):
        low = raw.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if isinstance(default, tuple):
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    return type(default)(raw)


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
    return _sha256(render_config(cfg).encode()).hexdigest()


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
    """`table` maps each column to one value per snapshot (absent or None: not
    applicable); `columns` names the emitted ones, in order."""

    scenario: str
    columns: list[str]
    table: dict[str, np.ndarray | None]
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


class _Identity(NamedTuple):
    """Passes when measure(table, cfg), a numpy reduction that a NaN row
    turns to NaN, is below the tolerance; asserted only where it applies."""

    name: str
    tolerance: float
    measure: Callable[[dict, ScenarioConfig], float]
    applies: Callable[[dict, ScenarioConfig], bool] = lambda tab, cfg: True

    def check(self, tab: dict, cfg: ScenarioConfig) -> IdentityCheck:
        measured = self.measure(tab, cfg)
        return IdentityCheck(self.name, self.tolerance, measured, measured < self.tolerance)


def _floored_rel(a, b, floor: float = 1e-3):
    """|a-b| relative to max(|a|,|b|), floored so near-zero rates compare sanely."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def _max_rel(measured: np.ndarray, reference: np.ndarray) -> float:
    return np.max(np.abs(measured - reference) / reference)


def _relative(name: str, tolerance: float, measured: str, reference: str) -> _Identity:
    """max |measured - reference| / reference over the rows."""
    return _Identity(name, tolerance, lambda tab, cfg: _max_rel(tab[measured], tab[reference]))


def _deviation(name: str, tolerance: float, column: str, reference) -> _Identity:
    """max |column - reference(table)| over the rows."""
    return _Identity(name, tolerance, lambda tab, cfg: np.max(np.abs(tab[column] - reference(tab))))


def _rate_matches(production: str) -> _Identity:
    """dS/dt against `production` on interior rows not within 1e-3 of 0 (a NaN row is kept)."""

    def kept(tab):
        return ~(np.abs(tab[production][1:-1]) <= 1e-3)

    def measure(tab, cfg):
        p, fd = tab[production][1:-1], tab["dEntB_dt_fd"][1:-1]
        return np.max((np.abs(fd - p) / np.abs(p))[kept(tab)])

    name = "entropy_rate_matches_production"
    return _Identity(name, 1e-2, measure, lambda tab, cfg: kept(tab).any())


_QUANTUM_IDENTITIES = (
    _deviation("norm_conservation", 1e-10, "norm", lambda tab: 1.0),
    _Identity(
        "energy_conservation", 1e-5,
        lambda tab, cfg: np.max(np.abs(tab["energy"] - tab["energy"][0]))
        / np.maximum(np.abs(tab["energy"][0]), 1e-300),
    ),
    _Identity(
        "production_advective_equals_correlation", 1e-6,
        lambda tab, cfg: np.max(
            _floored_rel(tab["production_advective"], tab["production_correlation"])
        ),
    ),
    _rate_matches("production_advective"),
)

_DIFFUSION_IDENTITIES = (
    _deviation("mass_conservation", 1e-10, "norm", lambda tab: 1.0),
    _relative("sigma2_exact_kernel", 1e-12, "sigma2_measured", "ref_sigma2"),
    _Identity(
        "production_is_kB_D_fisher", 1e-12,
        lambda tab, cfg: np.max(
            np.abs(tab["production_diffusive"] - cfg.k_B * cfg.D * tab["fisher"])
            / np.maximum(np.abs(tab["production_diffusive"]), 1e-300)
        ),
    ),
    _Identity(
        "entropy_nondecreasing", 1e-12,
        lambda tab, cfg: -np.min(np.diff(tab["ent_boltzmann"])),
        lambda tab, cfg: len(tab["t"]) >= 2,
    ),
    _rate_matches("production_diffusive"),
    _Identity(
        "production_matches_half_inverse_time", 1e-3,
        lambda tab, cfg: _max_rel(tab["production_diffusive"], cfg.k_B / (2 * tab["t"])),
        # on the similarity branch, sigma0^2 = 2 D start_time
        lambda tab, cfg: cfg.start_time > 0
        and abs(cfg.sigma0**2 - 2 * cfg.D * cfg.start_time) < 1e-9,
    ),
)

_COMPARE_IDENTITIES = (
    _Identity("matched_initial_density", 1e-13, lambda tab, cfg: tab["rho_l2_divergence"][0]),
    _relative("quantum_width_quadratic_in_time", 1e-3, "sigma2_quantum", "ref_sigma2_quantum"),
    _relative("diffusive_width_linear_in_time", 1e-12, "sigma2_diffusive", "ref_sigma2_diffusive"),
    _Identity(
        "quantum_entropy_overtakes_diffusive", 0.0,
        lambda tab, cfg: tab["ent_boltzmann_diffusive"][-1] - tab["ent_boltzmann_quantum"][-1],
        # past 1.05x the crossover time t = 2 D (2 m sigma0 / hbar)^2
        lambda tab, cfg: cfg.t_final
        > 1.05 * (2 * cfg.D * (2 * cfg.mass * cfg.sigma0 / cfg.hbar) ** 2),
    ),
)


# the width and distance columns are computed under one errstate: an x**2 that
# overflows makes them non-finite, which `_require_finite` reports, without numpy warnings
@np.errstate(all="ignore")
def _sigma2(rho: np.ndarray, grid) -> np.ndarray:
    """Second moment about x = 0 of each row of a (rows, N) block of densities."""
    return grid.dx * np.sum(grid.x**2 * rho, axis=-1)


@np.errstate(all="ignore")
def _l2_distance(a: np.ndarray, b: np.ndarray, dx) -> np.ndarray:
    """L2 distance between the rows of two (rows, N) blocks."""
    return np.sqrt(dx * np.sum(np.square(a - b), axis=-1))


def _ground_width(cfg: ScenarioConfig) -> float:
    # harmonic scenarios derive the width from omega0; cfg.sigma0 is not used
    return harmonic_ground_width(
        GaussianParams(max(cfg.sigma0, 1e-300), cfg.hbar, cfg.mass, omega0=cfg.omega0)
    )


def _evolution(cfg: ScenarioConfig) -> EvolutionConfig:
    return EvolutionConfig(cfg.dt, cfg.t_final, cfg.snapshot_stride)


def _density_columns(times, rho, norm, grid, ent: dict) -> dict:
    """A `run` block's time, norm and width columns, and its entropy columns `ent`."""
    width = dict(sigma2_measured=_sigma2(rho, grid))
    _require_finite(width, times, "width")
    return dict(t=times, norm=norm, **width, fisher=ent.pop("fisher_information"), **ent)


def _quantum_blocks(cfg: ScenarioConfig, grid, ev: EvolutionConfig, state, pot):
    """steps -> the block's `run` columns (and max|u_a|, max|rho - rho0|), and its fields
    if emitted."""
    later, rho0 = _snapshot_blocks(state, pot, ev.dt), np.abs(state.psi.values) ** 2

    def block(steps):
        psi, rho, norm = later(steps)
        times = state.time + np.array(steps) * ev.dt
        ent, rho, mask, v = _quantum_rows(
            psi, grid, cfg.hbar, cfg.mass, cfg.k_B, cfg.enable_von_neumann, times, rho,
            lambda laplacian: _energy_rows(psi, laplacian, grid, pot, cfg.hbar, cfg.mass, steps),
        )
        ua_max = np.abs(v.real).max(axis=-1)
        rho_drift = np.abs(rho - rho0).max(axis=-1)
        columns = dict(_density_columns(times, rho, norm, grid, ent), ua_max=ua_max, rho_drift=rho_drift)
        fields = cfg.emit_fields and {"rho": rho, "u_advective": np.where(mask, v.real, 0.0)}
        return columns, fields

    return block


def _diffusion_blocks(cfg: ScenarioConfig, grid, ev: EvolutionConfig, initial: DiffusionState, _):
    """steps -> the block's `run` columns, and its fields if emitted."""
    later = _kernel_blocks(initial, ev.dt)

    def block(steps):
        rho, _, norm = later(steps)
        times = initial.time + np.array(steps) * ev.dt
        ent, mask, grad = _diffusion_rows(rho, grid, cfg.D, cfg.k_B, times)
        columns = _density_columns(times, rho, norm, grid, ent)
        fields = cfg.emit_fields and {"rho": rho, "u_diffusive": _drift(rho, grad, mask, cfg.D)}
        return columns, fields

    return block


def _compare_blocks(cfg: ScenarioConfig, grid, ev: EvolutionConfig, q_state, pot):
    """steps -> the block's `compare` columns: the packet and its density diffused at D."""
    quantum = _snapshot_blocks(q_state, pot, ev.dt)
    diffused = _kernel_blocks(DiffusionState(density(q_state), cfg.D, time=0.0), ev.dt)

    def block(steps):
        (_, rho_q, _), (rho_d, _, _) = quantum(steps), diffused(steps)
        times = q_state.time + np.array(steps) * ev.dt
        ent = dict(
            ent_boltzmann_quantum=_boltzmann_rows(rho_q, grid.dx, cfg.k_B),
            ent_boltzmann_diffusive=_boltzmann_rows(rho_d, grid.dx, cfg.k_B),
        )
        _require_finite(ent, times)  # as a `run` row's entropy columns
        widths = dict(
            sigma2_quantum=_sigma2(rho_q, grid),
            sigma2_diffusive=_sigma2(rho_d, grid),
            rho_l2_divergence=_l2_distance(rho_q, rho_d, grid.dx),
        )
        _require_finite(widths, times, "width and distance")
        return dict(t=times, **widths, **ent), None

    return block


def _entropy_rate(cfg: ScenarioConfig, tab: dict) -> dict:
    # np.gradient handles the possibly shorter final stride interval; it needs 3 rows
    rate = centered_difference(tab["t"], tab["ent_boltzmann"]) if len(tab["t"]) >= 3 else None
    return {"dEntB_dt_fd": rate}


def _free_references(cfg: ScenarioConfig, tab: dict) -> dict:
    p = GaussianParams(cfg.sigma0, hbar=cfg.hbar, mass=cfg.mass)
    return dict(
        ref_sigma2=free_sigma(p, tab["t"]) ** 2,
        ref_entropy=free_entropy(p, tab["t"], cfg.k_B),
        ref_divergence=free_divergence(p, tab["t"]),
    )


def _ground_references(cfg: ScenarioConfig, tab: dict) -> dict:
    s0, rows = _ground_width(cfg), len(tab["t"])
    return dict(
        ref_sigma2=np.full(rows, s0**2),
        ref_entropy=np.full(rows, entropy_of_width(s0, cfg.k_B)),
        ref_divergence=np.zeros(rows),
    )


def _perturbed_references(cfg: ScenarioConfig, tab: dict) -> dict:
    """The width-equation model, which breathes at sqrt(2) w0 and visibly departs
    from the measured trace, and the exact oscillator width the identity reads:
    sigma^2(t) = s^2 cos^2(w t) + (s0^4/s^2) sin^2(w t)."""
    s0 = _ground_width(cfg)
    p = GaussianParams(s0, omega0=cfg.omega0, epsilon0=cfg.epsilon0, hbar=cfg.hbar, mass=cfg.mass)
    steps = _evolution(cfg).snapshot_steps()
    # RK4 on a grid of m*dt that hits every snapshot but the last, which continues
    # from the grid's end: m is the largest divisor of snapshot_stride, at most the
    # step count, with omega0*m*dt <= 2e-3 (m = 10 by default).  The model is
    # scale-free in omega0*t.  Over the default run (omega0*m*dt = 2e-3, 5 model
    # periods) sigma stays within 1.8e-13 relative and d ln(sigma)/dt within 2.7e-13
    # absolute of the trace integrated at every dt; the gap grows with the periods run.
    n, stride = steps[-1], cfg.snapshot_stride
    most = int(min(stride, n, 2e-3 / cfg.omega0 / cfg.dt + 1))
    m = max(
        (d for d in range(1, most + 1) if stride % d == 0 and cfg.omega0 * d * cfg.dt <= 2e-3),
        default=1,
    )
    trace = harmonic_sigma(p, np.arange(n // m + 1) * (m * cfg.dt))
    sigma, rate = trace.sigma, trace.dlnsigma_dt
    if n % m:
        tail = harmonic_sigma(p, [0.0, n % m * cfg.dt], sigma[-1], rate[-1] * sigma[-1])
        sigma, rate = np.append(sigma, tail.sigma[1:]), np.append(rate, tail.dlnsigma_dt[1:])
    rows = np.append(np.array(steps[:-1]) // m, -1)
    sigma, rate = sigma[rows], rate[rows]
    s_init = s0 + cfg.epsilon0
    wt = cfg.omega0 * tab["t"]
    return dict(
        ref_sigma2=sigma**2,
        ref_entropy=entropy_of_width(sigma, cfg.k_B),
        ref_divergence=rate,
        oscillator_sigma2=s_init**2 * np.cos(wt) ** 2 + (s0**4 / s_init**2) * np.sin(wt) ** 2,
    )


def _diffusion_references(cfg: ScenarioConfig, tab: dict) -> dict:
    s2 = diffusive_sigma2(GaussianParams(cfg.sigma0, D=cfg.D), tab["t"], cfg.start_time)
    return dict(
        ref_sigma2=s2,
        ref_entropy=entropy_of_width(np.sqrt(s2), cfg.k_B),
        ref_divergence=cfg.D / s2,
    )


def _compare_references(cfg: ScenarioConfig, tab: dict) -> dict:
    p = GaussianParams(cfg.sigma0, cfg.hbar, cfg.mass, D=cfg.D)
    return dict(
        ref_sigma2_quantum=free_sigma(p, tab["t"]) ** 2,
        ref_sigma2_diffusive=diffusive_sigma2(p, tab["t"]),
    )


class _Entry(NamedTuple):
    """A scenario as data: blocks(cfg, grid, ev, *start(cfg, grid)) is the function from a
    block's steps to its (columns, fields); references derive columns; identities check
    the table; validate adds config problems."""

    description: str
    defaults: dict
    start: Callable
    blocks: Callable
    references: tuple
    identities: tuple
    validate: Callable = _own_potential


def _packet(cfg: ScenarioConfig, grid):
    return gaussian_packet(grid, cfg.sigma0, cfg.hbar, cfg.mass, width_rate=cfg.width_rate)


def _trapped(cfg: ScenarioConfig, grid, width: float):
    return gaussian_packet(grid, width, cfg.hbar, cfg.mass), harmonic_potential(cfg.omega0)


_ENTRIES = {
    "free_gaussian": _Entry(
        "spreading Gaussian packet, no potential",
        dict(sigma0=1.0, L=40.0, N=1024, dt=1e-3, t_final=4.0, snapshot_stride=50),
        lambda cfg, grid: (_packet(cfg, grid), free_potential()),
        _quantum_blocks,
        (_entropy_rate, _free_references),
        _QUANTUM_IDENTITIES + (
            _relative("sigma2_matches_reference", 1e-3, "sigma2_measured", "ref_sigma2"),
            _deviation(
                "entropy_matches_reference", 1e-3, "ent_boltzmann", lambda tab: tab["ref_entropy"]
            ),
        ),
    ),
    # snapshots are exact, so dt and snapshot_stride only place the rows
    "harmonic_ground": _Entry(
        "stationary Gaussian in a harmonic trap",
        dict(
            omega0=1.0, sigma0=float(np.sqrt(0.5)), potential="harmonic",
            L=9.0, N=128, dt=3.2e-5, t_final=float(5 * 2 * np.pi), snapshot_stride=6545,
        ),
        lambda cfg, grid: _trapped(cfg, grid, _ground_width(cfg)),
        _quantum_blocks,
        (_entropy_rate, _ground_references),
        _QUANTUM_IDENTITIES + (
            _deviation(
                "entropy_constant", 1e-6, "ent_boltzmann", lambda tab: tab["ent_boltzmann"][0]
            ),
            _deviation("advective_velocity_zero", 1e-6, "ua_max", lambda tab: 0.0),
            _deviation("density_stationary", 1e-10, "rho_drift", lambda tab: 0.0),
        ),
        _trap_problems,
    ),
    "harmonic_perturbed": _Entry(
        "harmonic trap with a 1% width perturbation",
        dict(
            omega0=1.0, sigma0=float(np.sqrt(0.5)), epsilon0=float(0.01 * np.sqrt(0.5)),
            potential="harmonic", L=12.0, N=256, dt=2e-4,
            t_final=float(5 * 2 * np.pi / np.sqrt(2)), snapshot_stride=250,
        ),
        lambda cfg, grid: _trapped(cfg, grid, _ground_width(cfg) + cfg.epsilon0),
        _quantum_blocks,
        (_entropy_rate, _perturbed_references),
        _QUANTUM_IDENTITIES + (
            _relative("sigma2_matches_oscillator", 1e-3, "sigma2_measured", "oscillator_sigma2"),
        ),
        _perturbed_problems,
    ),
    "diffusion_gaussian": _Entry(
        "classical Fickian spreading of a Gaussian density",
        dict(
            D=0.5, sigma0=1.0, start_time=0.0,
            L=40.0, N=1024, dt=1e-3, t_final=2.0, snapshot_stride=10,
        ),
        lambda cfg, grid: (gaussian_density(grid, cfg.sigma0, cfg.D, time=cfg.start_time), None),
        _diffusion_blocks,
        (_entropy_rate, _diffusion_references),
        _DIFFUSION_IDENTITIES,
        _diffusion_problems,
    ),
    "custom": _Entry(
        "Gaussian initial state with a free or harmonic potential",
        dict(potential="free"),
        lambda cfg, grid: (
            _packet(cfg, grid),
            harmonic_potential(cfg.omega0) if cfg.potential == "harmonic" else free_potential(),
        ),
        _quantum_blocks,
        (_entropy_rate,),
        _QUANTUM_IDENTITIES,
        lambda cfg, problems: _positive(cfg, "omega0") if cfg.potential == "harmonic" else [],
    ),
}

_COMPARE = _Entry(
    "unitary and Fickian evolutions from the same initial density",
    {},
    lambda cfg, grid: (gaussian_packet(grid, cfg.sigma0, cfg.hbar, cfg.mass), free_potential()),
    _compare_blocks,
    (_compare_references,),
    _COMPARE_IDENTITIES,
)

SCENARIOS = {name: entry.description for name, entry in _ENTRIES.items()}


def _pooled(block, blocks: list[list[int]]):
    """block(steps) for each of `blocks`, in order, on one worker thread per usable core.

    At most two blocks per worker start ahead of the one consumed.  The first
    failing block raises its error (so the earliest bad step is the one
    reported), no queued block starts once it is raised, and the workers are
    joined.  A run with no more blocks than workers runs them in the calling
    thread: a worker thread would pay the start-up of the BLAS for no overlap.
    """
    workers = grid_module._WORKERS
    if workers < 2 or len(blocks) <= workers:
        yield from map(block, blocks)
        return
    ahead, slots = threading.Semaphore(2 * workers), [queue.SimpleQueue() for _ in blocks]
    tasks = deque([*range(len(blocks)), *[None] * workers])  # a None ends a worker

    def work():  # block i puts (result, error) in slots[i]
        while ahead.acquire() and (i := tasks.popleft()) is not None:
            try:
                slots[i].put((block(blocks[i]), None))
            except BaseException as error:  # raised in the consuming thread
                slots[i].put((None, error))

    threads = [threading.Thread(target=work, daemon=True) for _ in range(workers)]
    for thread in threads:
        thread.start()
    try:
        for slot in slots:
            done, error = slot.get()
            if error is not None:
                raise error
            ahead.release()
            yield done
    finally:
        tasks.extendleft([None] * workers)  # the queued blocks do not start
        ahead.release(workers)
        for thread in threads:
            thread.join()


def _run(
    entry: _Entry, cfg: ScenarioConfig, name: str, columns: list[str], problems: list[str]
) -> RunReport:
    """The runner loop: the entry's blocks into one table, its references and identities."""
    if problems:
        raise ConfigError(problems)
    started = time.perf_counter()
    ev = _evolution(cfg)
    try:
        steps = ev.snapshot_steps()
    except MemoryError:
        raise ConfigError([
            f"t_final = {cfg.t_final}, dt = {cfg.dt} and snapshot_stride = {cfg.snapshot_stride} "
            "ask for more snapshots than memory holds"
        ]) from None
    try:
        grid = make_grid(cfg.L, cfg.N)
    except MemoryError:
        raise ConfigError([_GRID_TOO_LARGE.format(cfg.N)]) from None
    block = entry.blocks(cfg, grid, ev, *entry.start(cfg, grid))
    parts, tables = [], ([] if cfg.emit_fields else None)
    blocks = _pooled(block, _row_blocks(steps[1:], grid.num_points))
    for part, fields in chain([block(steps[:1])], blocks):
        parts.append(part)
        if tables is not None and fields:
            tables += [{"x": grid.x, **dict(zip(fields, row))} for row in zip(*fields.values())]
    table = {
        key: None if column is None else np.concatenate([part[key] for part in parts])
        for key, column in parts[0].items()
    }
    if not np.all(np.diff(table["t"]) > 0):  # a time derivative needs distinct rows
        raise ConfigError([
            f"start_time = {cfg.start_time} and dt = {cfg.dt} give snapshot times "
            "that do not strictly increase in float64"
        ])
    with np.errstate(over="raise"):  # an overflowing reference is a numeric abort
        for derive in entry.references:
            table.update(derive(cfg, table))
    with np.errstate(all="ignore"):  # a measure that overflows is non-finite, and fails
        identities = [i.check(table, cfg) for i in entry.identities if i.applies(table, cfg)]
    provenance = {
        "config_hash": config_hash(cfg),
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
        # trap data files depend on the BLAS thread count, which OpenBLAS caps
        # at the usable cores; null when a variable is unset
        "workers": grid_module._WORKERS,
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    return RunReport(name, columns, table, identities, provenance, tables)


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Evolve the configured scenario and assemble its report.

    The report carries one table column per CSV column (one value per
    snapshot), every asserted identity with its tolerance and measured
    error, and provenance (config hash, package version, wall time, the
    number of block workers and the BLAS/OpenMP thread variables).
    """
    return _run(_ENTRIES.get(cfg.scenario), cfg, cfg.scenario, CSV_COLUMNS, validate_config(cfg))


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
    # every comparison diffuses at D, which only the diffusion scenario checks itself
    if cfg.scenario != "diffusion_gaussian":
        problems += _positive(cfg, "D")
    if cfg.potential != "free":
        problems.append(f"compare evolves a free packet, got potential = {cfg.potential}")
    return _run(_COMPARE, cfg, "compare_quantum_diffusion", COMPARE_COLUMNS, problems)


_CHUNK_ROWS = 256  # rows converted, formatted and written at a time


def _chunks(rows: int):
    return (slice(start, start + _CHUNK_ROWS) for start in range(0, rows, _CHUNK_ROWS))


def _write_csv(path: Path, names: list[str], columns: list[np.ndarray | None], rows: int) -> Path:
    """One line per row, each value "%.17g" formatted (f"{v:.17g}" alike), an absent
    column (None) an empty field."""
    row = ",".join("" if column is None else "%.17g" for column in columns)
    present = [column for column in columns if column is not None]
    with path.open("w", encoding="ascii") as out:  # Path.write_text's encoding and newlines
        out.write(",".join(names) + "\n")
        for part in _chunks(rows):
            values = zip(*(column[part].tolist() for column in present))
            out.write("".join(row % line + "\n" for line in values))
    return path


def _write_json(
    path: Path, names: list[str], columns: list[np.ndarray | None], rows: int
) -> Path:
    """json.dumps({"columns": names, "rows": [{name: value} per row]}, indent=1) + "\n",
    at least one row, with each value's token from the C encoder (NaN, Infinity,
    null and float repr alike); an `indent` would run the pure-Python encoder.
    A column is always present (`t`), so zip() cuts an absent column's nulls to the chunk."""
    keys = [json.dumps(name) for name in names]
    row = "  {\n" + ",\n".join(f"   {key}: %s" for key in keys) + "\n  }"
    head = ",\n".join(f"  {key}" for key in keys)
    nulls, separator = ["null"] * _CHUNK_ROWS, ""
    with path.open("w", encoding="ascii") as out:
        out.write(f'{{\n "columns": [\n{head}\n ],\n "rows": [\n')
        for part in _chunks(rows):
            tokens = [
                nulls if c is None else json.dumps(c[part].tolist())[1:-1].split(", ")
                for c in columns
            ]
            out.write(separator + ",\n".join(row % line for line in zip(*tokens)))
            separator = ",\n"
        out.write("\n ]\n}\n")
    return path


def emit_timeseries(report: RunReport, directory: str | Path, formats=("csv", "json")) -> list[Path]:
    """Write the per-snapshot table; CSV is ASCII with 17 significant digits.

    Identical configurations produce byte-identical data files; provenance
    (which includes wall time) goes to report.json, written separately.  Each
    file is converted, formatted and written _CHUNK_ROWS rows at a time, so
    output holds no whole-column copy of the table.
    """
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {directory}: {exc}") from exc
    stem = "compare" if report.scenario == "compare_quantum_diffusion" else "timeseries"
    columns = [report.table.get(name) for name in report.columns]
    rows = len(report.table["t"])
    written = []
    if "csv" in formats:
        written.append(_write_csv(directory / f"{stem}.csv", report.columns, columns, rows))
    if "json" in formats:
        written.append(_write_json(directory / f"{stem}.json", report.columns, columns, rows))
    for i, table in enumerate(report.field_tables or ()):
        path = directory / f"fields_{i:04d}.csv"
        written.append(_write_csv(path, list(table), list(table.values()), len(table["x"])))
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


# glibc's mallopt parameters and the values console_main sets
_ALLOCATOR = (
    (-8, 1),  # M_ARENA_MAX: the most malloc arenas
    (-1, 256 << 20),  # M_TRIM_THRESHOLD: free heap top kept before trimming
    (-3, 32 << 20),  # M_MMAP_THRESHOLD: the smallest request served by mmap
)


def console_main() -> int:
    """`main()` as a process: one allocator policy, then flush stdout and stderr
    and end without teardown.

    Before `main()` runs, glibc is told to keep one malloc arena
    (`M_ARENA_MAX` = 1), so the block-pool workers allocate from the main
    arena instead of one arena each, and to serve every block array from
    that heap and keep what is freed (`M_MMAP_THRESHOLD` = 32 MiB,
    `M_TRIM_THRESHOLD` = 256 MiB).  The temporaries a block frees on one
    thread then serve the next block on either thread, and a run does not
    fault their pages in again block after block.  A C library without
    `mallopt` keeps its allocator.  Only the process entry point sets this:
    `import qhydro` and `main()` leave the caller's allocator alone.

    Once the last byte is out, tearing down the interpreter (numpy, OpenBLAS
    and every loaded module; ~30 ms) changes nothing a caller sees, so the
    process ends with os._exit and main()'s exit code.  argparse's SystemExit
    and any uncaught exception propagate, and a flush that raises (a closed
    pipe) returns the code: those leave by the normal interpreter exit.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no handle on the C library
        pass
    else:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        for param, value in _ALLOCATOR:
            mallopt(param, value)
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(console_main())
