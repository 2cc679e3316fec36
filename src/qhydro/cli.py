"""Config-driven scenario runner with CSV/JSON time-series output.

Scenarios are described by an INI file (sections: scenario, physics, grid, evolution,
diagnostics, output) and declared as entries of `_ENTRIES`; `compare` is one more entry. One
loop runs any entry: it holds every key to its range, applies the entry's own checks and the
read-or-refuse rule, builds the start state and kernel from (cfg, grid) (a quantum run's
Gaussian as its config states it, in the config's potential), then one table of column arrays
from the snapshot blocks, derives the reference columns, reduces every identity over the table,
writes the data files from it (the field dumps from each block's own rho and u_a + i u_d, or
rho'), and exits nonzero when an asserted identity misses its tolerance.

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
from dataclasses import asdict, dataclass, replace
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

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
    _rk4_steps,
)
from .diffusion import DiffusionState, gaussian_density, _kernel_blocks
from .entropy import _boltzmann_rows, _diffusion_rows, _quantum_rows, _require_finite
from . import grid as grid_module
from .grid import _row_blocks, make_grid
from .madelung import density, _masked_ratios
from .schrodinger import (
    EvolutionConfig,
    NumericsError,
    Potential,
    gaussian_packet,
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


def validate_config(cfg: ScenarioConfig) -> list[str]:
    """Every key held to its range, whatever the command; the runner checks the rest."""
    problems = [
        f"{name} must be finite, got {value}"
        for name, value in vars(cfg).items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    if cfg.scenario not in _ENTRIES:
        problems.append(f"unknown scenario {cfg.scenario!r}")
    # a key a run does not read keeps its default, so every key is held to its range
    problems += [f"{name} must be positive, got {getattr(cfg, name)}"
                 for name in ("hbar", "mass", "k_B", "sigma0", "omega0", "D", "L", "dt")
                 if not getattr(cfg, name) > 0]
    if cfg.N % 2 != 0 or cfg.N < 8:
        problems.append(f"N must be an even integer >= 8, got {cfg.N}")
    elif cfg.N > sys.maxsize // 16:  # numpy cannot even size a complex grid array
        problems.append(f"N = {cfg.N} asks for a grid larger than memory holds")
    elif 0 < cfg.L < math.inf and not math.isfinite(2 * cfg.L + math.pi / cfg.L * cfg.N):
        problems.append(f"L = {cfg.L} on N = {cfg.N} points overflows the grid span or wavenumbers")
    for name in ("start_time", "t_final"):
        if getattr(cfg, name) < 0:
            problems.append(f"{name} must be nonnegative, got {getattr(cfg, name)}")
    if cfg.dt > 0 and math.isfinite(cfg.t_final):
        ratio = cfg.t_final / cfg.dt
        if not (math.isfinite(ratio) and round(ratio) <= sys.maxsize):
            problems.append(f"t_final/dt overflows the step count, got {cfg.t_final}/{cfg.dt}")
    if cfg.snapshot_stride < 1:
        problems.append(f"snapshot_stride must be >= 1, got {cfg.snapshot_stride}")
    if cfg.potential not in ("free", "harmonic"):
        problems.append(f"potential must be free or harmonic, got {cfg.potential!r}")
    for fmt in cfg.formats:
        if fmt not in ("csv", "json"):
            problems.append(f"unknown output format {fmt!r}")
    return problems


def _trap_problems(cfg: ScenarioConfig) -> list[str]:
    if 0 < (width := _ground_width(cfg)) < math.inf:
        return []
    return [f"ground width sqrt(hbar/(2 mass omega0)) is {width}, not a positive finite number"]


_RK4_CAP = 1e8  # the most RK4 steps the width model may take: minutes of Python


def _perturbed_problems(cfg: ScenarioConfig) -> list[str]:
    if found := _trap_problems(cfg):
        return found
    # the width-equation reference needs one step, a linearized start and a bounded RK4 count
    n, stride = round(cfg.t_final / cfg.dt), cfg.snapshot_stride
    if n < 1:
        found.append(f"harmonic_perturbed needs at least one step of dt={cfg.dt}")
    ratio = abs(cfg.epsilon0) / _ground_width(cfg)
    if not ratio < 0.05:
        found.append(f"|epsilon0|/sigma_ground must be < 0.05, got {ratio:.3g}")
    # harmonic_sigma's steps over n // stride snapshot intervals of stride * dt and a tail
    intervals = ((n // stride, stride), (n % stride > 0, n % stride))
    rk4 = sum(count * _rk4_steps(m * cfg.dt, cfg.omega0) for count, m in intervals if count)
    if not rk4 <= _RK4_CAP:
        found.append(f"harmonic_perturbed's width model needs {rk4:.3g} RK4 steps, "
                     f"more than the cap of {_RK4_CAP:.0e}")
    return found


def parse_config(path: str | Path) -> ScenarioConfig:
    """Read an INI scenario file and hold every key to its range; every problem is listed."""
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
    if isinstance(default, bool):  # configparser's words: 1/yes/true/on, 0/no/false/off
        if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValueError(f"expected a boolean, got {raw!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
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
    applicable); `columns` names the emitted ones, in order; `field_tables()` runs
    the row blocks again and yields their `emit_fields` tables, one per snapshot."""

    scenario: str
    columns: list[str]
    table: dict[str, np.ndarray | None]
    identities: list[IdentityCheck]
    provenance: dict
    field_tables: Callable[[], Iterator[dict]] | None = None

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
    """Passes when the largest of errors(table, cfg), one error per checked row,
    is below the tolerance, so a NaN row fails it; asserted only where it applies."""

    name: str
    tolerance: float
    errors: Callable[[dict, ScenarioConfig], np.ndarray]
    applies: Callable[[dict, ScenarioConfig], bool] = lambda tab, cfg: True

    def check(self, tab: dict, cfg: ScenarioConfig) -> IdentityCheck:
        measured = np.max(self.errors(tab, cfg))
        return IdentityCheck(self.name, self.tolerance, measured, measured < self.tolerance)


def _floored_rel(a, b):
    """|a-b| relative to max(|a|,|b|), floored at 1e-3 so near-zero rates compare sanely."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)


def _rel(measured, reference):
    """|measured - reference| / max(|reference|, 1e-300), the identities' relative error."""
    return np.abs(measured - reference) / np.maximum(np.abs(reference), 1e-300)


def _relative(name: str, tolerance: float, measured: str, reference: str) -> _Identity:
    """_rel of two columns on each row."""
    return _Identity(name, tolerance, lambda tab, cfg: _rel(tab[measured], tab[reference]))


def _deviation(name: str, tolerance: float, column: str, reference) -> _Identity:
    """|column - reference(table)| on each row."""
    return _Identity(name, tolerance, lambda tab, cfg: np.abs(tab[column] - reference(tab)))


def _rate_matches(production: str) -> _Identity:
    """dS/dt against `production` on interior rows not within 1e-3 of 0 (a NaN row is kept)."""

    def kept(tab):
        return ~(np.abs(tab[production][1:-1]) <= 1e-3)

    def errors(tab, cfg):
        return _rel(tab["dEntB_dt_fd"][1:-1], tab[production][1:-1])[kept(tab)]

    name = "entropy_rate_matches_production"
    return _Identity(name, 1e-2, errors, lambda tab, cfg: kept(tab).any())


_QUANTUM_IDENTITIES = (
    _deviation("norm_conservation", 1e-10, "norm", lambda tab: 1.0),
    _Identity("energy_conservation", 1e-5, lambda tab, cfg: _rel(tab["energy"], tab["energy"][0])),
    _Identity(
        "production_advective_equals_correlation", 1e-6,
        lambda tab, cfg: _floored_rel(tab["production_advective"], tab["production_correlation"]),
    ),
    _rate_matches("production_advective"),
)

_DIFFUSION_IDENTITIES = (
    _deviation("mass_conservation", 1e-10, "norm", lambda tab: 1.0),
    _relative("sigma2_exact_kernel", 1e-12, "sigma2_measured", "ref_sigma2"),
    _Identity(
        "production_is_kB_D_fisher", 1e-12,
        lambda tab, cfg: _rel(cfg.k_B * cfg.D * tab["fisher"], tab["production_diffusive"]),
    ),
    _Identity(
        "entropy_nondecreasing", 1e-12,
        lambda tab, cfg: -np.diff(tab["ent_boltzmann"]),
        lambda tab, cfg: len(tab["t"]) >= 2,
    ),
    _rate_matches("production_diffusive"),
    _Identity(
        "production_matches_half_inverse_time", 1e-3,
        lambda tab, cfg: _rel(tab["production_diffusive"], cfg.k_B / (2 * tab["t"])),
        # on the similarity branch, sigma0^2 = 2 D start_time
        lambda tab, cfg: cfg.start_time > 0
        and abs(cfg.sigma0**2 - 2 * cfg.D * cfg.start_time) < 1e-9,
    ),
)

_COMPARE_IDENTITIES = (
    _Identity("matched_initial_density", 1e-13, lambda tab, cfg: tab["rho_l2_divergence"][:1]),
    _relative("quantum_width_quadratic_in_time", 1e-3, "sigma2_quantum", "ref_sigma2_quantum"),
    _relative("diffusive_width_linear_in_time", 1e-12, "sigma2_diffusive", "ref_sigma2_diffusive"),
    _Identity(
        "quantum_entropy_overtakes_diffusive", 0.0,
        lambda tab, cfg: tab["ent_boltzmann_diffusive"][-1:] - tab["ent_boltzmann_quantum"][-1:],
        # past 1.05x the crossover time t = 2 D (2 m sigma0 / hbar)^2
        lambda tab, cfg: cfg.t_final
        > 1.05 * (2 * cfg.D * (2 * cfg.mass * cfg.sigma0 / cfg.hbar) ** 2),
    ),
)


# the width and distance columns are computed under one errstate: an x**2 that overflows
# makes them non-finite, which the runner's `_require_finite` reports, without numpy warnings
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
    return harmonic_ground_width(GaussianParams(cfg.sigma0, cfg.hbar, cfg.mass, omega0=cfg.omega0))


def _packet(cfg: ScenarioConfig, grid, width: float):
    return gaussian_packet(grid, width, cfg.hbar, cfg.mass, width_rate=cfg.width_rate)


def _density_columns(rho, norm, grid, ent: dict) -> dict:
    """A `run` block's norm and width columns, and its entropy columns `ent`."""
    fisher = ent.pop("fisher_information")
    return dict(norm=norm, sigma2_measured=_sigma2(rho, grid), fisher=fisher, **ent)


def _field_tables(grid, rho, support, name: str, window) -> list[dict]:
    """x, rho and `name` of each row of a block: `window` on the support's columns, +0.0 off."""
    velocity = np.zeros(rho.shape)
    velocity[:, support.cols] = window
    return [{"x": grid.x, "rho": r, name: u} for r, u in zip(rho, velocity)]


def _quantum_blocks(cfg: ScenarioConfig, grid, state, stationary=False):
    """`state` in the config's potential: steps -> the block's `run` columns (`stationary`: also
    max|u_a| and max|rho - rho0|), and the function that dumps u_a, the real part of u_a + i u_d."""
    pot = Potential(cfg.potential, cfg.omega0)
    later, rho0 = _snapshot_blocks(state, pot, cfg.dt), np.abs(state.psi.values) ** 2

    def block(steps):
        psi, rho, norm = later(steps)
        ent, v, support = _quantum_rows(
            psi, grid, cfg.hbar, cfg.mass, cfg.k_B, rho,
            lambda laplacian: _energy_rows(psi, laplacian, grid, pot, cfg.hbar, cfg.mass, steps),
        )
        # -n ln n of the grid norm: the one nonzero eigenvalue of dx psi psi^dagger
        ent["ent_von_neumann"] = -norm * np.log(norm) if cfg.enable_von_neumann else None
        columns = _density_columns(rho, norm, grid, ent)
        if stationary:  # the maxima that a stationary state's identities read
            columns.update(ua_max=np.abs(v.real).max(-1), rho_drift=np.abs(rho - rho0).max(-1))
        return columns, lambda: _field_tables(grid, rho, support, "u_advective", v.real)

    return block


def _diffusion_blocks(cfg: ScenarioConfig, grid):
    """A Gaussian diffused from start_time: steps -> the block's `run` columns, and the
    function that dumps u_d = -D rho'/rho of each row from the block's own rho'."""
    later = _kernel_blocks(gaussian_density(grid, cfg.sigma0, cfg.D, time=cfg.start_time), cfg.dt)

    def block(steps):
        rho, _, norm = later(steps)
        ent, grad, support = _diffusion_rows(rho, grid, cfg.D, cfg.k_B)
        drift = lambda: _masked_ratios([-cfg.D * grad], rho[:, support.cols], support.mask)[0]
        fields = lambda: _field_tables(grid, rho, support, "u_diffusive", drift())
        return _density_columns(rho, norm, grid, ent), fields

    return block


def _compare_blocks(cfg: ScenarioConfig, grid):
    """The config's packet and its density diffused from start_time: steps -> columns, None."""
    q_state = _packet(cfg, grid, cfg.sigma0)
    quantum = _snapshot_blocks(q_state, Potential(cfg.potential, cfg.omega0), cfg.dt)
    diffused = _kernel_blocks(DiffusionState(density(q_state), cfg.D, time=cfg.start_time), cfg.dt)

    def block(steps):
        _, rho_q, _ = quantum(steps)  # psi is dropped before the heat kernel runs
        rho_d, _, _ = diffused(steps)
        return dict(
            sigma2_quantum=_sigma2(rho_q, grid), sigma2_diffusive=_sigma2(rho_d, grid),
            rho_l2_divergence=_l2_distance(rho_q, rho_d, grid.dx),
            ent_boltzmann_quantum=_boltzmann_rows(rho_q, grid.dx, cfg.k_B),
            ent_boltzmann_diffusive=_boltzmann_rows(rho_d, grid.dx, cfg.k_B),
        ), None

    return block


def _entropy_rate(cfg: ScenarioConfig, tab: dict) -> dict:
    # np.gradient handles the possibly shorter final stride interval; it needs 3 rows
    rate = centered_difference(tab["elapsed"], tab["ent_boltzmann"]) if len(tab["t"]) >= 3 else None
    return {"dEntB_dt_fd": rate}


def _free_references(cfg: ScenarioConfig, tab: dict) -> dict:
    p = GaussianParams(cfg.sigma0, hbar=cfg.hbar, mass=cfg.mass)
    return dict(
        ref_sigma2=free_sigma(p, tab["elapsed"]) ** 2,
        ref_entropy=free_entropy(p, tab["elapsed"], cfg.k_B),
        ref_divergence=free_divergence(p, tab["elapsed"]),
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
    trace = harmonic_sigma(p, tab["elapsed"])  # which picks its own RK4 steps
    s_init = s0 + cfg.epsilon0
    wt = cfg.omega0 * tab["elapsed"]
    return dict(
        ref_sigma2=trace.sigma**2,
        ref_entropy=entropy_of_width(trace.sigma, cfg.k_B),
        ref_divergence=trace.dlnsigma_dt,
        oscillator_sigma2=s_init**2 * np.cos(wt) ** 2 + (s0**4 / s_init**2) * np.sin(wt) ** 2,
    )


def _diffusion_references(cfg: ScenarioConfig, tab: dict) -> dict:
    s2 = diffusive_sigma2(GaussianParams(cfg.sigma0, D=cfg.D), tab["elapsed"])
    return dict(
        ref_sigma2=s2,
        ref_entropy=entropy_of_width(np.sqrt(s2), cfg.k_B),
        ref_divergence=cfg.D / s2,
    )


def _compare_references(cfg: ScenarioConfig, tab: dict) -> dict:
    p = GaussianParams(cfg.sigma0, cfg.hbar, cfg.mass, D=cfg.D)
    return dict(
        ref_sigma2_quantum=free_sigma(p, tab["elapsed"]) ** 2,
        ref_sigma2_diffusive=diffusive_sigma2(p, tab["elapsed"]),
    )


class _Entry(NamedTuple):
    """A scenario as data: blocks(cfg, grid) builds its start state and one kernel and returns
    steps -> (the block's columns but t, unchecked, and the function that makes its field tables
    from the block's own arrays, or None); references derive columns; identities check the
    table; validate(cfg) lists the entry's own problems with a config whose every key is in
    range; reads(cfg) names the keys a run may move from its defaults (the scenario's, then the
    entry's own), and any other key away from them is refused; a factory may read any key."""

    description: str
    defaults: dict
    blocks: Callable
    references: tuple
    identities: tuple
    reads: Callable
    validate: Callable = lambda cfg: []


# the keys every run reads, and every quantum run
_READ = frozenset(("k_B", "L", "N", "dt", "t_final", "snapshot_stride", "directory", "formats"))
_QUANTUM_READ = _READ | {"hbar", "mass", "enable_von_neumann", "emit_fields"}


_ENTRIES = {
    "free_gaussian": _Entry(
        "spreading Gaussian packet, no potential",
        dict(sigma0=1.0, L=40.0, N=1024, dt=1e-3, t_final=4.0, snapshot_stride=50),
        lambda cfg, grid: _quantum_blocks(cfg, grid, _packet(cfg, grid, cfg.sigma0)),
        (_entropy_rate, _free_references),
        _QUANTUM_IDENTITIES + (
            _relative("sigma2_matches_reference", 1e-3, "sigma2_measured", "ref_sigma2"),
            _deviation(
                "entropy_matches_reference", 1e-3, "ent_boltzmann", lambda tab: tab["ref_entropy"]
            ),
        ),
        lambda cfg: _QUANTUM_READ | {"sigma0"},
    ),
    # snapshots are exact, so dt and snapshot_stride only place the rows
    "harmonic_ground": _Entry(
        "stationary Gaussian in a harmonic trap",
        dict(
            omega0=1.0, sigma0=float(np.sqrt(0.5)), potential="harmonic",
            L=9.0, N=128, dt=3.2e-5, t_final=float(5 * 2 * np.pi), snapshot_stride=6545,
        ),
        lambda cfg, grid: _quantum_blocks(
            cfg, grid, _packet(cfg, grid, _ground_width(cfg)), stationary=True),
        (_entropy_rate, _ground_references),
        _QUANTUM_IDENTITIES + (
            _deviation(
                "entropy_constant", 1e-6, "ent_boltzmann", lambda tab: tab["ent_boltzmann"][0]
            ),
            _deviation("advective_velocity_zero", 1e-6, "ua_max", lambda tab: 0.0),
            _deviation("density_stationary", 1e-10, "rho_drift", lambda tab: 0.0),
        ),
        lambda cfg: _QUANTUM_READ | {"omega0"},
        _trap_problems,
    ),
    "harmonic_perturbed": _Entry(
        "harmonic trap with a 1% width perturbation",
        dict(
            omega0=1.0, sigma0=float(np.sqrt(0.5)), epsilon0=float(0.01 * np.sqrt(0.5)),
            potential="harmonic", L=12.0, N=256, dt=2e-4,
            t_final=float(5 * 2 * np.pi / np.sqrt(2)), snapshot_stride=250,
        ),
        lambda cfg, grid: _quantum_blocks(
            cfg, grid, _packet(cfg, grid, _ground_width(cfg) + cfg.epsilon0)),
        (_entropy_rate, _perturbed_references),
        _QUANTUM_IDENTITIES + (
            _relative("sigma2_matches_oscillator", 1e-3, "sigma2_measured", "oscillator_sigma2"),
        ),
        lambda cfg: _QUANTUM_READ | {"omega0", "epsilon0"},
        _perturbed_problems,
    ),
    "diffusion_gaussian": _Entry(
        "classical Fickian spreading of a Gaussian density",
        dict(
            D=0.5, sigma0=1.0, start_time=0.0,
            L=40.0, N=1024, dt=1e-3, t_final=2.0, snapshot_stride=10,
        ),
        _diffusion_blocks,
        (_entropy_rate, _diffusion_references),
        _DIFFUSION_IDENTITIES,
        lambda cfg: _READ | {"sigma0", "D", "start_time", "emit_fields"},
    ),
    "custom": _Entry(
        "Gaussian initial state with a free or harmonic potential",
        dict(potential="free"),
        lambda cfg, grid: _quantum_blocks(cfg, grid, _packet(cfg, grid, cfg.sigma0)),
        (_entropy_rate,),
        _QUANTUM_IDENTITIES,
        lambda cfg: _QUANTUM_READ | {"sigma0", "width_rate", "potential"}
        | ({"omega0"} if cfg.potential == "harmonic" else set()),
    ),
}

# the defaults the read rule holds: a free, unchirped packet from t = 0, whatever the scenario
_COMPARE = _Entry(
    "unitary and Fickian evolutions from the same initial density",
    dict(potential="free", width_rate=0.0, start_time=0.0),
    _compare_blocks,
    (_compare_references,),
    _COMPARE_IDENTITIES,
    lambda cfg: _READ | {"hbar", "mass", "sigma0", "D"},
)

SCENARIOS = {name: entry.description for name, entry in _ENTRIES.items()}


def _pooled(block, blocks):
    """block(steps) for each of the iterable `blocks`, in order, on one worker thread per core.

    At most two blocks per worker wait or run ahead of the one consumed, each
    with a result slot made as it joins them.  The first failing block raises
    its error (so the earliest bad step is the one reported), no queued block
    starts once it is raised, and the workers are joined.  A run of no more blocks than workers
    (read workers + 1 ahead) runs in the calling thread, sparing a worker the BLAS start-up.
    """
    workers, later = grid_module._WORKERS, iter(blocks)
    head = list(islice(later, workers + 1))
    later = chain(head, later)
    if workers < 2 or len(head) <= workers:
        yield from map(block, later)
        return
    queued, tasks, slots = threading.Semaphore(0), deque(), deque()

    def enter(count):  # the next `count` blocks, if any, join the look-ahead, each with a slot
        for steps in islice(later, count):
            slots.append(queue.SimpleQueue())  # the slots of the look-ahead, in step order
            tasks.append((steps, slots[-1]))  # the blocks to start; a None ends a worker
            queued.release()

    def work():  # a block puts (result, error) in its slot
        while queued.acquire() and (task := tasks.popleft()) is not None:
            steps, slot = task
            try:
                slot.put((block(steps), None))
            except BaseException as error:  # raised in the consuming thread
                slot.put((None, error))

    enter(2 * workers)
    threads = [threading.Thread(target=work, daemon=True) for _ in range(workers)]
    for thread in threads:
        thread.start()
    try:
        while slots:
            done, error = slots.popleft().get()
            if error is not None:
                raise error
            enter(1)
            yield done
    finally:
        tasks.extendleft([None] * workers)  # the queued blocks do not start
        queued.release(workers)
        for thread in threads:
            thread.join()


def _blockwise(block, steps: list[int], grid):
    """block(steps) for the initial row, then for each later row block on the pool."""
    return chain([block(steps[:1])], _pooled(block, _row_blocks(steps, grid.num_points)))


def _run(entry: _Entry, cfg: ScenarioConfig, name: str, columns: list[str]) -> RunReport:
    """The runner loop: the entry's blocks into one table, its references and identities."""
    problems = validate_config(cfg) or entry.validate(cfg)  # every key's range, then the entry's
    if not problems:  # the one read-or-refuse rule: a key the run does not read keeps its default
        own, reads = replace(default_config(cfg.scenario), **entry.defaults), entry.reads(cfg)
        problems = [
            f"{name} does not read {key}, which must stay {getattr(own, key)}, got {value}"
            for key, value in vars(cfg).items() if key not in reads and value != getattr(own, key)
        ]
    if problems:
        raise ConfigError(problems)
    started = time.perf_counter()
    try:  # the steps, the grid, the start state and kernel (a trap's N x N eigh), the table
        steps = EvolutionConfig(cfg.dt, cfg.t_final, cfg.snapshot_stride).snapshot_steps()
        grid = make_grid(cfg.L, cfg.N)
        # t from start_time (held at 0 but for diffusion_gaussian) and the elapsed time that the
        # references and dS/dt read; rounded to float64's spacing, t must tell the rows apart
        t = cfg.start_time + (elapsed := (at := np.array(steps)) * cfg.dt)
        if not np.all(np.diff(t) > 0):
            raise ConfigError([
                f"start_time = {cfg.start_time} and dt = {cfg.dt} give snapshot times "
                "that do not strictly increase in float64"
            ])
        block = entry.blocks(cfg, grid)
        # in the worker: the block's columns checked (t from its first row), its fields dropped
        checked = lambda rows: _require_finite(block(rows)[0], t[np.searchsorted(at, rows[0]):])
        parts = list(_blockwise(checked, steps, grid))
        table = {
            key: None if column is None else np.concatenate([part[key] for part in parts])
            for key, column in parts[0].items()
        }
    except MemoryError:
        raise ConfigError([
            f"N = {cfg.N}, t_final = {cfg.t_final}, dt = {cfg.dt} and snapshot_stride = "
            f"{cfg.snapshot_stride} ask for more memory than the machine holds"
        ]) from None
    table.update(t=t, elapsed=elapsed)
    with np.errstate(all="raise", under="ignore"):  # an overflow or a 0/0 is a numeric abort
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
    dumps = lambda: chain.from_iterable(_blockwise(lambda rows: block(rows)[1](), steps, grid))
    return RunReport(name, columns, table, identities, provenance, dumps if cfg.emit_fields else None)


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Evolve the configured scenario and assemble its report.

    The report carries one table column per CSV column (one value per
    snapshot), every asserted identity with its tolerance and measured
    error, and provenance (config hash, package version, wall time, the
    number of block workers and the BLAS/OpenMP thread variables).
    """
    return _run(_ENTRIES.get(cfg.scenario), cfg, cfg.scenario, CSV_COLUMNS)


def compare_quantum_diffusion(cfg: ScenarioConfig) -> RunReport:
    """Run the unitary and Fickian evolutions from the same initial density.

    The quantum width grows quadratically in time while the diffusive width
    grows linearly, so the densities separate immediately; the report tracks
    both widths, both entropies, and the L2 distance between the densities.
    The quantum entropy overtakes the diffusive entropy once
    t > 2 D (2 m sigma0 / hbar)^2, which is asserted when the run reaches
    1.05x that time.
    """
    return _run(_COMPARE, cfg, "compare_quantum_diffusion", COMPARE_COLUMNS)


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
    """Write the per-snapshot table, and field table i to fields_{i:04d}.csv; CSV is
    ASCII with 17 significant digits.  Returns the table files' paths, not the field files'.

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
    for i, table in enumerate(report.field_tables() if report.field_tables else ()):
        path = directory / f"fields_{i:04d}.csv"
        _write_csv(path, list(table), list(table.values()), len(table["x"]))
    return written


def write_report(report: RunReport, directory: str | Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "scenario": report.scenario,
        "provenance": report.provenance,
        "identities": [asdict(c) for c in report.identities],  # name, tolerance, measured, passed
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
