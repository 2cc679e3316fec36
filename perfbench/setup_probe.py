"""Print the seconds a fresh interpreter takes to set up one scenario.

    PYTHONPATH=src python3 perfbench/setup_probe.py scenario.ini

Set-up is `import qhydro`, `parse_config` on the INI, `make_grid` and the
scenario's initial-state constructor, built the way `qhydro run` builds it.
"""
import sys
import time


def main(path: str) -> None:
    started = time.perf_counter()
    import qhydro
    import numpy as np
    from qhydro.cli import parse_config

    cfg = parse_config(path)
    # `precision` is slated for removal; without it every grid is float64
    dtype = np.longdouble if getattr(cfg, "precision", "double") == "extended" else np.float64
    grid = qhydro.make_grid(cfg.L, cfg.N, dtype=dtype)
    if cfg.scenario in ("harmonic_ground", "harmonic_perturbed"):
        params = qhydro.GaussianParams(cfg.sigma0, cfg.hbar, cfg.mass, omega0=cfg.omega0)
        width = qhydro.harmonic_ground_width(params)
        if cfg.scenario == "harmonic_perturbed":
            width += cfg.epsilon0
        qhydro.gaussian_packet(grid, width, cfg.hbar, cfg.mass)
    else:
        qhydro.gaussian_packet(grid, cfg.sigma0, cfg.hbar, cfg.mass, width_rate=cfg.width_rate)
    print(repr(time.perf_counter() - started))


if __name__ == "__main__":
    main(sys.argv[1])
