"""Run the qhydro CLI with a span around every call into a module's public functions.

    PYTHONPATH=src python3 perfbench/traced.py SPANS.json run scenario.ini --output-dir out

The arguments after SPANS.json go to `qhydro.cli.main` unchanged.  Spans
(name, start, end, parent index, FFT count at start and at end, metadata)
are kept in memory and written to SPANS.json once the CLI returns or
raises; an exception still propagates, so the exit status matches an
untraced run.  Every call to `numpy.fft.fft` and `numpy.fft.ifft` is
counted.  A function listed in TRACED that a refactor has removed is
reported under "absent" instead of being traced.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# the public functions `qhydro.cli` calls, by the module that defines them
TRACED = {
    "schrodinger": ("evolve", "energy", "gaussian_packet"),
    "madelung": ("density", "advective_velocity"),
    "entropy": (
        "boltzmann_entropy",
        "fisher_information",
        "production_advective",
        "production_correlation",
        "production_diffusive",
        "von_neumann_entropy",
    ),
    "diffusion": ("diffuse_step", "gaussian_density"),
    "analytic": (
        "entropy_of_width",
        "free_sigma",
        "free_entropy",
        "free_divergence",
        "harmonic_ground_width",
        "harmonic_sigma",
    ),
    "grid": ("make_grid", "integrate"),
    "traces": ("centered_difference",),
    "cli": (
        "parse_config",
        "run_scenario",
        "compare_quantum_diffusion",
        "emit_timeseries",
        "write_report",
    ),
}


def _evolve_meta(args, kwargs):
    """[steps, N, itemsize] of an evolve(state, potential, config) call, or None."""
    try:
        state = args[0] if args else kwargs["state"]
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        psi = state.psi.values
        return [int(round(cfg.t_final / cfg.dt)), int(psi.size), int(psi.itemsize)]
    except (AttributeError, IndexError, KeyError, TypeError, ZeroDivisionError):
        return None


META = {"schrodinger.evolve": _evolve_meta}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.ffts = 0
        self.absent: list[str] = []

    def span(self, name, fn):
        spans, stack, meta = self.spans, self.stack, META.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.ffts, 0,
                      meta(args, kwargs) if meta else None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                record[5] = self.ffts
                stack.pop()

        return wrapper

    def counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.ffts += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Replace every reference the qhydro modules hold to a traced function."""
        import numpy
        import qhydro.cli  # noqa: F401  (loads every module the CLI uses)

        numpy.fft.fft = self.counted(numpy.fft.fft)
        numpy.fft.ifft = self.counted(numpy.fft.ifft)
        modules = [m for n, m in sys.modules.items() if n == "qhydro" or n.startswith("qhydro.")]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"qhydro.{layer}")
            for name in names:
                fn = getattr(home, name, None)
                if not callable(fn):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapped = self.span(f"{layer}.{name}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapped)

    def dump(self, path: Path):
        payload = {"absent": self.absent, "fft_calls": self.ffts, "spans": self.spans}
        path.write_text(json.dumps(payload), encoding="ascii")


def main(argv: list[str]) -> int:
    spans_path = Path(argv[0])
    tracer = Tracer()
    tracer.install()
    import qhydro.cli

    try:
        return qhydro.cli.main(argv[1:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
