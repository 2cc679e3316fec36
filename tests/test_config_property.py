"""Property tests over INI files: `qhydro` exits 0, 1, 2 or 3 and never raises.

Finite in-range draws are bounded (N <= 64, at most 200 steps) so that every
example runs in milliseconds.  Non-finite, zero, negative and overflowing
values are drawn from their own pool, for up to two keys per example, so
that most examples are valid configurations that run to the end.  A good
value is drawn only for a key that the command reads for the scenario; any
other key keeps its default, since a command refuses a key it does not read.

A second test puts one structural fault into a valid default INI (a
misspelt or miscased section, a duplicate key or section, a stray
[scenario] key, a bare key line, no header) and expects a config error.
"""
import contextlib
import io
import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from qhydro import cli
from qhydro.cli import SCENARIOS, default_config, main, parse_config, render_config

BAD_FLOATS = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, -1.0, -1e300, 1e300, 1.7e308, 1e-300]
)


def _in_range(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


PHYSICS = {
    "hbar": _in_range(0.2, 5.0),
    "mass": _in_range(0.2, 5.0),
    "k_B": _in_range(0.1, 10.0),
    "sigma0": _in_range(0.3, 3.0),
    "omega0": _in_range(0.2, 3.0),
    "D": _in_range(0.05, 2.0),
    "epsilon0": _in_range(-0.05, 0.05),
    "start_time": _in_range(0.0, 2.0),
    "width_rate": _in_range(-1.0, 1.0),
}


GRID_AND_EVOLUTION = ("L", "N", "dt", "t_final", "snapshot_stride")


@st.composite
def config_case(draw):
    """(command, INI text)."""
    command = draw(st.sampled_from(["run", "compare"]))
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    entry = cli._COMPARE if command == "compare" else cli._ENTRIES[scenario]
    own = replace(default_config(scenario), **entry.defaults)
    # most examples are valid configs; up to two keys take a bad value
    bad = draw(st.sets(st.sampled_from([*PHYSICS, "potential", *GRID_AND_EVOLUTION]), max_size=2))

    def value(key, good):
        return draw(BAD_FLOATS if key in bad else good)

    # only a `custom` run reads the potential, and it reads omega0 only in a trap
    if "potential" in bad:
        potential = "quartic"
    else:
        potential = draw(st.sampled_from(["free", "harmonic"] if "potential" in entry.reads(own)
                                         else [own.potential]))
    reads = entry.reads(replace(own, potential=potential))
    physics = {
        key: value(key, good)
        for key, good in PHYSICS.items()
        if key in bad or key in reads and draw(st.booleans())
    }
    physics["potential"] = potential
    # an in-range dt and t_final give at most 200 steps; a bad dt or t_final
    # either fails validation or leaves at most 200 steps too
    dt = value("dt", _in_range(1e-3, 0.1))
    t_final = value("t_final", st.integers(0, 200).map(lambda n: n * dt))
    sections = {
        "physics": physics,
        "grid": {
            "L": value("L", _in_range(4.0, 40.0)),
            "N": draw(st.sampled_from([7, 6, 0, -8]) if "N" in bad
                      else st.integers(4, 32).map(lambda n: 2 * n)),
        },
        "evolution": {
            "dt": dt,
            "t_final": t_final,
            "snapshot_stride": draw(st.sampled_from([0, -3]) if "snapshot_stride" in bad
                                    else st.integers(1, 50)),
        },
        "diagnostics": {
            key: draw(st.booleans()) for key in ("enable_von_neumann", "emit_fields") if key in reads
        },
    }
    lines = ["[scenario]", f"name = {scenario}"]
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
    return command, "\n".join(lines) + "\n"


def _underflowing_width(test):
    """An example per scenario and command with sigma0 = 1e-300, whose square
    underflows: the drawn examples never give sigma0 that value."""
    for scenario in sorted(SCENARIOS):
        text = (f"[scenario]\nname = {scenario}\n[physics]\nsigma0 = 1e-300\n[grid]\nN = 16\n"
                "[evolution]\ndt = 0.01\nt_final = 0.1\nsnapshot_stride = 1\n")
        for command in ("run", "compare"):
            test = example(case=(command, text))(test)
    return test


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(case=config_case())
@_underflowing_width
def test_any_config_exits_with_a_documented_code(case):
    command, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.ini"
        path.write_text(text + f"[output]\ndirectory = {Path(tmp) / 'out'}\n")
        assert main([command, str(path)]) in (0, 1, 2, 3)


OUT = "OUTPUT_DIRECTORY"
FAULTS = (
    "misspelt_section",
    "duplicate_key",
    "duplicate_section",
    "stray_scenario_key",
    "bare_key_line",
    "missing_header",
)


@st.composite
def faulty_ini(draw):
    """(valid text, the same text with one structural fault); OUT marks the output directory."""
    cfg = default_config(draw(st.sampled_from(sorted(SCENARIOS))))
    lines = render_config(replace(cfg, N=16, t_final=2 * cfg.dt, directory=OUT)).splitlines()
    valid = "\n".join(lines) + "\n"
    # lines[0] is [scenario] and lines[1] its name
    headers = [i for i, line in enumerate(lines) if line.startswith("[") and i > 0]
    keys = [i for i, line in enumerate(lines) if " = " in line and i > 1]
    fault = draw(st.sampled_from(FAULTS))
    if fault == "misspelt_section":
        i = draw(st.sampled_from(headers))
        name = lines[i][1:-1]
        typos = [name.capitalize(), name.upper(), name[:-1], name + "s", name[1] + name[0] + name[2:]]
        lines[i] = f"[{draw(st.sampled_from(typos))}]"
    elif fault == "duplicate_key":
        i = draw(st.sampled_from(keys))
        lines.insert(i + 1, lines[i])
    elif fault == "duplicate_section":
        i = draw(st.sampled_from(headers))
        lines += [lines[i], lines[i + 1]]
    elif fault == "stray_scenario_key":
        lines.insert(2, lines[draw(st.sampled_from(keys))])
    elif fault == "bare_key_line":
        i = draw(st.sampled_from(keys))
        lines.insert(i + 1, lines[i].split(" = ")[0])
    else:
        del lines[0]
    return valid, "\n".join(lines) + "\n"


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(texts=faulty_ini(), command=st.sampled_from(["run", "compare"]))
def test_structural_fault_is_a_config_error(texts, command):
    valid, faulty = texts
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        path = Path(tmp) / "cfg.ini"
        path.write_text(valid.replace(OUT, str(out)))
        parse_config(path)  # the fault alone makes the config invalid
        path.write_text(faulty.replace(OUT, str(out)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main([command, str(path)]) == 2
        assert err.getvalue().startswith("config error:")
        assert not out.exists()
