import functools
import hashlib
import json
import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhydro import cli
from qhydro.analytic import GaussianParams, entropy_of_width, harmonic_sigma
from qhydro.cli import (
    CSV_COLUMNS,
    ConfigError,
    IdentityCheck,
    SCENARIOS,
    compare_quantum_diffusion,
    config_hash,
    default_config,
    emit_timeseries,
    main,
    parse_config,
    render_config,
    run_scenario,
    write_report,
)
from qhydro.schrodinger import NumericsError

EXPECTED_HEADER = (
    "t,norm,energy,sigma2_measured,ent_boltzmann,dEntB_dt_fd,"
    "production_advective,production_correlation,fisher,production_diffusive,"
    "ent_von_neumann,ref_sigma2,ref_entropy,ref_divergence"
)


@pytest.fixture()
def quick_free():
    # small, fast variant of the spreading-packet scenario
    return replace(
        default_config("free_gaussian"),
        L=20.0,
        N=256,
        dt=1e-3,
        t_final=0.5,
        snapshot_stride=100,
    )


@pytest.fixture()
def quick_diffusion():
    return replace(
        default_config("diffusion_gaussian"),
        L=20.0,
        N=256,
        dt=1e-3,
        t_final=0.5,
        snapshot_stride=50,
    )


# a small run of each source in which every identity it declares applies
IDENTITY_RUNS = {
    "free_gaussian": dict(L=20.0, N=256, t_final=0.5, snapshot_stride=100),
    "harmonic_ground": dict(),
    "harmonic_perturbed": dict(t_final=2.0),
    # the similarity branch, sigma0^2 = 2 D start_time
    "diffusion_gaussian": dict(L=20.0, N=256, sigma0=float(np.sqrt(0.5)), start_time=0.5,
                               t_final=0.5, snapshot_stride=50),
    # past the entropy crossover at t = 4
    "compare": dict(t_final=6.0, snapshot_stride=500),
}


@functools.cache
def identity_run(source):
    if source == "compare":
        cfg = replace(default_config("free_gaussian"), **IDENTITY_RUNS[source])
        return cfg, compare_quantum_diffusion(cfg)
    cfg = replace(default_config(source), **IDENTITY_RUNS[source])
    return cfg, run_scenario(cfg)


def _declared_identities():
    """Every identity object the entries declare, once, with the first source declaring it."""
    seen, params = set(), []
    for source, entry in [*cli._ENTRIES.items(), ("compare", cli._COMPARE)]:
        for identity in entry.identities:
            if id(identity) not in seen:
                seen.add(id(identity))
                params.append(pytest.param(source, identity, id=f"{source}-{identity.name}"))
    return params


DECLARED_IDENTITIES = _declared_identities()


class TestConfig:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_defaults_validate(self, name):
        run_or_not = default_config(name)
        assert run_or_not.scenario == name

    def test_round_trip(self, tmp_path, quick_free):
        path = tmp_path / "cfg.ini"
        path.write_text(render_config(quick_free))
        parsed = parse_config(path)
        assert parsed == quick_free
        assert config_hash(parsed) == config_hash(quick_free)

    @pytest.mark.parametrize("cfg", [
        *(pytest.param(default_config(name), id=name) for name in sorted(SCENARIOS)),
        pytest.param(
            replace(default_config("custom"), potential="harmonic", omega0=2.5, N=512,
                    formats=("json",), directory="elsewhere"),
            id="edited",
        ),
    ])
    def test_config_hash_is_sha256_of_the_canonical_ini(self, cfg):
        assert config_hash(cfg) == hashlib.sha256(render_config(cfg).encode()).hexdigest()

    def test_all_violations_reported(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(
            "[scenario]\nname = free_gaussian\n"
            "[physics]\nhbar = -1\nmass = 0\n"
            "[grid]\nN = 7\n"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        text = "\n".join(err.value.problems)
        assert "hbar" in text and "mass" in text and "N" in text
        assert len(err.value.problems) >= 3

    def test_unknown_scenario(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nname = quantum_pinball\n")
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nname = free_gaussian\n[grid]\nM = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_structural_problems_listed_together(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(
            "[DEFAULT]\nhbar = 2\n[scenario]\nname = free_gaussian\nN = 64\n"
            "[Grid]\nN = 64\n[phyiscs]\nhbar = 2\n[physics]\nmass = heavy\n"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.problems == [
            "unknown section [DEFAULT]",
            "unknown section [Grid]",
            "unknown section [phyiscs]",
            "unknown key 'N' in section [scenario]",
            "[physics] mass: could not convert string to float: 'heavy'",
        ]

    @pytest.mark.parametrize("scenario", ["free_gaussian", "diffusion_gaussian"])
    def test_scenario_runs_its_own_potential(self, scenario):
        cfg = replace(default_config(scenario), potential="harmonic", omega0=5.0)
        assert cli.validate_config(cfg) == [
            f"{scenario} runs potential = free, got potential = harmonic"
        ]
        # an unused key keeps its default INI parseable
        assert cli.validate_config(replace(cfg, potential="free")) == []

    @pytest.mark.parametrize("scenario", ["harmonic_ground", "harmonic_perturbed"])
    def test_trap_runs_its_own_potential(self, scenario):
        cfg = replace(default_config(scenario), potential="free")
        assert cli.validate_config(cfg) == [
            f"{scenario} runs potential = harmonic, got potential = free"
        ]

    @pytest.mark.parametrize("scenario", ["harmonic_ground", "harmonic_perturbed", "custom"])
    def test_compare_refuses_a_trap(self, scenario):
        cfg = replace(default_config(scenario), potential="harmonic")
        with pytest.raises(ConfigError) as err:
            compare_quantum_diffusion(cfg)
        assert err.value.problems == ["compare evolves a free packet, got potential = harmonic"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.ini")


class TestRunScenario:
    def test_free_gaussian_passes(self, quick_free):
        report = run_scenario(quick_free)
        assert report.exit_code == 0
        names = {c.name for c in report.identities}
        assert "sigma2_matches_reference" in names
        assert "production_advective_equals_correlation" in names
        assert report.provenance["version"]
        assert report.provenance["config_hash"] == config_hash(quick_free)

    def test_provenance_records_the_thread_counts(self, quick_free, tmp_path, monkeypatch):
        # trap data files depend on the effective BLAS thread count
        monkeypatch.setattr(cli.grid_module, "_WORKERS", 3)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        report = run_scenario(quick_free)
        payload = json.loads(write_report(report, tmp_path).read_text())["provenance"]
        assert payload["workers"] == 3
        assert payload["OPENBLAS_NUM_THREADS"] == "2"
        assert payload["OMP_NUM_THREADS"] is None

    def test_diffusion_passes(self, quick_diffusion):
        report = run_scenario(quick_diffusion)
        assert report.exit_code == 0
        names = {c.name for c in report.identities}
        assert "sigma2_exact_kernel" in names
        assert "entropy_nondecreasing" in names

    def test_rows_match_snapshot_count(self, quick_free):
        t = run_scenario(quick_free).table["t"]
        assert len(t) == 6  # t = 0 plus five strides
        assert t[0] == 0.0
        assert abs(t[-1] - 0.5) < 1e-12

    def test_von_neumann_column_filled(self, quick_free):
        report = run_scenario(replace(quick_free, enable_von_neumann=True))
        assert len(report.table["ent_von_neumann"]) == len(report.table["t"])

    def test_von_neumann_at_default_grid(self):
        cfg = replace(default_config("free_gaussian"), enable_von_neumann=True)
        assert cfg.N == 1024
        report = run_scenario(cfg)
        assert report.exit_code == 0
        assert len(report.table["t"]) == 81
        assert len(report.table["ent_von_neumann"]) == 81

    def test_four_transforms_per_row(self, monkeypatch):
        # rows transformed, not calls (a block is one call): psi0 once in
        # propagate, 1 per later snapshot, 3 per row for the entropy report
        # (psi', psi''), whose psi'' also serves the energy
        rows = [0]
        fft, ifft = np.fft.fft, np.fft.ifft

        def counted(fn):
            def wrapper(a, *args, **kwargs):
                rows[0] += np.size(a) // np.shape(a)[-1]
                return fn(a, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.fft, "fft", counted(fft))
        monkeypatch.setattr(np.fft, "ifft", counted(ifft))
        report = run_scenario(default_config("free_gaussian"))
        assert len(report.table["t"]) == 81
        assert rows[0] == 1 + 80 + 3 * 81 == 324

    @pytest.mark.parametrize(
        "overrides", [None, dict(snapshot_stride=7, t_final=1.0)], ids=["default", "stride_7"]
    )
    def test_width_model_columns_track_the_every_step_trace(self, perturbed_report, overrides):
        # the ref_* columns integrate the width model on a grid of m*dt (m = 10, then 7)
        # and one ragged last step; the trace integrated at every dt is the oracle
        cfg = replace(default_config("harmonic_perturbed"), **(overrides or {}))
        report = perturbed_report if overrides is None else run_scenario(cfg)
        s0 = cli._ground_width(cfg)
        p = GaussianParams(s0, omega0=cfg.omega0, epsilon0=cfg.epsilon0, hbar=cfg.hbar, mass=cfg.mass)
        steps = cli._evolution(cfg).snapshot_steps()
        trace = harmonic_sigma(p, np.arange(steps[-1] + 1) * cfg.dt)
        sigma, rate = trace.sigma[steps], trace.dlnsigma_dt[steps]
        entropy = entropy_of_width(sigma, cfg.k_B)
        table = report.table
        assert np.max(np.abs(table["ref_sigma2"] - sigma**2) / sigma**2) <= 1e-12
        assert np.max(np.abs(table["ref_entropy"] - entropy) / np.abs(entropy)) <= 1e-12
        assert np.max(np.abs(table["ref_divergence"] - rate)) <= 1e-12

    def test_identity_lines_are_parseable(self, quick_free):
        report = run_scenario(quick_free)
        for line in report.identity_lines():
            assert line.startswith("IDENTITY scenario=free_gaussian name=")
            assert "tolerance=" in line and "measured=" in line
            assert line.endswith("PASS") or line.endswith("FAIL")


class TestNanIdentities:
    def test_nan_measurement_never_passes(self):
        assert IdentityCheck("x", 1.0, math.nan, True).passed is False
        assert IdentityCheck("x", 1.0, math.inf, True).passed is False
        assert IdentityCheck("x", 1.0, 0.5, True).passed is True

    @pytest.mark.parametrize(("source", "identity"), DECLARED_IDENTITIES)
    def test_nan_in_a_read_row_fails(self, source, identity):
        cfg, report = identity_run(source)
        assert identity.applies(report.table, cfg)
        assert identity.check(report.table, cfg).passed
        # row 1 for the per-row reductions; the rows of the rest are named
        row = {"matched_initial_density": 0, "quantum_entropy_overtakes_diffusive": -1}
        table = {name: None if c is None else c.copy() for name, c in report.table.items()}
        for column in table.values():
            if column is not None:
                column[row.get(identity.name, 1)] = math.nan
        check = identity.check(table, cfg)
        assert check.passed is False
        assert math.isnan(check.measured)

    def test_nan_in_second_compare_row_fails(self, quick_free, monkeypatch):
        # the quantum sigma^2 of row 1 (first row of the second block) is NaN
        sigma2, calls = cli._sigma2, []

        def poisoned(rho, grid):
            calls.append(None)
            values = sigma2(rho, grid)
            if len(calls) == 3:
                values[0] = math.nan
            return values

        monkeypatch.setattr(cli, "_sigma2", poisoned)
        # the block checks its width columns, so the row is a numeric abort
        with pytest.raises(NumericsError, match="^non-finite width and distance diagnostics "
                                                "at t = 0.1: sigma2_quantum=nan, "):
            compare_quantum_diffusion(quick_free)


class TestIdentityTable:
    def test_identity_names_in_order(
        self, free_report, ground_report, perturbed_report, diffusion_report, quick_diffusion
    ):
        def names(report):
            return [c.name for c in report.identities]

        quantum = ["norm_conservation", "energy_conservation", "production_advective_equals_correlation"]
        rate = ["entropy_rate_matches_production"]
        diffusion = ["mass_conservation", "sigma2_exact_kernel", "production_is_kB_D_fisher"]
        compare = ["matched_initial_density", "quantum_width_quadratic_in_time",
                   "diffusive_width_linear_in_time"]
        # every default scenario, and compare on the default free packet
        assert names(free_report) == quantum + rate + ["sigma2_matches_reference",
                                                        "entropy_matches_reference"]
        # the trap's production is ~0 in every row, so no rate is checked
        assert names(ground_report) == quantum + ["entropy_constant", "advective_velocity_zero",
                                                  "density_stationary"]
        assert names(perturbed_report) == quantum + rate + ["sigma2_matches_oscillator"]
        default_diffusion = run_scenario(default_config("diffusion_gaussian"))
        assert names(default_diffusion) == diffusion + ["entropy_nondecreasing"] + rate
        assert names(run_scenario(default_config("custom"))) == quantum + rate
        assert names(compare_quantum_diffusion(default_config("free_gaussian"))) == compare
        # the conditional identities
        one_row = run_scenario(replace(quick_diffusion, t_final=0.0))
        assert names(one_row) == diffusion
        assert names(diffusion_report) == diffusion + ["entropy_nondecreasing"] + rate + [
            "production_matches_half_inverse_time"
        ]
        assert names(identity_run("compare")[1]) == compare + ["quantum_entropy_overtakes_diffusive"]


class TestEmit:
    def test_csv_header_contract(self, tmp_path, quick_free):
        report = run_scenario(quick_free)
        paths = emit_timeseries(report, tmp_path, formats=("csv",))
        text = paths[0].read_text()
        assert text.splitlines()[0] == EXPECTED_HEADER
        assert text.isascii()

    def test_disabled_von_neumann_empty_marker(self, tmp_path, quick_free):
        report = run_scenario(quick_free)
        (path,) = emit_timeseries(report, tmp_path, formats=("csv",))
        idx = CSV_COLUMNS.index("ent_von_neumann")
        for line in path.read_text().splitlines()[1:]:
            assert line.split(",")[idx] == ""

    def test_json_mirror_field_names(self, tmp_path, quick_free):
        report = run_scenario(quick_free)
        emit_timeseries(report, tmp_path, formats=("json",))
        payload = json.loads((tmp_path / "timeseries.json").read_text())
        assert payload["columns"] == CSV_COLUMNS
        assert set(payload["rows"][0]) == set(CSV_COLUMNS)
        assert payload["rows"][1]["ent_von_neumann"] is None

    def test_byte_identical_across_runs(self, tmp_path, quick_free):
        r1 = run_scenario(quick_free)
        r2 = run_scenario(quick_free)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit_timeseries(r1, d1)
        emit_timeseries(r2, d2)
        assert (d1 / "timeseries.csv").read_bytes() == (d2 / "timeseries.csv").read_bytes()
        assert (d1 / "timeseries.json").read_bytes() == (d2 / "timeseries.json").read_bytes()

    def test_field_dumps_on_request(self, tmp_path, quick_free):
        cfg = replace(quick_free, emit_fields=True)
        report = run_scenario(cfg)
        paths = emit_timeseries(report, tmp_path)
        field_files = [p for p in paths if p.name.startswith("fields_")]
        assert len(field_files) == len(report.table["t"])
        header = field_files[0].read_text().splitlines()[0]
        assert header == "x,rho,u_advective"

    def test_report_json(self, tmp_path, quick_free):
        report = run_scenario(quick_free)
        path = write_report(report, tmp_path)
        payload = json.loads(path.read_text())
        assert payload["scenario"] == "free_gaussian"
        assert payload["exit_code"] == 0
        assert all("tolerance" in c and "measured" in c for c in payload["identities"])


VALUES = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])


CHUNK = cli._CHUNK_ROWS


@st.composite
def emitted_tables(draw):
    """(columns, table, one field table): 1 to 2 chunks + 1 rows, with every chunk
    boundary; any column but t may be all None."""
    rows = draw(st.sampled_from([1, 2, 5, 300, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]))
    # drawn values repeated cyclically, so that many rows cost few draws
    column = st.lists(VALUES, min_size=1, max_size=8).map(lambda v: np.resize(np.array(v), rows))
    names = ["t", "norm", "energy", "ent_von_neumann"]
    absent = draw(st.sets(st.sampled_from(names[1:])))
    table = {name: None if name in absent else draw(column) for name in names}
    return names, table, {"x": draw(column), "rho": draw(column)}


def _oracle(names, columns):
    """The writer's bytes as first formulated: f"{v:.17g}" per CSV value and
    json.dumps(payload, indent=1)."""
    lines = [",".join(names)]
    lines += [",".join("" if v is None else f"{v:.17g}" for v in row) for row in zip(*columns)]
    payload = {"columns": names, "rows": [dict(zip(names, row)) for row in zip(*columns)]}
    return "\n".join(lines) + "\n", json.dumps(payload, indent=1) + "\n"


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(drawn=emitted_tables())
def test_writer_matches_the_per_value_oracle(drawn):
    names, table, fields = drawn
    report = cli.RunReport("free_gaussian", names, table, [], {}, [fields])
    rows = len(table["t"])
    columns = [[None] * rows if table[n] is None else table[n].tolist() for n in names]
    csv, text = _oracle(names, columns)
    field_csv, _ = _oracle(list(fields), [c.tolist() for c in fields.values()])
    with tempfile.TemporaryDirectory() as tmp:
        emit_timeseries(report, tmp)
        out = Path(tmp)
        assert (out / "timeseries.csv").read_text() == csv
        assert (out / "timeseries.json").read_text() == text
        assert (out / "fields_0000.csv").read_text() == field_csv


def test_output_memory_does_not_grow_with_rows(tmp_path):
    # a whole-file writer traces ~50 MB here: every value as a Python float and its text
    rows = 20_000
    table = {name: np.linspace(0.0, 1.0, rows) for name in CSV_COLUMNS}
    table["ent_von_neumann"] = None
    report = cli.RunReport("free_gaussian", CSV_COLUMNS, table, [], {})
    tracemalloc.start()
    try:
        emit_timeseries(report, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert len((tmp_path / "timeseries.csv").read_text().splitlines()) == rows + 1


class TestCompare:
    def test_matched_start_and_separation(self, quick_free):
        cfg = replace(quick_free, D=0.5, t_final=1.0, snapshot_stride=200)
        report = compare_quantum_diffusion(cfg)
        assert report.exit_code == 0
        tab = report.table
        assert tab["rho_l2_divergence"][0] < 1e-13
        assert tab["rho_l2_divergence"][-1] > 1e-3  # they separate immediately
        # widths: quadratic vs linear growth
        assert tab["sigma2_quantum"][-1] < tab["sigma2_diffusive"][-1]

    def test_entropy_crossover_asserted_on_long_runs(self):
        cfg = replace(
            default_config("free_gaussian"),
            L=40.0,
            N=1024,
            D=0.5,
            dt=1e-3,
            t_final=6.0,
            snapshot_stride=500,
        )
        report = compare_quantum_diffusion(cfg)
        names = {c.name for c in report.identities}
        assert "quantum_entropy_overtakes_diffusive" in names
        assert report.exit_code == 0

    def test_compare_emits_own_table(self, tmp_path, quick_free):
        cfg = replace(quick_free, t_final=0.2, snapshot_stride=100)
        report = compare_quantum_diffusion(cfg)
        paths = emit_timeseries(report, tmp_path)
        assert (tmp_path / "compare.csv").exists()
        header = (tmp_path / "compare.csv").read_text().splitlines()[0]
        assert header.startswith("t,sigma2_quantum,ref_sigma2_quantum")


class TestMain:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_print_default_config(self, capsys):
        assert main(["print-default-config", "diffusion_gaussian"]) == 0
        out = capsys.readouterr().out
        assert "[scenario]" in out and "name = diffusion_gaussian" in out

    def test_run_end_to_end(self, tmp_path, capsys, quick_free):
        path = tmp_path / "cfg.ini"
        path.write_text(render_config(replace(quick_free, directory=str(tmp_path / "out"))))
        code = main(["run", str(path)])
        assert code == 0
        assert (tmp_path / "out" / "timeseries.csv").exists()
        assert (tmp_path / "out" / "report.json").exists()
        out = capsys.readouterr().out
        assert "IDENTITY scenario=free_gaussian" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nname = free_gaussian\n[grid]\nN = 7\n")
        assert main(["run", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text",
        [("run", text) for text in [
            "[scenario]\nname = free_gaussian\n[evolution]\nt_final = inf\n",
            "[scenario]\nname = free_gaussian\n[evolution]\nt_final = 1e300\ndt = 1e-300\n",
            "[scenario]\nname = free_gaussian\n[evolution]\nt_final = 1e300\n",
            "[scenario]\nname = harmonic_perturbed\n[evolution]\nt_final = 0\n",
            "[scenario]\nname = harmonic_perturbed\n[physics]\nepsilon0 = 0.2\n",
            "[scenario]\nname = diffusion_gaussian\n[physics]\nstart_time = nan\n",
            "[scenario]\nname = harmonic_ground\n[physics]\nhbar = 1e300\nmass = 1.7e308\n",
            "[scenario]\nname = free_gaussian\n[grid]\nN = 64\nN = 64\n",
            "[scenario]\nname = free_gaussian\n[grid]\nN = 64\n[grid]\nL = 10.0\n",
            "name = free_gaussian\n",
            "[scenario]\nname = free_gaussian\n[grid]\nL\n",
            "[scenario]\nname = free_gaussian\n# \xff\n",
            "[scenario]\nname = free_gaussian\n[physics]\nhbar = 1%\n",
            # these four ran the defaults (N = 1024, hbar = 1) and exited 0
            "[scenario]\nname = free_gaussian\n[Grid]\nN = 64\n",
            "[scenario]\nname = free_gaussian\n[phyiscs]\nhbar = 2\n",
            "[DEFAULT]\nhbar = 2\n[scenario]\nname = free_gaussian\n",
            "[scenario]\nname = free_gaussian\nN = 64\n",
            # these ran a free packet, or diffused, and exited 0
            "[scenario]\nname = free_gaussian\n[physics]\npotential = harmonic\nomega0 = 5.0\n",
            "[scenario]\nname = diffusion_gaussian\n[physics]\npotential = harmonic\n",
            # a valid step count whose snapshot list cannot be built: a MemoryError traceback
            "[scenario]\nname = free_gaussian\n[evolution]\nt_final = 1e18\ndt = 1\nsnapshot_stride = 1\n",
            # a grid that cannot be allocated: a MemoryError traceback, and an N
            # numpy cannot size aborted numerically; 2**58 float64 samples are
            # 2 EiB, beyond any 64-bit address space, so no allocation is tried
            "[scenario]\nname = harmonic_ground\n[grid]\nN = 288230376151711744\n",
            "[scenario]\nname = harmonic_ground\n[grid]\nN = 9223372036854775808\n",
            # an L whose grid span or wavenumbers overflow: numpy warned, and the
            # tiny one ended in a ValueError traceback
            "[scenario]\nname = free_gaussian\n[grid]\nL = 1e308\n",
            "[scenario]\nname = free_gaussian\n[grid]\nL = 1e-308\n",
            # 1e14 + step * 1e-3 rounds to equal neighbours: np.gradient divided by
            # zero spacings
            "[scenario]\nname = diffusion_gaussian\n[physics]\nstart_time = 1e14\n",
        ]] + [
            # compare evolved a free packet on the trap's box and exited 1
            ("compare", render_config(default_config("harmonic_ground")).split("[output]")[0]),
            ("compare", render_config(default_config("harmonic_perturbed")).split("[output]")[0]),
            ("compare", "[scenario]\nname = custom\n[physics]\npotential = harmonic\n"),
        ],
        ids=[
            "t_final_inf",
            "step_count_overflows",
            "step_count_above_maxsize",
            "perturbed_no_step",
            "perturbed_large_epsilon",
            "start_time_nan",
            "ground_width_underflows",
            "duplicate_key",
            "duplicate_section",
            "missing_section_header",
            "bare_key_line",
            "not_utf8",
            "bad_interpolation",
            "miscased_section",
            "misspelt_section",
            "default_section",
            "stray_scenario_key",
            "free_packet_with_trap_potential",
            "diffusion_with_trap_potential",
            "snapshot_list_unbuildable",
            "grid_unallocatable",
            "grid_unaddressable",
            "grid_span_overflows",
            "wavenumbers_overflow",
            "snapshot_times_repeat",
            "compare_trap_ground",
            "compare_trap_perturbed",
            "compare_custom_trap",
        ],
    )
    def test_crashing_configs_exit_2(self, tmp_path, capsys, command, text):
        path = tmp_path / "bad.ini"
        # latin-1 writes the one non-ASCII character as the single byte 0xff
        path.write_bytes(f"{text}[output]\ndirectory = {tmp_path / 'out'}\n".encode("latin-1"))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

    def test_single_row_diffusion_run(self, tmp_path, capsys):
        # t_final = 0 leaves one row: no entropy difference to check
        path = tmp_path / "one.ini"
        out_dir = tmp_path / "out"
        path.write_text(
            "[scenario]\nname = diffusion_gaussian\n"
            "[grid]\nL = 20.0\nN = 256\n"
            "[evolution]\nt_final = 0\n"
            f"[output]\ndirectory = {out_dir}\n"
        )
        assert main(["run", str(path)]) == 0
        payload = json.loads((out_dir / "report.json").read_text())
        names = {c["name"] for c in payload["identities"]}
        assert "mass_conservation" in names and "entropy_nondecreasing" not in names
        assert len((out_dir / "timeseries.csv").read_text().splitlines()) == 2

    def test_compare_needs_a_positive_diffusivity(self, tmp_path, capsys):
        # D is unused by a quantum `run`, but `compare` diffuses at D
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[scenario]\nname = free_gaussian\n[physics]\nD = 0\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n"
        )
        assert main(["compare", str(path)]) == 2
        assert capsys.readouterr().err == "config error: D must be positive, got 0.0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "physics",
        ["hbar = 1e300", "mass = 1.7e308", "width_rate = 1.7e308"],
        ids=["hbar_squared_overflows", "hbar_over_2m_is_zero", "phase_overflows"],
    )
    def test_overflowing_constants_exit_3(self, tmp_path, capsys, physics):
        path = tmp_path / "cfg.ini"
        path.write_text(
            f"[scenario]\nname = custom\n[physics]\n{physics}\n"
            "[grid]\nL = 4.0\nN = 8\n[evolution]\nt_final = 0\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(path)]) == 3
        assert capsys.readouterr().err.startswith("numeric abort: ")

    @pytest.mark.parametrize("name, L, code", [
        # rate * t overflows in the phase table: a non-finite row
        ("free_gaussian", "1e-152", 3),
        # energy_conservation's measure overflows: the identity fails
        ("harmonic_ground", "1e100", 1),
    ], ids=["phase_table_overflows", "identity_measure_overflows"])
    def test_overflowing_products_raise_no_warning(self, tmp_path, capsys, name, L, code):
        # pytest turns a numpy warning into an error
        path = tmp_path / "cfg.ini"
        path.write_text(
            f"[scenario]\nname = {name}\n[grid]\nL = {L}\nN = 64\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(path)]) == code
        err = capsys.readouterr().err
        assert err.startswith("numeric abort") if code == 3 else err == ""

    def test_identity_failure_exit_code(self, tmp_path, capsys):
        # an unresolved grid cannot hold the spreading-packet references
        path = tmp_path / "under.ini"
        path.write_text(
            "[scenario]\nname = free_gaussian\n"
            "[grid]\nL = 5.0\nN = 16\n"
            "[evolution]\ndt = 0.01\nt_final = 2.0\nsnapshot_stride = 20\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    # 1e-3: a density far narrower than the grid spacing rings negative;
    # 1e-300: sigma0**2 underflows, so the Gaussian is 0/0 at x = 0
    @pytest.mark.parametrize("sigma0", ["1e-3", "1e-300"])
    def test_numeric_abort_exit_code(self, tmp_path, capsys, sigma0):
        path = tmp_path / "spike.ini"
        path.write_text(
            "[scenario]\nname = diffusion_gaussian\n"
            f"[physics]\nsigma0 = {sigma0}\n"
            "[grid]\nL = 20.0\nN = 256\n"
            "[evolution]\ndt = 1e-4\nt_final = 0.01\nsnapshot_stride = 10\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(path)]) == 3
        assert "numeric abort" in capsys.readouterr().err

    def test_overflowing_reference_is_a_numeric_abort(self, tmp_path, capsys):
        # (hbar t / 2 m sigma0)^2 overflows in the free width reference
        path = tmp_path / "narrow.ini"
        path.write_text(
            "[scenario]\nname = free_gaussian\n[physics]\nsigma0 = 1e-120\n"
            "[grid]\nN = 64\n[evolution]\nt_final = 0.01\nsnapshot_stride = 5\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(path)]) == 3
        assert capsys.readouterr().err == "numeric abort: overflow encountered in square\n"

    def test_quantum_numeric_abort_exit_code(self, tmp_path, capsys):
        # the trap potential overflows to inf on the grid
        path = tmp_path / "steep.ini"
        path.write_text(
            "[scenario]\nname = custom\n"
            "[physics]\npotential = harmonic\nomega0 = 1e200\n"
            "[grid]\nL = 10.0\nN = 64\n"
            "[evolution]\ndt = 1e-3\nt_final = 0.01\nsnapshot_stride = 5\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(path)]) == 3
        assert "numeric abort" in capsys.readouterr().err

    def test_vn_flag_override(self, tmp_path, quick_free):
        path = tmp_path / "cfg.ini"
        out_dir = tmp_path / "out"
        path.write_text(render_config(replace(quick_free, directory=str(out_dir))))
        assert main(["run", str(path), "--vn", "on"]) == 0
        payload = json.loads((out_dir / "timeseries.json").read_text())
        assert payload["rows"][0]["ent_von_neumann"] is not None

    def test_format_flag_restricts_output(self, tmp_path, quick_free):
        path = tmp_path / "cfg.ini"
        out_dir = tmp_path / "out"
        path.write_text(render_config(replace(quick_free, directory=str(out_dir))))
        assert main(["run", str(path), "--format", "json"]) == 0
        assert (out_dir / "timeseries.json").exists()
        assert not (out_dir / "timeseries.csv").exists()

    def test_harmonic_perturbed_default_run(self, tmp_path):
        # sigma2_matches_oscillator reduces with numpy; report.json must still encode it
        path = tmp_path / "cfg.ini"
        out_dir = tmp_path / "out"
        cfg = replace(default_config("harmonic_perturbed"), directory=str(out_dir))
        path.write_text(render_config(cfg))
        assert main(["run", str(path)]) == 0
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["exit_code"] == 0
        assert all(c["passed"] is True for c in payload["identities"])

    def test_compare_command(self, tmp_path, capsys, quick_free):
        path = tmp_path / "cfg.ini"
        out_dir = tmp_path / "out"
        cfg = replace(quick_free, t_final=0.2, snapshot_stride=100, directory=str(out_dir))
        path.write_text(render_config(cfg))
        assert main(["compare", str(path)]) == 0
        assert (out_dir / "compare.csv").exists()

    def test_custom_scenario(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        out_dir = tmp_path / "out"
        path.write_text(
            "[scenario]\nname = custom\n"
            "[physics]\npotential = harmonic\nomega0 = 2.0\nsigma0 = 0.6\nwidth_rate = 0.1\n"
            "[grid]\nL = 12.0\nN = 256\n"
            "[evolution]\ndt = 1e-3\nt_final = 0.3\nsnapshot_stride = 100\n"
            f"[output]\ndirectory = {out_dir}\n"
        )
        assert main(["run", str(path)]) == 0
        lines = (out_dir / "timeseries.csv").read_text().splitlines()
        idx = CSV_COLUMNS.index("ref_sigma2")
        assert lines[1].split(",")[idx] == ""  # no closed-form reference

    def test_unwritable_destination_reported(self, tmp_path, capsys, quick_free):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("plain file")
        path = tmp_path / "cfg.ini"
        cfg = replace(quick_free, t_final=0.1, directory=str(blocker / "out"))
        path.write_text(render_config(cfg))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "output error" in err and "not_a_dir" in err
