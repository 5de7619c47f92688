"""Config schema, persistence formats, runner products, the CLI and the
package exports."""

import ast
import inspect
import json
import os
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest

import sdwigner
import sdwigner.solvers
from sdwigner import SI, PhysicalConstants, make_grid
from sdwigner.cli import main as cli_main
from sdwigner.config import (OBSERVABLES, REQUIRED, SCHEMA, ConfigError,
                             SimulationConfig, config_from_dict, load_config,
                             write_config)
from sdwigner.io import (read_state, read_table, relative_l2_diff, write_state,
                         write_table)
from sdwigner.kernels import linear_coefficients
from sdwigner.runner import (OBSERVABLE_TABLE, STEPPED_ROUTES, magnitude_report,
                             run_simulation)
from sdwigner.solvers import (FredholmConvergenceError, SolverConfig,
                              SolverInstabilityError, continuum, montecarlo,
                              semidiscrete)
from sdwigner.solvers.common import free_flight_operators, l2_norm
from sdwigner.states import gaussian_wigner
from sdwigner.transform import WignerState

from working_set import allocation_peak, bound_workspace


REPO = pathlib.Path(__file__).resolve().parents[1]


def base_dict(**sections):
    """A small, fast, CFL-safe 2D run description; sections merge on top."""
    d = {
        "grid": {
            "dim": 2,
            "coherence_length_nm": [200.0, 200.0],
            "omega_extent_nm": [100.0, 100.0],
            "n_x": [8, 8],
            "n_p": [4, 4],
        },
        "field": {"type": "linear", "b0_T": 0.5},
        "initial_state": {
            "type": "gaussian",
            "center_nm": [0.0, 0.0],
            "sigma_nm": [20.0, 20.0],
            "momentum_dP": [1.0, 0.0],
            "sigma_p_dP": [1.5, 1.5],
        },
        "solver": {
            "method": "semidiscrete",
            "dt_fs": 50.0,
            "t_end_fs": 200.0,
            "boundary": "periodic",
            "stencil_order": 2,
        },
        "output": {
            "directory": "out",
            "snapshot_every": 2,
            "observables": ["mass", "mean_momentum", "boundary_fraction"],
        },
    }
    for name, patch in sections.items():
        d[name] = {**d.get(name, {}), **patch}
    return d


def write_json(tmp_path, payload, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return p


class TestConfigSchema:
    def test_round_trip_is_exact(self, tmp_path):
        cfg = config_from_dict(base_dict())
        path = write_config(cfg, tmp_path / "c.json")
        assert load_config(path) == cfg

    def test_round_trip_covers_mc_sections(self, tmp_path):
        cfg = config_from_dict(base_dict(solver={
            "method": "mc", "gamma0_per_s": 1e13, "rng_seed": 3,
            "n_particles": 500, "weight_cap": 32.0,
            "mc_targets": [{"m_index": [1, 0], "position_nm": [5.0, -5.0]}],
        }))
        path = write_config(cfg, tmp_path / "c.json")
        again = load_config(path)
        assert again == cfg
        assert again.mc_targets[0].m_index == (1, 0)

    def test_hash_is_stable_and_seed_sensitive(self):
        a = config_from_dict(base_dict())
        b = config_from_dict(base_dict())
        assert a.sha256() == b.sha256()
        assert a.with_seed(5).sha256() != a.sha256()

    def test_scalar_keys_broadcast_per_axis(self):
        cfg = config_from_dict(base_dict(grid={
            "coherence_length_nm": 200.0, "omega_extent_nm": 100.0,
            "n_x": 8, "n_p": 4}))
        assert cfg.coherence_length_nm == (200.0, 200.0)
        assert cfg.n_p == (4, 4)

    def test_window_bound_is_enforced(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(base_dict(grid={"omega_extent_nm": [150.0, 100.0]}))
        assert "bounded-domain" in str(err.value)
        assert err.value.path == "grid.omega_extent_nm[0]"

    def test_unknown_keys_are_rejected(self):
        d = base_dict()
        d["grid"]["typo_key"] = 1
        with pytest.raises(ConfigError) as err:
            config_from_dict(d)
        assert "unknown key" in str(err.value)

    def test_axis_count_mismatch(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(base_dict(grid={"n_x": [8, 8, 8]}))
        assert "expected 2 entries" in str(err.value)

    def test_method_must_be_known(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(base_dict(solver={"method": "spectral"}))
        assert err.value.path == "solver.method"

    def test_t_end_must_be_step_multiple(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(base_dict(solver={"dt_fs": 64.0}))
        assert "integer multiple" in str(err.value)

    def test_cfl_violations_fail_at_load_time(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(base_dict(solver={"dt_fs": 5000.0, "t_end_fs": 10000.0}))
        assert err.value.path == "solver.dt_fs"

    def test_sampled_field_is_refused_at_validate(self, tmp_path, capsys):
        d = base_dict()
        d["field"] = {"type": "sampled", "file": str(tmp_path / "field.npz")}
        with pytest.raises(ConfigError) as err:
            config_from_dict(d)
        assert err.value.path == "field.type"
        assert cli_main(["validate", str(write_json(tmp_path, d))]) == 2
        assert "field.type" in capsys.readouterr().err

    def test_mc_needs_targets(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(base_dict(solver={"method": "mc"}))
        assert err.value.path == "solver.mc_targets"

    def test_parse_errors_carry_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"grid": nope}', encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert "line 1" in str(err.value)

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(tmp_path / "absent.json")
        assert "not found" in str(err.value)

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_dict(grid={"n_p": [True, 4]}))

    @pytest.mark.parametrize("section, key, value", [
        ("solver", "n_particles", "100"),
        ("solver", "fredholm_tol", "x"),
        ("solver", "dt_fs", None),
        ("solver", "dt_fs", "abc"),
        ("field", "b0_T", "one"),
        ("solver", "rng_seed", "a"),
        ("output", "binary_states", "no"),
        ("solver", "stencil_order", 4.0),
        ("solver", "weight_cap", float("nan")),
        ("constants", "mass_kg", "1e-30"),
        ("output", "directory", 3),
        ("solver", "boundary", "reflecting"),
        ("solver", "stencil_order", 3),
        ("solver", "n_particles", 0),
        ("solver", "t_end_fs", -40.0),
        ("solver", "rng_seed", -1),
    ])
    def test_malformed_scalars_fail_at_their_path(self, tmp_path, capsys,
                                                  section, key, value):
        d = base_dict(**{section: {key: value}})
        with pytest.raises(ConfigError) as err:
            config_from_dict(d)
        assert err.value.path == f"{section}.{key}"
        assert cli_main(["validate", str(write_json(tmp_path, d))]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_range_error_names_the_key_once(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(base_dict(solver={"t_end_fs": -40.0}))
        assert str(err.value) == "solver.t_end_fs: must be positive"
        with pytest.raises(ValueError, match="^t_end must be positive$"):
            SolverConfig(dt=1e-15, t_end=-4e-14)

    @pytest.mark.parametrize("dim", [1, 3, 2.0])
    def test_only_2d_grids_load(self, dim):
        d = base_dict(grid={"dim": dim, "coherence_length_nm": 200.0,
                            "omega_extent_nm": 100.0, "n_x": 8, "n_p": 4})
        with pytest.raises(ConfigError) as err:
            config_from_dict(d)
        assert err.value.path == "grid.dim"

    @pytest.mark.parametrize("section, key", [
        ("grid", "dim"), ("grid", "coherence_length_nm"), ("grid", "n_p"),
        ("solver", "method"), ("solver", "dt_fs"), ("solver", "t_end_fs"),
    ])
    def test_each_missing_required_key_fails_at_its_path(self, section, key):
        d = base_dict()
        del d[section][key]
        with pytest.raises(ConfigError) as err:
            config_from_dict(d)
        assert str(err.value) == f"{section}.{key}: required key missing"

    @pytest.mark.parametrize("state, message", [
        ({"type": "file", "file": None}, "must be a string"),
        ({"type": "file"}, "required key missing"),
    ])
    def test_state_file_is_type_checked(self, state, message):
        d = base_dict()
        d["initial_state"] = state
        with pytest.raises(ConfigError) as err:
            config_from_dict(d)
        assert str(err.value) == f"initial_state.file: {message}"

    def test_keys_of_the_other_state_type_are_refused(self):
        d = base_dict()
        d["initial_state"] = {"type": "file", "file": "s.sdwg", "sigma_nm": 5.0}
        with pytest.raises(ConfigError) as err:
            config_from_dict(d)
        assert err.value.path == "initial_state.sigma_nm"

    def test_out_of_range_seed_override_fails_at_its_key(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(base_dict()).with_seed(-3)
        assert str(err.value) == "solver.rng_seed: must be >= 0"

    @pytest.mark.parametrize("name, sha256", [
        ("cyclotron", "5727d54aa48327979f505ab59dad9e66f057d4c8546301cf571a64b2c8c728c0"),
        ("free_streaming", "50a302b3a5d00afb562ea74349c320ec8d2aa719e896885647918cd65351785e"),
        ("gradient_resolvent", "1f22db9a8b181879c72c8fe962e0b4c0876e0aedf9d3b31538aa01b0c70f1805"),
        ("magnitude_survey", "84c1d1d8279e0d2369cd3bd1ca79713a54a4629129ff93935859a961d43e8725"),
        ("mc_point_probe", "031c058ce53b590aad94d6ff4478e3060fc1dee34110a22bfe3115f0284ab729"),
    ])
    def test_shipped_config_hashes_are_pinned(self, name, sha256):
        """The canonical form is the provenance of every run: a change to it
        changes these hashes."""
        assert load_config(REPO / "configs" / f"{name}.json").sha256() == sha256

    def test_docs_list_exactly_the_schema_keys_and_defaults(self):
        """Each key table under a section heading of docs/config_schema.md has
        one row per declared key, with the declared default (`required`,
        `null`, or the JSON value)."""
        declared = {(k.section, k.name): k.default for k in SCHEMA.values()}
        sections = {section for section, _ in declared}
        documented, section = {}, None
        for line in (REPO / "docs" / "config_schema.md").read_text().splitlines():
            if line.startswith("## "):
                section = line[3:].strip()
            elif line.startswith("| `") and section in sections:
                key, _, default = (c.strip().strip("`") for c in line.split("|")[1:4])
                documented[section, key] = default
        assert sorted(documented) == sorted(declared)
        for where, text in documented.items():
            expect = declared[where]
            got = REQUIRED if text == "required" else json.loads(text)
            assert got == (list(expect) if isinstance(expect, tuple) else expect), where

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        grid = make_grid(2, (200e-9, 200e-9), (100e-9, 100e-9), (8, 8), (4, 4))
        state = gaussian_wigner(grid, center=(0.0, 0.0),
                                sigma_x=(20e-9, 20e-9))
        write_state(tmp_path / "init.sdwg", state, "0" * 64)
        d = base_dict()
        d["initial_state"] = {"type": "file", "file": "init.sdwg"}
        path = write_json(tmp_path, d)
        cfg = load_config(path)
        assert cfg.state_file == str(tmp_path / "init.sdwg")
        built = cfg.build_initial_state(cfg.build_grid())
        assert np.array_equal(built.values, state.values)

    @pytest.mark.parametrize("name, change", [
        ("dim", {"dim": 1}),
        ("n_p", {"n_p": (4, 3)}),
        ("n_x", {"n_x": (8, 6)}),
        ("coherence_length", {"coherence_length": (200e-9, 240e-9)}),
        ("omega_extent", {"omega_extent": (100e-9, 90e-9)}),
        ("hbar", {"constants": PhysicalConstants(hbar=2.0 * SI.hbar)}),
        ("charge", {"constants": PhysicalConstants(charge=0.5 * SI.charge)}),
        ("mass", {"constants": PhysicalConstants(mass=2e-31)}),
    ])
    def test_state_on_another_grid_fails_at_the_file(self, tmp_path, name, change):
        # base_dict's grid with one quantity changed
        grid = make_grid(**{"dim": 2, "coherence_length": 200e-9, "omega_extent": 100e-9,
                            "n_x": 8, "n_p": 4, **change})
        write_state(tmp_path / "init.sdwg",
                    WignerState(grid=grid, values=np.zeros(grid.state_shape), time=0.0))
        d = base_dict()
        d["initial_state"] = {"type": "file", "file": "init.sdwg"}
        with pytest.raises(ConfigError) as err:
            load_config(write_json(tmp_path, d))
        assert err.value.path == "initial_state.file"
        assert f"the state's grid has {name} " in str(err.value)


STATE_GRIDS = {
    1: (130e-9, 60e-9, 6, 3),
    2: ((130e-9, 110e-9), (60e-9, 50e-9), (5, 7), (3, 2)),
    3: ((130e-9, 110e-9, 90e-9), (60e-9, 50e-9, 40e-9), (3, 4, 2), (2, 1, 1)),
}


def large_state_pair():
    """Two random states of 21 x 21 x 40 x 40 cells on one grid."""
    grid = make_grid(2, (200e-9, 200e-9), (100e-9, 100e-9), (40, 40), (10, 10))
    a, b = np.random.default_rng(67).normal(size=(2,) + grid.state_shape)
    return (WignerState(grid=grid, values=a, time=0.0),
            WignerState(grid=grid, values=b, time=0.0))


class TestStateFormat:
    def make_state(self, seed=0, dim=2):
        grid = make_grid(dim, *STATE_GRIDS[dim])
        values = np.random.default_rng(seed).normal(size=grid.state_shape)
        return WignerState(grid=grid, values=values, time=3.5e-13)

    @pytest.mark.parametrize("dim", [1, 2, 3], ids=["1d", "2d", "3d"])
    def test_round_trip_is_bit_exact(self, tmp_path, dim):
        state = self.make_state(dim=dim)
        cfg_hash = "ab" * 32
        p = write_state(tmp_path / "s.sdwg", state, cfg_hash)
        back, got_hash = read_state(p)
        assert got_hash == cfg_hash
        assert back.time == state.time
        assert back.grid.state_shape == state.grid.state_shape
        assert np.array_equal(back.values, state.values)
        assert back.grid.coherence_length == pytest.approx(
            state.grid.coherence_length, rel=0, abs=0)

    def test_second_write_is_byte_identical(self, tmp_path):
        state = self.make_state()
        a = write_state(tmp_path / "a.sdwg", state, "0" * 64).read_bytes()
        b = write_state(tmp_path / "b.sdwg", state, "0" * 64).read_bytes()
        assert a == b

    def test_write_holds_at_most_one_extra_state(self, tmp_path):
        state = self.make_state()
        write_state(tmp_path / "a.sdwg", state)
        peak = allocation_peak(lambda: write_state(tmp_path / "b.sdwg", state))
        assert peak <= state.values.nbytes

    def test_bad_magic_is_rejected(self, tmp_path):
        p = tmp_path / "bad.sdwg"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            read_state(p)

    def test_unknown_version_is_rejected(self, tmp_path):
        state = self.make_state()
        raw = bytearray(write_state(tmp_path / "s.sdwg", state, "0" * 64).read_bytes())
        raw[4:6] = struct.pack("<H", 9)
        p = tmp_path / "v9.sdwg"
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            read_state(p)

    def test_truncated_payload_is_rejected(self, tmp_path):
        state = self.make_state()
        raw = write_state(tmp_path / "s.sdwg", state, "0" * 64).read_bytes()
        p = tmp_path / "cut.sdwg"
        p.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="payload"):
            read_state(p)

    def test_truncated_header_is_rejected(self, tmp_path):
        raw = write_state(tmp_path / "s.sdwg", self.make_state(), "0" * 64).read_bytes()
        p = tmp_path / "cut.sdwg"
        p.write_bytes(raw[:20])
        with pytest.raises(ValueError, match="cut.sdwg: header cut short"):
            read_state(p)

    def test_hash_length_is_checked_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="64"):
            write_state(tmp_path / "s.sdwg", self.make_state(), "abc")

    def test_diff_refuses_mismatched_grids(self, tmp_path):
        a = self.make_state()
        grid_b = make_grid(2, (130e-9, 110e-9), (60e-9, 50e-9), (5, 7), (2, 3))
        b = WignerState(grid=grid_b,
                        values=np.zeros(grid_b.state_shape), time=0.0)
        with pytest.raises(ValueError, match=r"grids differ in n_p: \(3, 2\) vs \(2, 3\)"):
            relative_l2_diff(a, b)

    @pytest.mark.parametrize("other, name", [
        (dict(omega=95e-9), "omega_extent"),
        (dict(constants=PhysicalConstants(mass=SI.mass * (1 + 1e-9))), "mass")],
        ids=["95nm_window", "mass"])
    def test_diff_refuses_equal_states_on_other_grids(self, other, name):
        # a 95 nm window lies 5e-9 m from a 100 nm one, inside np.allclose's
        # default atol of 1e-8; the constants once went unchecked
        def state(omega=100e-9, constants=SI):
            grid = make_grid(2, 200e-9, omega, 6, 3, constants)
            return WignerState(grid=grid, values=np.ones(grid.state_shape), time=0.0)
        assert relative_l2_diff(state(), state()) == 0.0
        for pair in ((state(), state(**other)), (state(**other), state())):
            with pytest.raises(ValueError, match=f"grids differ in {name}: "):
                relative_l2_diff(*pair)

    def test_diff_value_matches_norms(self):
        a = self.make_state(seed=1)
        b = self.make_state(seed=2)
        b = WignerState(grid=a.grid, values=b.values, time=a.time)
        expect = np.linalg.norm(a.values - b.values) / np.linalg.norm(b.values)
        assert relative_l2_diff(a, b) == pytest.approx(expect, rel=1e-14)

    def test_diff_value_is_the_blas_free_norm_ratio(self):
        # at 0.7M cells a BLAS norm splits its sum, and the last digit that
        # `diff` prints moved with the thread count
        a, b = large_state_pair()
        assert a.values.size >= 700_000
        assert relative_l2_diff(a, b) == l2_norm(a.values - b.values) / l2_norm(b.values)


class TestTablesAndFields:
    def test_table_round_trip(self, tmp_path):
        cols = ["t(s)", "mass"]
        rows = [[1.0 / 3.0, 1.0000000000000002], [2e-13, 0.5]]
        p = write_table(tmp_path / "t.tsv", cols, rows, "cd" * 32)
        got_hash, got_cols, data = read_table(p)
        assert got_hash == "cd" * 32
        assert got_cols == cols
        assert data.tolist() == rows

    def test_read_table_requires_provenance(self, tmp_path):
        p = tmp_path / "raw.tsv"
        p.write_text("1\t2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="provenance"):
            read_table(p)


class TestRunner:
    def run_cfg(self, tmp_path, out_name="run", **sections):
        cfg = config_from_dict(base_dict(**sections))
        return cfg, run_simulation(cfg, out_dir=tmp_path / out_name)

    def test_products_carry_the_config_hash(self, tmp_path):
        cfg, product = self.run_cfg(tmp_path)
        assert product.status == "complete"
        meta = json.loads(product.meta_path.read_text())
        assert meta["status"] == "complete"
        assert meta["config_sha256"] == cfg.sha256() == product.config_hash
        assert "observables.tsv" in meta["files"]
        for f in product.files:
            if f.suffix == ".tsv":
                got_hash, _, _ = read_table(f)
            else:
                _, got_hash = read_state(f)
            assert got_hash == cfg.sha256()

    def test_snapshot_cadence_and_final_state(self, tmp_path):
        cfg, product = self.run_cfg(tmp_path)
        names = sorted(p.name for p in product.out_dir.glob("state_*.sdwg"))
        # 4 steps, cadence 2: steps 0 and 2 plus the final state
        assert names == ["state_000000.sdwg", "state_000002.sdwg",
                         "state_final.sdwg"]

    def test_observable_selection_controls_columns(self, tmp_path):
        _, product = self.run_cfg(tmp_path, output={"observables": ["mass"],
                                                    "snapshot_every": 0})
        _, cols, data = read_table(product.out_dir / "observables.tsv")
        assert cols == ["t(s)", "mass"]
        assert data.shape == (5, 2)
        # the windowed ladder loses band flux at n_p=4; drift bounds live in
        # the solver suite, here we only need the column to hold total mass
        np.testing.assert_allclose(data[:, 1], 1.0, rtol=1e-4)

    def test_every_accepted_observable_has_columns(self):
        # a name the config accepts but the runner does not know would leave
        # observables.tsv without its columns
        assert list(OBSERVABLE_TABLE) == list(OBSERVABLES)

    def test_non_finite_state_fails_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(semidiscrete, "make_rhs",
                            lambda *args: lambda v, out, *stage: out.fill(np.nan))
        with pytest.raises(SolverInstabilityError, match="non-finite"):
            self.run_cfg(tmp_path, "nan")
        meta = json.loads((tmp_path / "nan" / "run_meta.json").read_text())
        assert meta["status"] == "failed"
        assert not (tmp_path / "nan" / "state_final.sdwg").exists()

    def test_non_finite_resolvent_fails_the_run(self, tmp_path, monkeypatch):
        def nan_state(self, grid):
            return WignerState(grid, np.full(grid.state_shape, np.nan))
        monkeypatch.setattr(SimulationConfig, "build_initial_state", nan_state)
        with pytest.raises(SolverInstabilityError, match="level 1$"):
            self.run_cfg(tmp_path, "nan", solver={
                "method": "fredholm", "gamma0_per_s": 2e13, "fredholm_max_iter": 400})
        meta = json.loads((tmp_path / "nan" / "run_meta.json").read_text())
        assert meta["status"] == "failed"
        assert "SolverInstabilityError" in meta["error"]
        assert not (tmp_path / "nan" / "state_final.sdwg").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        _, first = self.run_cfg(tmp_path, "a")
        _, second = self.run_cfg(tmp_path, "b")
        for name in ("observables.tsv", "state_final.sdwg"):
            assert ((first.out_dir / name).read_bytes()
                    == (second.out_dir / name).read_bytes())

    # a grid large enough that BLAS may split the derivative and momentum
    # matmuls over threads when their count is not pinned
    @pytest.mark.parametrize("solver", [
        {"method": "continuum", "stencil_order": 4},
        {"method": "fredholm", "stencil_order": 4, "gamma0_per_s": 2e13,
         "fredholm_tol": 1e-8, "fredholm_max_iter": 300},
    ], ids=["continuum", "fredholm"])
    def test_matmul_routes_rerun_byte_identical(self, tmp_path, solver):
        sections = {"grid": {"n_x": [24, 24]}, "field": {"b1_T_per_m": 1e7},
                    "solver": {"dt_fs": 10.0, "t_end_fs": 40.0, **solver}}
        products = [self.run_cfg(tmp_path, name, **sections)[1] for name in ("a", "b")]
        names = sorted(p.name for p in products[0].out_dir.iterdir()
                       if p.suffix in (".tsv", ".sdwg"))
        assert "state_final.sdwg" in names
        for name in names:
            assert ((products[0].out_dir / name).read_bytes()
                    == (products[1].out_dir / name).read_bytes())

    # 13 blocks of one momentum-x slab each, so a block is 1/13 state
    WIDE_GRID = {"n_x": [40, 40], "n_p": [6, 6]}

    @staticmethod
    def held_beside_states(work):
        """Bytes of what a run holds besides its states: the force tables
        the workspace still holds (none on an axis whose force is folded
        into its momentum matrix), its velocity stacks and its scratch
        blocks."""
        arrays = tuple(work.tables) + tuple(work.stacks) + tuple(work.scratch)
        return sum(a.nbytes for a in arrays if a is not None)

    @pytest.mark.parametrize("method, field", [
        ("semidiscrete", {"b0_T": 0.5, "b1_T_per_m": 1e7}), ("continuum", {"b0_T": 0.5})],
        ids=["ladder_gradient", "cyclotron"])
    def test_stepped_run_holds_two_states(self, tmp_path, method, field):
        """A run that writes a snapshot at every step holds the state, one
        step buffer and one product per wide-band P_x matrix: the runner
        hands the initial state to evolve unnamed, writes each snapshot from
        the live state, and RK4 runs its last three stages in place.
        Besides them come the tables, stacks and scratch blocks, and within
        two more blocks the small matrices, NumPy's buffers and the run's
        bookkeeping.  A second step buffer took one state more."""
        cfg = config_from_dict(base_dict(
            grid=self.WIDE_GRID, field=field, solver={"method": method, "stencil_order": 4},
            output={"snapshot_every": 1}))
        grid, scfg = cfg.build_grid(), cfg.build_solver_config()
        coeffs = linear_coefficients(cfg.build_field(), grid)
        work = bound_workspace(STEPPED_ROUTES[method].make_rhs(coeffs, grid, scfg))
        f = cfg.build_initial_state(grid).values
        peak = allocation_peak(lambda: run_simulation(cfg, out_dir=tmp_path / "run"))
        states = 2 + len(work.products)
        assert len(list((tmp_path / "run").glob("state_0*.sdwg"))) == 4
        # a uniform field's tables fold into the momentum matrices
        assert all(table is None for table in work.tables) == (method == "continuum")
        assert (peak <= states * f.nbytes + self.held_beside_states(work)
                + 2 * 8 * work.block_size)

    def test_resolvent_run_holds_its_solve(self, tmp_path):
        """A resolvent run holds the solve's n_t + 3 states and its flight
        stacks, with the same tables, stacks and blocks around them as a
        stepped run: the runner hands the initial state over unnamed, and
        the solve drops it once copied.  Keeping it took n_t + 4 states."""
        cfg = config_from_dict(base_dict(
            grid=self.WIDE_GRID, field={"b0_T": 0.5, "b1_T_per_m": 1e7},
            solver={"method": "fredholm", "stencil_order": 4, "gamma0_per_s": 2e13,
                    "fredholm_tol": 1e-8, "fredholm_max_iter": 300}))
        grid, scfg = cfg.build_grid(), cfg.build_solver_config()
        n_t = round(scfg.t_end / scfg.dt)
        coeffs = linear_coefficients(cfg.build_field(), grid)
        work = continuum.make_kernel(coeffs, grid, scfg)
        flights = [free_flight_operators(grid, lag * scfg.dt, scfg.boundary)
                   for lag in range(1, n_t + 1)]
        f = cfg.build_initial_state(grid).values
        stacks = sum(stack.nbytes for flight in flights for stack in flight)
        peak = allocation_peak(lambda: run_simulation(cfg, out_dir=tmp_path / "run"))
        assert n_t > 1
        assert (peak <= (n_t + 3) * f.nbytes + stacks + self.held_beside_states(work)
                + 2 * 8 * work.block_size)

    def test_seed_override_lands_in_hash_and_meta(self, tmp_path):
        cfg = config_from_dict(base_dict(solver={
            "method": "mc", "gamma0_per_s": 1e13, "n_particles": 200,
            "mc_targets": [{"m_index": [0, 0], "position_nm": [0.0, 0.0]}],
        }))
        product = run_simulation(cfg, out_dir=tmp_path / "mc", seed=42)
        meta = json.loads(product.meta_path.read_text())
        assert meta["effective_seed"] == 42
        assert product.config_hash == cfg.with_seed(42).sha256()
        assert product.config_hash != cfg.sha256()

    def test_mc_results_table_shape(self, tmp_path):
        cfg = config_from_dict(base_dict(solver={
            "method": "mc", "gamma0_per_s": 1e13, "n_particles": 300,
            "mc_targets": [{"m_index": [1, 0], "position_nm": [0.0, 0.0]},
                           {"m_index": [0, 0], "position_nm": [10.0, 0.0]}],
        }))
        product = run_simulation(cfg, out_dir=tmp_path / "mc")
        _, cols, data = read_table(product.out_dir / "mc_results.tsv")
        assert cols[:4] == ["m_x", "m_y", "x(m)", "y(m)"]
        assert data.shape == (2, 10)
        assert np.all(np.isfinite(data))

    def test_fredholm_writes_residual_history(self, tmp_path):
        cfg = config_from_dict(base_dict(solver={
            "method": "fredholm", "gamma0_per_s": 2e13,
            "fredholm_tol": 1e-8, "fredholm_max_iter": 300}))
        product = run_simulation(cfg, out_dir=tmp_path / "fred")
        meta = json.loads(product.meta_path.read_text())
        _, cols, data = read_table(product.out_dir / "fredholm_residuals.tsv")
        scfg = cfg.build_solver_config()
        n_t = round(scfg.t_end / scfg.dt)
        assert cols == ["level", "relative_residual"]
        assert data.shape == (n_t, 2) and n_t > 1
        np.testing.assert_array_equal(data[:, 0], np.arange(1, n_t + 1))
        assert np.all(data[:, 1] <= 1e-8)
        assert meta["fredholm_sweeps"] >= n_t

    def test_magnitude_report_rows(self, tmp_path):
        cfg = config_from_dict(base_dict())
        report, path = magnitude_report(cfg, out_dir=tmp_path)
        assert report.kinetic_rate > 0
        got_hash, cols, data = read_table(path)
        assert cols == ["term", "value"]
        assert got_hash == cfg.sha256()
        names = [row[0] for row in data]
        assert "kinetic(1/s)" in names and "ratio_factor_I" in names
        assert all(isinstance(row[1], float) for row in data)

    def test_magnitude_report_reads_the_config_constants(self):
        # the constants reach term_magnitudes only through the config's grid
        light, _ = magnitude_report(config_from_dict(base_dict()))
        heavy, _ = magnitude_report(config_from_dict(
            base_dict(constants={"mass_kg": 2.0 * sdwigner.SI.mass})))
        assert heavy.kinetic_rate == pytest.approx(0.5 * light.kinetic_rate, rel=1e-12)
        assert heavy.ratio_factor_I == light.ratio_factor_I


class TestCLI:
    def cfg_file(self, tmp_path, **sections):
        return write_json(tmp_path, base_dict(**sections))

    def test_validate_prints_hash(self, tmp_path, capsys):
        path = self.cfg_file(tmp_path)
        assert cli_main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        cfg = load_config(path)
        assert f"sha256={cfg.sha256()}" in out
        assert "method=semidiscrete" in out

    def test_validate_exit_code_for_schema_errors(self, tmp_path, capsys):
        path = write_json(tmp_path, base_dict(grid={"omega_extent_nm": 150.0}))
        assert cli_main(["validate", str(path)]) == 2
        assert "bounded-domain" in capsys.readouterr().err

    def test_state_on_another_grid_exits_2_before_writing(self, tmp_path, capsys):
        # both lattices are 9 x 9 x 8 x 8: only the lengths and the mass differ
        grid = make_grid(2, (200e-9, 200e-9), (100e-9, 100e-9), (8, 8), (4, 4),
                         PhysicalConstants(mass=2e-31))
        write_state(tmp_path / "init.sdwg",
                    WignerState(grid=grid, values=np.zeros(grid.state_shape), time=0.0))
        path = self.cfg_file(tmp_path, grid={"coherence_length_nm": 400.0,
                                             "omega_extent_nm": 150.0})
        d = json.loads(path.read_text())
        d["initial_state"] = {"type": "file", "file": "init.sdwg"}
        write_json(tmp_path, d)
        out = tmp_path / "run"
        for command in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            assert cli_main(command) == 2
            assert "initial_state.file: the state's grid has coherence_length" in \
                capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("m_index", [[99, 0], [0, -7]])
    def test_target_off_the_momentum_lattice_exits_2_before_writing(self, tmp_path, capsys,
                                                                     m_index):
        d = json.loads((REPO / "configs" / "mc_point_probe.json").read_text())
        d["solver"]["mc_targets"][1]["m_index"] = m_index
        path = write_json(tmp_path, d)
        out = tmp_path / "run"
        for command in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            assert cli_main(command) == 2
            err = capsys.readouterr().err
            assert "solver.mc_targets[1].m_index" in err and "|m| <= n_p" in err
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert cli_main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_run_then_diff_and_tolerance(self, tmp_path, capsys):
        path = self.cfg_file(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["run", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        first = str(out / "state_000000.sdwg")
        final = str(out / "state_final.sdwg")
        assert cli_main(["diff", first, final]) == 0
        value = float(capsys.readouterr().out.splitlines()[0].split()[1])
        assert value > 0
        assert cli_main(["diff", first, final, "--tol", "1e-9"]) == 1
        capsys.readouterr()
        assert cli_main(["diff", final, final, "--tol", "0"]) == 0
        assert "relative_l2 0" in capsys.readouterr().out

    def test_numeric_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # a resolvent state of 13 x 13 x 8 x 8 cells is large enough for a
        # threaded BLAS dot product to split its sum, which once moved the
        # last digits of the residuals; so was a diffed pair of 0.7M cells
        path = self.cfg_file(tmp_path, grid={"n_x": [8, 8], "n_p": [6, 6]},
                             field={"b1_T_per_m": 1.0e7}, solver={
                                 "method": "fredholm", "dt_fs": 20.0, "t_end_fs": 60.0,
                                 "stencil_order": 4, "gamma0_per_s": 2.0e13,
                                 "fredholm_tol": 1e-9, "fredholm_max_iter": 400})
        pair = [str(write_state(tmp_path / f"{name}.sdwg", state, "0" * 64))
                for name, state in zip("ab", large_state_pair())]
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p))
            subprocess.run([sys.executable, "-m", "sdwigner", "run", str(path),
                            "--out", str(out)], env=env, check=True, capture_output=True)
            diff = subprocess.run([sys.executable, "-m", "sdwigner", "diff", *pair], env=env,
                                  check=True, capture_output=True, text=True).stdout
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                     if p.suffix in (".tsv", ".sdwg")}
            outputs.append((diff.splitlines()[0], files))
        assert outputs[0][0].startswith("relative_l2 ")
        assert "fredholm_residuals.tsv" in outputs[0][1] and "state_final.sdwg" in outputs[0][1]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("spoiled", ["a", "b"])
    def test_diff_fails_a_non_finite_difference(self, tmp_path, capsys, spoiled):
        # NaN > tol is False, which once let a NaN difference pass --tol
        grid = make_grid(2, (200e-9, 200e-9), (100e-9, 100e-9), (6, 6), (3, 3))
        state = gaussian_wigner(grid, center=(0.0, 0.0), sigma_x=(20e-9, 20e-9))
        nan = WignerState(grid, state.values.copy())
        nan.values[1, 2, 3, 4] = np.nan
        paths = {name: str(write_state(tmp_path / f"{name}.sdwg",
                                       nan if name == spoiled else state, "0" * 64))
                 for name in "ab"}
        assert cli_main(["diff", paths["a"], paths["b"]]) == 0
        assert capsys.readouterr().out.startswith("relative_l2 nan")
        assert cli_main(["diff", paths["a"], paths["b"], "--tol", "1e-8"]) == 1
        assert "exceeds tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1e-9", "nan", "inf", "-inf"])
    def test_diff_refuses_a_bad_tolerance_before_reading(self, tmp_path, capsys, tol):
        # the files do not exist: reading either would exit 1
        missing = [str(tmp_path / "a.sdwg"), str(tmp_path / "b.sdwg")]
        assert cli_main(["diff", *missing, f"--tol={tol}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --tol must be finite and >= 0")

    def test_diff_notes_hash_mismatch(self, tmp_path, capsys):
        grid = make_grid(2, (200e-9, 200e-9), (100e-9, 100e-9), (6, 6), (3, 3))
        state = gaussian_wigner(grid, center=(0.0, 0.0), sigma_x=(20e-9, 20e-9))
        a = write_state(tmp_path / "a.sdwg", state, "a" * 64)
        b = write_state(tmp_path / "b.sdwg", state, "b" * 64)
        assert cli_main(["diff", str(a), str(b)]) == 0
        assert "config hashes differ" in capsys.readouterr().out

    def test_run_reports_a_stalled_resolvent(self, tmp_path, capsys):
        path = self.cfg_file(tmp_path, solver={
            "method": "fredholm", "gamma0_per_s": 2e13, "fredholm_max_iter": 1})
        assert cli_main(["run", str(path), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: integral solver stalled")
        meta = json.loads((tmp_path / "run" / "run_meta.json").read_text())
        assert meta["error"].startswith(FredholmConvergenceError.__name__)

    def test_run_reports_an_unstable_step(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(semidiscrete, "make_rhs",
                            lambda *args: lambda v, out, *stage: out.fill(np.nan))
        path = self.cfg_file(tmp_path)
        assert cli_main(["run", str(path), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: state turned non-finite")

    @pytest.mark.parametrize("b0_T, code, status", [(36.0, 1, "failed"), (30.0, 0, "complete")])
    def test_run_fails_on_a_step_that_grows_the_norm(self, tmp_path, capsys, b0_T, code, status):
        # the shipped cyclotron run in a stronger field: dt times the
        # generator's spectral radius passes RK4's reach 2 sqrt 2 at 36 T
        # (3.13), where the run once ended `complete` with mass -6.7e32, and
        # stays below it at 30 T (2.66)
        d = json.loads((REPO / "configs" / "cyclotron.json").read_text())
        d["field"]["b0_T"] = b0_T
        out = tmp_path / "run"
        assert cli_main(["run", str(write_json(tmp_path, d)), "--out", str(out)]) == code
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["status"] == status
        assert (out / "state_final.sdwg").exists() == (status == "complete")
        if status == "failed":
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: norm grew by")

    def test_run_reports_a_walk_that_never_ends(self, tmp_path, capsys, monkeypatch):
        # m = (0, 0) has no hop rate in uniform B and would end in one round;
        # at m = (4, 0) about 8 of the walkers hop in the first round
        monkeypatch.setattr(montecarlo, "_MAX_ROUNDS", 1)
        path = self.cfg_file(tmp_path, solver={
            "method": "mc", "gamma0_per_s": 1e13, "n_particles": 120,
            "mc_targets": [{"m_index": [4, 0], "position_nm": [0.0, 0.0]}],
        })
        assert cli_main(["run", str(path), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: backward walk failed to terminate")
        meta = json.loads((tmp_path / "run" / "run_meta.json").read_text())
        assert meta["status"] == "failed"

    def test_run_reports_a_non_finite_estimate(self, tmp_path, capsys, monkeypatch):
        def nan_state(self, grid):
            return WignerState(grid, np.full(grid.state_shape, np.nan))
        monkeypatch.setattr(SimulationConfig, "build_initial_state", nan_state)
        path = self.cfg_file(tmp_path, solver={
            "method": "mc", "gamma0_per_s": 1e13, "n_particles": 120,
            "mc_targets": [{"m_index": [0, 0], "position_nm": [0.0, 0.0]}],
        })
        assert cli_main(["run", str(path), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: backward walk estimate turned non-finite")
        meta = json.loads((tmp_path / "run" / "run_meta.json").read_text())
        assert meta["status"] == "failed"
        assert not (tmp_path / "run" / "mc_results.tsv").exists()

    def test_diff_reports_a_truncated_header(self, tmp_path, capsys):
        grid = make_grid(2, (200e-9, 200e-9), (100e-9, 100e-9), (6, 6), (3, 3))
        state = gaussian_wigner(grid, center=(0.0, 0.0), sigma_x=(20e-9, 20e-9))
        good = write_state(tmp_path / "a.sdwg", state, "a" * 64)
        cut = tmp_path / "cut.sdwg"
        cut.write_bytes(good.read_bytes()[:20])
        assert cli_main(["diff", str(good), str(cut)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "header cut short" in err[0]

    def test_magnitudes_prints_and_writes(self, tmp_path, capsys):
        path = self.cfg_file(tmp_path)
        assert cli_main(["magnitudes", str(path), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "kinetic" in out and "1/s" in out
        assert (tmp_path / "magnitude_report.tsv").exists()

    def test_emit_plot_density_contract(self, tmp_path, capsys):
        path = self.cfg_file(tmp_path)
        out = tmp_path / "run"
        cli_main(["run", str(path), "--out", str(out)])
        capsys.readouterr()
        assert cli_main(["emit-plot", str(out), "--what", "density"]) == 0
        _, cols, data = read_table(out / "density.tsv")
        assert cols == ["t(s)", "x(m)", "y(m)", "n"]
        assert data.shape[0] == 3 * 8 * 8   # snapshots at steps 0, 2, final
        # stencil ripple can undershoot zero, but only marginally
        assert data[:, 3].min() >= -1e-6 * data[:, 3].max()

    def test_emit_plot_mass_and_momentum(self, tmp_path, capsys):
        path = self.cfg_file(tmp_path)
        out = tmp_path / "run"
        cli_main(["run", str(path), "--out", str(out)])
        capsys.readouterr()
        assert cli_main(["emit-plot", str(out), "--what", "mass"]) == 0
        _, cols, data = read_table(out / "mass.tsv")
        assert cols == ["t(s)", "mass"]
        np.testing.assert_allclose(data[:, 1], 1.0, rtol=1e-4)
        assert cli_main(["emit-plot", str(out), "--what", "mean-momentum"]) == 0
        _, cols, _ = read_table(out / "mean_momentum.tsv")
        assert cols == ["t(s)", "x(m)", "y(m)", "px(kg*m/s)", "py(kg*m/s)"]

    def test_emit_plot_wigner_slice(self, tmp_path, capsys):
        path = self.cfg_file(tmp_path)
        out = tmp_path / "run"
        cli_main(["run", str(path), "--out", str(out)])
        capsys.readouterr()
        assert cli_main(["emit-plot", str(out), "--what", "wigner-slice",
                         "--fixed-my", "1", "--fixed-y-index", "3"]) == 0
        _, cols, data = read_table(out / "wigner_slice.tsv")
        assert cols == ["t(s)", "p_x(kg*m/s)", "x(m)", "f"]
        assert data.shape[0] == 3 * 9 * 8   # states x momentum slots x x-cells
        assert cli_main(["emit-plot", str(out), "--what", "wigner-slice",
                         "--fixed-my", "99"]) == 1
        assert "momentum lattice" in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["mass", "wigner-slice", "density", "mean-momentum"])
    def test_emit_plot_holds_one_snapshot_at_a_time(self, tmp_path, capsys, what):
        """emit-plot orders the snapshots by the times in their headers,
        then loads, tabulates and drops one state at a time, so five
        snapshots peak below two states; reading them all first took five.
        The density and mean-momentum tables take their momentum moments
        with no state-sized product, which took about 2.1 states."""
        path = self.cfg_file(tmp_path, grid={"n_x": [24, 24], "n_p": [6, 6]},
                             output={"snapshot_every": 1})
        out = tmp_path / "run"
        cli_main(["run", str(path), "--out", str(out)])
        snapshots = sorted(out.glob("state_*.sdwg"))
        state = read_state(snapshots[0])[0].values.nbytes
        command = ["emit-plot", str(out), "--what", what]
        assert cli_main(command) == 0
        peak = allocation_peak(lambda: cli_main(command))
        capsys.readouterr()
        assert len(snapshots) == 5
        assert peak <= 2 * state

    def test_emit_plot_requires_a_run_dir(self, tmp_path, capsys):
        assert cli_main(["emit-plot", str(tmp_path), "--what", "mass"]) == 1
        assert "run_meta.json" in capsys.readouterr().err

    def test_emit_plot_requires_snapshots(self, tmp_path, capsys):
        path = self.cfg_file(tmp_path, output={"binary_states": False,
                                               "snapshot_every": 0})
        out = tmp_path / "run"
        cli_main(["run", str(path), "--out", str(out)])
        capsys.readouterr()
        assert cli_main(["emit-plot", str(out), "--what", "mass"]) == 1
        assert "snapshots" in capsys.readouterr().err

    def test_env_var_sets_output_dir(self, tmp_path, capsys, monkeypatch):
        path = self.cfg_file(tmp_path)
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("SDWIGNER_OUT", str(env_dir))
        assert cli_main(["run", str(path)]) == 0
        assert (env_dir / "run_meta.json").exists()
        flag_dir = tmp_path / "flag_out"
        assert cli_main(["run", str(path), "--out", str(flag_dir)]) == 0
        assert (flag_dir / "run_meta.json").exists()

    def test_negative_seed_flag_fails_before_any_file(self, tmp_path, capsys):
        path = self.cfg_file(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["run", str(path), "--out", str(out), "--seed", "-3"]) == 2
        assert "solver.rng_seed: must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_flag_is_gone(self, tmp_path, capsys):
        # estimates depend on the config and seed alone; no knob splits them
        path = self.cfg_file(tmp_path)
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_:
            cli_main(["run", str(path), "--out", str(out), "--workers", "2"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_reaches_the_estimator(self, tmp_path, capsys):
        path = self.cfg_file(tmp_path, solver={
            "method": "mc", "gamma0_per_s": 1e13, "n_particles": 120,
            "mc_targets": [{"m_index": [0, 0], "position_nm": [0.0, 0.0]}],
        })
        a, b, c = (tmp_path / n for n in ("s1", "s1_again", "s2"))
        for d, seed in ((a, "9"), (b, "9"), (c, "10")):
            assert cli_main(["run", str(path), "--out", str(d),
                             "--seed", seed]) == 0
        read = lambda d: (d / "mc_results.tsv").read_bytes()
        assert read(a) == read(b)
        assert read(a) != read(c)


def test_exports_resolve_and_are_listed_once():
    for module in (sdwigner, sdwigner.solvers):
        names = module.__all__
        assert len(names) == len(set(names)), module.__name__
        assert [n for n in names if not hasattr(module, n)] == [], module.__name__


def test_constants_enter_only_through_make_grid():
    # every exported function reads hbar, charge and mass from grid.constants
    takes = {name: inspect.signature(obj).parameters
             for name, obj in vars(sdwigner).items()
             if name in sdwigner.__all__ and inspect.isfunction(obj)}
    assert sorted(n for n, params in takes.items() if "constants" in params) == ["make_grid"]
    assert "dx" not in takes["term_magnitudes"]


def test_no_module_imports_a_private_name_of_another():
    # a helper that two modules share is named as shared, without the underscore
    offenders = []
    for path in sorted((REPO / "src" / "sdwigner").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("sdwigner")):
                offenders += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert offenders == []


def test_every_traced_name_is_a_package_function():
    # the tracer wraps functions by name and reports a missing one as absent,
    # so a rename in src/ would silently drop a traced layer
    tracer = ast.parse((REPO / "bench" / "tracer.py").read_text())
    targets = next(node.value for node in tracer.body if isinstance(node, ast.AnnAssign)
                   and getattr(node.target, "id", "") == "TARGETS")
    names = {ast.literal_eval(key) for key in targets.keys}
    defined = {node.name for path in (REPO / "src" / "sdwigner").rglob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef)}
    assert len(names) > 10
    assert sorted(names - defined) == []
