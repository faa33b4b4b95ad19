import csv
import json

import numpy as np
import pytest

from conftest import SX, SZ, random_hermitian
from nlqd.cli import main
from nlqd.entanglement import BipartiteDynamics, BipartiteState, evolve_bipartite
from nlqd.errors import ValidationError
from nlqd.generators import GammaFamily, GeneratorSpec, TFamily, random_density_matrix
from nlqd.io import (
    SCHEMA_ID,
    generator_spec_from_json,
    generator_spec_to_json,
    integrator_from_json,
    load_scenario,
    matrix_from_json,
    matrix_to_json,
    schema_document,
    trajectory_to_csv,
    verify_csv,
)
from nlqd.linalg import max_abs
from nlqd.propagation import IntegratorConfig, evolve


def write_scenario(path, kind, payload, seed=0, output_path=None):
    obj = {"schema": SCHEMA_ID, "kind": kind, "payload": payload, "seed": seed}
    if output_path:
        obj["output_path"] = str(output_path)
    path.write_text(json.dumps(obj))
    return str(path)


def evolve_payload(rho0, spec, dt=1e-2, t_final=0.2):
    return {
        "rho0": matrix_to_json(rho0),
        "generator": generator_spec_to_json(spec),
        "integrator": {"dt": dt, "t_final": t_final},
    }


class TestMatrixJson:
    def test_round_trip(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert max_abs(matrix_from_json(matrix_to_json(m)) - m) == 0.0

    def test_missing_im_defaults_to_zero(self):
        m = matrix_from_json({"dim": 2, "re": [1, 0, 0, 1]})
        assert max_abs(m - np.eye(2)) == 0.0

    def test_bad_entry_count(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"dim": 2, "re": [1, 0, 0]})


class TestSpecJson:
    def test_round_trip_all_families(self, rng):
        for gam in (
            GammaFamily("none"),
            GammaFamily("zeroMean", sigma=0.7, r=1.5),
            GammaFamily("energyConserving", sigma=0.3, r=2.0),
            GammaFamily("nonEssential", r=2.0, A=SX),
        ):
            spec = GeneratorSpec(
                H=random_hermitian(2, rng), t_family=TFamily("powerLaw", q=1.3), gamma_family=gam
            )
            back = generator_spec_from_json(generator_spec_to_json(spec))
            assert max_abs(back.H - spec.H) == 0.0
            assert back.t_family == spec.t_family
            assert back.gamma_family.family == gam.family
            assert back.gamma_family.sigma == gam.sigma
            assert back.gamma_family.r == gam.r

    def test_non_essential_writes_no_sigma(self):
        spec = GeneratorSpec(H=SZ, gamma_family=GammaFamily("nonEssential", r=2.0, A=SX))
        obj = generator_spec_to_json(spec)
        assert "sigma" not in obj["gamma"]
        obj["gamma"]["sigma"] = 0.5
        with pytest.raises(ValidationError):
            generator_spec_from_json(obj)

    def test_defaults(self):
        spec = generator_spec_from_json({"H": matrix_to_json(SZ)})
        assert spec.t_family.family == "vonNeumann"
        assert spec.gamma_family.family == "none"

    @pytest.mark.parametrize("record", ["generator", "t", "gamma"])
    def test_generator_rejects_unknown_key(self, record):
        # a misspelled "sigam" would otherwise run zeroMean with sigma = 0
        obj = {"H": matrix_to_json(SZ), "t": {"family": "vonNeumann"}, "gamma": {"family": "zeroMean"}}
        (obj if record == "generator" else obj[record])["sigam"] = 0.5
        with pytest.raises(ValidationError):
            generator_spec_from_json(obj)

    def test_integrator_round_trip(self):
        cfg = integrator_from_json({"dt": 1e-3, "t_final": 2.0, "monitor_stride": 10})
        assert cfg.dt == 1e-3 and cfg.n_steps == 2000 and cfg.monitor_stride == 10

    def test_integrator_rejects_unknown_key(self):
        with pytest.raises(ValidationError):
            integrator_from_json({"dt": 1e-3, "t_final": 1.0, "renormalize_each_step": False})

    def test_integrator_missing_key(self):
        with pytest.raises(ValidationError):
            integrator_from_json({"dt": 1e-3})


class TestScenarioLoading:
    def test_round_trip(self, tmp_path):
        p = write_scenario(tmp_path / "s.json", "evolve", {"x": 1}, seed=7)
        sc = load_scenario(p)
        assert sc.kind == "evolve" and sc.seed == 7 and sc.payload == {"x": 1}

    def test_missing_schema_marker(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"kind": "evolve", "payload": {}}))
        with pytest.raises(ValidationError):
            load_scenario(str(f))

    def test_unknown_kind(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"schema": SCHEMA_ID, "kind": "nope", "payload": {}}))
        with pytest.raises(ValidationError):
            load_scenario(str(f))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_scenario(str(tmp_path / "missing.json"))


class TestCsv:
    def run_traj(self, rng):
        spec = GeneratorSpec(H=SZ + 0.2 * SX, t_family=TFamily("powerLaw", q=1.0))
        return evolve(
            random_density_matrix(2, rng),
            spec,
            IntegratorConfig(dt=1e-2, t_final=0.2, monitor_stride=5),
        )

    def test_export_and_verify(self, tmp_path, rng):
        traj = self.run_traj(rng)
        out = tmp_path / "t.csv"
        trajectory_to_csv(traj, str(out))
        rep = verify_csv(str(out))
        assert rep["ok"] and rep["rows"] == len(traj.times)

    def test_dump_states_full_audit(self, tmp_path, rng):
        traj = self.run_traj(rng)
        out = tmp_path / "t.csv"
        trajectory_to_csv(traj, str(out), dump_states=True)
        rep = verify_csv(str(out))
        assert rep["ok"]
        header = out.read_text().splitlines()[0]
        assert "re_0_0" in header and "im_1_1" in header

    def test_deterministic_bytes(self, tmp_path, rng):
        traj = self.run_traj(rng)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        trajectory_to_csv(traj, str(a), dump_states=True)
        trajectory_to_csv(traj, str(b), dump_states=True)
        assert a.read_bytes() == b.read_bytes()

    def test_bipartite_columns_are_the_monitor_channels(self, tmp_path, rng):
        state = BipartiteState(d_H=2, d_K=2, matrix=random_density_matrix(4, rng))
        dyn = BipartiteDynamics(spec_H=GeneratorSpec(H=SZ, t_family=TFamily("powerLaw", q=1.0)))
        traj = evolve_bipartite(state, dyn, IntegratorConfig(dt=1e-2, t_final=0.2, monitor_stride=5))
        out = tmp_path / "b.csv"
        trajectory_to_csv(traj, str(out))
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        assert header == ["t", "trace", "energy", "purity", "entropy"] + [
            f"eig_{i}" for i in range(1, 5)
        ] + ["entropy_H", "entropy_K", "mutual_info"]
        assert len(set(header)) == len(header)
        table = np.array([[float(x) for x in row] for row in rows[1:]])
        assert np.array_equal(table[:, 0], traj.times)
        assert np.array_equal(table[:, 5:9], traj.monitors["eigenvalues"])
        for name in ("trace", "energy", "purity", "entropy", "entropy_H", "entropy_K", "mutual_info"):
            assert np.array_equal(table[:, header.index(name)], traj.monitors[name]), name

    def test_verify_catches_corruption(self, tmp_path, rng):
        traj = self.run_traj(rng)
        out = tmp_path / "t.csv"
        trajectory_to_csv(traj, str(out))
        lines = out.read_text().splitlines()
        cols = lines[1].split(",")
        cols[1] = "1.5"  # break the trace column
        lines[1] = ",".join(cols)
        out.write_text("\n".join(lines) + "\n")
        rep = verify_csv(str(out))
        assert not rep["ok"] and rep["problems"]


class TestCliEndToEnd:
    def test_run_evolve_exit_zero(self, tmp_path, rng):
        rho0 = random_density_matrix(2, rng)
        out = tmp_path / "traj.csv"
        p = write_scenario(
            tmp_path / "s.json",
            "evolve",
            evolve_payload(rho0, GeneratorSpec(H=SZ)),
            output_path=out,
        )
        assert main(["run", p]) == 0
        assert verify_csv(str(out))["ok"]

    def test_dt_override(self, tmp_path, rng):
        rho0 = random_density_matrix(2, rng)
        out = tmp_path / "traj.csv"
        p = write_scenario(
            tmp_path / "s.json",
            "evolve",
            evolve_payload(rho0, GeneratorSpec(H=SZ), dt=1e-2, t_final=0.1),
            output_path=out,
        )
        assert main(["run", p, "--dt", "5e-3"]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + 21  # header + 20 steps + initial point

    def test_dt_off_grid_exit_one(self, tmp_path, rng):
        out = tmp_path / "traj.csv"
        p = write_scenario(
            tmp_path / "s.json",
            "evolve",
            evolve_payload(random_density_matrix(2, rng), GeneratorSpec(H=SZ), t_final=0.1),
            output_path=out,
        )
        assert main(["run", p, "--dt", "0.03"]) == 1
        assert not out.exists()

    def test_unknown_integrator_key_exit_one(self, tmp_path, rng):
        # an old scenario asking for no renormalization must not run renormalized
        out = tmp_path / "traj.csv"
        payload = evolve_payload(random_density_matrix(2, rng), GeneratorSpec(H=SZ))
        payload["integrator"]["renormalize_each_step"] = False
        p = write_scenario(tmp_path / "s.json", "evolve", payload, output_path=out)
        assert main(["run", p]) == 1
        assert not out.exists()

    def test_misspelled_generator_key_exit_one(self, tmp_path, rng):
        out = tmp_path / "traj.csv"
        payload = evolve_payload(random_density_matrix(2, rng), GeneratorSpec(H=SZ))
        payload["generator"]["gamma"] = {"family": "zeroMean", "sigam": 0.5}
        p = write_scenario(tmp_path / "s.json", "evolve", payload, output_path=out)
        assert main(["run", p]) == 1
        assert not out.exists()

    def test_dimension_mismatch_exit_one(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        payload = evolve_payload(np.eye(3) / 3, GeneratorSpec(H=SZ))
        p = write_scenario(tmp_path / "s.json", "evolve", payload, output_path=out)
        assert main(["run", p]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
        assert not out.exists()

    def test_validation_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["run", str(bad)]) == 1

    def test_numerical_exit_two(self, tmp_path):
        rho0 = np.diag([0.9, 0.1])
        spec = GeneratorSpec(H=50.0 * SX, gamma_family=GammaFamily("zeroMean", sigma=40.0, r=2.0))
        p = write_scenario(
            tmp_path / "s.json",
            "evolve",
            evolve_payload(rho0, spec, dt=0.5, t_final=5.0),
            output_path=tmp_path / "t.csv",
        )
        assert main(["run", p]) == 2

    def test_check_strict_exit_three(self, tmp_path):
        spec = GeneratorSpec(H=SZ, gamma_family=GammaFamily("zeroMean", sigma=1.0, r=2.0))
        report_path = tmp_path / "report.json"
        p = write_scenario(
            tmp_path / "c.json",
            "check",
            {
                "generator": generator_spec_to_json(spec),
                "dim": 2,
                "samples": 40,
                "checks": ["polchinski"],
            },
            seed=3,
            output_path=report_path,
        )
        assert main(["check", p, "--strict"]) == 3
        report = json.loads(report_path.read_text())
        assert report["checks"]["polchinski"]["essential_witnessed"]
        # the witness state must be serialized for reproduction
        w = matrix_from_json(report["checks"]["polchinski"]["witness"])
        assert abs(np.trace(w).real - 1.0) < 1e-9

    def test_check_passes_non_essential(self, tmp_path):
        spec = GeneratorSpec(H=SZ, gamma_family=GammaFamily("nonEssential", r=2.0, A=SX))
        p = write_scenario(
            tmp_path / "c.json",
            "check",
            {
                "generator": generator_spec_to_json(spec),
                "dim": 2,
                "samples": 40,
                "checks": ["zero_mean", "polchinski"],
            },
            output_path=tmp_path / "report.json",
        )
        assert main(["check", p, "--strict"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"]

    def test_check_seed_reproducible(self, tmp_path):
        spec = GeneratorSpec(H=SZ, gamma_family=GammaFamily("zeroMean", sigma=1.0, r=2.0))
        outs = []
        for name in ("r1.json", "r2.json"):
            p = write_scenario(
                tmp_path / f"s_{name}",
                "check",
                {
                    "generator": generator_spec_to_json(spec),
                    "dim": 2,
                    "samples": 20,
                    "checks": ["zero_mean"],
                },
                output_path=tmp_path / name,
            )
            assert main(["check", p, "--seed", "99"]) == 0
            outs.append(json.loads((tmp_path / name).read_text()))
        assert outs[0] == outs[1]

    def test_mixture_run(self, tmp_path, rng):
        rho0 = random_density_matrix(2, rng)
        out = tmp_path / "m.csv"
        p = write_scenario(
            tmp_path / "m.json",
            "mixture",
            {
                "rho0": matrix_to_json(rho0),
                "weights": [0.5, 0.5],
                "generators": [
                    generator_spec_to_json(GeneratorSpec(H=SX)),
                    generator_spec_to_json(GeneratorSpec(H=SZ)),
                ],
                "integrator": {"dt": 1e-2, "t_final": 0.2},
            },
            output_path=out,
        )
        assert main(["run", p]) == 0
        assert verify_csv(str(out))["ok"]

    def test_bipartite_run(self, tmp_path):
        from conftest import bell_state

        out = tmp_path / "b.csv"
        p = write_scenario(
            tmp_path / "b.json",
            "evolve_bipartite",
            {
                "rho0": matrix_to_json(bell_state()),
                "dims": {"d_H": 2, "d_K": 2},
                "generator_H": generator_spec_to_json(
                    GeneratorSpec(H=SZ, t_family=TFamily("powerLaw", q=1.0))
                ),
                "integrator": {"dt": 1e-2, "t_final": 0.2},
            },
            output_path=out,
        )
        assert main(["run", p]) == 0
        header = out.read_text().splitlines()[0]
        assert "mutual_info" in header and "entropy_H" in header

    def test_correlation_run(self, tmp_path, capsys):
        from conftest import singlet_state

        out = tmp_path / "corr.json"
        p = write_scenario(
            tmp_path / "corr_s.json",
            "measure_correlation",
            {
                "rho0": matrix_to_json(singlet_state()),
                "dims": {"d_H": 2, "d_K": 2},
                "generator_H": generator_spec_to_json(GeneratorSpec(H=SZ)),
                "t0": 0.0,
                "t1": 0.1,
                "t2": 0.2,
                "P_H": matrix_to_json(np.diag([1.0, 0.0])),
                "P_K": matrix_to_json(np.diag([0.0, 1.0])),
                "integrator": {"dt": 1e-3, "t_final": 1.0},
            },
            output_path=out,
        )
        assert main(["run", p]) == 0
        report = json.loads(out.read_text())
        assert report["p_first"] == pytest.approx(0.5, abs=1e-9)
        assert report["p_conditional"] == pytest.approx(1.0, abs=1e-8)

    def test_verify_subcommand(self, tmp_path, rng):
        traj = evolve(
            random_density_matrix(2, rng), GeneratorSpec(H=SZ), IntegratorConfig(dt=1e-2, t_final=0.1)
        )
        out = tmp_path / "v.csv"
        trajectory_to_csv(traj, str(out))
        assert main(["verify", str(out)]) == 0

    def test_schema_subcommand(self, capsys):
        assert main(["schema"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == SCHEMA_ID
        assert set(doc["payload"]) == {
            "evolve",
            "evolve_bipartite",
            "mixture",
            "measure_correlation",
            "check",
        }
        assert schema_document() == doc
