import csv
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from conftest import SX, SZ, bell_state, random_hermitian
from nlqd import cli as cli_module
from nlqd import io as io_module
from nlqd.cli import main
from nlqd.entanglement import BipartiteDynamics, BipartiteState, evolve_bipartite
from nlqd.errors import ValidationError
from nlqd.generators import GammaFamily, GeneratorSpec, TFamily, random_density_matrix
from nlqd.linalg import EIG_NEG_TOL, state_violation
from nlqd.io import (
    SCHEMA_ID,
    generator_spec_from_json,
    generator_spec_to_json,
    integrator_from_json,
    load_scenario,
    matrix_from_json,
    matrix_to_json,
    scenario_inputs,
    schema_document,
    trajectory_to_csv,
    verify_csv,
)
from nlqd.linalg import max_abs
from nlqd.propagation import (
    RECORD_HERM_TOL,
    RECORD_TRACE_TOL,
    IntegratorConfig,
    MixtureSpec,
    Trajectory,
    evolve,
    evolve_convex_mixture,
)


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


def reference_csv(traj, path, dump_states=False):
    """The CSV writer as it was before the table writer: csv.writer, one
    formatted cell at a time.  The byte reference."""
    n = len(traj.times)
    header, columns = ["t"], [np.reshape(traj.times, (n, 1))]
    for name, values in traj.monitors.items():
        values = np.asarray(values)
        if values.ndim == 1:
            header.append(name)
        else:
            header += [f"{'eig' if name == 'eigenvalues' else name}_{i + 1}" for i in range(values.shape[1])]
        columns.append(values.reshape(n, -1))
    if dump_states:
        s = np.array(traj.states)
        d = s.shape[1]
        header += [f"{part}_{i}_{j}" for i in range(d) for j in range(d) for part in ("re", "im")]
        columns.append(np.stack([s.real, s.imag], axis=-1).reshape(n, -1))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.hstack(columns):
            writer.writerow(["%.17g" % x for x in row])


def reference_verify(path):
    """verify_csv as a walk over the rows, one dict and one state at a time,
    as it was before the table check, with the t column check added.  The
    report reference."""

    def cell(row, n, column):
        value = row.get(column)
        if value is None:
            raise ValidationError(f"row {n} has no cell in column {column!r}")
        try:
            return float(value)
        except ValueError:
            raise ValidationError(f"row {n}, column {column!r}: {value!r} is not a number") from None

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise ValidationError("empty CSV")
    eig_columns = [k for k in reader.fieldnames if k.startswith("eig_")]
    d = int(round(np.sqrt(sum(1 for k in reader.fieldnames if k.startswith("re_")))))
    problems, before = [], None
    for n, row in enumerate(rows, start=1):
        if None in row:
            raise ValidationError(f"row {n} has more cells than the header")
        t = cell(row, n, "t")
        if not np.isfinite(t):
            problems.append(f"t={t}: t is not finite")
        elif before is not None and np.isfinite(before) and not t > before:
            problems.append(f"t={t}: t is not greater than the row before")
        before = t
        if not abs(cell(row, n, "trace") - 1.0) <= RECORD_TRACE_TOL:
            problems.append(f"t={t}: trace off by more than {RECORD_TRACE_TOL}")
        eigs = [cell(row, n, k) for k in eig_columns]
        if eigs and not np.min(eigs) >= -EIG_NEG_TOL:
            problems.append(f"t={t}: eigenvalue below -{EIG_NEG_TOL}")
        if d:
            m = np.array(
                [[cell(row, n, f"re_{i}_{j}") + 1j * cell(row, n, f"im_{i}_{j}") for j in range(d)] for i in range(d)]
            )
            problem = state_violation(m, RECORD_HERM_TOL, RECORD_TRACE_TOL, EIG_NEG_TOL)
            if problem:
                problems.append(f"t={t}: state {problem}")
    return {"rows": len(rows), "ok": not problems, "problems": problems}


# The columns of a 2 x 2 evolve CSV with dumped states.
EVOLVE_D2_COLUMNS = ["t", "trace", "energy", "purity", "entropy", "eig_1", "eig_2"] + [
    f"{part}_{i}_{j}" for i in range(2) for j in range(2) for part in ("re", "im")
]


def report_or_error(verify, path):
    try:
        return verify(path)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def layout_trajectories(rng):
    """One trajectory of each CSV column layout: evolve, evolve_bipartite and
    mixture; then the evolve one with nan, inf and -0.0 in a row."""
    cfg = IntegratorConfig(dt=1e-2, t_final=0.1, monitor_stride=2)
    spec = GeneratorSpec(H=SZ + 0.2 * SX, t_family=TFamily("powerLaw", q=1.3))
    single = evolve(random_density_matrix(2, rng), spec, cfg)
    state = BipartiteState(d_H=2, d_K=2, matrix=random_density_matrix(4, rng))
    joint = evolve_bipartite(state, BipartiteDynamics(spec_H=spec, spec_K=GeneratorSpec(H=SX)), cfg)
    mix = MixtureSpec([0.3, 0.7], [spec, GeneratorSpec(H=SX)])
    mixed = evolve_convex_mixture(random_density_matrix(2, rng), mix, cfg)
    monitors = {name: np.array(values, dtype=float) for name, values in single.monitors.items()}
    monitors["energy"][1], monitors["purity"][1], monitors["entropy"][1] = np.nan, np.inf, -0.0
    monitors["eigenvalues"][2] = [-np.inf, -0.0]
    states = [s.copy() for s in single.states]
    states[1][0, 1] = complex(-0.0, np.nan)
    odd = Trajectory(times=single.times, states=states, monitors=monitors)
    return {"evolve": single, "evolve_bipartite": joint, "mixture": mixed, "non_finite": odd}


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


    @pytest.mark.parametrize("column", ["trace", "re_0_0"])
    def test_verify_catches_nan(self, tmp_path, rng, column):
        traj = self.run_traj(rng)
        out = tmp_path / "t.csv"
        trajectory_to_csv(traj, str(out), dump_states=True)
        lines = out.read_text().splitlines()
        cols = lines[2].split(",")
        cols[lines[0].split(",").index(column)] = "nan"
        lines[2] = ",".join(cols)
        out.write_text("\n".join(lines) + "\n")
        rep = verify_csv(str(out))
        assert not rep["ok"] and len(rep["problems"]) >= 1


    def malformed(self, tmp_path, rng, edit):
        """A verified CSV with dumped states, its table of cells (header
        first) changed in place by edit."""
        out = tmp_path / "t.csv"
        trajectory_to_csv(self.run_traj(rng), str(out), dump_states=True)
        table = [line.split(",") for line in out.read_text().splitlines()]
        edit(table)
        out.write_text("".join(",".join(row) + "\n" for row in table))
        return str(out)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda table: table[0].__setitem__(1, "tr"), "row 1 has no cell in column 'trace'"),
            (lambda table: table[2].__setitem__(1, "abc"), "row 2, column 'trace': 'abc' is not a number"),
            (lambda table: table[3].pop(), "row 3 has no cell in column 'im_1_1'"),
            (lambda table: table[1].append("0"), "row 1 has more cells than the header"),
            (lambda table: table.__delitem__(slice(1, None)), "empty CSV"),
        ],
        ids=["missing_column", "non_numeric_cell", "short_row", "long_row", "header_only"],
    )
    def test_malformed_csv_exit_one(self, tmp_path, rng, capsys, edit, message):
        path = self.malformed(tmp_path, rng, edit)
        with pytest.raises(ValidationError, match=message):
            verify_csv(path)
        assert main(["verify", path]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValidationError" and message in record["message"]

    @pytest.mark.parametrize("content", [None, b"t,trace\n\xff\xfe,1\n"], ids=["missing", "not_utf8"])
    def test_unreadable_csv_exit_one(self, tmp_path, capsys, content):
        path = tmp_path / "t.csv"
        if content is not None:
            path.write_bytes(content)
        assert main(["verify", str(path)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValidationError" and "cannot read CSV file" in record["message"]


    @pytest.mark.parametrize("dump_states", [False, True], ids=["monitors", "states"])
    @pytest.mark.parametrize("layout", ["evolve", "evolve_bipartite", "mixture", "non_finite"])
    def test_csv_bytes_equal_the_per_cell_writer(self, tmp_path, rng, layout, dump_states):
        traj = layout_trajectories(rng)[layout]
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        trajectory_to_csv(traj, str(new), dump_states=dump_states)
        reference_csv(traj, str(ref), dump_states=dump_states)
        assert new.read_bytes() == ref.read_bytes()
        if layout == "non_finite":
            assert b",nan,inf,-0," in new.read_bytes()

    def spoiled(self, tmp_path, rng, d, edits, blank=False):
        """A CSV of a d x d run with dumped states, 21 data rows; edits maps a
        data row to (column, new cell) pairs, and blank adds blank lines."""
        spec = GeneratorSpec(H=np.diag(np.arange(d, dtype=float)), t_family=TFamily("powerLaw", q=1.3))
        traj = evolve(random_density_matrix(d, rng), spec, IntegratorConfig(dt=1e-2, t_final=0.2))
        out = tmp_path / f"d{d}.csv"
        trajectory_to_csv(traj, str(out), dump_states=True)
        table = [line.split(",") for line in out.read_text().splitlines()]
        header = table[0]
        for n, cells in edits.items():
            for column, value in cells:
                table[n][header.index(column)] = value(table[n][header.index(column)])
        lines = [",".join(row) for row in table]
        if blank:
            lines[3:3] = ["", ""]
            lines.append("")
        out.write_text("".join(line + "\r\n" for line in lines))
        return str(out)

    @pytest.mark.parametrize("d", [2, 4])
    def test_verify_report_equals_the_row_walk(self, tmp_path, rng, d):
        def plus(x):
            return lambda cell: repr(float(cell) + x)

        defects = {
            "nan_state": [("im_0_1", lambda cell: "nan")],
            "not_hermitian": [("im_0_1", plus(1e-3))],
            "state_trace": [("re_0_0", plus(1e-6))],
            "negative_eigenvalue": [("re_0_1", plus(2.0)), ("re_1_0", plus(2.0))],
            "eig_cell": [("eig_1", lambda cell: "-1e-9")],
            "trace_cell": [("trace", lambda cell: "1.1")],
        }
        edits = {}
        for k, cells in enumerate(defects.values()):
            for n in (2 + k, 9 + k, 16 + k % 3):
                edits.setdefault(n, []).extend(cells)
        for blank in (False, True):
            path = self.spoiled(tmp_path, rng, d, edits, blank)
            rep = verify_csv(path)
            assert rep == reference_verify(path)
            assert rep["rows"] == 21 and len({p.split(":")[0] for p in rep["problems"]}) == len(edits)

    @pytest.mark.parametrize(
        "edits",
        [
            {4: [(column, lambda cell: "") for column in EVOLVE_D2_COLUMNS]},
            {3: [("im_1_1", lambda cell: "x"), ("eig_2", lambda cell: "y")], 5: [("t", lambda cell: "z")]},
            {2: [("re_0_1", lambda cell: "nan"), ("trace", lambda cell: "1.0 1")]},
            {6: [("t", lambda cell: "1e400"), ("energy", lambda cell: "not checked")]},
        ],
        ids=["empty_cells", "first_row_first_column", "check_order", "unchecked_column"],
    )
    def test_verify_errors_equal_the_row_walk(self, tmp_path, rng, edits):
        path = self.spoiled(tmp_path, rng, 2, edits, blank=True)
        assert report_or_error(verify_csv, path) == report_or_error(reference_verify, path)

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda table: table.insert(3, table.pop(2)), "t={t2}: t is not greater than the row before"),
            (lambda table: table[3].__setitem__(0, table[2][0]), "t={t2}: t is not greater than the row before"),
            (lambda table: table[3].__setitem__(0, "nan"), "t=nan: t is not finite"),
        ],
        ids=["swapped_rows", "repeated_t", "nan_t"],
    )
    def test_verify_checks_the_t_column(self, tmp_path, rng, capsys, edit, problem):
        with open(self.malformed(tmp_path, rng, lambda table: None), newline="") as fh:
            t2 = float(list(csv.reader(fh))[2][0])
        path = self.malformed(tmp_path, rng, edit)
        rep = verify_csv(path)
        assert rep["problems"] == [problem.format(t2=t2)]
        assert main(["verify", path]) == 1
        assert json.loads(capsys.readouterr().out)["problems"] == rep["problems"]


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

    def test_mixture_error_names_the_branch(self, tmp_path, capsys):
        # the zeroMean branch 1 fails the drift bound at dt = 0.01
        p = write_scenario(
            tmp_path / "m.json",
            "mixture",
            {
                "rho0": matrix_to_json(np.diag([0.7, 0.3])),
                "weights": [0.5, 0.5],
                "generators": [
                    generator_spec_to_json(GeneratorSpec(H=SZ)),
                    generator_spec_to_json(GeneratorSpec(H=50.0 * SX, gamma_family=GammaFamily("zeroMean", sigma=40.0, r=2.0))),
                ],
                "integrator": {"dt": 1e-2, "t_final": 0.1},
            },
            output_path=tmp_path / "m.csv",
        )
        assert main(["run", p]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "StepSizeError", "message": "norm drift 3.080e-04 (branch 1) exceeds 1.0e-06; reduce dt"}
        assert not (tmp_path / "m.csv").exists()

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

    def test_check_dt_override(self, tmp_path, monkeypatch):
        # --dt reaches the cp_extension integrator of a check, and is checked
        # against its t_final (0.2 by default) like any other kind's
        spec = GeneratorSpec(H=SZ, gamma_family=GammaFamily("nonEssential", r=2.0, A=SX))
        payload = {"generator": generator_spec_to_json(spec), "samples": 1, "checks": ["cp_extension"]}
        p = write_scenario(tmp_path / "c.json", "check", payload, output_path=tmp_path / "report.json")
        assert main(["check", p, "--dt", "0.5"]) == 1
        assert not (tmp_path / "report.json").exists()
        seen = []
        real = cli_module.verify_cp_extension

        def spy(dyn, samples, cfg):
            seen.append(cfg)
            return real(dyn, samples, cfg)

        monkeypatch.setattr(cli_module, "verify_cp_extension", spy)
        assert main(["check", p, "--dt", "0.0005"]) == 0
        assert [(c.dt, c.n_steps) for c in seen] == [(0.0005, 400)]

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

    def test_report_writes_null_for_a_non_finite_value(self, tmp_path, capsys):
        # the first outcome has probability 0, so p_conditional is NaN; both
        # outputs used to carry the token NaN, which strict JSON lacks
        rho0 = np.zeros((4, 4))
        rho0[2, 2] = 1.0
        out = tmp_path / "corr.json"
        p = write_scenario(
            tmp_path / "corr_s.json",
            "measure_correlation",
            {
                "rho0": matrix_to_json(rho0),
                "dims": {"d_H": 2, "d_K": 2},
                "generator_H": generator_spec_to_json(GeneratorSpec(H=SZ)),
                "t0": 0.0,
                "t1": 0.1,
                "t2": 0.2,
                "P_H": matrix_to_json(np.diag([1.0, 0.0])),
                "P_K": matrix_to_json(np.diag([1.0, 0.0])),
                "integrator": {"dt": 0.01},
            },
            output_path=out,
        )
        assert main(["run", p]) == 0

        def strict(token):
            raise ValueError(f"non-standard JSON token {token}")

        for text in (out.read_text(), capsys.readouterr().out):
            report = json.loads(text, parse_constant=strict)
            assert report["p_conditional"] is None and report["p_first"] == 0.0

    def test_correlation_ignores_the_integrator_t_final(self, tmp_path):
        # each used to exit 1: "t_final 1.0 is not a whole number of dt = 0.003 steps"
        from conftest import singlet_state

        def report(name, integrator, flags=()):
            payload = {
                "rho0": matrix_to_json(singlet_state()),
                "dims": {"d_H": 2, "d_K": 2},
                "generator_H": generator_spec_to_json(GeneratorSpec(H=SZ, t_family=TFamily("powerLaw", q=1.5))),
                "generator_K": generator_spec_to_json(GeneratorSpec(H=SX)),
                "t0": 0.0,
                "t1": 0.1,
                "t2": 0.2,
                "P_H": matrix_to_json(np.diag([1.0, 0.0])),
                "P_K": matrix_to_json(np.diag([0.0, 1.0])),
                "integrator": integrator,
            }
            out = tmp_path / f"{name}.json"
            assert main(["run", write_scenario(tmp_path / f"{name}_s.json", "measure_correlation", payload, output_path=out), *flags]) == 0
            return json.loads(out.read_text())

        by_flag = report("flag", {"dt": 1e-3, "t_final": 1.0}, ["--dt", "0.003"])
        by_payload = report("payload", {"dt": 0.003, "t_final": 1.0, "monitor_stride": 7})
        without = report("without", {"dt": 0.003})
        assert by_flag == by_payload == without
        assert by_flag != report("fine", {"dt": 1e-3, "t_final": 1.0})

    def test_verify_subcommand(self, tmp_path, rng):
        traj = evolve(
            random_density_matrix(2, rng), GeneratorSpec(H=SZ), IntegratorConfig(dt=1e-2, t_final=0.1)
        )
        out = tmp_path / "v.csv"
        trajectory_to_csv(traj, str(out))
        assert main(["verify", str(out)]) == 0

    def test_parser_is_built_once_on_the_first_call(self, monkeypatch, capsys):
        code = "import nlqd.cli as cli; print(cli._parser)"
        assert subprocess.run([sys.executable, "-c", code], capture_output=True, text=True).stdout == "None\n"
        built = []
        build = cli_module.build_parser
        monkeypatch.setattr(cli_module, "_parser", None)
        monkeypatch.setattr(cli_module, "build_parser", lambda: built.append(1) or build())
        assert main(["schema"]) == 0 and main(["schema"]) == 0
        assert len(built) == 1

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


def full_scenarios(tmp_path):
    """One valid scenario of each kind that, together, holds every documented key."""
    power_law = generator_spec_to_json(GeneratorSpec(H=SZ, t_family=TFamily("powerLaw", q=1.2)))
    zero_mean = generator_spec_to_json(
        GeneratorSpec(H=SZ, gamma_family=GammaFamily("zeroMean", sigma=0.5, r=2.0))
    )
    non_essential = generator_spec_to_json(
        GeneratorSpec(H=SX, gamma_family=GammaFamily("nonEssential", r=2.0, A=SZ))
    )
    integ = {"dt": 1e-2, "t_final": 0.1, "monitor_stride": 2, "max_step_drift": 1e-5}
    joint = {
        "rho0": matrix_to_json(bell_state()),
        "dims": {"d_H": 2, "d_K": 2},
        "generator_H": power_law,
        "generator_K": power_law,
        "integrator": integ,
    }
    payloads = {
        "evolve": {"rho0": matrix_to_json(np.eye(2) / 2), "generator": zero_mean, "integrator": integ},
        "evolve_bipartite": joint,
        "mixture": {
            "rho0": matrix_to_json(np.eye(2) / 2),
            "weights": [0.25, 0.75],
            "generators": [zero_mean, power_law],
            "integrator": integ,
        },
        "measure_correlation": {
            **joint,
            "t0": 0.0,
            "t1": 0.05,
            "t2": 0.1,
            "P_H": matrix_to_json(np.diag([1.0, 0.0])),
            "P_K": matrix_to_json(np.diag([0.0, 1.0])),
        },
        "check": {
            "generator": non_essential,
            "dim": 2,
            "samples": 4,
            "checks": ["zero_mean", "polchinski", "cp_extension"],
            "dims": {"d_H": 2, "d_K": 2},
            "integrator": {"dt": 1e-2, "t_final": 0.05, "monitor_stride": 5},
        },
    }
    return {
        kind: {"schema": SCHEMA_ID, "kind": kind, "seed": 3, "output_path": str(tmp_path / "out"), "payload": p}
        for kind, p in payloads.items()
    }


def read_scenario(doc, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    return scenario_inputs(load_scenario(str(path)))


def run_rejected(doc, tmp_path, monkeypatch, capsys, flags=(), command="run") -> str:
    """Run doc through the CLI subcommand command in tmp_path, with flags; it
    must exit 1 with one JSON ValidationError record on stderr and write no
    file.  Returns the message."""
    monkeypatch.chdir(tmp_path)
    if isinstance(doc.get("output_path"), str):  # an output would land in tmp_path
        del doc["output_path"]
    (tmp_path / "s.json").write_text(json.dumps(doc))
    assert main([command, "s.json", *flags]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    record = json.loads(line)
    assert record["error"] == "ValidationError"
    assert os.listdir(tmp_path) == ["s.json"]
    return record["message"]


# (kind, subcommand, flags) that the kind cannot take; the message names the
# flag, or the subcommand when there is none
KIND_REFUSALS = (
    [(kind, "run", ["--seed", "5"]) for kind in ("evolve", "evolve_bipartite", "mixture", "measure_correlation")]
    + [(kind, "run", ["--dump-states"]) for kind in ("measure_correlation", "check")]
    + [("evolve", "check", [])]
)


def rename(record, old, new):
    record[new] = record.pop(old)


# case -> (kind, how the valid scenario is spoiled, the key the error names).
# Each case used to run to a silent wrong answer or end in a traceback.
BAD_SCENARIOS = {
    "misspelled_generator_K": (
        "evolve_bipartite", lambda d: rename(d["payload"], "generator_K", "generator_k"), "generator_k"
    ),
    "misspelled_output_path": ("evolve", lambda d: d.update(output="trajectory.csv"), "output"),
    "misspelled_samples": ("check", lambda d: rename(d["payload"], "samples", "sample"), "sample"),
    "missing_rho0": ("evolve", lambda d: d["payload"].pop("rho0"), "rho0"),
    "t0_not_a_number": ("measure_correlation", lambda d: d["payload"].update(t0="x"), "t0"),
    "weights_not_a_list": ("mixture", lambda d: d["payload"].update(weights=1.0), "weights"),
    "zero_samples": ("check", lambda d: d["payload"].update(samples=0), "samples"),
    "checks_not_a_list": ("check", lambda d: d["payload"].update(checks="polchinski"), "checks"),
    "integrator_not_an_object": ("evolve", lambda d: d["payload"].update(integrator=[0.01, 0.1]), "integrator"),
    "payload_not_an_object": ("evolve", lambda d: d.update(payload=[]), "payload"),
    "output_path_not_a_string": ("evolve", lambda d: d.update(output_path=5), "output_path"),
}


class TestScenarioReader:
    @pytest.mark.parametrize("case", list(BAD_SCENARIOS))
    def test_bad_scenario_exit_one(self, case, tmp_path, monkeypatch, capsys):
        kind, spoil, key = BAD_SCENARIOS[case]
        doc = full_scenarios(tmp_path)[kind]
        spoil(doc)
        assert f"'{key}'" in run_rejected(doc, tmp_path, monkeypatch, capsys)

    def test_every_record_takes_its_documented_keys_only(self, tmp_path):
        doc = schema_document()
        tables = {
            "scenario": set(doc) - {"(records)"},
            **{kind: set(t) for kind, t in doc["payload"].items()},
            **{name: set(t) for name, t in doc["(records)"].items()},
        }
        # (record, scenario kind, path to the record in that scenario)
        where = [("scenario", "evolve", ())]
        where += [(kind, kind, ("payload",)) for kind in doc["payload"]]
        where += [
            ("matrix", "evolve", ("payload", "rho0")),
            ("generator", "evolve", ("payload", "generator")),
            ("t", "mixture", ("payload", "generators", 1, "t")),
            ("gamma", "evolve", ("payload", "generator", "gamma")),
            ("gamma", "check", ("payload", "generator", "gamma")),
            ("integrator", "evolve", ("payload", "integrator")),
            ("dims", "evolve_bipartite", ("payload", "dims")),
        ]
        seen = {}
        for record, kind, path in where:
            scenario = full_scenarios(tmp_path)[kind]
            read_scenario(scenario, tmp_path)
            target = scenario
            for step in path:
                target = target[step]
            seen.setdefault(record, set()).update(target)
            target["bogus"] = 1
            with pytest.raises(ValidationError, match="bogus"):
                read_scenario(scenario, tmp_path)
        assert seen == tables

    @pytest.mark.parametrize(
        "kind, spoil",
        [
            ("evolve", lambda d: d["payload"]["integrator"].update(t_final=float("inf"))),
            ("evolve", lambda d: d["payload"]["integrator"].update(dt=float("nan"))),
            ("evolve", lambda d: d["payload"]["integrator"].update(max_step_drift=float("nan"))),
            ("evolve", lambda d: d["payload"]["generator"]["gamma"].update(sigma=float("inf"))),
            ("mixture", lambda d: d["payload"].update(weights=[float("nan"), 0.75])),
            ("mixture", lambda d: d["payload"]["generators"][1]["t"].update(q=float("nan"))),
            ("measure_correlation", lambda d: d["payload"].update(t2=float("inf"))),
        ],
        ids=["t_final-Infinity", "dt-NaN", "max_step_drift-NaN", "sigma-Infinity", "weight-NaN", "q-NaN", "t2-Infinity"],
    )
    def test_non_finite_number_exit_one(self, kind, spoil, tmp_path, monkeypatch, capsys):
        # json reads NaN and Infinity; each used to end in a traceback, a
        # misleading error, or a run of NaN rows that exited 0
        doc = full_scenarios(tmp_path)[kind]
        spoil(doc)
        assert "finite" in run_rejected(doc, tmp_path, monkeypatch, capsys)

    def test_gamma_a_outside_non_essential_exit_one(self, tmp_path, monkeypatch, capsys):
        doc = full_scenarios(tmp_path)["evolve"]
        doc["payload"]["generator"]["gamma"]["A"] = matrix_to_json(SX)
        assert "takes no A" in run_rejected(doc, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("key, value", [("dim", 3), ("dims", {"d_H": 3, "d_K": 2})], ids=["dim", "dims"])
    def test_check_dimension_must_be_the_generators(self, key, value, tmp_path, monkeypatch, capsys):
        doc = full_scenarios(tmp_path)["check"]
        doc["payload"][key] = value
        message = run_rejected(doc, tmp_path, monkeypatch, capsys)
        assert f"'{key}': 3 is not the generator's dimension 2" in message

    def test_negative_seed_override_exit_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.json").write_text(json.dumps(full_scenarios(tmp_path)["check"]))
        assert main(["run", "s.json", "--seed", "-1"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, command, flags",
        KIND_REFUSALS,
        ids=[f"{kind}-{flags[0] if flags else command}" for kind, command, flags in KIND_REFUSALS],
    )
    def test_flag_the_kind_cannot_use_exit_one(self, kind, command, flags, tmp_path, monkeypatch, capsys):
        # each used to exit 0, ignoring the flag or the subcommand
        message = run_rejected(full_scenarios(tmp_path)[kind], tmp_path, monkeypatch, capsys, flags, command)
        assert (flags[0] if flags else command) in message and repr(kind) in message

    @pytest.mark.parametrize("kind", ["evolve", "evolve_bipartite", "mixture", "measure_correlation"])
    def test_strict_on_a_kind_with_no_verdict_exit_one(self, kind, tmp_path, monkeypatch, capsys):
        # only a check report has a verdict for --strict to read; each used to exit 0
        message = run_rejected(full_scenarios(tmp_path)[kind], tmp_path, monkeypatch, capsys, ["--strict"])
        assert message == f"--strict applies to kind 'check' only, not to kind {kind!r}"

    def test_projector_not_invariant_exit_one(self, tmp_path, monkeypatch, capsys):
        doc = full_scenarios(tmp_path)["measure_correlation"]
        doc["payload"]["generator_H"] = generator_spec_to_json(GeneratorSpec(H=SX))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.json").write_text(json.dumps(doc))
        assert main(["run", "s.json"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "SubspaceInvarianceError"
        assert not (tmp_path / "out").exists()

    def test_correlation_factor_dimension_exit_one(self, tmp_path, monkeypatch, capsys):
        doc = full_scenarios(tmp_path)["measure_correlation"]
        doc["payload"]["generator_K"] = generator_spec_to_json(GeneratorSpec(H=np.diag([1.0, 0.0, -1.0])))
        assert "spec_K dimension 3 does not match d_K = 2" in run_rejected(doc, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("dt", ["0.003", "0.5"], ids=["off_grid", "over_t_final"])
    def test_check_dt_against_the_default_integrator_names_it(self, dt, tmp_path, monkeypatch, capsys):
        # used to name only "t_final 0.2", a value the file never wrote
        doc = full_scenarios(tmp_path)["check"]
        del doc["payload"]["integrator"]
        message = run_rejected(doc, tmp_path, monkeypatch, capsys, ["--dt", dt])
        assert message.endswith(
            "t_final 0.2 is the default cp_extension integrator's, which an integrator record in the check payload sets"
        )
        written = full_scenarios(tmp_path)["check"]  # its record's t_final 0.05 is in the file
        assert "default" not in run_rejected(written, tmp_path, monkeypatch, capsys, ["--dt", "0.003"])

    def test_check_defaults(self, tmp_path):
        doc = full_scenarios(tmp_path)["check"]
        for key in ("dim", "samples", "checks", "dims", "integrator"):
            del doc["payload"][key]
        spec, samples, checks, dims, cfg, seed = read_scenario(doc, tmp_path)
        assert (samples, checks, dims, seed) == (100, ["zero_mean", "polchinski"], (2, 2), 3)
        assert (cfg.dt, cfg.t_final, cfg.monitor_stride, cfg.max_step_drift) == (1e-3, 0.2, 20, 1e-3)


def run_into(doc, tmp_path, output_path, flags=()) -> int:
    """Run doc through the CLI with its output at output_path."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**doc, "output_path": str(output_path)}))
    return main(["run", str(path), *flags])


class TestOutputFiles:
    @pytest.mark.parametrize("kind", ["evolve", "check"])
    @pytest.mark.parametrize("where", ["missing_directory", "a_directory", "name_too_long"])
    def test_unwritable_output_exit_one(self, kind, where, tmp_path, capsys):
        # each used to end in a FileNotFoundError or IsADirectoryError traceback after the run;
        # a name the file system refuses passes the check before the run and fails the write
        out = {
            "missing_directory": tmp_path / "absent" / "out",
            "a_directory": tmp_path,
            "name_too_long": tmp_path / ("x" * 300),
        }[where]
        assert run_into(full_scenarios(tmp_path)[kind], tmp_path, out) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        record = json.loads(line)
        assert record["error"] == "ValidationError"
        assert record["message"].startswith("cannot write output file: ")
        assert not (tmp_path / "absent").exists()

    @pytest.mark.parametrize(
        "kind, runner",
        [
            ("evolve", "evolve"),
            ("evolve_bipartite", "evolve_bipartite"),
            ("mixture", "evolve_convex_mixture"),
            ("measure_correlation", "correlation_report"),
            ("check", "_check_report"),
        ],
    )
    @pytest.mark.parametrize("where", ["missing_directory", "a_directory"])
    def test_unwritable_output_fails_before_the_run(self, kind, runner, where, tmp_path, monkeypatch, capsys):
        # each used to run every integration or audit first, and only then exit 1
        def never(*args):
            pytest.fail(f"{runner} ran before the output path was checked")

        monkeypatch.setattr(cli_module, runner, never)
        out = tmp_path / "absent" / "out" if where == "missing_directory" else tmp_path
        assert run_into(full_scenarios(tmp_path)[kind], tmp_path, out) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["message"].startswith("cannot write output file: ")
        assert not (tmp_path / "absent").exists()

    @pytest.mark.parametrize("kind", ["evolve", "check"])
    def test_rerun_writes_a_new_file(self, kind, tmp_path):
        doc = full_scenarios(tmp_path)[kind]
        flags = ["--dump-states"] if kind == "evolve" else []
        (tmp_path / "fresh").mkdir()
        assert run_into(doc, tmp_path, tmp_path / "fresh" / "out", flags) == 0
        fresh = (tmp_path / "fresh" / "out").read_bytes()
        out, link = tmp_path / "out", tmp_path / "link"
        stale = b"stale\r\n" * (len(fresh) // 7 + 10)
        out.write_bytes(stale)
        os.link(out, link)
        assert run_into(doc, tmp_path, out, flags) == 0
        # a truncating write would leave the fresh bytes in the link too,
        # an in-place one the stale tail in the output
        assert out.read_bytes() == fresh
        assert link.read_bytes() == stale
        link.unlink()
        os.link(out, link)
        assert run_into(doc, tmp_path, out, flags) == 0
        assert out.read_bytes() == link.read_bytes() == fresh
        assert not os.path.samefile(out, link)

    def test_devnull_output_is_written_not_replaced(self, tmp_path, monkeypatch, capsys):
        # the device must never be unlinked; the stub unlinks nothing even if it is called
        unlinked = []
        monkeypatch.setattr(os, "unlink", unlinked.append)
        assert run_into(full_scenarios(tmp_path)["measure_correlation"], tmp_path, os.devnull) == 0
        assert unlinked == []
        assert json.loads(capsys.readouterr().out)["p_first"] >= 0

    def test_fifo_output_reaches_its_reader(self, tmp_path):
        fifo = tmp_path / "out"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            io_module._write_new(str(fifo), ["t,x\r\n", "0.5,1\r\n"])
            assert os.read(reader, 100) == b"t,x\r\n0.5,1\r\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_symlinked_output_lands_in_its_target(self, tmp_path):
        doc = full_scenarios(tmp_path)["measure_correlation"]
        target, out = tmp_path / "target.json", tmp_path / "out.json"
        target.write_text("stale")
        out.symlink_to(target)
        assert run_into(doc, tmp_path, out) == 0
        assert os.readlink(out) == str(target)
        assert json.loads(target.read_text())["p_first"] >= 0
