"""The scenario format, JSON (de)serialization and CSV trajectory export.

Matrices travel as ``{"dim": n, "re": [...], "im": [...]}`` with row-major
entries; scenario files are UTF-8 JSON with a top-level
``"schema": "nlqd/1"`` marker.  Every record of a scenario has one key table
below, naming each key the reader takes and what it holds; a record with a
key its table does not list is rejected, and ``nlqd schema`` prints the
tables.  CSV floats are printed with 17 significant digits so values
round-trip exactly.  Every output is written by ``_write_new``: an existing
regular file is unlinked and created again, not truncated.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import numbers
import operator
import os
import stat
from dataclasses import dataclass, replace
from io import StringIO
from typing import Optional

import numpy as np

from .entanglement import BipartiteDynamics, BipartiteState
from .errors import ValidationError
from .generators import GammaFamily, GeneratorSpec, TFamily
from .linalg import EIG_NEG_TOL, _is_integer, _positive, _record, state_violations
from .measurement import CorrelationScenario, MeasurementSetup
from .propagation import RECORD_HERM_TOL, RECORD_TRACE_TOL, IntegratorConfig, MixtureSpec, Trajectory

SCHEMA_ID = "nlqd/1"
FLOAT_FMT = "%.17g"
# The CSV names a vector channel's columns <prefix>_1..<prefix>_d.
COLUMN_PREFIX = {"eigenvalues": "eig"}
CHECKS = ("zero_mean", "polchinski", "cp_extension")
CP_MAX_SAMPLES = 10
CP_INTEGRATOR = IntegratorConfig(dt=1e-3, t_final=0.2, monitor_stride=20, max_step_drift=1e-3)

# One key table per record, key -> what it holds, every default included.
RECORDS = {
    "matrix": {"dim": "int n >= 1", "re": "n^2 reals, row-major", "im": "n^2 reals (default zeros)"},
    "generator": {
        "H": "matrix, Hermitian",
        "t": "t record (default family vonNeumann)",
        "gamma": "gamma record (default family none)",
    },
    "t": {"family": "vonNeumann | powerLaw", "q": "real > 0, powerLaw only (default 1)"},
    "gamma": {
        "family": "none | zeroMean | energyConserving | nonEssential",
        "sigma": "real, zeroMean and energyConserving only (default 0)",
        "r": "real > 0 (default 1) for zeroMean and energyConserving; > 1 (default 2) for nonEssential",
        "A": "matrix, Hermitian, of H's dimension: nonEssential only, and required there",
    },
    "integrator": {
        "dt": "real > 0",
        "t_final": "real > 0, a whole number of dt steps",
        "monitor_stride": "int >= 1 (default 1)",
        "max_step_drift": "real > 0 (default 1e-6)",
    },
    "dims": {"d_H": "int >= 1", "d_K": "int >= 1"},
}
_RUN = {"rho0": "matrix: the initial state", "integrator": "integrator record"}
_JOINT = {
    **_RUN,
    "dims": "dims record of rho0's factors H (x) K",
    "generator_H": "generator record",
    "generator_K": "generator record (optional: absent means a passive K)",
}
PAYLOADS = {
    "evolve": {**_RUN, "generator": "generator record"},
    "evolve_bipartite": _JOINT,
    "mixture": {**_RUN, "weights": "[positive reals summing to 1]", "generators": "[generator record]"},
    "measure_correlation": {
        **_JOINT,
        "integrator": "integrator record: only dt and max_step_drift are used, as each phase rescales dt; "
        "t_final and monitor_stride are optional, read but ignored",
        "t0": "real: rho0's time; the generators' gamma must be none",
        "t1": "real >= t0: P_H is measured; every phase rescales dt to whole steps",
        "t2": "real > t1: P_K is measured",
        "P_H": "matrix: projector on H",
        "P_K": "matrix: projector on K",
    },
    "check": {
        "generator": "generator record",
        "dim": "int: the generator's dimension (optional)",
        "samples": f"int >= 1 (default 100); cp_extension audits at most {CP_MAX_SAMPLES}",
        "checks": f"[distinct names from {' | '.join(CHECKS)}] (default zero_mean, polchinski)",
        "dims": "dims record for cp_extension: d_H the generator's dimension (default d_K = 2)",
        "integrator": (
            f"integrator record for cp_extension (default dt {CP_INTEGRATOR.dt:g}, t_final "
            f"{CP_INTEGRATOR.t_final:g}, monitor_stride {CP_INTEGRATOR.monitor_stride}, "
            f"max_step_drift {CP_INTEGRATOR.max_step_drift:g})"
        ),
    },
}
SCENARIO = {
    "schema": SCHEMA_ID,
    "kind": " | ".join(PAYLOADS),
    "seed": "int >= 0 (default 0): seeds the random states of a check",
    "output_path": (
        "string (default trajectory.csv, or correlation.json, or check-report.json): CSV for "
        "trajectories with columns t, the monitor channels in order with eigenvalues expanded to "
        "eig_1..eig_d, then re_i_j, im_i_j with --dump-states; JSON for reports"
    ),
    "payload": PAYLOADS,
}

_REQUIRED = object()


def _require_known_keys(obj, record: str, table: dict) -> None:
    """Reject a record that is not an object or has a key its table does not list."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{record} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise ValidationError(f"unknown {record} keys {unknown}; expected {list(table)}")


def _reader(obj, record: str, table: dict):
    """get(key, parse, default) on a record checked against its key table; a
    missing required key or a value that parse rejects raises ValidationError
    naming the record and the key."""
    _require_known_keys(obj, record, table)

    def get(key: str, parse=lambda x: x, default=_REQUIRED):
        if key not in obj:
            if default is _REQUIRED:
                raise ValidationError(f"{record} is missing key {key!r}")
            return default
        try:
            return parse(obj[key])
        except (ValidationError, TypeError, ValueError) as exc:
            raise ValidationError(f"{record} key {key!r}: {exc}") from exc

    return get


def _real(x) -> float:
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValidationError(f"expected a number, got {x!r}")
    return float(x)


def _int(x, lo: int = 1) -> int:
    if not _is_integer(x, lo):
        raise ValidationError(f"expected an integer >= {lo}, got {x!r}")
    return int(x)


def _list(parse):
    def read(x) -> list:
        if not isinstance(x, list):
            raise ValidationError(f"expected a list, got {x!r}")
        return [parse(v) for v in x]

    return read


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "dim": m.shape[0],
        "re": [float(x) for x in m.real.reshape(-1)],
        "im": [float(x) for x in m.imag.reshape(-1)],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    get = _reader(obj, "matrix", RECORDS["matrix"])
    n = get("dim", _int)
    re, im = np.array(get("re", _list(_real))), np.array(get("im", _list(_real), [0.0] * (n * n)))
    if re.size != n * n or im.size != n * n:
        raise ValidationError(f"matrix entries count {re.size} != dim^2 = {n * n}")
    return (re + 1j * im).reshape(n, n)


def generator_spec_to_json(spec: GeneratorSpec) -> dict:
    t = {"family": _record(spec, GeneratorSpec, "spec").t_family.family}
    if spec.t_family.family == "powerLaw":
        t["q"] = spec.t_family.q
    g = {"family": spec.gamma_family.family}
    if spec.gamma_family.family in ("zeroMean", "energyConserving"):
        g["sigma"] = spec.gamma_family.sigma
        g["r"] = spec.gamma_family.r
    elif spec.gamma_family.family == "nonEssential":
        g["r"] = spec.gamma_family.r
        g["A"] = matrix_to_json(spec.gamma_family.A)
    return {"H": matrix_to_json(spec.H), "t": t, "gamma": g}


def _t_family(obj) -> TFamily:
    get = _reader(obj, "t", RECORDS["t"])
    return TFamily(family=get("family"), q=get("q", _real, 1.0))


def _gamma_family(obj) -> GammaFamily:
    get = _reader(obj, "gamma", RECORDS["gamma"])
    family = get("family")
    return GammaFamily(
        family=family,
        sigma=get("sigma", _real, 0.0),
        r=get("r", _real, 2.0 if family == "nonEssential" else 1.0),
        A=get("A", matrix_from_json, None),
    )


def generator_spec_from_json(obj: dict) -> GeneratorSpec:
    get = _reader(obj, "generator", RECORDS["generator"])
    return GeneratorSpec(
        H=get("H", matrix_from_json),
        t_family=get("t", _t_family, TFamily("vonNeumann")),
        gamma_family=get("gamma", _gamma_family, GammaFamily("none")),
    )


def integrator_from_json(obj: dict) -> IntegratorConfig:
    get = _reader(obj, "integrator", RECORDS["integrator"])
    return IntegratorConfig(
        dt=get("dt", _real),
        t_final=get("t_final", _real),
        monitor_stride=get("monitor_stride", _int, 1),
        max_step_drift=get("max_step_drift", _real, 1e-6),
    )


def _phase_integrator(obj: dict) -> IntegratorConfig:
    """A correlation scenario's integrator, dt and max_step_drift alone:
    each phase rescales dt to whole steps of its own length."""
    get = _reader(obj, "integrator", RECORDS["integrator"])
    get("t_final", _real, None)  # each checked as its key table says, then dropped
    get("monitor_stride", _int, 1)
    dt = get("dt", _real)
    return IntegratorConfig(dt=dt, t_final=dt, max_step_drift=get("max_step_drift", _real, 1e-6))


def _dims(obj) -> tuple[int, int]:
    get = _reader(obj, "dims", RECORDS["dims"])
    return get("d_H", _int), get("d_K", _int)


def _projector(obj) -> MeasurementSetup:
    return MeasurementSetup(P=matrix_from_json(obj))


def _check_names(names) -> list:
    if not isinstance(names, list) or len(set(names)) < len(names) or not set(names) <= set(CHECKS):
        raise ValidationError(f"expected a list of distinct names from {list(CHECKS)}, got {names!r}")
    return names


@dataclass(frozen=True)
class Scenario:
    kind: str
    payload: dict
    seed: int = 0
    output_path: Optional[str] = None


def load_scenario(path: str) -> Scenario:
    """Read the envelope of a scenario file; scenario_inputs reads its payload."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read scenario file: {exc}") from exc
    get = _reader(obj, "scenario", SCENARIO)
    if get("schema", default=None) != SCHEMA_ID:
        raise ValidationError(f'scenario must declare "schema": "{SCHEMA_ID}"')
    kind = get("kind", default=None)
    if not isinstance(kind, str) or kind not in PAYLOADS:
        raise ValidationError(f"unknown scenario kind {kind!r}; expected one of {list(PAYLOADS)}")
    payload = get("payload", default=None)
    if not isinstance(payload, dict):
        raise ValidationError(f"scenario key 'payload' must be an object, got {payload!r}")
    output_path = get("output_path", default=None)
    if output_path is not None and not isinstance(output_path, str):
        raise ValidationError(f"scenario key 'output_path' must be a string, got {output_path!r}")
    seed = get("seed", lambda x: _int(x, 0), 0)
    return Scenario(kind=kind, payload=payload, seed=seed, output_path=output_path)


def scenario_inputs(sc: Scenario, dt: Optional[float] = None) -> tuple:
    """The positional arguments of the run of sc's kind, read from its payload
    against the kind's key table before anything runs; an error names the
    kind and the key.  ``dt`` replaces the integrator's dt, a check's
    cp_extension integrator included.

    evolve: (rho0, spec, cfg); evolve_bipartite: (state, dynamics, cfg);
    mixture: (rho0, mixture, cfg); measure_correlation: (scenario,);
    check: (spec, samples, check names, (d_H, d_K), cfg, seed).
    """
    get = _reader(sc.payload, f"{sc.kind} payload", PAYLOADS[sc.kind])
    if sc.kind == "measure_correlation":
        cfg = get("integrator", _phase_integrator)
        cfg = cfg if dt is None else replace(cfg, dt=dt, t_final=dt)
    else:
        cfg = get("integrator", integrator_from_json, CP_INTEGRATOR if sc.kind == "check" else _REQUIRED)
        if dt is not None and cfg is CP_INTEGRATOR:
            _positive(dt, "dt")
            try:
                cfg = replace(cfg, dt=dt)
            except ValidationError as exc:  # dt does not fit a t_final the file never wrote
                raise ValidationError(
                    f"{exc}: t_final {cfg.t_final:g} is the default cp_extension integrator's, "
                    "which an integrator record in the check payload sets"
                ) from None
        elif dt is not None:
            cfg = replace(cfg, dt=dt)
    if sc.kind == "check":
        spec = get("generator", generator_spec_from_json)
        dims = get("dims", _dims, (spec.dim, 2))
        for key, d in (("dim", get("dim", _int, spec.dim)), ("dims", dims[0])):
            if d != spec.dim:
                raise ValidationError(
                    f"check payload key {key!r}: {d} is not the generator's dimension {spec.dim}"
                )
        checks = get("checks", _check_names, ["zero_mean", "polchinski"])
        return spec, get("samples", _int, 100), checks, dims, cfg, _int(sc.seed, 0)
    rho0 = get("rho0", matrix_from_json)
    if sc.kind == "evolve":
        return rho0, get("generator", generator_spec_from_json), cfg
    if sc.kind == "mixture":
        specs = get("generators", _list(generator_spec_from_json))
        return rho0, MixtureSpec(get("weights", _list(_real)), specs), cfg
    state = BipartiteState(*get("dims", _dims), matrix=rho0)
    spec_k = get("generator_K", generator_spec_from_json, None)
    dyn = BipartiteDynamics(get("generator_H", generator_spec_from_json), spec_k)
    if sc.kind == "evolve_bipartite":
        return state, dyn, cfg
    t0, t1, t2 = (get(key, _real) for key in ("t0", "t1", "t2"))
    p_h, p_k = get("P_H", _projector), get("P_K", _projector)
    return (CorrelationScenario(state, dyn, t0, t1, t2, p_h, p_k, cfg),)


def trajectory_to_csv(traj: Trajectory, path: str, dump_states: bool = False) -> None:
    """Columns: t, then every monitor channel in the monitor's order, then
    optionally the flattened state as re_i_j, im_i_j pairs in row-major order.

    A vector channel expands in place to one column per entry, named
    <prefix>_1..<prefix>_d with the prefix from COLUMN_PREFIX.  The bytes are
    csv.writer's: a float cell never needs quoting, so a data row is one %
    format ending in the writer's line terminator.
    """
    n = len(traj.times)
    header, columns = ["t"], [np.reshape(traj.times, (n, 1))]
    for name, values in traj.monitors.items():
        values = np.asarray(values)
        if values.ndim == 1:
            header.append(name)
        else:
            header += [f"{COLUMN_PREFIX.get(name, name)}_{i + 1}" for i in range(values.shape[1])]
        columns.append(values.reshape(n, -1))
    if dump_states:
        s = np.array(traj.states)
        d = s.shape[1]
        header += [f"{part}_{i}_{j}" for i in range(d) for j in range(d) for part in ("re", "im")]
        columns.append(np.stack([s.real, s.imag], axis=-1).reshape(n, -1))
    row_fmt = ",".join([FLOAT_FMT] * len(header)) + "\r\n"
    head = StringIO()
    csv.writer(head).writerow(header)
    rows = (row_fmt % tuple(row) for row in np.hstack(columns).tolist())
    _write_new(path, itertools.chain([head.getvalue()], rows))


def _write_new(path: str, chunks) -> None:
    """Write the text chunks, untranslated, to path.  An existing regular
    file there is unlinked and the file created again exclusively, so it is
    a new file, never a truncated one; a symlink there is resolved first, so
    it keeps naming its target.  Any other path (none yet, a device such as
    os.devnull, a FIFO) is opened for writing as it is.

    Truncating a file and writing it again makes some file systems (ext4's
    auto_da_alloc) flush the new blocks when it closes; a new file pays no
    such flush.  A file that cannot be written is a ValidationError.
    """
    mode = "w"
    try:
        with contextlib.suppress(FileNotFoundError):
            if stat.S_ISREG(os.stat(path).st_mode):
                path = os.path.realpath(path)
                os.unlink(path)
                mode = "x"
        with open(path, mode, newline="", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ValidationError(f"cannot write output file: {exc}") from exc


def _cell_error(n: int, row: list, columns: list, at: list) -> ValidationError:
    """The error of data row n, whose cells in the named columns, at those
    indices, did not all read as floats: it names the row and the first
    column whose cell is missing or not a number."""
    for column, i in zip(columns, at):
        if i >= len(row):
            return ValidationError(f"row {n} has no cell in column {column!r}")
        try:
            float(row[i])
        except ValueError:
            return ValidationError(f"row {n}, column {column!r}: {row[i]!r} is not a number")


def verify_csv(path: str) -> dict:
    """Spot-check the physical-state invariants on an exported trajectory, to
    the tolerances of ``Trajectory.validate``, and that t is finite and
    increases from row to row.

    With dumped states the full matrix invariants are checked; otherwise the
    trace and eigenvalue columns are audited.  The table is read once and
    every row checked at once.  An unreadable file is a ValidationError, and
    so is a malformed table (a missing column, a short or long row, a cell
    that is not a number), naming the data row, counted from 1 after the
    header, and the column.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh)) or [[]]
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read CSV file: {exc}") from exc
    rows = [row for row in rows if row]  # blank lines are no rows, as for csv.DictReader
    if not rows:
        raise ValidationError("empty CSV")
    eig_columns = [k for k in header if k.startswith("eig_")]
    # The dumped state's dimension; 0 without states.
    d = int(round(np.sqrt(sum(1 for k in header if k.startswith("re_")))))
    columns = ["t", "trace", *eig_columns]
    columns += [f"{part}_{i}_{j}" for i in range(d) for j in range(d) for part in ("re", "im")]
    # A repeated name reads its last cell; a name the header lacks, a cell
    # past the end of every row.
    index = {k: i for i, k in enumerate(header)}
    at = [index.get(k, len(header)) for k in columns]
    cells = operator.itemgetter(*at)
    table = []
    for n, row in enumerate(rows, start=1):
        if len(row) > len(header):
            raise ValidationError(f"row {n} has more cells than the header")
        try:
            table.append(list(map(float, cells(row))))
        except (IndexError, ValueError):
            raise _cell_error(n, row, columns, at) from None
    table = np.array(table)
    t, k = table[:, 0], 2 + len(eig_columns)
    # Each check is written to fail on NaN, which compares False to anything.
    back = np.zeros(len(t), dtype=bool)
    back[1:] = np.isfinite(t[1:]) & np.isfinite(t[:-1]) & (t[1:] <= t[:-1])
    checks = [
        (~np.isfinite(t), "t is not finite"),
        (back, "t is not greater than the row before"),
        (~(np.abs(table[:, 1] - 1.0) <= RECORD_TRACE_TOL), f"trace off by more than {RECORD_TRACE_TOL}"),
    ]
    if eig_columns:
        checks.append((~(np.min(table[:, 2:k], axis=1) >= -EIG_NEG_TOL), f"eigenvalue below -{EIG_NEG_TOL}"))
    states = [None] * len(rows)
    if d:
        m = (table[:, k::2] + 1j * table[:, k + 1 :: 2]).reshape(-1, d, d)
        states = state_violations(m, RECORD_HERM_TOL, RECORD_TRACE_TOL, EIG_NEG_TOL)
    problems = []
    bad = np.any([mask for mask, _ in checks], axis=0)
    times = t.tolist()
    for n in np.flatnonzero(bad | [s is not None for s in states]):
        problems += [f"t={times[n]}: {text}" for mask, text in checks if mask[n]]
        if states[n]:
            problems.append(f"t={times[n]}: state {states[n]}")
    return {"rows": len(rows), "ok": not problems, "problems": problems}


def schema_document() -> dict:
    """The scenario format: the envelope's key table, whose payload entry holds
    each kind's, and under "(records)" the tables of the nested records."""
    return {**SCENARIO, "(records)": RECORDS}
