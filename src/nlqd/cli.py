"""Command-line entry point.

Subcommands: run (dispatch any scenario kind), check (criterion audits),
verify (re-audit an exported CSV), schema (print the scenario format).
Exit codes: 0 success, 1 validation error, 2 numerical error, 3 criterion
failure under --strict.  Errors go to stderr as one JSON record.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .entanglement import (
    BipartiteDynamics,
    BipartiteState,
    evolve_bipartite,
    random_entangled_state,
    verify_cp_extension,
)
from .errors import DegenerateConstraintError, NlqdError, StepSizeError, ValidationError
from .generators import (
    check_zero_mean,
    classify_dissipative_part,
    random_density_matrix,
)
from .io import (
    Scenario,
    generator_spec_from_json,
    integrator_from_json,
    load_scenario,
    matrix_from_json,
    matrix_to_json,
    schema_document,
    trajectory_to_csv,
    verify_csv,
)
from .measurement import CorrelationScenario, MeasurementSetup, correlation_report
from .propagation import IntegratorConfig, MixtureSpec, evolve, evolve_convex_mixture

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_CRITERION = 3


class CriterionFailure(NlqdError):
    pass


def _emit_error(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)


def _payload_cfg(payload: dict, args) -> IntegratorConfig:
    cfg = integrator_from_json(payload["integrator"])
    return cfg if args.dt is None else replace(cfg, dt=args.dt)


def _bipartite_state(payload: dict) -> BipartiteState:
    dims = payload.get("dims", {})
    try:
        d_h, d_k = int(dims["d_H"]), int(dims["d_K"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad dims record: {exc}") from exc
    return BipartiteState(d_H=d_h, d_K=d_k, matrix=matrix_from_json(payload["rho0"]))


def _bipartite_dynamics(payload: dict) -> BipartiteDynamics:
    spec_h = generator_spec_from_json(payload["generator_H"])
    spec_k = (
        generator_spec_from_json(payload["generator_K"])
        if payload.get("generator_K")
        else None
    )
    return BipartiteDynamics(spec_H=spec_h, spec_K=spec_k)


def _run_evolve(sc: Scenario, args) -> int:
    p = sc.payload
    traj = evolve(matrix_from_json(p["rho0"]), generator_spec_from_json(p["generator"]), _payload_cfg(p, args))
    trajectory_to_csv(traj, sc.output_path or "trajectory.csv", dump_states=args.dump_states)
    return EXIT_OK


def _run_bipartite(sc: Scenario, args) -> int:
    p = sc.payload
    traj = evolve_bipartite(_bipartite_state(p), _bipartite_dynamics(p), _payload_cfg(p, args))
    trajectory_to_csv(traj, sc.output_path or "trajectory.csv", dump_states=args.dump_states)
    return EXIT_OK


def _run_mixture(sc: Scenario, args) -> int:
    p = sc.payload
    mix = MixtureSpec(
        weights=[float(w) for w in p["weights"]],
        process_specs=[generator_spec_from_json(g) for g in p["generators"]],
    )
    traj = evolve_convex_mixture(matrix_from_json(p["rho0"]), mix, _payload_cfg(p, args))
    trajectory_to_csv(traj, sc.output_path or "trajectory.csv", dump_states=args.dump_states)
    return EXIT_OK


def _run_correlation(sc: Scenario, args) -> int:
    p = sc.payload
    scenario = CorrelationScenario(
        rho0=_bipartite_state(p),
        dyn=_bipartite_dynamics(p),
        t0=float(p["t0"]),
        t1=float(p["t1"]),
        t2=float(p["t2"]),
        P_H=MeasurementSetup(P=matrix_from_json(p["P_H"])),
        P_K=MeasurementSetup(P=matrix_from_json(p["P_K"])),
        cfg=_payload_cfg(p, args),
    )
    report = correlation_report(scenario)
    out = sc.output_path or "correlation.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report))
    return EXIT_OK


def _run_check(sc: Scenario, args) -> int:
    p = sc.payload
    spec = generator_spec_from_json(p["generator"])
    dim = int(p.get("dim", spec.dim))
    samples = int(p.get("samples", 100))
    checks = p.get("checks", ["zero_mean", "polchinski"])
    seed = args.seed if args.seed is not None else sc.seed
    rng = np.random.default_rng(seed)
    report: dict = {"seed": seed, "checks": {}}
    failed = False
    for name in checks:
        if name == "zero_mean":
            states = [random_density_matrix(dim, rng) for _ in range(samples)]
            rep = check_zero_mean(spec, states)
            report["checks"]["zero_mean"] = {
                "passed": rep.passed,
                "max_residual": float(np.max(rep.residuals)),
                "samples": samples,
            }
            failed |= not rep.passed
        elif name == "polchinski":
            rep = classify_dissipative_part(spec, sample_count=samples, dim=dim, rng=rng)
            entry = {
                "passed": not rep.essential,
                "essential_witnessed": rep.essential,
                "samples_used": rep.n_samples,
                "note": rep.note,
            }
            if rep.witness is not None:
                entry["witness"] = matrix_to_json(rep.witness)
            report["checks"]["polchinski"] = entry
            failed |= rep.essential
        elif name == "cp_extension":
            dims = p.get("dims", {"d_H": dim, "d_K": 2})
            d_h, d_k = int(dims["d_H"]), int(dims["d_K"])
            cfg = (
                integrator_from_json(p["integrator"])
                if "integrator" in p
                else IntegratorConfig(dt=1e-3, t_final=0.2, max_step_drift=1e-3, monitor_stride=20)
            )
            n_cp = min(samples, 10)
            pool = [random_entangled_state(d_h, d_k, rng) for _ in range(n_cp)]
            rep = verify_cp_extension(BipartiteDynamics(spec_H=spec), pool, cfg)
            worst = max(rep.samples, key=lambda s: max(s.local_residual, s.remote_residual))
            report["checks"]["cp_extension"] = {
                "passed": rep.passed,
                "samples": n_cp,
                "worst_local_residual": worst.local_residual,
                "worst_remote_residual": worst.remote_residual,
            }
            failed |= not rep.passed
        else:
            raise ValidationError(f"unknown check {name!r}")
    report["passed"] = not failed
    out = sc.output_path or "check-report.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report))
    if failed and args.strict:
        raise CriterionFailure("one or more checks failed")
    return EXIT_OK


_DISPATCH = {
    "evolve": _run_evolve,
    "evolve_bipartite": _run_bipartite,
    "mixture": _run_mixture,
    "measure_correlation": _run_correlation,
    "check": _run_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nlqd", description="nonlinear quantum dynamics simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--strict", action="store_true", help="exit 3 on criterion failure")
        sp.add_argument("--dump-states", action="store_true")
        sp.add_argument("--dt", type=float, default=None, help="override integrator dt")
        sp.add_argument("--seed", type=int, default=None, help="override scenario seed")

    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario")
    add_common(run_p)

    check_p = sub.add_parser("check", help="run a criterion-audit scenario")
    check_p.add_argument("scenario")
    add_common(check_p)

    verify_p = sub.add_parser("verify", help="audit an exported trajectory CSV")
    verify_p.add_argument("csv")

    sub.add_parser("schema", help="print the scenario JSON schema")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "schema":
            print(json.dumps(schema_document(), indent=2))
            return EXIT_OK
        if args.command == "verify":
            result = verify_csv(args.csv)
            print(json.dumps(result))
            return EXIT_OK if result["ok"] else EXIT_VALIDATION
        scenario = load_scenario(args.scenario)
        if args.command == "check" and scenario.kind != "check":
            raise ValidationError("the check subcommand expects a scenario of kind 'check'")
        return _DISPATCH[scenario.kind](scenario, args)
    except CriterionFailure as exc:
        _emit_error(exc)
        return EXIT_CRITERION
    except (StepSizeError, DegenerateConstraintError) as exc:
        _emit_error(exc)
        return EXIT_NUMERICAL
    except ValidationError as exc:
        _emit_error(exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
