"""Command-line entry point.

Subcommands: run (dispatch any scenario kind), check (criterion audits),
verify (re-audit an exported CSV), schema (print the scenario format).
Exit codes: 0 success, 1 validation error (also a projector that the H
dynamics does not leave invariant), 2 numerical error, 3 criterion failure
under --strict.  Errors go to stderr as one JSON record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import io
from .entanglement import BipartiteDynamics, evolve_bipartite, random_entangled_state
from .entanglement import verify_cp_extension
from .errors import DegenerateConstraintError, NlqdError, StepSizeError
from .errors import SubspaceInvarianceError, ValidationError
from .generators import check_zero_mean, classify_dissipative_part, random_density_matrix
from .io import CP_MAX_SAMPLES, load_scenario, matrix_to_json, scenario_inputs, schema_document
from .io import trajectory_to_csv, verify_csv
from .measurement import correlation_report
from .propagation import Trajectory, evolve, evolve_convex_mixture

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_CRITERION = 3


class CriterionFailure(NlqdError):
    pass


def _emit_error(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)


def _null_non_finite(x):
    """x with every non-finite float, in any dict or list, as None: strict
    JSON has no token for NaN or infinity, and writes null."""
    if isinstance(x, dict):
        return {k: _null_non_finite(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_null_non_finite(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _check_report(spec, samples: int, checks: list, dims: tuple, cfg, seed: int) -> dict:
    """The check kind: each named audit on random states drawn from the seed."""
    rng = np.random.default_rng(seed)
    entries: dict = {}
    for name in checks:
        if name == "zero_mean":
            rep = check_zero_mean(spec, [random_density_matrix(spec.dim, rng) for _ in range(samples)])
            entries[name] = {"passed": rep.passed, "max_residual": float(np.max(rep.residuals)),
                             "samples": samples}
        elif name == "polchinski":
            rep = classify_dissipative_part(spec, sample_count=samples, rng=rng)
            entries[name] = {"passed": not rep.essential, "essential_witnessed": rep.essential,
                             "samples_used": rep.n_samples, "note": rep.note}
            if rep.witness is not None:
                entries[name]["witness"] = matrix_to_json(rep.witness)
        else:
            pool = [random_entangled_state(*dims, rng) for _ in range(min(samples, CP_MAX_SAMPLES))]
            rep = verify_cp_extension(BipartiteDynamics(spec_H=spec), pool, cfg)
            worst = max(rep.samples, key=lambda s: max(s.local_residual, s.remote_residual))
            entries[name] = {"passed": rep.passed, "samples": len(pool),
                             "worst_local_residual": worst.local_residual,
                             "worst_remote_residual": worst.remote_residual}
    return {"seed": seed, "checks": entries, "passed": all(e["passed"] for e in entries.values())}


def _run(sc, args) -> int:
    """Check the output path, run the scenario's kind on its payload, then
    write the trajectory as CSV or the report as JSON, echoed on stdout."""
    # Built per call, so a function swapped in under its module name (a tracer) is the one run.
    run, default_out = {
        "evolve": (evolve, "trajectory.csv"),
        "evolve_bipartite": (evolve_bipartite, "trajectory.csv"),
        "mixture": (evolve_convex_mixture, "trajectory.csv"),
        "measure_correlation": (correlation_report, "correlation.json"),
        "check": (_check_report, "check-report.json"),
    }[sc.kind]
    out = sc.output_path or default_out
    if os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or "."):  # found before the run
        raise ValidationError(f"cannot write output file: {out!r} is a directory or in a missing one")
    result = run(*scenario_inputs(sc, args.dt))
    if isinstance(result, Trajectory):
        trajectory_to_csv(result, out, dump_states=args.dump_states)
        return EXIT_OK
    report = _null_non_finite(result)
    io._write_new(out, [json.dumps(report, indent=2, allow_nan=False)])
    print(json.dumps(report, allow_nan=False))
    if args.strict and not result["passed"]:
        raise CriterionFailure("one or more checks failed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nlqd", description="nonlinear quantum dynamics simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("run", "run a scenario file"), ("check", "run a criterion-audit scenario")):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("scenario")
        sp.add_argument("--strict", action="store_true", help="exit 3 on criterion failure")
        sp.add_argument("--dump-states", action="store_true")
        sp.add_argument("--dt", type=float, default=None, help="override integrator dt")
        sp.add_argument("--seed", type=int, default=None, help="override scenario seed")
    verify_p = sub.add_parser("verify", help="audit an exported trajectory CSV")
    verify_p.add_argument("csv")

    sub.add_parser("schema", help="print the scenario JSON schema")
    return parser


_parser = None  # built by the first call of main, not at import


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
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
            raise ValidationError(f"the check subcommand takes kind 'check' only, not kind {scenario.kind!r}")
        if args.seed is not None and scenario.kind != "check":
            raise ValidationError(f"--seed applies to kind 'check' only, not to kind {scenario.kind!r}")
        if args.dump_states and scenario.kind in ("measure_correlation", "check"):
            raise ValidationError(f"--dump-states writes no states for kind {scenario.kind!r}")
        if args.strict and scenario.kind != "check":
            raise ValidationError(f"--strict applies to kind 'check' only, not to kind {scenario.kind!r}")
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
        return _run(scenario, args)
    except CriterionFailure as exc:
        _emit_error(exc)
        return EXIT_CRITERION
    except (StepSizeError, DegenerateConstraintError) as exc:
        _emit_error(exc)
        return EXIT_NUMERICAL
    except (ValidationError, SubspaceInvarianceError) as exc:
        _emit_error(exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
