#!/usr/bin/env python3
"""Audit which dissipative families admit a separable bipartite extension.

Runs the support-block classifier over random states for each Gamma
family, then spot-checks the complete-positivity conditions by evolving
entangled 2x2 states with a passive environment.  Prints a table and
writes the full report as JSON.

Usage: python3 scripts/run_essentiality_audit.py [report.json]
"""

import json
import sys

import numpy as np

from nlqd.entanglement import BipartiteDynamics, random_entangled_state, verify_cp_extension
from nlqd.generators import (
    GammaFamily,
    GeneratorSpec,
    TFamily,
    classify_dissipative_part,
)
from nlqd.propagation import IntegratorConfig

SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

FAMILIES = {
    "none": GammaFamily("none"),
    "zeroMean": GammaFamily("zeroMean", sigma=0.8, r=2.0),
    "energyConserving": GammaFamily("energyConserving", sigma=0.8, r=2.0),
    "nonEssential": GammaFamily("nonEssential", r=2.0, A=SX),
}


def main() -> int:
    rng = np.random.default_rng(7)
    report = {}
    # loose drift bound: essential families genuinely leak trace through
    # the product extension, and we want the residual, not an abort
    cfg = IntegratorConfig(dt=1e-3, t_final=0.3, max_step_drift=1e-2, monitor_stride=30)
    print(f"{'family':>18} {'essential':>10} {'cp audit':>10} {'worst remote residual':>22}")
    for name, gam in FAMILIES.items():
        spec = GeneratorSpec(H=SZ + 0.2 * SX, t_family=TFamily("powerLaw", q=1.0), gamma_family=gam)
        cls = classify_dissipative_part(spec, sample_count=80, rng=rng)
        samples = [random_entangled_state(2, 2, rng, mixture_terms=2) for _ in range(3)]
        cp = verify_cp_extension(BipartiteDynamics(spec_H=spec), samples, cfg)
        worst = max(s.remote_residual for s in cp.samples)
        report[name] = {
            "essential": cls.essential,
            "classifier_note": cls.note,
            "cp_passed": cp.passed,
            "worst_remote_residual": worst,
        }
        print(f"{name:>18} {str(cls.essential):>10} {str(cp.passed):>10} {worst:>22.3e}")
    out = sys.argv[1] if len(sys.argv) > 1 else "essentiality_report.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"report written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
