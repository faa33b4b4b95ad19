#!/usr/bin/env python3
"""The largest move of every run family between two values files of
scripts/output_digest.py, e.g. of a parent checkout and of a change:

    PYTHONPATH=old/src python3 scripts/output_digest.py /dev/null old.json
    PYTHONPATH=src python3 scripts/output_digest.py /dev/null new.json
    python3 scripts/value_moves.py old.json new.json

A run family is the first two parts of a run's name (``evolve/zeroMean``,
``checks/cp_extension``, ...).  Each line gives a family, the largest
|new - old| over its kept values, and the run and part where it occurs,
largest move first; a family whose values all keep their bits reads 0.
``baseline_gaps`` is the one comparison rule, which
tests/test_scripts.py holds every run to against tests/data/baseline.json.

Usage: python3 scripts/value_moves.py OLD.json NEW.json
"""

import json
import pathlib
import sys

import numpy as np


def baseline_gaps(values: dict, baseline: dict) -> dict:
    """(run, part) -> |value - baseline| at its worst, for every kept value of
    either file; a NaN matches only a NaN, and a shape mismatch, or a value
    only one file keeps, is an infinite gap."""
    gaps = {}
    for run in {**baseline, **values}:
        old, new = baseline.get(run, {}), values.get(run, {})
        for part in {**old, **new}:
            if part not in old or part not in new:
                gaps[run, part] = np.inf
                continue
            got, want = np.array(new[part]), np.array(old[part])
            if got.shape != want.shape or (np.isnan(got) != np.isnan(want)).any():
                gaps[run, part] = np.inf
            else:
                gaps[run, part] = float(np.max(np.abs(np.nan_to_num(got - want)), initial=0.0))
    return gaps


def family_moves(gaps: dict) -> dict:
    """family -> (gap, run, part) of its largest gap, the first such value on a tie."""
    moves = {}
    for (run, part), gap in gaps.items():
        family = "/".join(run.split("/")[:2])
        if family not in moves or gap > moves[family][0]:
            moves[family] = (gap, run, part)
    return moves


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    old, new = (json.loads(pathlib.Path(path).read_text()) for path in sys.argv[1:])
    moves = family_moves(baseline_gaps(new, old))
    for family, (gap, run, part) in sorted(moves.items(), key=lambda kv: (-kv[1][0], kv[0])):
        print(f"{family} {gap:.2g}" + (f" {run} {part}" if gap else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
