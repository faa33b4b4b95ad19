"""Span tracing of nlqd's public functions, for the per-layer metrics.

The modules import names directly into each other's namespaces
(``from .generators import generator_matrix``), so a wrapper only takes
effect where it replaces the name its caller looks up.  ``install`` wraps
every public function defined in a layer module and swaps the wrapper in
under every name, in every nlqd module, that held the original.  It also
counts ``numpy.linalg.eigh``/``eigvalsh`` calls.

A span is (name, tag, parent, start, end), kept in flat arrays while
recording and written out once by ``save``.  A layer is the module that
defines the function; its self time is the duration of its spans minus the
duration of their direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "generators", "propagation", "entanglement", "measurement", "io", "cli")
FAMILIES = ("vonNeumann", "powerLaw", "zeroMean", "energyConserving", "nonEssential")
DIMS = (2, 4, 8)
EVAL_FUNCS = ("generator_matrix", "eval_generator", "eval_T", "eval_Gamma")
AUDIT_FUNCS = ("check_zero_mean", "check_polchinski_condition", "classify_dissipative_part")
MONITORS = ("propagation.monitor", "entanglement.monitor")


def spec_family(spec) -> str:
    g = spec.gamma_family.family
    return spec.t_family.family if g == "none" else g


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.tags: list[str] = [""]
        self._name_ids: dict[str, int] = {}
        self._tag_ids: dict[str, int] = {"": 0}
        self.name = array("I")
        self.tag = array("I")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.recording = False
        self.eig_calls = 0
        self.csv_bytes = 0
        self._undo: list[tuple[object, str, object]] = []

    # ---- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _tag_id(self, tag: str) -> int:
        if tag not in self._tag_ids:
            self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return self._tag_ids[tag]

    def open(self, nid: int, tag: str = "") -> int:
        i = len(self.start)
        self.name.append(nid)
        self.tag.append(self._tag_id(tag) if tag else 0)
        self.parent.append(self._stack[-1])
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, tag_fn=None, result_fn=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            i = tracer.open(nid, tag_fn(*args, **kwargs) if tag_fn else "")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            return result_fn(out, args) if result_fn else out

        return wrapper

    # ---- installation -------------------------------------------------------

    def _special(self, attr: str) -> dict:
        """Tags and result hooks for the functions the layer metrics split."""
        if attr == "generator_matrix":
            return {"tag_fn": lambda spec, rho: f"{spec_family(spec)}.d{spec.dim}"}
        if attr == "evolve":
            return {"tag_fn": lambda rho0, spec, cfg: f"d{spec.dim}.n{cfg.n_steps}"}
        if attr == "default_monitor":
            return {"result_fn": lambda mon, args: self.wrap(mon, "propagation.monitor")}
        if attr == "bipartite_monitor":
            return {"result_fn": lambda mon, args: self.wrap(mon, "entanglement.monitor")}
        if attr == "trajectory_to_csv":
            return {"result_fn": self._count_csv}
        return {}

    def _count_csv(self, out, args):
        self.csv_bytes += os.path.getsize(args[1])
        return out

    def install(self) -> None:
        pkg = importlib.import_module("nlqd")
        modules = [importlib.import_module(f"nlqd.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped[fn] = self.wrap(fn, f"{layer}.{attr}", **self._special(attr))
        for mod in [pkg, *modules]:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapped[val])
        for attr in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, attr)
            self._undo.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, self._count_eig(fn))

    def _count_eig(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.recording:
                tracer.eig_calls += 1
            return fn(*args, **kwargs)

        return counted

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._undo):
            setattr(mod, attr, val)
        self._undo.clear()

    # ---- output -------------------------------------------------------------

    def save(self, path: str) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.uint32),
            tag=np.frombuffer(self.tag, dtype=np.uint32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(json.dumps(self.names)),
            tags=np.array(json.dumps(self.tags)),
        )

    def metrics(self, rounds: int, steps: int, overhead_s: float) -> dict:
        """Per-layer metrics as name -> (value, unit); totals are per round,
        ratios per nominal step."""
        name = np.frombuffer(self.name, dtype=np.uint32)
        tag = np.frombuffer(self.tag, dtype=np.uint32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        # Name id of each span's parent; len(names) stands for "no parent".
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], len(self.names))
        layer_of = np.array([n.split(".")[0] for n in self.names] + ["-"])

        def ids(*names):
            return [self._name_ids[n] for n in names if n in self._name_ids]

        def sel(*names):
            return np.isin(name, ids(*names))

        def tagged(prefix):
            return np.isin(tag, [i for t, i in self._tag_ids.items() if t.startswith(prefix)])

        m: dict[str, tuple[float, str]] = {}
        per_step = 1.0 / steps if steps else 0.0
        span_layer = layer_of[name]
        for lay in LAYERS:
            m[f"{lay}.self_s"] = (float(self_t[span_layer == lay].sum()) / rounds, "s/round")
        m["linalg.calls"] = (float(np.sum(span_layer == "linalg")) / rounds, "1/round")
        m["linalg.eig_per_step"] = (self.eig_calls * per_step, "1/step")
        evals = sel(*("generators." + f for f in EVAL_FUNCS))
        m["generators.evals_per_step"] = (float(evals.sum()) * per_step, "1/step")
        gm = sel("generators.generator_matrix")
        for fam in FAMILIES:
            for d in DIMS:
                hit = gm & tagged(f"{fam}.d{d}")
                m[f"generators.{fam}.d{d}.us_per_eval"] = (float(dur[hit].mean()) * 1e6 if hit.any() else 0.0, "us")
        audits = ids(*("generators." + f for f in AUDIT_FUNCS))
        outer_audit = np.isin(name, audits) & ~np.isin(parent_name, audits)
        m["generators.audit_s"] = (float(dur[outer_audit].sum()) / rounds, "s/round")
        ev = sel("propagation.evolve")
        for d in DIMS:
            hit = ev & tagged(f"d{d}.n")
            n_steps = sum(int(self.tags[t].split(".n")[1]) for t in tag[hit])
            m[f"propagation.d{d}.us_per_step"] = (float(dur[hit].sum()) / n_steps * 1e6 if n_steps else 0.0, "us")
        monitors = ids(*MONITORS)
        outer_mon = np.isin(name, monitors) & ~np.isin(parent_name, monitors)
        m["propagation.monitor_s"] = (float(dur[outer_mon].sum()) / rounds, "s/round")
        m["propagation.monitor_records"] = (float(outer_mon.sum()) / rounds, "1/round")
        integ = sel("propagation.integrate_generator", "propagation.accumulate_propagator")
        m["propagation.integrations"] = (float(integ.sum()) / rounds, "1/round")
        pg = sel("entanglement.polchinski_generator")
        m["entanglement.generator_calls_per_step"] = (float(pg.sum()) * per_step, "1/step")
        m["measurement.integrations_per_report"] = (
            self._integrations_per_report(sel("measurement.correlation_report"), sel("propagation.integrate_generator"), parent),
            "1/report",
        )
        m["io.csv_write_s"] = (float(dur[sel("io.trajectory_to_csv")].sum()) / rounds, "s/round")
        m["io.csv_read_s"] = (float(dur[sel("io.verify_csv")].sum()) / rounds, "s/round")
        m["io.csv_bytes"] = (self.csv_bytes / rounds, "B/round")
        m["io.scenario_load_s"] = (float(dur[sel("io.load_scenario")].sum()) / rounds, "s/round")
        m["trace.overhead_s"] = (overhead_s, "s/round")
        return m

    @staticmethod
    def _integrations_per_report(is_report, is_integration, parent) -> float:
        """Integrations that run inside a correlation report, per report."""
        if not is_report.any():
            return 0.0
        count = 0
        for i in np.flatnonzero(is_integration):
            j = parent[i]
            while j >= 0 and not is_report[j]:
                j = parent[j]
            count += j >= 0
        return count / int(is_report.sum())
