"""Spans around dissdim's public layer functions, recorded from outside the package.

``install(recorder)`` replaces each function named in ``LAYERS`` by a wrapper
that opens a span around the call, both on the object that defines it and
under every name another ``dissdim`` module bound with ``from ... import``.
Spans stay in memory and are written as JSON lines when the stage ends.

``layer_metrics`` turns the spans of one pipeline pass into the per-layer
metrics: for every layer ``.calls``, ``.busy_s`` (summed span time) and
``.self_s`` (span time minus the time of its child spans), plus the work
counters listed in ``LAYERS``.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import json
import os
import sys
import time
import tracemalloc

import numpy as np

BASE_STATS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))


def _file_bytes(result, a):
    return {"bytes": os.path.getsize(a["path"])}


def _ladder_work(result, a):
    mu = a["mu"]
    if a.get("centers") is not None:
        centers = len(a["centers"])
    elif a.get("top_k") is not None:
        centers = min(a["top_k"], mu.n_atoms)
    else:
        centers = mu.support_points().shape[0]
    return {"centers": centers, "atoms": mu.n_atoms,
            "center_atom_pairs": centers * mu.n_atoms * len(a["scales"])}


def _grid_nodes(result, a):
    f = a["field"]
    return {"grid_nodes": f.nt * f.nx ** f.d}


def _space_points(result, a):
    return {"points": int(np.prod(np.shape(a["y"])[:-1]))}


def _time_points(result, a):
    return {"points": int(np.size(a["t"]))}


# span fields that counters add up over a pass
COUNTERS = ("bytes", "substeps", "centers", "atoms", "center_atom_pairs", "points",
            "grid_nodes")
IO = (("bytes", "B"), ("mb_per_s", "MB/s"))
BUMP = (("points", "count"),)

# span name, "module:attribute path", counter, trace allocations, extra stats
LAYERS = (
    ("io.write_field", "dissdim.io:write_field", _file_bytes, False, IO),
    ("io.read_field", "dissdim.io:read_field", _file_bytes, False, IO),
    ("io.write_measure", "dissdim.io:write_measure", _file_bytes, False, IO),
    ("io.read_measure", "dissdim.io:read_measure", _file_bytes, False, IO),
    ("fixtures.viscous_burgers_run", "dissdim.fixtures:viscous_burgers_run",
     lambda r, a: {"substeps": r.steps}, False,
     (("substeps", "count"), ("us_per_substep", "us"))),
    ("fixtures.burgers_entropy_solution", "dissdim.fixtures:burgers_entropy_solution",
     None, False, ()),
    ("aniso_measure.density_ladder", "dissdim.aniso_measure:density_ladder",
     _ladder_work, True,
     (("centers", "count"), ("atoms", "count"), ("center_atom_pairs", "count"),
      ("pairs_per_s", "1/s"), ("peak_alloc_mb", "MiB"))),
    ("aniso_measure.box_counting_dimension", "dissdim.aniso_measure:box_counting_dimension",
     lambda r, a: {"points": len(a["points"])}, False, (("points", "count"),)),
    ("aniso_measure.certify_lower_bound", "dissdim.aniso_measure:certify_lower_bound",
     None, False, ()),
    ("weak_balance.holder_cylinder_bound", "dissdim.weak_balance:holder_cylinder_bound",
     _grid_nodes, True,
     (("grid_nodes", "count"), ("margin_skips", "count"), ("useful_ratio", "ratio"),
      ("peak_alloc_mb", "MiB"))),
    ("fields.GriddedField.speed", "dissdim.fields:GriddedField.speed", None, False, ()),
    ("fields.GriddedField.grad_squared", "dissdim.fields:GriddedField.grad_squared",
     None, False, ()),
    ("fields.GriddedField.spatial_mesh", "dissdim.fields:GriddedField.spatial_mesh",
     None, False, ()),
    ("fields.GriddedField.spatial_weights", "dissdim.fields:GriddedField.spatial_weights",
     None, False, ()),
    ("cutoffs.SpatialBump.value", "dissdim.cutoffs:SpatialBump.value",
     _space_points, False, BUMP),
    ("cutoffs.SpatialBump.gradient", "dissdim.cutoffs:SpatialBump.gradient",
     _space_points, False, BUMP),
    ("cutoffs.SpatialBump.laplacian", "dissdim.cutoffs:SpatialBump.laplacian",
     _space_points, False, BUMP),
    ("cutoffs.TimeBump.value", "dissdim.cutoffs:TimeBump.value", _time_points, False, BUMP),
    ("cutoffs.TimeBump.deriv", "dissdim.cutoffs:TimeBump.deriv", _time_points, False, BUMP),
    ("cli.burgers", "dissdim.cli:cmd_burgers", None, False, ()),
    ("cli.vfield", "dissdim.cli:cmd_vfield", None, False, ()),
    ("cli.dimension", "dissdim.cli:cmd_dimension", None, False, ()),
    ("cli.verify", "dissdim.cli:cmd_verify", None, False, ()),
)

# Per-layer metrics that come from process wall times rather than spans.
WALL_METRICS = (("cli.startup_s", "s"), ("trace.overhead_s", "s"))


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _, _, _, extra in LAYERS:
        for stat, unit in BASE_STATS + extra:
            units[f"{name}.{stat}"] = unit
    units.update(WALL_METRICS)
    return units


class Recorder:
    """Spans of one stage process, kept in memory until ``dump``."""

    def __init__(self, stage: str):
        self.stage = stage
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str, trace_alloc: bool = False):
        rec = {"stage": self.stage, "id": len(self.spans),
               "parent": self._open[-1] if self._open else None, "name": name}
        self.spans.append(rec)
        self._open.append(rec["id"])
        own_tracing = trace_alloc and not tracemalloc.is_tracing()
        if own_tracing:
            tracemalloc.start()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            if own_tracing:
                rec["peak_alloc_b"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._open.pop()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _wrap(recorder: Recorder, name: str, fn, counter, trace_alloc: bool):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name, trace_alloc) as rec:
            result = fn(*args, **kwargs)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            rec.update(counter(result, bound.arguments))
        return result

    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every function in ``LAYERS``; ``dissdim.cli`` must be imported first."""
    modules = [m for n, m in sys.modules.items() if n == "dissdim" or n.startswith("dissdim.")]
    for name, target, counter, trace_alloc, _ in LAYERS:
        module_name, path = target.split(":")
        owner = sys.modules[module_name]
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = _wrap(recorder, name, original, counter, trace_alloc)
        setattr(owner, attr, wrapped)
        if owner_path:
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def layer_metrics(spans: list) -> dict:
    """Per-layer totals over the spans of one pass (several stages)."""
    child_time = collections.Counter()
    for rec in spans:
        if rec["parent"] is not None:
            child_time[rec["stage"], rec["parent"]] += rec["end"] - rec["start"]
    totals = collections.defaultdict(collections.Counter)
    for rec in spans:
        t = totals[rec["name"]]
        dur = rec["end"] - rec["start"]
        t["calls"] += 1
        t["busy_s"] += dur
        t["self_s"] += dur - child_time[rec["stage"], rec["id"]]
        t["margin_skips"] += rec.get("error") == "MarginError"
        for key in COUNTERS:
            t[key] += rec.get(key, 0)
        t["peak_alloc_b"] = max(t["peak_alloc_b"], rec.get("peak_alloc_b", 0))

    out = {}
    for name, _, _, _, extra in LAYERS:
        t = totals[name]
        busy, calls = t["busy_s"], t["calls"]
        derived = {
            "mb_per_s": t["bytes"] / 1e6 / busy if busy else 0.0,
            "us_per_substep": busy * 1e6 / t["substeps"] if t["substeps"] else 0.0,
            "pairs_per_s": t["center_atom_pairs"] / busy if busy else 0.0,
            "peak_alloc_mb": t["peak_alloc_b"] / 2 ** 20,
            "useful_ratio": (calls - t["margin_skips"]) / calls if calls else 0.0,
        }
        for stat, _ in BASE_STATS + extra:
            out[f"{name}.{stat}"] = derived[stat] if stat in derived else t[stat]
    return out
