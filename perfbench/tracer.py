"""Span tracing of coloc's public functions, installed from outside the package.

While a :class:`Tracer` is installed, the functions named in :data:`TARGETS`
are replaced, in every ``coloc`` module that holds a reference to them, by
wrappers that record one span per call: process id, span id, parent span,
name, start, end and a few per-call counts.  ``uninstall`` puts every
original object back.  Spans stay in memory and are summarized once, after
the traced pass.  Traced passes run in one process (``--workers 1``).

``geometry`` is deliberately not wrapped: its functions are called hundreds
of thousands of times per run, so their cost shows in the self time of the
layer that calls them.
"""

from __future__ import annotations

import functools
import importlib
import os
import pathlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

from coloc.ekf import MeasurementKind

# (module, attribute, span name).  ``Class.method`` attributes are patched on
# the class; plain functions in every coloc module that imported them.
TARGETS = (
    ("coloc.dataio", "generate_synthetic", "dataio.ingest"),
    ("coloc.dataio", "load_trajectory", "dataio.ingest"),
    ("coloc.noise", "perturb_pose", "noise.perturb"),
    ("coloc.perception", "simulate_perception", "perception.simulate"),
    ("coloc.perception", "pair_streams", "perception.pair"),
    ("coloc.perception", "make_measurement", "perception.measure"),
    ("coloc.ekf", "EkfNode.node1_step", "ekf.node1"),
    ("coloc.ekf", "EkfNode.node2_step", "ekf.node2"),
    ("coloc.evaluation", "evaluate", "evaluation.evaluate"),
    ("coloc.evaluation", "associate", "evaluation.associate"),
    ("coloc.evaluation", "align", "evaluation.align"),
    ("coloc.evaluation", "export_error_series", "cli.write"),
    ("coloc.harness", "execute_run", "harness.execute_run"),
    ("coloc.harness", "run_report", "harness.run_report"),
    ("coloc.harness", "run_sweep", "harness.run_sweep"),
    ("coloc.harness", "write_estimate_csv", "cli.write"),
    ("coloc.cli", "main", "cli.main"),
)

# Counted per call, without a span of their own.
COUNTED = (("coloc.ekf", "predict", "ekf.predict"),)

# Report, table and cell files are written by coloc.cli with Path.write_text.
CLI_MODULE = "coloc.cli"

# Metric groups and the span names that must fire for the group to count as
# present.  A group with no span is reported as missing.
GROUPS = {
    "dataio": ("dataio.ingest",),
    "noise": ("noise.perturb",),
    "perception": ("perception.pair", "perception.measure"),
    "ekf.node1": ("ekf.node1",),
    "ekf.node2_fused": ("ekf.node2:fused",),
    "ekf.node2_baseline": ("ekf.node2:baseline",),
    "evaluation": ("evaluation.evaluate",),
    "harness": ("harness.execute_run",),
    "cli": ("cli.main",),
}

# Every per-layer metric the tracer reports, with its unit.
METRICS = {
    "dataio.ingest_s": "s",
    "dataio.rows": "count",
    "dataio.us_per_row": "us",
    "noise.perturb_calls": "count",
    "noise.perturb_s": "s",
    "perception.pair_s": "s",
    "perception.measure_s": "s",
    "perception.events": "count",
    "perception.pair_yield": "ratio",
    "perception.emit_ratio": "ratio",
    "ekf.node1_s": "s",
    "ekf.node1_steps": "count",
    "ekf.node1_us_per_step": "us",
    "ekf.node2_fused_s": "s",
    "ekf.node2_fused_steps": "count",
    "ekf.node2_fused_us_per_step": "us",
    "ekf.node2_baseline_s": "s",
    "ekf.node2_baseline_steps": "count",
    "ekf.predict_calls": "count",
    "ekf.predict_per_step": "ratio",
    "ekf.rejected": "count",
    "evaluation.evaluate_s": "s",
    "evaluation.associate_s": "s",
    "evaluation.align_s": "s",
    "evaluation.match_ratio": "ratio",
    "harness.self_s": "s",
    "harness.runs": "count",
    "cli.write_s": "s",
    "cli.self_s": "s",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _ingest_rows(args, kwargs, result):
    if isinstance(result, tuple):  # generate_synthetic: (smart, adas)
        return {"rows": sum(len(log) for log in result)}
    return {"rows": len(result)}


def _pair_info(args, kwargs, result):
    return {"followers": len(_arg(args, kwargs, 1, "adas_poses")), "gated": len(result)}


def _associate_info(args, kwargs, result):
    return {"est": len(_arg(args, kwargs, 0, "est")), "pairs": len(result.pairs)}


INFO = {
    "generate_synthetic": _ingest_rows,
    "load_trajectory": _ingest_rows,
    "pair_streams": _pair_info,
    "simulate_perception": lambda a, k, r: {"emitted": len(r)},
    "associate": _associate_info,
    "execute_run": lambda a, k, r: {"rejected": r.n_rejected},
}


def _resolve(module_name: str, attr: str):
    """(owner, attribute name, original object) for a TARGETS entry."""
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """One traced pass: install, run the program, uninstall, collect."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [pid, sid, parent (pid, sid) | None, name, t0, t1, info]
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._nodes: list[object] = []  # keeps id(node) unique while tracing

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        rec = [os.getpid(), self._next_id, None if parent is None else (parent[0], parent[1]),
               name, perf_counter(), 0.0, None]
        self._stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = perf_counter()
        self._stack.pop()
        self.spans.append(rec)

    def _wrap(self, fn, name: str, info_fn=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if info_fn is not None:
                    rec[6] = info_fn(args, kwargs, result)
            finally:
                tracer._close(rec)
            return result

        return wrapper

    def _wrap_node2(self, fn):
        tracer = self

        @functools.wraps(fn)
        def node2_step(node, event, *args, **kwargs):
            rec = tracer._open("ekf.node2")
            rec[6] = {"node": id(node),
                      "perception": event.kind is MeasurementKind.PERCEPTION_ABSOLUTE}
            if not tracer._nodes or tracer._nodes[-1] is not node:
                tracer._nodes.append(node)
            try:
                return fn(node, event, *args, **kwargs)
            finally:
                tracer._close(rec)

        return node2_step

    def _wrap_counted(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap_write_text(self, fn):
        tracer = self

        @functools.wraps(fn)
        def write_text(path, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") != CLI_MODULE:
                return fn(path, *args, **kwargs)
            rec = tracer._open("cli.write")
            try:
                return fn(path, *args, **kwargs)
            finally:
                tracer._close(rec)

        return write_text

    # -- install / uninstall -----------------------------------------------

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "coloc" or mod_name.startswith("coloc.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        # Import every target module first: one imported mid-install would
        # bind a wrapper by `from ... import` and keep it after uninstall.
        for module_name, _, _ in TARGETS + COUNTED:
            importlib.import_module(module_name)
        for module_name, attr, name in TARGETS:
            owner, short, original = _resolve(module_name, attr)
            if owner.__class__ is type:
                wrapper = (self._wrap_node2(original) if name == "ekf.node2"
                           else self._wrap(original, name))
                self._patches.append((owner, short, original))
                setattr(owner, short, wrapper)
            else:
                self._patch_everywhere(original, self._wrap(original, name, INFO.get(short)))
        for module_name, attr, key in COUNTED:
            _, _, original = _resolve(module_name, attr)
            self._patch_everywhere(original, self._wrap_counted(original, key))
        self._patches.append((pathlib.Path, "write_text", pathlib.Path.write_text))
        pathlib.Path.write_text = self._wrap_write_text(pathlib.Path.write_text)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self._nodes = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def installed_wrappers() -> list[str]:
    """Attributes that still hold a tracer wrapper; empty after ``uninstall``."""
    from coloc.ekf import EkfNode

    names = {attr.split(".")[-1] for _, attr, _ in TARGETS + COUNTED} | {"write_text"}
    owners = {n: m for n, m in sys.modules.items() if m is not None and n.split(".")[0] == "coloc"}
    owners.update({"coloc.ekf.EkfNode": EkfNode, "pathlib.Path": pathlib.Path})
    return sorted(f"{owner_name}.{attr}" for owner_name, owner in owners.items() for attr in names
                  if getattr(vars(owner).get(attr), "__wrapped__", None) is not None)


def summarize(spans: list[list], counts: Counter) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from raw spans, and the metric groups that never fired.

    Every ``*_s`` metric is self time: a span's duration minus that of its
    child spans.
    """
    child_time: dict = defaultdict(float)
    for r in spans:
        if r[2] is not None:
            child_time[r[2]] += r[5] - r[4]

    node_role = {}
    for r in spans:
        if r[3] == "ekf.node2":
            key = (r[0], r[6]["node"])
            node_role[key] = node_role.get(key, False) or r[6]["perception"]

    self_s: dict = defaultdict(float)
    calls: Counter = Counter()
    info: dict = defaultdict(Counter)
    for r in spans:
        name = r[3]
        if name == "ekf.node2":
            name += ":fused" if node_role[(r[0], r[6]["node"])] else ":baseline"
        self_s[name] += (r[5] - r[4]) - child_time[(r[0], r[1])]
        calls[name] += 1
        if r[6] is not None and r[3] != "ekf.node2":
            info[name].update(r[6])

    def ratio(num, den):
        return num / den if den else 0.0

    node1_steps = calls["ekf.node1"]
    fused_steps = calls["ekf.node2:fused"]
    baseline_steps = calls["ekf.node2:baseline"]
    predict = counts["ekf.predict"]
    ingest = info["dataio.ingest"]
    pair = info["perception.pair"]
    assoc = info["evaluation.associate"]
    metrics = {
        "dataio.ingest_s": self_s["dataio.ingest"],
        "dataio.rows": ingest["rows"],
        "dataio.us_per_row": 1e6 * ratio(self_s["dataio.ingest"], ingest["rows"]),
        "noise.perturb_calls": calls["noise.perturb"],
        "noise.perturb_s": self_s["noise.perturb"],
        "perception.pair_s": self_s["perception.pair"],
        "perception.measure_s": self_s["perception.measure"],
        "perception.events": calls["perception.measure"],
        "perception.pair_yield": ratio(pair["gated"], pair["followers"]),
        "perception.emit_ratio": ratio(info["perception.simulate"]["emitted"], pair["gated"]),
        "ekf.node1_s": self_s["ekf.node1"],
        "ekf.node1_steps": node1_steps,
        "ekf.node1_us_per_step": 1e6 * ratio(self_s["ekf.node1"], node1_steps),
        "ekf.node2_fused_s": self_s["ekf.node2:fused"],
        "ekf.node2_fused_steps": fused_steps,
        "ekf.node2_fused_us_per_step": 1e6 * ratio(self_s["ekf.node2:fused"], fused_steps),
        "ekf.node2_baseline_s": self_s["ekf.node2:baseline"],
        "ekf.node2_baseline_steps": baseline_steps,
        "ekf.predict_calls": predict,
        "ekf.predict_per_step": ratio(predict, node1_steps + fused_steps + baseline_steps),
        "ekf.rejected": info["harness.execute_run"]["rejected"],
        "evaluation.evaluate_s": sum(v for k, v in self_s.items() if k.startswith("evaluation.")),
        "evaluation.associate_s": self_s["evaluation.associate"],
        "evaluation.align_s": self_s["evaluation.align"],
        "evaluation.match_ratio": ratio(assoc["pairs"], assoc["est"]),
        "harness.self_s": sum(v for k, v in self_s.items() if k.startswith("harness.")),
        "harness.runs": calls["harness.execute_run"],
        "cli.write_s": self_s["cli.write"],
        "cli.self_s": self_s["cli.main"],
    }
    missing = sorted(group for group, names in GROUPS.items()
                     if not any(calls[n] for n in names))
    return metrics, missing
