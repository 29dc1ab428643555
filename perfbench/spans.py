"""Span tracing of the selfcal package from outside, plus per-layer accounting.

``Tracer.install`` replaces every public function of the package modules at
every module binding that holds it (``selfcal.toast`` re-imports
``featurize`` from ``selfcal.model``, so that name gets its own wrapper in
``selfcal.toast``), and every public method of the classes the modules
define. Each wrapper appends one span (name id, parent span, start, end) to
flat in-memory arrays; ``uninstall`` puts the originals back. Nothing in the
package is edited.

A span's self time is its duration minus the durations of its direct
children; since the program is single-threaded, children nest inside their
parent, so the self times of all spans sum to the time covered by the
top-level spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("corpus", "model", "augment", "toast", "calibrators", "metrics", "apps", "cli")
GRAD_FUNCS = ("model.main_batch_grads", "model.calib_batch_grads",
              "model.consistency_batch_grads")
SGD_STEP_FUNCS = GRAD_FUNCS + ("model.apply_grads", "model.Grads.add",
                               "model.Grads.scaled")


class Tracer:
    """Span recorder; create one per traced unit of work."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        # Counters taken at the boundary where the work happens.
        self.featurize_args: set = set()
        self.attack_successes = 0
        self.encoder_bytes = 0
        self.risk_coverage_points = 0
        self.toast_annotated = 0
        self.toast_kept = 0
        self._hook_table = self._hooks()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"selfcal.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("selfcal"))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and _layer_of(obj):
                    self._patch(mod, attr, self._wrap(obj, _qualname(obj)))
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and _layer_of(obj)):
                    self._patch_methods(obj)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_methods(self, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                fn = member.__func__
                self._patch(cls, attr, type(member)(self._wrap(fn, _qualname(fn))))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, _qualname(member)))

    def _wrap(self, fn, name: str):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = self._hook_table.get(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _hooks(self) -> dict:
        def featurize(args, kwargs, _):
            self.featurize_args.add((args, tuple(sorted(kwargs.items()))))

        def greedy_attack(args, kwargs, result):
            self.attack_successes += result is not None

        def init_parameters(args, kwargs, result):
            self.encoder_bytes = max(self.encoder_bytes, result.encoder.nbytes)

        def risk_coverage(args, kwargs, _):
            log = args[0] if args else kwargs["log"]
            self.risk_coverage_points += len(log.confidence)

        def run_toast(args, kwargs, result):
            counts = result[1].meta["counts"]
            self.toast_annotated += counts["annotated"]
            self.toast_kept += counts["dstar"]

        return {
            "model.featurize": featurize,
            "augment.greedy_attack": greedy_attack,
            "model.init_parameters": init_parameters,
            "metrics.risk_coverage": risk_coverage,
            "toast.run_toast": run_toast,
        }

    # -- accounting ---------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write the spans and the name table as one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.spans())

    def summary(self, wall_s: float) -> dict:
        """Per-function call counts, inclusive and self seconds, and the
        per-layer metrics, for a traced stretch that took ``wall_s``."""
        s = self.spans()
        nid, parent = s["name_id"], s["parent"]
        span_name = np.array(self.names)[nid]
        dur = s["end"] - s["start"]
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        n_names = len(self.names)
        calls = np.bincount(nid, minlength=n_names)
        incl = np.bincount(nid, weights=dur, minlength=n_names)
        selfs = np.bincount(nid, weights=self_s, minlength=n_names)
        ids = {n: i for i, n in enumerate(self.names)}

        def fn_calls(name):
            return int(calls[ids[name]]) if name in ids else 0

        def fn_self(name):
            return float(selfs[ids[name]]) if name in ids else 0.0

        def outermost_incl(group) -> float:
            """Inclusive seconds of spans in ``group`` not nested in another."""
            member = np.isin(span_name, group)
            nested = has_ancestor(parent, member)
            return float(dur[member & ~nested].sum())

        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, sec in zip(self.names, selfs):
            layer_self[name.split(".", 1)[0]] += float(sec)
        attributed = sum(layer_self.values())

        attack_calls = fn_calls("augment.greedy_attack")
        in_attack = has_ancestor(parent, span_name == "augment.greedy_attack")
        attack_featurize = int(((span_name == "model.featurize") & in_attack).sum())
        featurize_calls = fn_calls("model.featurize")
        sgd_steps = fn_calls("model.apply_grads")

        metrics = {
            "model.featurize.calls": featurize_calls,
            "model.featurize.self_s": fn_self("model.featurize"),
            "model.featurize.distinct_ratio": (
                len(self.featurize_args) / featurize_calls if featurize_calls else 0.0),
            "model.grads.self_s": sum(fn_self(n) for n in GRAD_FUNCS),
            "model.apply_grads.self_s": fn_self("model.apply_grads"),
            "model.sgd_steps": sgd_steps,
            "model.sgd_step_ms": (
                1e3 * outermost_incl(SGD_STEP_FUNCS) / sgd_steps if sgd_steps else 0.0),
            "model.init_parameters.self_s": fn_self("model.init_parameters"),
            "model.encoder_bytes": self.encoder_bytes,
            "model.predict.calls": fn_calls("model.predict"),
            "model.predict.self_s": fn_self("model.predict"),
            "augment.greedy_attack.calls": attack_calls,
            "augment.greedy_attack.self_s": fn_self("augment.greedy_attack"),
            "augment.attack.success_ratio": (
                self.attack_successes / attack_calls if attack_calls else 0.0),
            "augment.attack.featurize_per_attack": (
                attack_featurize / attack_calls if attack_calls else 0.0),
            "augment.attack.wall_share": outermost_incl(("augment.greedy_attack",)) / wall_s,
            "toast.cross_annotate.self_s": fn_self("toast.cross_annotate"),
            "toast.train_multitask.self_s": fn_self("toast.train_multitask"),
            "toast.multitask_steps": int((
                has_ancestor(parent, span_name == "toast.train_multitask")
                & (span_name == "model.apply_grads")).sum()),
            "toast.kept_ratio": (
                self.toast_kept / self.toast_annotated if self.toast_annotated else 0.0),
            "calibrators.score.calls": fn_calls("calibrators.Calibrator.score"),
            "calibrators.score.self_s": fn_self("calibrators.Calibrator.score"),
            "calibrators.build_log.self_s": fn_self("calibrators.Calibrator.build_log"),
            "calibrators.fit_temperature.self_s": fn_self("calibrators.fit_temperature"),
            "metrics.risk_coverage.calls": fn_calls("metrics.risk_coverage"),
            "metrics.risk_coverage.self_s": fn_self("metrics.risk_coverage"),
            "metrics.risk_coverage.points": self.risk_coverage_points,
            "metrics.auroc.self_s": fn_self("metrics.auroc"),
            "metrics.cascade_curve.self_s": fn_self("metrics.cascade_curve"),
            "apps.selective_eval.self_s": fn_self("apps.selective_eval"),
            "apps.adversarial_eval.self_s": fn_self("apps.adversarial_eval"),
            "apps.cascade_eval.self_s": fn_self("apps.cascade_eval"),
            "cli.cmd_eval.self_s": fn_self("cli.cmd_eval"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = layer_self[layer]
        metrics["trace.spans"] = len(dur)
        metrics["trace.unattributed_s"] = wall_s - attributed
        functions = {
            name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(selfs[i])}
            for i, name in enumerate(self.names) if calls[i]
        }
        return {"metrics": metrics, "functions": functions}


def _layer_of(obj) -> str | None:
    parts = obj.__module__.split(".")
    if len(parts) == 2 and parts[0] == "selfcal" and parts[1] in LAYERS:
        return parts[1]
    return None


def _qualname(fn) -> str:
    return f"{_layer_of(fn)}.{fn.__qualname__}"


def has_ancestor(parent: np.ndarray, member: np.ndarray) -> np.ndarray:
    """For each span, whether some proper ancestor has ``member`` set."""
    found = np.zeros(len(parent), dtype=bool)
    up = parent.astype(np.int64)
    live = up >= 0
    while live.any():
        idx = np.nonzero(live)[0]
        found[idx] |= member[up[idx]]
        up[idx] = parent[up[idx]]
        live = up >= 0
    return found
