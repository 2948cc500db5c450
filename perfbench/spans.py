"""Outside-in span recorder for the traced benchmark run.

The tracer wraps public entry points of ``tnshap.model_io``, ``lift``,
``tensor_net``, ``attribute`` and ``fit`` from the benchmark's side; no
source under ``src/`` is changed. Each hook names the layer it belongs to.

* Package-level names such as ``tnshap.explain`` are re-exports bound at
  import time, and modules bind names with ``from .x import y``. A function
  hook therefore replaces *every* binding of the original function object
  in the ``tnshap`` modules, not only the defining one. Method hooks patch
  the class, which every module shares.
* A hook whose target a later change deletes is listed in ``absent`` and
  its layer reads zero; installing never fails for a missing name.
* ``explain_batch`` runs ``explain`` on worker threads, so every thread has
  its own span stack. A layer entered again inside itself on the same
  thread (``lift_instance`` -> ``apply`` -> ``apply_batch``) is one span.

Spans are aggregated as they close: per layer a call count, busy time
(outermost spans), self time (busy minus child spans on the same thread),
and hook-specific counts. Parent->child layer edges are kept too, which is
the outside-in view of where a request's time went.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field


def _rows(arrays) -> int:
    for a in arrays:
        if a is not None and hasattr(a, "shape"):
            return int(a.shape[0])
    return 0


def _legs_measure(args, kwargs, result, ctx):
    legs = kwargs.get("legs", args[1] if len(args) > 1 else ())
    rows = _rows(legs)
    # computed, not measured: float64 input bytes implied by the leg shapes
    bytes_in = sum(int(a.shape[0]) * int(a.shape[-1]) * 8 for a in legs if hasattr(a, "shape"))
    return {"rows": rows, "bytes_in": bytes_in}, {"peak_rows": rows}


def _env_measure(args, kwargs, result, ctx):
    # (topology, cores, batch) for tree messages, (cores, batch) for TT states
    return {"rows": _rows(args[-1]) if args else 0}, {}


def _explain_measure(args, kwargs, result, ctx):
    if result is None:
        return {}, {}
    return {
        "instances": 1,
        "forwards": int(getattr(result, "forwards_used", 0)),
        "subsets": len(getattr(result, "subsets", ())),
        "flagged": len(getattr(result, "flagged", ())),
    }, {}


def _solve_measure(args, kwargs, result, ctx):
    rhs = kwargs.get("rhs", args[1] if len(args) > 1 else None)
    cols = 0
    if rhs is not None and hasattr(rhs, "shape"):
        cols = 1 if len(rhs.shape) == 1 else int(rhs.shape[1])
    resid = 0.0
    try:
        resid = float(max(result[1]) if hasattr(result[1], "__len__") else result[1])
    except (TypeError, ValueError, IndexError):
        pass
    return {"columns": cols}, {"max_residual": resid}


def _emit_measure(args, kwargs, result, ctx):
    per_instance = kwargs.get("per_instance", args[1] if len(args) > 1 else ())
    rows = 0
    for sets in per_instance:
        rows += sum(len(getattr(a, "subsets", ())) for a in sets)
    return {"rows": rows}, {}


def _teacher_before(args, kwargs):
    teacher = kwargs.get("teacher", args[0] if args else None)
    return teacher, getattr(teacher, "forward_count", 0)


def _teacher_measure(args, kwargs, result, ctx):
    teacher, before = ctx
    return {"teacher_forwards": getattr(teacher, "forward_count", before) - before}, {}


def _als_measure(args, kwargs, result, ctx):
    try:
        return {"sweeps": int(result[1].sweeps_used)}, {}
    except (TypeError, AttributeError, IndexError):
        return {}, {}


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    target: str  # "function" or "Class.method"
    measure: object = None  # (args, kwargs, result, ctx) -> (sums, maxima)
    before: object = None  # (args, kwargs) -> ctx


# Per-subset helpers (``signed_toggle``, ``off_state``) are not hooked: a
# hook costs about as much as one of their calls, so they stay inside the
# explain self time, which is the probe-assembly layer.
HOOKS = (
    Hook("model_io.load", "tnshap.model_io", "load_model"),
    Hook("lift", "tnshap.lift", "LiftSpec.lift_instance"),
    Hook("lift", "tnshap.lift", "FeatureMap.apply_batch"),
    Hook("tensor_net.env", "tnshap.tensor_net", "tree_up_messages", _env_measure),
    Hook("tensor_net.env", "tnshap.tensor_net", "tree_down_messages", _env_measure),
    Hook("tensor_net.env", "tnshap.tensor_net", "tt_left_states", _env_measure),
    Hook("tensor_net.env", "tnshap.tensor_net", "tt_right_states", _env_measure),
    Hook("tensor_net.forward", "tnshap.tensor_net", "TensorNetworkModel.forward_batch", _legs_measure),
    Hook("tensor_net.forward", "tnshap.fit", "CpTeacher.forward_batch", _legs_measure),
    Hook("attribute.explain", "tnshap.attribute", "explain", _explain_measure),
    Hook("attribute.batch", "tnshap.attribute", "explain_batch"),
    Hook("attribute.plan", "tnshap.attribute", "ProbePlan.__init__"),
    Hook("attribute.solve", "tnshap.attribute", "ProbePlan.solve", _solve_measure),
    Hook("attribute.transform", "tnshap.attribute", "degree_to_size_transform"),
    Hook("attribute.emit", "tnshap.attribute", "write_attribution_csv", _emit_measure),
    Hook("fit.build", "tnshap.fit", "build_training_set", _teacher_measure, _teacher_before),
    Hook("fit.als", "tnshap.fit", "fit_student", _als_measure),
    Hook("fit.lstsq", "tnshap.fit", "_SolveStats.solve"),
)


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    sums: dict = field(default_factory=dict)
    maxima: dict = field(default_factory=dict)


class _Frame:
    __slots__ = ("layer", "start", "child_s")

    def __init__(self, layer: str, start: float) -> None:
        self.layer = layer
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Installs the hooks, records spans per thread, aggregates per layer."""

    def __init__(self, hooks=HOOKS) -> None:
        self.hooks = tuple(hooks)
        self.layers = {}
        self.edges = {}
        self.absent = []
        self._patched = []  # (owner, attribute name, original object)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._batch_threads = None
        self._batch_explain_s = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for hook in self.hooks:
            mod = sys.modules.get(hook.module)
            owner_name, _, attr = hook.target.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = None
            if owner is not None:
                original = owner.__dict__.get(attr) if owner_name else getattr(owner, attr, None)
            if original is None or not callable(original):
                self.absent.append(f"{hook.module}.{hook.target}")
                continue
            wrapper = self._wrap(hook, original)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "tnshap" or name.startswith("tnshap.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, hook: Hook, fn):
        tracer = self
        batch = hook.layer == "attribute.batch"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._push(hook.layer)
            if frame is None:
                return fn(*args, **kwargs)
            ctx = hook.before(args, kwargs) if hook.before else None
            if batch:
                tracer._begin_batch()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._pop(frame, hook, args, kwargs, result, ctx)

        return wrapper

    # -- span stack ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, layer: str):
        stack = self._stack()
        if any(f.layer == layer for f in stack):
            return None
        frame = _Frame(layer, time.perf_counter())
        stack.append(frame)
        return frame

    def _pop(self, frame, hook, args, kwargs, result, ctx) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        dur = end - frame.start
        if stack:
            parent = stack[-1].layer
            stack[-1].child_s += dur
        else:  # a pool thread's outermost span belongs to the running batch
            in_batch = self._batch_threads is not None and hook.layer != "attribute.batch"
            parent = "attribute.batch" if in_batch else "op"
        sums, maxima = ({}, {})
        if hook.measure is not None:
            sums, maxima = hook.measure(args, kwargs, result, ctx)
        with self._lock:
            st = self.layers.setdefault(hook.layer, LayerStats())
            st.calls += 1
            st.busy_s += dur
            st.self_s += dur - frame.child_s
            for key, val in sums.items():
                st.sums[key] = st.sums.get(key, 0) + val
            for key, val in maxima.items():
                st.maxima[key] = max(st.maxima.get(key, val), val)
            edge = self.edges.setdefault(f"{parent}>{hook.layer}", [0, 0.0])
            edge[0] += 1
            edge[1] += dur
            if hook.layer == "attribute.explain" and self._batch_threads is not None:
                self._batch_threads.add(threading.get_ident())
                self._batch_explain_s += dur
            if hook.layer == "attribute.batch":
                st.sums["workers"] = st.sums.get("workers", 0) + len(self._batch_threads or ())
                st.sums["explain_s"] = st.sums.get("explain_s", 0.0) + self._batch_explain_s
                self._batch_threads = None

    def _begin_batch(self) -> None:
        with self._lock:
            self._batch_threads = set()
            self._batch_explain_s = 0.0

    # -- results ------------------------------------------------------------

    def layer(self, name: str) -> LayerStats:
        return self.layers.get(name, LayerStats())

    def edge_report(self, per: int) -> dict:
        per = max(per, 1)
        return {
            key: {"calls": calls / per, "busy_s": busy / per}
            for key, (calls, busy) in sorted(self.edges.items())
        }
