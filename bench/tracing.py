"""In-process tracing of the library's layers from outside the library.

:func:`install` wraps every public function of each layer module and patches
the wrapper into every ``framebundles`` namespace that bound the function by
name, so intra-module calls and ``from .x import f`` call sites are both
traced.  :func:`uninstall` restores the originals.

Calls are aggregated per (request, function) into count, total and self
time.  A call whose caller sits in another layer (or in the harness) also
becomes an individual span -- name, start, end, parent span and request id --
up to ``SPAN_CAP`` per (request, function), because hot kernels such as
``wreath_act`` run millions of times per request.  A layer's self time is its
spans' durations minus the time their child calls cover.  Work counts are
read at the same boundary, from arguments and results.

The wrappers' own work would otherwise land in self times: the work before
and after a call's timed window in the caller's, the work inside it in the
callee's.  So every request also runs untraced, and :meth:`Tracer.finish`
spreads the wall time tracing added to the whole pass (less the time spent
counting work, which is timed apart) evenly over its wrapped calls, taking
each call's share out of the self and total times it landed in.  Corrected
self times then add up to the untraced time.  A wrapped no-op
(:func:`calibrate`) gives the split of a call's cost between caller and
callee, and bounds it: where tracing adds less than the noise of the wall
times, as on a pass with few wrapped calls, their difference would otherwise
be spread as cost.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "specdoc", "suites", "bundles", "frames", "gset_aut", "gsets", "groups", "u1")
SPAN_CAP = 16  # individual spans kept per (request, function)
CALIBRATION_CALLS = 20_000
CALIBRATION_ROUNDS = 7
COST_CAP = 3  # a wrapped call costs at most this many times the calibrated cost


class Tracer:
    def __init__(self):
        # a wrapped call's cost on a no-op, and the share of it inside its timed window
        self.call_s, self.window_share = 0.0, 0.0
        self.overhead_s = 0.0  # tracer cost taken out by finish()
        self.hook_s = 0.0  # time spent counting work
        # per active call: [child seconds, layer, span id, wrapped children, wrapped descendants]
        self.stack: list[list] = []
        self.request_id = -1
        self.stdin_bytes = 0
        # this request: [count, total, self, wrapped children, wrapped descendants]
        self.calls: dict[tuple[str, str], list] = {}
        self.raw: list[tuple] = []  # (request, key, *record) of every request so far
        self.totals: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans: list[tuple] = []
        self.aggregates: list[tuple] = []
        self.kept: Counter = Counter()
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.maxima: dict[str, int] = defaultdict(int)

    # request lifecycle --------------------------------------------------
    def begin(self, request_id: int, stdin_bytes: int) -> None:
        self.request_id = request_id
        self.stdin_bytes = stdin_bytes
        self.calls = {}
        self.kept = Counter()
        self.distinct = defaultdict(set)

    def end(self) -> None:
        self.raw.extend((self.request_id, key, *rec) for key, rec in self.calls.items())
        for name, seen in self.distinct.items():
            self.counts[name + ".distinct"] += len(seen)

    def finish(self, added_s: float) -> None:
        """Take the tracer's cost out; ``added_s`` is traced less untraced wall time."""
        n = sum(r[2] for r in self.raw)
        per_call = max(0.0, added_s - self.hook_s) / n if n else 0.0
        per_call = min(per_call, COST_CAP * self.call_s)
        inside = per_call * self.window_share
        outside = per_call - inside
        self.overhead_s = per_call * n + self.hook_s
        for request_id, key, count, total, self_s, children, descendants in self.raw:
            total -= count * inside + descendants * per_call
            self_s -= count * inside + children * outside
            agg = self.totals[key]
            agg[0] += count
            agg[1] += total
            agg[2] += self_s
            self.aggregates.append((request_id, f"{key[0]}.{key[1]}", count, total, self_s))

    # per-call hooks ------------------------------------------------------
    def note_distinct(self, name: str, obj) -> None:
        self.distinct[name].add(obj)

    def note_max(self, name: str, value: int) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    def wrap(self, layer: str, name: str, fn, hook):
        key = (layer, name)
        label = f"{layer}.{name}"
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            caller = stack[-1] if stack else None
            boundary = caller is None or caller[1] != layer
            parent_span = caller[2] if caller is not None else None
            span_id = parent_span
            if boundary and tracer.kept[key] < SPAN_CAP:
                tracer.kept[key] += 1
                span_id = len(tracer.spans)
                tracer.spans.append(None)  # reserve the id; filled on return
            entry = [0.0, layer, span_id, 0, 0]
            stack.append(entry)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if caller is not None:
                    caller[0] += dur
                    caller[3] += 1
                    caller[4] += 1 + entry[4]
                rec = tracer.calls.get(key)
                if rec is None:
                    rec = tracer.calls[key] = [0, 0.0, 0.0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - entry[0]
                rec[3] += entry[3]
                rec[4] += entry[4]
                if span_id is not None and span_id != parent_span:
                    tracer.spans[span_id] = (span_id, label, t0, t1, parent_span, tracer.request_id)
            if hook is not None:
                h0 = perf_counter()
                hook(tracer, args, result, boundary)
                spent = perf_counter() - h0
                tracer.hook_s += spent
                if caller is not None:  # counting is tracer cost, not the caller's work
                    caller[0] += spent
            return result

        traced.__wrapped__ = fn
        return traced


# --------------------------------------------------------------------------
# Work counts read at layer boundaries


def _count_doc_bytes(tr, args, result, boundary):
    arg = args[0]
    tr.counts["specdoc.doc_bytes"] += tr.stdin_bytes if arg == "-" else len(arg.encode())


def _count_checks(tr, args, result, boundary):
    tr.counts["suites.checks"] += len(result.checks)


def _count_fiber_points(tr, args, result, boundary):
    if boundary:
        for a in args:
            fiber = getattr(a, "fiber", None)
            if fiber is not None and hasattr(a, "clutching"):
                tr.counts["bundles.fiber_points"] += fiber.size


def _count_frames(tr, args, result, boundary):
    tr.counts["frames.frames_enumerated"] += len(result.frames)
    tr.note_distinct("frames.enumerate_frames", args[0])


def _count_gset_auts(tr, args, result, boundary):
    tr.counts["gset_aut.auts_enumerated"] += len(result[1])


def _count_is_free(tr, args, result, boundary):
    tr.note_distinct("gsets.is_free", args[0])


def _count_automorphisms(tr, args, result, boundary):
    tr.counts["groups.automorphisms_found"] += len(result)


def _count_assoc(tr, args, result, boundary):
    tr.counts["groups.assoc_triples"] += len(result.mul) ** 3


def _angle_bits(tr, angles):
    for a in angles:
        tr.note_max("u1.angle_bits_max", a.denominator.bit_length())


def _count_u1_holonomy(tr, args, result, boundary):
    tr.counts["u1.letters"] += len(args[1])
    _angle_bits(tr, result.angles)


def _count_u1_transport(tr, args, result, boundary):
    _angle_bits(tr, (result.angle,))


def _count_pushforward(tr, args, result, boundary):
    for w in result.holonomy_gen:
        _angle_bits(tr, w.angles)


def _count_division(tr, args, result, boundary):
    _angle_bits(tr, result.rates)


HOOKS = {
    ("specdoc", "load_document"): _count_doc_bytes,
    ("suites", "run_suite"): _count_checks,
    ("frames", "enumerate_frames"): _count_frames,
    ("gset_aut", "aut_group_of_gset"): _count_gset_auts,
    ("gsets", "is_free"): _count_is_free,
    ("groups", "automorphisms"): _count_automorphisms,
    ("groups", "from_mul_table"): _count_assoc,
    ("u1", "holonomy_u1"): _count_u1_holonomy,
    ("u1", "transport"): _count_u1_transport,
    ("u1", "pushforward"): _count_pushforward,
    ("u1", "division_form_check"): _count_division,
}


def _noop(a, b, c):
    return None


def _call_repeatedly(fn):
    for _ in range(CALIBRATION_CALLS):
        fn(1, 2, 3)


def calibrate() -> tuple[float, float]:
    """Seconds a wrapped call costs, and the share of that inside its timed window.

    A wrapped loop calls a wrapped three-argument no-op.  The loop's self
    time, less the time of the same loop over the bare no-op, is the cost
    outside the window; the no-op's measured time is the cost inside.
    Medians of ``CALIBRATION_ROUNDS`` rounds.
    """
    probe = Tracer()
    leaf = probe.wrap("calibration", "noop", _noop, None)
    outer = probe.wrap("calibration", "loop", _call_repeatedly, None)
    costs, shares = [], []
    for _ in range(CALIBRATION_ROUNDS):
        probe.begin(0, 0)
        outer(leaf)
        traced_self = probe.calls[("calibration", "loop")][2]
        t0 = perf_counter()
        _call_repeatedly(_noop)
        outside = max(0.0, traced_self - (perf_counter() - t0))
        inside = probe.calls[("calibration", "noop")][1]
        costs.append((inside + outside) / CALIBRATION_CALLS)
        shares.append(inside / (inside + outside))
    return statistics.median(costs), statistics.median(shares)


def install(tracer: Tracer) -> list[tuple]:
    """Patch traced wrappers in; returns what :func:`uninstall` needs."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"framebundles.{layer}")
        for name, fn in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            hook = HOOKS.get((layer, name))
            if hook is None and layer == "bundles":
                hook = _count_fiber_points
            wrapped[fn] = tracer.wrap(layer, name, fn, hook)
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "framebundles" and not modname.startswith("framebundles."):
            continue
        for name, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, name, wrapped[value])
                patched.append((mod, name, value))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for mod, name, original in patched:
        setattr(mod, name, original)


def layer_metrics(tracer: Tracer, traced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics and each layer's share of the traced wall time.

    Shares are of the traced wall time less the tracer's cost.
    """
    m: dict[str, float] = {}
    shares = {}
    wall = traced_wall - tracer.overhead_s
    for layer in LAYERS:
        items = [v for (lay, _), v in tracer.totals.items() if lay == layer]
        self_s = sum(v[2] for v in items)
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.calls"] = sum(v[0] for v in items)
        shares[layer] = self_s / wall if wall > 0 else 0.0
    t = tracer.totals
    c = tracer.counts

    def calls(layer, name):
        return t[(layer, name)][0] if (layer, name) in t else 0

    def ratio(distinct, attempts):
        return distinct / attempts if attempts else 0.0

    m["specdoc.doc_bytes"] = c["specdoc.doc_bytes"]
    m["suites.checks"] = c["suites.checks"]
    m["bundles.fiber_points"] = c["bundles.fiber_points"]
    m["frames.wreath_act_calls"] = calls("frames", "wreath_act")
    m["frames.wreath_mul_calls"] = calls("frames", "wreath_mul")
    m["frames.frames_enumerated"] = c["frames.frames_enumerated"]
    m["frames.enumerate_unique_ratio"] = ratio(
        c["frames.enumerate_frames.distinct"], calls("frames", "enumerate_frames"))
    m["gset_aut.auts_enumerated"] = c["gset_aut.auts_enumerated"]
    m["gsets.is_free_calls"] = calls("gsets", "is_free")
    m["gsets.is_free_unique_ratio"] = ratio(c["gsets.is_free.distinct"], calls("gsets", "is_free"))
    m["groups.automorphisms_s"] = t[("groups", "automorphisms")][1] if ("groups", "automorphisms") in t else 0.0
    m["groups.automorphisms_found"] = c["groups.automorphisms_found"]
    m["groups.assoc_triples"] = c["groups.assoc_triples"]
    m["u1.letters"] = c["u1.letters"]
    m["u1.angle_bits_max"] = tracer.maxima["u1.angle_bits_max"]
    return m, shares
