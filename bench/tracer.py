"""Outside-in tracer for the preview_regret package.

Spans are recorded from this file only: every public function of the layer
modules is replaced, at every ``preview_regret.*`` attribute bound to it,
by a wrapper that times the call. The public ``HPolytope`` methods are
wrapped on the class and ``scipy.optimize.linprog`` (the HiGHS backend,
imported by the solver at call time) is wrapped on ``scipy.optimize``.
``restore()`` puts every original back.

A span carries its thread id and its parent span. The regret CLI computes
horizons on pool threads, which start with an empty span stack; a span that
opens on such a thread is adopted by the innermost span open on the main
thread at that moment. Self time is a span's duration minus the union of the
intervals its children cover, clipped to the span. Children on the span's
own thread nest and never overlap, so for them this is plain subtraction.

Run ``python3 bench/tracer.py`` for a self-check of that arithmetic.
"""

import functools
import inspect
import sys
import threading
import time

LAYERS = ("solver", "polytope", "invariance", "ellipsoid", "regret", "mpc",
          "serialize", "cli")
HIGHS = "scipy.linprog"


class Span:
    __slots__ = ("name", "tid", "start", "end", "parent", "failed", "extra")

    def __init__(self, name, tid, start, end, parent=None, failed=False,
                 extra=None):
        self.name = name
        self.tid = tid
        self.start = start
        self.end = end
        self.parent = parent
        self.failed = failed
        self.extra = extra

    @property
    def duration(self):
        return self.end - self.start


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map id(span) -> self time, for a list of finished spans."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        kids = children.get(id(s), ())
        covered = union_length(
            [(max(k.start, s.start), min(k.end, s.end)) for k in kids
             if k.end > s.start and k.start < s.end])
        out[id(s)] = s.duration - covered
    return out


# Annotators run after a call and return what the per-layer metrics need.
def _reduce_extra(args, kwargs, result):
    P = args[0] if args else kwargs["P"]
    return (P.dim, P.num_rows, result.num_rows)


def _rows_out(args, kwargs, result):
    return result.num_rows


def _fixedpoint_extra(args, kwargs, result):
    C, converged = result
    return (C.num_rows, bool(converged))


def _ladder_len(args, kwargs, result):
    return len(result.ladder)


def _step_feasible(args, kwargs, result):
    return bool(result[2])


ANNOTATORS = {
    "polytope.remove_redundancy": _reduce_extra,
    "polytope.project": _rows_out,
    "invariance.max_invariant_set": _fixedpoint_extra,
    "regret.algorithm3": _ladder_len,
    "mpc.mpc_step": _step_feasible,
}


class Tracer:
    """Collects spans while enabled; wrappers call straight through when not."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self._local = threading.local()
        self._main_tid = threading.main_thread().ident
        self._main_stack = []
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.get_ident() == self._main_tid:
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def wrap(self, name, fn):
        annotate = ANNOTATORS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack and stack is not tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            span = Span(name, threading.get_ident(), 0.0, 0.0, parent)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span.extra = annotate(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the layer functions, the HPolytope methods and linprog."""
        import importlib

        import scipy.optimize

        from preview_regret.polytope import HPolytope

        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"preview_regret.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "preview_regret"
                                         or name.startswith("preview_regret."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        for attr, obj in list(vars(HPolytope).items()):
            if inspect.isfunction(obj) and not attr.startswith("_"):
                self._patch(HPolytope, attr,
                            self.wrap(f"polytope.{attr}", obj))
        self._patch(scipy.optimize, "linprog",
                    self.wrap(HIGHS, scipy.optimize.linprog))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        self.enabled = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _has_ancestor(span, name):
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


PER_LAYER = (
    ("solver.lp.calls", "count"), ("solver.lp.self_s", "s"),
    ("solver.highs.calls", "count"), ("solver.highs.s", "s"),
    ("solver.qp.calls", "count"), ("solver.qp.self_s", "s"),
    ("solver.project_point.calls", "count"), ("solver.errors", "count"),
    ("polytope.reduce.lowdim.calls", "count"),
    ("polytope.reduce.lowdim.self_s", "s"), ("polytope.reduce.lowdim.s", "s"),
    ("polytope.reduce.highdim.calls", "count"),
    ("polytope.reduce.highdim.self_s", "s"), ("polytope.reduce.highdim.s", "s"),
    ("polytope.reduce.rows_in", "count"), ("polytope.reduce.rows_out", "count"),
    ("polytope.reduce.lp_calls", "count"),
    ("polytope.reduce.rows_dropped_per_lp", "ratio"),
    ("polytope.project.calls", "count"), ("polytope.project.self_s", "s"),
    ("polytope.project.rows_out", "count"),
    ("polytope.is_empty.calls", "count"), ("polytope.is_empty.s", "s"),
    ("polytope.chebyshev_center.calls", "count"),
    ("polytope.contains.calls", "count"), ("polytope.contains.self_s", "s"),
    ("polytope.containment_ratio.calls", "count"),
    ("polytope.containment_ratio.self_s", "s"),
    ("polytope.vertices.self_s", "s"), ("polytope.hausdorff_nested.self_s", "s"),
    ("invariance.max_invariant_set.calls", "count"),
    ("invariance.max_invariant_set.self_s", "s"),
    ("invariance.pre.calls", "count"), ("invariance.pre.self_s", "s"),
    ("invariance.fixedpoint.iterations", "count"),
    ("invariance.fixedpoint.rows_final", "count"),
    ("invariance.fixedpoint.nonconverged", "count"),
    ("ellipsoid.find_contractive_ellipsoid.self_s", "s"),
    ("ellipsoid.min_c_out.self_s", "s"),
    ("regret.algorithm1.s", "s"), ("regret.algorithm2.s", "s"),
    ("regret.algorithm3.s", "s"), ("regret.algorithm3.ladder_len", "count"),
    ("regret.true_dp.calls", "count"), ("regret.true_dp.sum_s", "s"),
    ("regret.true_dp.busy_s", "s"),
    ("mpc.mpc_step.calls", "count"), ("mpc.mpc_step.self_s", "s"),
    ("mpc.infeasible_steps", "count"),
    ("serialize.s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)
PER_LAYER_UNITS = dict(PER_LAYER)


def layer_metrics(spans, rounds):
    """Per-layer metrics of one traced phase, as totals per round.

    trace.overhead_s is not a span quantity; the caller fills it in.
    """
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[id(s)] for s in by_name.get(name, ()))

    def total_s(name):
        return sum(s.duration for s in by_name.get(name, ()))

    reduce_spans = by_name.get("polytope.remove_redundancy", [])
    low = [s for s in reduce_spans if s.extra[0] <= 6]
    high = [s for s in reduce_spans if s.extra[0] > 6]
    rows_in = sum(s.extra[1] for s in reduce_spans)
    rows_out = sum(s.extra[2] for s in reduce_spans)
    reduce_lps = sum(1 for s in by_name.get("solver.solve_lp_fast", ())
                     if _has_ancestor(s, "polytope.remove_redundancy"))
    fixpoints = by_name.get("invariance.max_invariant_set", [])
    true_dp = by_name.get("regret.true_dp", [])

    totals = {
        "solver.lp.calls": calls("solver.solve_lp_fast"),
        "solver.lp.self_s": self_s("solver.solve_lp_fast"),
        "solver.highs.calls": calls(HIGHS),
        "solver.highs.s": total_s(HIGHS),
        "solver.qp.calls": calls("solver.solve_qp"),
        "solver.qp.self_s": self_s("solver.solve_qp"),
        "solver.project_point.calls": calls("solver.project_point"),
        "solver.errors": sum(1 for s in spans if s.failed and (
            s.name.startswith("solver.") or s.name == HIGHS)),
        "polytope.reduce.lowdim.calls": len(low),
        "polytope.reduce.lowdim.self_s": sum(selfs[id(s)] for s in low),
        "polytope.reduce.lowdim.s": sum(s.duration for s in low),
        "polytope.reduce.highdim.calls": len(high),
        "polytope.reduce.highdim.self_s": sum(selfs[id(s)] for s in high),
        "polytope.reduce.highdim.s": sum(s.duration for s in high),
        "polytope.reduce.rows_in": rows_in,
        "polytope.reduce.rows_out": rows_out,
        "polytope.reduce.lp_calls": reduce_lps,
        "polytope.project.calls": calls("polytope.project"),
        "polytope.project.self_s": self_s("polytope.project"),
        "polytope.project.rows_out": sum(
            s.extra for s in by_name.get("polytope.project", ())),
        "polytope.is_empty.calls": calls("polytope.is_empty"),
        "polytope.is_empty.s": total_s("polytope.is_empty"),
        "polytope.chebyshev_center.calls": calls("polytope.chebyshev_center"),
        "polytope.contains.calls": calls("polytope.contains"),
        "polytope.contains.self_s": self_s("polytope.contains"),
        "polytope.containment_ratio.calls": calls("polytope.containment_ratio"),
        "polytope.containment_ratio.self_s": self_s("polytope.containment_ratio"),
        "polytope.vertices.self_s": self_s("polytope.vertices"),
        "polytope.hausdorff_nested.self_s": self_s("polytope.hausdorff_nested"),
        "invariance.max_invariant_set.calls": len(fixpoints),
        "invariance.max_invariant_set.self_s": self_s(
            "invariance.max_invariant_set"),
        "invariance.pre.calls": calls("invariance.pre"),
        "invariance.pre.self_s": self_s("invariance.pre"),
        "invariance.fixedpoint.iterations": sum(
            1 for s in by_name.get("invariance.pre", ())
            if s.parent is not None
            and s.parent.name == "invariance.max_invariant_set"),
        "invariance.fixedpoint.rows_final": sum(s.extra[0] for s in fixpoints),
        "invariance.fixedpoint.nonconverged": sum(
            1 for s in fixpoints if not s.extra[1]),
        "ellipsoid.find_contractive_ellipsoid.self_s": self_s(
            "ellipsoid.find_contractive_ellipsoid"),
        "ellipsoid.min_c_out.self_s": self_s("ellipsoid.min_c_out"),
        "regret.algorithm1.s": total_s("regret.algorithm1"),
        "regret.algorithm2.s": total_s("regret.algorithm2"),
        "regret.algorithm3.s": total_s("regret.algorithm3"),
        "regret.algorithm3.ladder_len": sum(
            s.extra for s in by_name.get("regret.algorithm3", ())),
        "regret.true_dp.calls": len(true_dp),
        "regret.true_dp.sum_s": total_s("regret.true_dp"),
        "regret.true_dp.busy_s": union_length(
            [(s.start, s.end) for s in true_dp]),
        "mpc.mpc_step.calls": calls("mpc.mpc_step"),
        "mpc.mpc_step.self_s": self_s("mpc.mpc_step"),
        "mpc.infeasible_steps": sum(
            1 for s in by_name.get("mpc.mpc_step", ()) if s.extra is False),
        "serialize.s": sum(
            s.duration for s in spans if s.name.startswith("serialize.")
            and not (s.parent is not None
                     and s.parent.name.startswith("serialize."))),
        "cli.self_s": sum(selfs[id(s)] for s in spans
                          if s.name.startswith("cli.")),
    }
    out = {k: v / rounds for k, v in totals.items()}
    out["polytope.reduce.rows_dropped_per_lp"] = (
        (rows_in - rows_out) / reduce_lps if reduce_lps else 0.0)
    return out


def self_check():
    """Self times on a synthetic nested, two-thread span list.

    Main thread: A [0, 10] holds B [1, 4], which holds C [2, 3]. A pool
    thread runs D [5, 8] and a second one E [6, 9]; both were adopted by A.
    D holds F [5.5, 6.5] on its own thread.
        C: 1           B: 3 - 1 = 2      F: 1      D: 3 - 1 = 2    E: 3
        A: 10 - |[1,4] u [5,9]| = 10 - 7 = 3
    The self times sum to 12: the 10 units of A, plus 2 for [6, 8], where
    D and E run at once on two threads.
    """
    A = Span("A", 1, 0.0, 10.0)
    B = Span("B", 1, 1.0, 4.0, A)
    C = Span("C", 1, 2.0, 3.0, B)
    D = Span("D", 2, 5.0, 8.0, A)
    E = Span("E", 3, 6.0, 9.0, A)
    F = Span("F", 2, 5.5, 6.5, D)
    got = self_times([A, B, C, D, E, F])
    want = {"A": 3.0, "B": 2.0, "C": 1.0, "D": 2.0, "E": 3.0, "F": 1.0}
    for span in (A, B, C, D, E, F):
        if abs(got[id(span)] - want[span.name]) > 1e-12:
            raise AssertionError(
                f"self time of {span.name}: {got[id(span)]} != "
                f"{want[span.name]}")
    if abs(sum(got.values()) - 12.0) > 1e-12:
        raise AssertionError("self times do not add up to the span union")
    return got


if __name__ == "__main__":
    self_check()
    print("tracer self-check passed")
