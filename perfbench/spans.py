"""Spans and counts at the public-function boundaries of the rbl modules.

The tracer wraps functions from outside the package: every rbl module that
holds a reference to a traced function gets the wrapper in its place, so
calls through imported names (``solvers.golden_min``, ``cli``'s solver
references) are caught too. Spans are kept in memory: name, start, end,
parent index and thread. ``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# (module, attribute) pairs traced; "Class.method" patches a class attribute.
TRACED = (
    ("solvers", "worst_case_alpha"),
    ("solvers", "maximin_bundling_value"),
    ("solvers", "maximin_certificate_lower"),
    ("solvers", "minimax_bundling_value"),
    ("optimize", "golden_min"),
    ("concentration", "concentration_constant"),
    ("concentration", "concentration_check_mc"),
    ("cli", "main"),
    ("sum_law", "sample_sum"),
    ("sum_law", "iid_two_point_sum"),
    ("sum_law", "product_sum"),
    ("sum_law", "tail_prob"),
    ("bundling", "best_bundle_price"),
    ("ambiguity", "make_two_point"),
    ("ambiguity", "TwoPointDist.inverse_cdf"),
    ("ambiguity", "ThreePointDist.inverse_cdf"),
    ("ambiguity", "ParetoDist.inverse_cdf"),
    ("opt_oracle", "opt_deterministic"),
    ("asymptotics", "ratio_empirical"),
    ("asymptotics", "regret_empirical"),
)


def _span_name(module: str, attr: str) -> str:
    # all member kinds share one inverse_cdf layer
    if attr.endswith(".inverse_cdf"):
        return f"{module}.inverse_cdf"
    return f"{module}.{attr}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append((name, 0.0, 0.0, stack[-1] if stack else -1,
                                     threading.get_ident()))
            stack.append(idx)
            if name == "optimize.golden_min":
                args = (tracer._counted(args[0]),) + args[1:]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    s = tracer.spans[idx]
                    tracer.spans[idx] = (s[0], start, end, s[3], s[4])
            tracer._count_work(name, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, f):
        def counted(x):
            self.counts["optimize.golden_min.evals"] += 1
            return f(x)
        return counted

    def _count_work(self, name, args, kwargs, result) -> None:
        if name == "sum_law.sample_sum":
            m = args[1] if len(args) > 1 else kwargs["m"]
            n = args[3] if len(args) > 3 else kwargs["n"]
            self.counts["sum_law.sample_sum.draws"] += n * m
        elif name == "sum_law.iid_two_point_sum":
            self.counts["sum_law.iid_two_point_sum.points"] += result.support.size
        elif name == "opt_oracle.opt_deterministic":
            self.counts["opt_oracle.opt_deterministic.menus_evaluated"] += \
                result.menus_evaluated

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "rbl" or key.startswith("rbl.")]
        for module, attr in TRACED:
            owner = sys.modules[f"rbl.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(_span_name(module, attr), orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(_span_name(module, attr), orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    # -- summaries ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_s (sum of span durations) and self_s (busy time minus
        time covered by child spans) per span name, plus the work counts.
        Recursive spans of one name count their busy time once."""
        calls: dict[str, float] = defaultdict(float)
        busy: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        selfs: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            selfs[name] += (end - start) - child[idx]
            outer = parent
            while outer >= 0 and self.spans[outer][0] != name:
                outer = self.spans[outer][3]
            if outer < 0:
                busy[name] += end - start
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = selfs[name]
        out.update(self.counts)
        return out
