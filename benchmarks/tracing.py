"""Spans and counts recorded around the program's public functions.

The tracer replaces a function by a wrapper in every ``mlebounds`` module
namespace that holds it, so a call is recorded wherever the layer above
makes it, and puts the originals back on ``uninstall``.  Nothing inside the
program changes.  A span is ``[name, start, end, parent]`` with ``parent``
the index of the enclosing span (-1 at top level); spans stay in memory
until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  The bound formulas with closed forms share
# one span name, so their total is one per-layer figure.
TARGETS = (
    ("mlebounds.special", "integrate_interval", "special.integrate_interval"),
    ("mlebounds.models", "make_model", "models.make_model"),
    ("mlebounds.models", "d_is_identity", "models.d_is_identity"),
    ("mlebounds.models", "sup_abs_d_second", "models.sup_abs_d_second"),
    ("mlebounds.models", "fisher_info", "models.fisher_info"),
    ("mlebounds.moments", "expected_h_of_z", "moments.expected_h_of_z"),
    ("mlebounds.moments", "third_abs_moment", "moments.third_abs_moment"),
    ("mlebounds.moments", "mse_closed_form", "moments.mse_closed_form"),
    ("mlebounds.bounds", "expfam_bound", "bounds.expfam_bound"),
    ("mlebounds.bounds", "theorem_bound", "bounds.theorem_bound"),
    ("mlebounds.bounds", "exp_canonical_bound", "bounds.closed_form"),
    ("mlebounds.bounds", "exp_noncanonical_bound", "bounds.closed_form"),
    ("mlebounds.bounds", "gg_bound", "bounds.closed_form"),
    ("mlebounds.bounds", "ar_bound_exp_noncanonical", "bounds.closed_form"),
    ("mlebounds.bounds", "ar_bound_canonical_expfam", "bounds.closed_form"),
    ("mlebounds.montecarlo", "sample_model", "montecarlo.sample_model"),
    ("mlebounds.montecarlo", "iter_mle_chunks", "montecarlo.iter_mle_chunks"),
    ("mlebounds.montecarlo", "run_simulation", "montecarlo.run_simulation"),
    ("mlebounds.montecarlo", "table1", "montecarlo.table1"),
    ("mlebounds.cli", "main", "cli.main"),
)

# Certification of a test function happens in TestFunction.__post_init__.
CLASS_TARGETS = (("mlebounds.bounds", "TestFunction", "__post_init__", "bounds.TestFunction"),)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if counter is not None:
                args, kwargs = counter(self.counts, args, kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """A generator is timed per resumption, so the consumer's work between
        two items is not charged to it; each item counts as one chunk."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            inner = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                self.counts[name + ".chunks"] += 1
                yield item

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "mlebounds"]
        for module_name, attr, name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        for module_name, cls_name, method, name in CLASS_TARGETS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reporting ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds and self seconds.

        Total time counts only the outermost span of a name, so a function
        that reaches itself again is not counted twice; self time is a
        span's duration minus the part its child spans cover.
        """
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0})
        for index, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            row = out[name]
            row["self_s"] += duration - child_time[index]
            if not self._has_ancestor(index, name):
                row["s"] += duration
        return dict(out)

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _count_draws(counts, args, kwargs):
    """sample_model(m, theta0, rng, size=None) draws prod(size) values."""
    size = kwargs.get("size", args[3] if len(args) > 3 else None)
    if size is None:
        size = 1
    counts["montecarlo.sample_model.draws"] += math.prod(size) if isinstance(size, tuple) else size
    return args, kwargs


def _count_evals(counts, args, kwargs):
    f = args[0]

    def counted(x):
        counts["special.integrate_interval.evals"] += 1
        return f(x)

    return (counted,) + tuple(args[1:]), kwargs


_COUNTERS = {
    "montecarlo.sample_model": _count_draws,
    "special.integrate_interval": _count_evals,
}
