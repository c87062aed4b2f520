"""Outside-in tracer for the triquad layers.

The tracer wraps every public function of each layer module and rebinds the
wrapper under every name that refers to the original in any loaded triquad
module: `from .octic import octic_mul` in unit_lattice and theorems gives a
second binding, and octic calls its own functions through its globals, so
rebinding in octic covers those calls. Nothing under src/ is changed; every
binding is restored by `uninstall`.

A span is a list [name, start_ns, end_ns, parent, pair, value]: `parent` is
the index of the enclosing span in the same list (-1 for a root), `pair` the
(p, q) being verified, and `value` what the function's probe made of its
result (a miss flag for sqrt_exact, the step count m for saturate).

`harness.verify_pair` delimits a pair. Its wrapper detaches the pair's spans
and its cache counter deltas and hangs them on the returned record as
`record.trace`, so pool workers forked from a traced process hand their spans
back through the pickled record; `adopt` merges them into the parent's list.
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = ("arith", "quadratic", "octic", "unit_lattice", "theorems",
          "classnumber", "harness")
PAIR_FUNCTION = "harness.verify_pair"

NAME, START, END, PARENT, PAIR, VALUE = range(6)

# what a wrapped function's result says beyond its duration
PROBES = {
    "octic.sqrt_exact": lambda root: root is None,
    "unit_lattice.saturate": lambda res: res.m,
}


def _traceable(obj, module_name: str) -> bool:
    return (isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))
            and obj.__module__ == module_name)


class Tracer:
    """Span recorder; `install` wraps, `uninstall` restores."""

    def __init__(self, package: str = "triquad", layers=LAYERS,
                 caches: dict | None = None, clock=time.perf_counter_ns):
        self.package = package
        self.layers = layers
        self.caches = caches or {}
        self.clock = clock
        self.spans: list[list] = []
        self.pair = None
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    # -- installation ------------------------------------------------------

    def _modules(self) -> list[types.ModuleType]:
        prefix = self.package + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in self.layers:
            mod = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and _traceable(obj, mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, obj = self._saved.pop()
            setattr(mod, attr, obj)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, 0, 0, stack[-1] if stack else -1, self.pair, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if probe is not None:
                span[VALUE] = probe(result)
            return result

        wrapper = traced
        if name == PAIR_FUNCTION:
            def wrapper(*args, **kwargs):
                return self._run_pair(traced, args, kwargs)
        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _cache_counts(self) -> dict[str, tuple[int, int]]:
        return {k: tuple(c.cache_info()[:2]) for k, c in self.caches.items()}

    def _run_pair(self, body, args, kwargs):
        start = len(self.spans)
        before = self._cache_counts()
        self.pair = (args[0], args[1])
        try:
            record = body(*args, **kwargs)
        finally:
            self.pair = None
        after = self._cache_counts()
        spans = self.spans[start:]
        del self.spans[start:]
        for span in spans:
            span[PARENT] = span[PARENT] - start if span[PARENT] >= start else -1
        record.trace = {
            "spans": spans,
            "caches": {k: (after[k][0] - before[k][0], after[k][1] - before[k][1])
                       for k in after},
        }
        return record

    def adopt(self, records, parent: int = -1) -> dict[str, list[int]]:
        """Merge the spans hung on `records` under span index `parent`;
        return the summed cache (hits, misses) per cache."""
        caches: dict[str, list[int]] = {}
        for rec in records:
            trace = getattr(rec, "trace", None)
            if trace is None:
                raise RuntimeError(f"record {rec.pair} carries no trace")
            base = len(self.spans)
            for span in trace["spans"]:
                span[PARENT] = span[PARENT] + base if span[PARENT] >= 0 else parent
                self.spans.append(span)
            for k, (hits, misses) in trace["caches"].items():
                tot = caches.setdefault(k, [0, 0])
                tot[0] += hits
                tot[1] += misses
            del rec.trace
        return caches

    def index_of(self, name: str) -> int:
        for i, span in enumerate(self.spans):
            if span[NAME] == name:
                return i
        raise KeyError(name)


# -- analysis ----------------------------------------------------------------

def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it covered by its children.

    Children of one parent may overlap (pool workers run pairs side by side
    under the parent's scan span), so their intervals are merged first.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0
        cur_lo = cur_hi = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(hi - lo - covered)
    return out


def outermost(spans: list[list], names) -> list[int]:
    """Indices of spans named in `names` with no ancestor named in `names`,
    so that recursive or nested calls are not counted twice."""
    names = set(names)
    out = []
    for i, span in enumerate(spans):
        if span[NAME] not in names:
            continue
        j = span[PARENT]
        while j >= 0 and spans[j][NAME] not in names:
            j = spans[j][PARENT]
        if j < 0:
            out.append(i)
    return out


def total_s(spans: list[list], names) -> float:
    return sum(spans[i][END] - spans[i][START]
               for i in outermost(spans, names)) / 1e9
