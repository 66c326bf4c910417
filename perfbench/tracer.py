"""Spans around the public functions of every module of the `clpair` package.

`instrument` wraps each public function and each public method of a
public class, and rebinds every module-level name that refers to the
original, so a function imported by name into another module (for
example `purity_sc` into `oracles`, `evaluate_point` into `cli`) is
traced there too. Private helpers are not wrapped. Spans are kept in
memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import statistics
import time
import tracemalloc
from dataclasses import asdict, dataclass

# functions whose calls also record their peak traced allocation
ALLOC_TRACKED = ("measures.purity_sc", "distributions.joint_position")


def _spectrum_key(args: dict):
    beam = args["beam"]
    return repr((args["spectrum"], beam.dq_par, beam.c_over_vz, args.get("quad")))


def _cell_point(args: dict):
    return f"{args['beam'].dq_perp!r}|{args['spectrum'].dk_ph!r}"


# per-function argument summaries stored on each span as `key`
KEYS = {
    "measures.purity_sc": _spectrum_key,
    "measures.purity_z": _spectrum_key,
    "measures.evaluate_point": _cell_point,
    "quadrature.GammaSampler.sample_cartesian": lambda args: int(args["n"]),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    point: str
    failed: bool = False
    key: object = None
    peak_bytes: int = 0


class Tracer:
    def __init__(self, track_alloc: bool = False):
        """With `track_alloc`, calls of ALLOC_TRACKED functions also record
        their tracemalloc peak; its cost then lands in every span around them."""
        self.track_alloc = track_alloc
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.point = ""

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        point = self.spans[parent].point if parent >= 0 else self.point
        self.spans.append(Span(name, 0.0, 0.0, parent, point))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        span = self.spans[idx]
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        tracer = self
        key_of = KEYS.get(name)
        signature = inspect.signature(fn) if key_of else None
        track_alloc = self.track_alloc and name in ALLOC_TRACKED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            span = tracer.spans[idx]
            if key_of:
                bound = signature.bind(*args, **kwargs)
                span.key = key_of(bound.arguments)
                if name == "measures.evaluate_point":
                    span.point = f"{span.point}/{span.key}"
            own_alloc = track_alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                if own_alloc:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._stack.pop()

        return traced


def instrument(tracer: Tracer) -> list:
    """Wrap clpair's public functions; returns what `restore` undoes."""
    pkg = importlib.import_module("clpair")
    modules = {
        info.name: importlib.import_module(f"clpair.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
    }
    undo = []
    wrapped = {}  # id(original) -> (original, wrapper)
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
            elif inspect.isclass(obj):
                for mattr, member in list(vars(obj).items()):
                    if mattr.startswith("_"):
                        continue
                    name = f"{short}.{attr}.{mattr}"
                    if inspect.isfunction(member):
                        new = tracer.wrap(name, member)
                    elif isinstance(member, (classmethod, staticmethod)):
                        new = type(member)(tracer.wrap(name, member.__func__))
                    else:
                        continue
                    setattr(obj, mattr, new)
                    undo.append((obj, mattr, member))
    for mod in (pkg, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
                undo.append((mod, attr, obj))
    return undo


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_stats(spans: list) -> dict:
    """name -> calls, self_s, durations, failed, peak_alloc_mb, keys."""
    selfs = self_times(spans)
    stats = {}
    for s, own in zip(spans, selfs):
        st = stats.setdefault(s.name, {"calls": 0, "self_s": 0.0, "durations": [], "failed": 0, "peak_bytes": 0, "keys": []})
        st["calls"] += 1
        st["self_s"] += own
        st["durations"].append(s.end - s.start)
        st["failed"] += s.failed
        st["peak_bytes"] = max(st["peak_bytes"], s.peak_bytes)
        if s.key is not None:
            st["keys"].append(s.key)
    return stats


def layer_metrics(spans: list, alloc_spans: list, parallel_eff: float, overhead_s: float, reports_failed: int) -> dict:
    """Every per-layer metric the benchmark reports, by name (value, unit).

    `alloc_spans` come from a separate replay with a Tracer(track_alloc=True).
    """
    stats = layer_stats(spans)
    peaks = {name: st["peak_bytes"] for name, st in layer_stats(alloc_spans).items()}
    empty = {"calls": 0, "self_s": 0.0, "durations": [], "failed": 0, "peak_bytes": 0, "keys": []}

    def get(name):
        return stats.get(name, empty)

    def p50_ms(name):
        d = get(name)["durations"]
        return 1e3 * statistics.median(d) if d else 0.0

    def repeat_frac(name):
        keys = get(name)["keys"]
        return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0

    def distinct_frac(name):
        keys = get(name)["keys"]
        return len(set(keys)) / len(keys) if keys else 0.0

    ps, jp, sampler = "measures.purity_sc", "distributions.joint_position", "quadrature.GammaSampler.sample_cartesian"
    m = {
        "cli.sweep.parallel_eff": (parallel_eff, "ratio"),
        f"{ps}.calls": (get(ps)["calls"], "count"),
        f"{ps}.p50_ms": (p50_ms(ps), "ms"),
        f"{ps}.max_ms": (1e3 * max(get(ps)["durations"], default=0.0), "ms"),
        f"{ps}.failed": (get(ps)["failed"], "count"),
        f"{ps}.peak_alloc_mb": (peaks.get(ps, 0) / 2**20, "MB"),
        f"{ps}.repeat_spectrum_frac": (repeat_frac(ps), "ratio"),
        "measures.purity_z.calls": (get("measures.purity_z")["calls"], "count"),
        "measures.purity_z.distinct_frac": (distinct_frac("measures.purity_z"), "ratio"),
        f"{jp}.calls": (get(jp)["calls"], "count"),
        f"{jp}.p50_ms": (p50_ms(jp), "ms"),
        f"{jp}.failed": (get(jp)["failed"], "count"),
        f"{jp}.peak_alloc_mb": (peaks.get(jp, 0) / 2**20, "MB"),
        "distributions.photon_marginal_kx.calls": (get("distributions.photon_marginal_kx")["calls"], "count"),
        "oracles.reports_failed": (reports_failed, "count"),
        f"{sampler}.samples": (sum(get(sampler)["keys"]), "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for name in stats:
        m[f"{name}.self_s"] = (stats[name]["self_s"], "s")
    return m


def spans_as_dicts(spans: list) -> list:
    selfs = self_times(spans)
    return [{**asdict(s), "key": None if s.key is None else str(s.key), "self_s": own} for s, own in zip(spans, selfs)]
