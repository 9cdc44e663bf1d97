"""In-memory span tracing of chiralchain's public functions.

Spans are recorded from the benchmark's side only: ``install`` replaces each
traced function at every name where chiralchain code looks it up (module
globals of every ``chiralchain`` module, or the class attribute for
methods), so nothing under ``src/`` changes.  A span holds its name, start,
end, inclusive CPU time, the span that caused it and the run id of the pass.
Functions whose only metric is a call count are wrapped as counters, not
spans, so they do not carve time out of their callers' self time.
"""

from __future__ import annotations

import functools
import os
import sys
import time


# ---------------------------------------------------------------------------
# work counters attached to spans

def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _hook_chain_g2(tracer, args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    tracer.count("transport.chain_g2.atom_points", params.n_atoms * result.values.size)


def _hook_averaged_g2(tracer, args, kwargs, result):
    tracer.count("ensemble.averaged_g2.support_size", _arg(args, kwargs, 0, "dist").support.size)


def _hook_synth_timetags(tracer, args, kwargs, result):
    tracer.count("photonstats.synth_timetags.tags", result.n_tags)


def _hook_histogram_timetags(tracer, args, kwargs, result):
    tracer.count("photonstats.histogram_timetags.pairs", int(result.counts.sum()))


def _hook_write_timetags_csv(tracer, args, kwargs, result):
    tracer.count("cli.timetags_csv.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


# (module, qualified name, span name, hook) -- hook(tracer, args, kwargs, result)
# adds work counters for the span.  The span name is the metric prefix.
SPANS = [
    ("transport", "chain_two_photon_amplitude", "transport.chain_two_photon_amplitude", None),
    ("transport", "chain_g2", "transport.chain_g2", _hook_chain_g2),
    ("ensemble", "averaged_g2", "ensemble.averaged_g2", _hook_averaged_g2),
    ("ensemble", "build_number_distribution", "ensemble.build_number_distribution", None),
    ("ensemble", "averaged_g2_zero", "ensemble.averaged_g2_zero", None),
    ("ensemble", "sweep_g2_vs_od", "ensemble.sweep_g2_vs_od", None),
    ("oracle", "oracle_g2", "oracle.oracle_g2", None),
    ("oracle", "oracle_steady_state", "oracle.oracle_steady_state", None),
    ("oracle", "oracle_transmission", "oracle.oracle_transmission", None),
    ("photonstats", "synth_timetags", "photonstats.synth_timetags", _hook_synth_timetags),
    ("photonstats", "TimeTagStream.from_channels", "photonstats.TimeTagStream.from_channels", None),
    ("photonstats", "TimeTagStream.channel", "photonstats.TimeTagStream.channel", None),
    ("photonstats", "histogram_timetags", "photonstats.histogram_timetags", _hook_histogram_timetags),
    ("photonstats", "mle_fit_g2", "photonstats.mle_fit_g2", None),
    ("photonstats", "bootstrap_error", "photonstats.bootstrap_error", None),
    ("photonstats", "normalize_histogram", "photonstats.normalize_histogram", None),
    ("cli", "write_timetags_csv", "cli.write_timetags_csv", _hook_write_timetags_csv),
    ("cli", "read_timetags_csv", "cli.read_timetags_csv", None),
]

# (module, qualified name, counter prefix).  ``_fit_window_counts`` is the
# one private hook: it is where bootstrap refits fail without a trace, and
# every fit attempt of the analysis chain passes through it.
COUNTERS = [
    ("core", "validate_params", "core.validate_params"),
    ("transport", "chain_transmission", "transport.chain_transmission"),
    ("oracle", "CascadedGenerator.liouvillian", "oracle.liouvillian"),
    ("photonstats", "_fit_window_counts", "photonstats.fit"),
]


class Tracer:
    """Span stack plus named counters for one process."""

    def __init__(self, run: int = 0):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.run = run
        self.missing: list[str] = []
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str):
        return _SpanContext(self, name)

    def traced(self, name: str, func, hook=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def counted(self, prefix: str, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.count(prefix + ".calls")
            try:
                return func(*args, **kwargs)
            except Exception:
                self.count(prefix + ".failures")
                raise
        return wrapper


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.id = len(t.spans)
        self.parent = t._stack[-1] if t._stack else None
        t.spans.append(None)  # reserve the id; filled on exit
        t._stack.append(self.id)
        self.cpu0 = time.process_time()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        cpu = time.process_time() - self.cpu0
        t = self.tracer
        t._stack.pop()
        t.spans[self.id] = {"id": self.id, "name": self.name, "start": self.start, "end": end,
                            "cpu": cpu, "parent": self.parent, "run": t.run}
        return False


# ---------------------------------------------------------------------------
# installation

def _rebind(module_name: str, qualname: str, make) -> bool:
    """Replace a function at every name chiralchain looks it up by.

    ``make(func)`` builds the wrapper.  Methods are replaced on their class
    (classmethods stay classmethods); module functions are replaced in the
    globals of every loaded ``chiralchain`` module that binds the same object.
    Returns False when the target does not exist.
    """
    module = sys.modules.get("chiralchain." + module_name)
    if module is None:
        return False
    if "." in qualname:
        cls_name, attr = qualname.split(".", 1)
        cls = getattr(module, cls_name, None)
        raw = None if cls is None else cls.__dict__.get(attr)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))
        return True
    func = getattr(module, qualname, None)
    if func is None:
        return False
    wrapper = make(func)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "chiralchain" or name.startswith("chiralchain.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is func:
                setattr(mod, key, wrapper)
    return True


def install(tracer: Tracer) -> None:
    """Wrap every traced and counted function; records absent targets."""
    import chiralchain.cli  # noqa: F401  (the package does not import the cli)

    for module_name, qualname, span_name, hook in SPANS:
        make = functools.partial(tracer.traced, span_name, hook=hook)
        if not _rebind(module_name, qualname, make):
            tracer.missing.append(f"{module_name}.{qualname}")
    for module_name, qualname, prefix in COUNTERS:
        if not _rebind(module_name, qualname, functools.partial(tracer.counted, prefix)):
            tracer.missing.append(f"{module_name}.{qualname}")


# ---------------------------------------------------------------------------
# arithmetic

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of it covered by its
    direct child spans.  A span nested in a span of the same name counts
    only toward its own self time, so a name's total never double counts.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - _covered(children.get(s["id"], []), s["start"], s["end"])
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def inclusive(spans, key: str = "wall") -> dict[str, float]:
    """Total inclusive wall (or cpu) time per name, outermost spans only.

    A span inside a span of the same name is skipped, so recursion is not
    counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    out: dict[str, float] = {}
    for s in spans:
        p = s["parent"]
        nested = False
        while p is not None:
            if by_id[p]["name"] == s["name"]:
                nested = True
                break
            p = by_id[p]["parent"]
        if nested:
            continue
        value = s["end"] - s["start"] if key == "wall" else s["cpu"]
        out[s["name"]] = out.get(s["name"], 0.0) + value
    return out


def span_calls(spans) -> dict[str, int]:
    out: dict[str, int] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0) + 1
    return out


def layer_metrics(spans, counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values of one traced pass (names as in BENCHMARK.json)."""
    own = self_times(spans)
    incl = inclusive(spans)
    cpu = inclusive(spans, "cpu")
    calls = span_calls(spans)
    m: dict[str, float] = {}
    for _, _, name, _ in SPANS:
        m[name + ".self_s"] = own.get(name, 0.0)
    m["transport.chain_two_photon_amplitude.cpu_s"] = cpu.get("transport.chain_two_photon_amplitude", 0.0)
    m["oracle.oracle_g2.cpu_s"] = cpu.get("oracle.oracle_g2", 0.0)
    m["transport.chain_g2.calls"] = calls.get("transport.chain_g2", 0)
    m["cli.synth.wall_s"] = incl.get("cli.synth", 0.0)
    m["cli.analyze.wall_s"] = incl.get("cli.analyze", 0.0)
    for key in ("transport.chain_g2.atom_points", "ensemble.averaged_g2.support_size",
                "photonstats.synth_timetags.tags", "photonstats.histogram_timetags.pairs",
                "cli.timetags_csv.bytes", "core.validate_params.calls",
                "transport.chain_transmission.calls", "oracle.liouvillian.calls",
                "photonstats.fit.failures"):
        m[key] = counts.get(key, 0)
    attempts = counts.get("photonstats.fit.calls", 0)
    m["photonstats.fit.success_ratio"] = (
        (attempts - m["photonstats.fit.failures"]) / attempts if attempts else 1.0)
    return m
