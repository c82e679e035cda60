"""Per-layer tracing by wrapping the splsim names each module calls through.

A span is recorded around every call of a wrapped name: its calls, its
wall time, and the part of that time spent in wrapped callees, so a
layer's self time is its span time minus its child spans. Counters are
taken at the same boundaries (arrivals culled, photons sampled, pixels
simulated, ...), so ratios are measured where the work happens.

Only module attributes are replaced, never code inside ``src/``: a name
is wrapped where its caller looks it up (``splsim.fast_sim.predict_pdf``
is the network as the fast engine sees it). A name a later version no
longer has is reported as an absent layer, with zero calls.
"""

from __future__ import annotations

import functools
import importlib
import logging
import os
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

FLUX_CALLERS = ("arrival", "oracle", "count_model", "dataset", "fast_sim")
INVERTER_CALLERS = ("fast_sim", "oracle")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_culled(counts, args, kwargs, result):
    counts["arrivals"] += len(_arg(args, kwargs, 0, "abs_times"))
    counts["kept"] += len(result)


def _count_photons(counts, args, kwargs, result):
    counts["photons"] += int(_arg(args, kwargs, 1, "n"))


def _count_train(counts, args, kwargs, result):
    train_x = _arg(args, kwargs, 1, "train_x")
    counts["sample_epochs"] += len(train_x) * _arg(args, kwargs, 3, "cfg").epochs


def _count_written(counts, args, kwargs, result):
    counts["file_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_pixels(counts, args, kwargs, result):
    scene = _arg(args, kwargs, 0, "scene")
    counts["px"] += scene.height * scene.width


@dataclass(frozen=True)
class Span:
    """One traced layer boundary.

    ``targets`` are ``(module, attribute)`` pairs under ``splsim``; an
    attribute ``Class.method`` wraps that method in a subclass installed
    in place of the class. The span's time metric is its self time per
    unit of ``per`` (a counter name, or calls when None), scaled to
    ``unit``.
    """

    name: str
    targets: "tuple[tuple[str, str], ...]"
    time_metric: str = ""
    unit: str = "us"
    per: "str | None" = None
    count: "Callable | None" = None

    @property
    def time_name(self) -> str:
        return self.time_metric or f"{self.name}.self_{self.unit}"


_SCALE = {"us": 1e6, "ms": 1e3}

SPANS = (
    Span("core.build_flux", tuple((m, "build_flux") for m in FLUX_CALLERS)),
    Span("pdf_net.predict_pdf", (("fast_sim", "predict_pdf"),)),
    Span("pdf_net.train", (("pdf_net", "train"),),
         time_metric="pdf_net.train.us_per_sample_epoch", per="sample_epochs", count=_count_train),
    Span("pdf_net.save_model", (("pdf_net", "save_model"),), time_metric="pdf_net.save_model.ms", unit="ms"),
    Span("pdf_net.load_model", (("pdf_net", "load_model"),), time_metric="pdf_net.load_model.ms", unit="ms"),
    Span("count_model.estimate_count", (("fast_sim", "estimate_count"),)),
    Span("count_model.energy_loss_fn", (("count_model", "energy_loss_fn"),)),
    Span("count_model.expected_loss", (("count_model", "expected_loss"),)),
    Span("count_model.sample_count", (("fast_sim", "sample_count"),)),
    Span("arrival.CdfInverter.init", tuple((m, "CdfInverter.__init__") for m in INVERTER_CALLERS),
         time_metric="arrival.CdfInverter.init_us"),
    Span("arrival.CdfInverter.sample", tuple((m, "CdfInverter.sample") for m in INVERTER_CALLERS),
         time_metric="arrival.CdfInverter.sample_us", count=_count_photons),
    Span("oracle.cull_dead_time", (("oracle", "cull_dead_time"),), count=_count_culled),
    Span("oracle.simulate_registrations", (("fast_sim", "simulate_registrations"),)),
    Span("oracle.empirical_pdf", (("dataset", "empirical_pdf"),)),
    Span("dataset.make_pair", (("dataset", "make_pair"),)),
    Span("dataset.generate_dataset", (("dataset", "generate_dataset"),),
         time_metric="dataset.generate_dataset.ms", unit="ms"),
    Span("dataset.write_dataset", (("dataset", "write_dataset"),),
         time_metric="dataset.write_dataset.ms", unit="ms", count=_count_written),
    Span("dataset.read_dataset", (("dataset", "read_dataset"),), time_metric="dataset.read_dataset.ms", unit="ms"),
    Span("fast_sim.fast_simulate", (("fast_sim", "fast_simulate"),)),
    Span("fast_sim.simulate_image", (("fast_sim", "simulate_image"),),
         time_metric="fast_sim.simulate_image.self_us_per_px", per="px", count=_count_pixels),
)

# Counters that are not the time of one span: (name, unit, better).
EXTRA_METRICS = (
    ("core.build_flux.calls_per_px", "count", "lower"),
    ("arrival.CdfInverter.photons", "count", "lower"),
    ("arrival.CdfInverter.ns_per_photon", "ns", "lower"),
    ("oracle.cull_dead_time.arrivals", "count", "lower"),
    ("oracle.cull_dead_time.ns_per_arrival", "ns", "lower"),
    ("oracle.cull_dead_time.kept_ratio", "ratio", "higher"),
    ("dataset.file_bytes", "bytes", "lower"),
    ("dataset.resamples", "count", "lower"),
    ("fast_sim.out_of_range_warnings", "count", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def metric_specs() -> "list[tuple[str, str, str]]":
    """Every per-layer metric as (name, unit, better), in output order."""
    specs = []
    for span in SPANS:
        specs.append((span.time_name, span.unit, "lower"))
        specs.append((f"{span.name}.calls", "count", "lower"))
        specs.append((f"{span.name}.share", "fraction", "lower"))
    return specs + list(EXTRA_METRICS)


class _CountResamples(logging.Handler):
    def __init__(self, counts: Counter):
        super().__init__(logging.INFO)
        self.counts = counts

    def emit(self, record):
        if record.getMessage().startswith("resampling"):
            self.counts["resamples"] += 1


class Tracer:
    """Aggregated spans and counters over every traced pass."""

    def __init__(self):
        self.spans = SPANS
        # Per span: [calls, total seconds, seconds in wrapped callees].
        self.stats = {s.name: [0, 0.0, 0.0] for s in SPANS}
        self.counts: Counter = Counter()
        self.present: "set[str]" = set()
        self._stack: "list[float]" = []

    def _wrap(self, span: Span, fn):
        stats, stack, counts, count = self.stats[span.name], self._stack, self.counts, span.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += stack.pop()
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target that exists, count warnings and resamples, restore on exit."""
        saved = []
        methods: "dict[tuple[str, str], list[tuple[Span, str]]]" = {}
        try:
            for span in self.spans:
                for mod_name, attr in span.targets:
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        methods.setdefault((mod_name, cls_name), []).append((span, meth))
                        continue
                    module = importlib.import_module(f"splsim.{mod_name}")
                    fn = getattr(module, attr, None)
                    if fn is None:
                        continue
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(span, fn))
                    self.present.add(span.name)
            for (mod_name, cls_name), wanted in methods.items():
                module = importlib.import_module(f"splsim.{mod_name}")
                cls = getattr(module, cls_name, None)
                if cls is None:
                    continue
                namespace = {}
                for span, meth in wanted:
                    fn = getattr(cls, meth, None)
                    if fn is not None:
                        namespace[meth] = self._wrap(span, fn)
                        self.present.add(span.name)
                saved.append((module, cls_name, cls))
                setattr(module, cls_name, type(cls_name, (cls,), namespace))
            logger = logging.getLogger("splsim.dataset")
            handler = _CountResamples(self.counts)
            old_level = logger.level
            logger.setLevel(logging.INFO)
            logger.addHandler(handler)
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    yield
            finally:
                logger.removeHandler(handler)
                logger.setLevel(old_level)
                self.counts["out_of_range_warnings"] += sum(
                    "outside the trained" in str(w.message) for w in caught
                )
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def absent(self) -> "list[str]":
        return [s.name for s in self.spans if s.name not in self.present]

    def metrics(self, passes: int, traced_s: float, untraced_s: float) -> "dict[str, tuple[float, str]]":
        """Per-layer metrics over ``passes`` traced passes taking ``traced_s`` seconds.

        Counts are per pass; times are self times per unit of work; a
        share is a span's self time over the traced wall time. A layer a
        workload never reaches reports zero.
        """
        c = self.counts
        out: "dict[str, tuple[float, str]]" = {}

        def ratio(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        own = {name: total - child for name, (_, total, child) in self.stats.items()}
        for span in self.spans:
            calls = self.stats[span.name][0]
            den = c[span.per] if span.per else calls
            out[span.time_name] = (ratio(own[span.name], den, _SCALE[span.unit]), span.unit)
            out[f"{span.name}.calls"] = (calls / passes, "count")
            out[f"{span.name}.share"] = (ratio(own[span.name], traced_s), "fraction")

        out["core.build_flux.calls_per_px"] = (ratio(self.stats["core.build_flux"][0], c["px"]), "count")
        out["arrival.CdfInverter.photons"] = (c["photons"] / passes, "count")
        out["arrival.CdfInverter.ns_per_photon"] = (
            ratio(own["arrival.CdfInverter.sample"], c["photons"], 1e9), "ns")
        out["oracle.cull_dead_time.arrivals"] = (c["arrivals"] / passes, "count")
        out["oracle.cull_dead_time.ns_per_arrival"] = (
            ratio(own["oracle.cull_dead_time"], c["arrivals"], 1e9), "ns")
        out["oracle.cull_dead_time.kept_ratio"] = (ratio(c["kept"], c["arrivals"]), "ratio")
        out["dataset.file_bytes"] = (ratio(c["file_bytes"], self.stats["dataset.write_dataset"][0]), "bytes")
        out["dataset.resamples"] = (c["resamples"] / passes, "count")
        out["fast_sim.out_of_range_warnings"] = (c["out_of_range_warnings"] / passes, "count")
        out["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "fraction")
        return out
