"""Outside-in tracing of scmux's layers.

A Tracer wraps the public functions of rns, bitstream, sngen, muxtree,
adders, analysis, filterapp and cli. Each wrapped call records a span
(name, start, end, parent) in memory, plus a few work counts taken from its
arguments. Nothing inside the program changes: the wrappers are rebound in
every scmux module that holds a reference to the wrapped function, because a
module that did `from .sngen import make_channels` looks the name up in its
own globals, not in `sngen`.
"""

import functools
import json
import statistics
import sys
import time
from collections import Counter

import numpy as np

# (defining module, function); each span is named "<module>.<function>"
TARGETS = (
    ("scmux.rns", "rns_sequence"),
    ("scmux.muxtree", "quantize_weights"),
    ("scmux.muxtree", "build_hardwired_tree"),
    ("scmux.muxtree", "build_biased_selector_tree"),
    ("scmux.sngen", "make_channels"),
    ("scmux.sngen", "input_bit_matrix"),
    ("scmux.sngen", "pcc_bits"),
    ("scmux.bitstream", "bipolar_thresholds"),
    ("scmux.adders", "run_adder"),
    ("scmux.adders", "run_apc"),
    ("scmux.analysis", "accuracy_stats"),
    ("scmux.analysis", "decompose_variance"),
    ("scmux.analysis", "expected_closed_form"),
    ("scmux.filterapp", "stochastic_fir"),
    ("scmux.filterapp", "filter_rmse_vs_length"),
    ("scmux.cli", "main"),
)

# every per-layer metric the traced run reports, with its unit
PER_LAYER = (
    ("rns.rns_sequence.calls", "count"),
    ("rns.rns_sequence.self_ms", "ms"),
    ("rns.words", "count"),
    ("muxtree.quantize_weights.calls", "count"),
    ("muxtree.quantize_weights.self_ms", "ms"),
    ("muxtree.quantize_weights.distinct_ratio", "ratio"),
    ("muxtree.build_hardwired_tree.calls", "count"),
    ("muxtree.build_hardwired_tree.self_ms", "ms"),
    ("muxtree.tree_cache_hit_ratio", "ratio"),
    ("muxtree.build_biased_selector_tree.calls", "count"),
    ("muxtree.build_biased_selector_tree.self_ms", "ms"),
    ("sngen.make_channels.calls", "count"),
    ("sngen.make_channels.self_ms", "ms"),
    ("sngen.channels", "count"),
    ("sngen.input_bit_matrix.calls", "count"),
    ("sngen.input_bit_matrix.self_ms", "ms"),
    ("sngen.bits_generated", "bits"),
    ("sngen.bits_used_ratio", "ratio"),
    ("sngen.pcc_bits.calls", "count"),
    ("sngen.pcc_bits.self_ms", "ms"),
    ("bitstream.Bitstream.calls", "count"),
    ("bitstream.Bitstream.self_ms", "ms"),
    ("bitstream.bipolar_thresholds.self_ms", "ms"),
    ("adders.run_adder.calls", "count"),
    ("adders.run_adder.self_ms", "ms"),
    ("adders.run_adder.p50_us", "us"),
    ("adders.run_adder.p99_us", "us"),
    ("adders.run_apc.calls", "count"),
    ("adders.run_apc.self_ms", "ms"),
    ("analysis.accuracy_stats.self_ms", "ms"),
    ("analysis.decompose_variance.calls", "count"),
    ("analysis.decompose_variance.self_ms", "ms"),
    ("analysis.model_runs", "count"),
    ("analysis.expected_closed_form.self_ms", "ms"),
    ("filterapp.stochastic_fir.self_ms", "ms"),
    ("filterapp.filter_rmse_vs_length.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
)
TIMED_UNITS = ("ms", "us", "%")  # metrics that vary run to run; the rest are exact counts


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _note_words(counts, args, kwargs):
    counts["rns.words"] += _arg(args, kwargs, 1, "count")


def _note_quantize(counts, args, kwargs):
    w = np.asarray(_arg(args, kwargs, 0, "weights"), dtype=np.float64)
    counts.quantized.add((w.tobytes(), _arg(args, kwargs, 1, "m")))


def _note_channels(counts, args, kwargs):
    counts["sngen.channels"] += len(_arg(args, kwargs, 0, "values"))


def _note_bits(counts, args, kwargs):
    m = len(_arg(args, kwargs, 0, "channels"))
    big_n = _arg(args, kwargs, 1, "words").size
    counts["sngen.bits_generated"] += m * big_n
    counts["sngen.bits_used"] += big_n


def _note_adder(counts, args, kwargs):
    counts["adders.hardwired_runs"] += _arg(args, kwargs, 0, "design").tree_type == "hardwired"
    counts["cycles"] += _arg(args, kwargs, 2, "big_n")


def _note_model(counts, args, kwargs):
    runs = _arg(args, kwargs, 1, "runs")
    counts["analysis.model_runs"] += runs
    counts["cycles"] += runs * _arg(args, kwargs, 0, "cfg").N


NOTES = {
    "rns.rns_sequence": _note_words,
    "muxtree.quantize_weights": _note_quantize,
    "sngen.make_channels": _note_channels,
    "sngen.input_bit_matrix": _note_bits,
    "adders.run_adder": _note_adder,
    "analysis.decompose_variance": _note_model,
}


class Counts(Counter):
    """Work counts, plus the distinct (weights, height) pairs quantized."""

    def __init__(self):
        super().__init__()
        self.quantized = set()


class Tracer:
    """In-memory span recorder. Spans are [name_id, start_ns, end_ns, parent]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.counts = Counts()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        note = NOTES.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if note is not None:
                note(counts, args, kwargs)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every target in every loaded scmux module that refers to it.

        Returns a function that puts the original objects back.
        """
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "scmux" or name.startswith("scmux."))
        ]
        undo = []
        for modname, attr in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(f"{modname.removeprefix('scmux.')}.{attr}", original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        undo.append((m, key, original))
        bitstream = sys.modules["scmux.bitstream"].Bitstream
        undo.append((bitstream, "__init__", bitstream.__init__))
        # the constructor, i.e. output-stream packing
        bitstream.__init__ = self.wrap("bitstream.Bitstream", bitstream.__init__)

        def uninstall():
            for obj, key, value in reversed(undo):
                setattr(obj, key, value)

        return uninstall

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric but trace.overhead_pct, which needs untraced runs."""
        return layer_metrics(self.names, self.spans, self.counts)


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap each other.
    """
    child = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]


def _has_ancestor(spans, i, nid) -> bool:
    i = spans[i][3]
    while i >= 0:
        if spans[i][0] == nid:
            return True
        i = spans[i][3]
    return False


def _ratio(num, den) -> float:
    """num/den, and 0 when the layer never ran (den == 0)."""
    return num / den if den else 0.0


def layer_metrics(names, spans, counts) -> dict[str, float]:
    calls = Counter()
    self_ns = Counter()
    for (nid, *_), own in zip(spans, self_times(spans)):
        calls[names[nid]] += 1
        self_ns[names[nid]] += own
    out = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_ms"] = self_ns[name] / 1e6

    ids = {name: i for i, name in enumerate(names)}
    adder_durations = [
        (end - start) / 1e3 for nid, start, end, _ in spans if nid == ids["adders.run_adder"]
    ]
    if len(adder_durations) >= 2:
        q = statistics.quantiles(adder_durations, n=100, method="inclusive")
        out["adders.run_adder.p50_us"], out["adders.run_adder.p99_us"] = q[49], q[98]
    else:
        out["adders.run_adder.p50_us"] = out["adders.run_adder.p99_us"] = (
            adder_durations[0] if adder_durations else 0.0
        )

    # builds of the hardwired tree under run_adder are exactly the misses of
    # the adder's tree cache; the model path in analysis builds its own tree
    build = ids["muxtree.build_hardwired_tree"]
    misses = sum(
        1 for i, span in enumerate(spans)
        if span[0] == build and _has_ancestor(spans, i, ids["adders.run_adder"])
    )
    hardwired = counts["adders.hardwired_runs"]
    out["muxtree.tree_cache_hit_ratio"] = _ratio(hardwired - misses, hardwired)
    out["muxtree.quantize_weights.distinct_ratio"] = _ratio(
        len(counts.quantized), calls["muxtree.quantize_weights"]
    )
    for key in ("rns.words", "sngen.channels", "sngen.bits_generated", "analysis.model_runs"):
        out[key] = counts[key]
    out["sngen.bits_used_ratio"] = _ratio(counts["sngen.bits_used"], counts["sngen.bits_generated"])
    return {name: out[name] for name, _ in PER_LAYER if name in out}
