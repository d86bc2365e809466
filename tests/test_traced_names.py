"""The benchmark's tracer (perfbench/spans.py) wraps scmux functions by name.

Tier-1 collects only tests/, so a rename that breaks `perfbench/run.py
--trace 1` would otherwise pass here. This reads the tracer's target list and
checks that every name still resolves.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    targets = _tracer_targets()
    assert targets
    for modname, attr in targets:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    # also wrapped: the stream constructor, and make_channels wherever it is
    # looked up
    import scmux
    import scmux.adders
    import scmux.bitstream
    import scmux.sngen

    assert callable(scmux.bitstream.Bitstream.__init__)
    assert scmux.make_channels is scmux.adders.make_channels is scmux.sngen.make_channels


def test_traced_arguments_keep_their_positions():
    # perfbench/spans.py's NOTES hooks read these arguments by position, or
    # by name when passed as keywords; a drifting signature would make
    # `perfbench/run.py --trace 1` miscount without failing here otherwise
    import inspect

    import scmux.adders
    import scmux.analysis
    import scmux.muxtree
    import scmux.rns
    import scmux.sngen

    read = {
        scmux.adders.run_adder: {"design": 0, "big_n": 2},
        scmux.muxtree.quantize_weights: {"weights": 0, "m": 1},
        scmux.rns.rns_sequence: {"count": 1},
        scmux.analysis.decompose_variance: {"cfg": 0, "runs": 1},
        scmux.sngen.make_channels: {"values": 0},
        scmux.sngen.input_bit_matrix: {"channels": 0, "words": 1},
    }
    for func, positions in read.items():
        params = list(inspect.signature(func).parameters)
        for name, pos in positions.items():
            assert name in params and params.index(name) == pos, (func.__name__, name, params)


def test_each_run_is_one_adder_call_of_2_to_the_n_cycles(monkeypatch):
    # spans.py's _note_adder counts a run's cycles, and whether it ran a
    # hardwired tree, once per traced run_adder call: batching the runs'
    # set-up must leave one call per run, at big_n = 2^n
    import numpy as np

    import scmux.analysis
    import scmux.filterapp
    from oracles import ABLATION_NAMES, DESIGN_NAMES
    from scmux.adders import make_design
    from scmux.filterapp import FilterSpec, Signal

    calls = []
    for module in (scmux.analysis, scmux.filterapp):
        def counted(design, values, big_n, seed, weights, run=module.run_adder):
            calls.append((design.n, big_n))
            return run(design, values, big_n, seed, weights)

        monkeypatch.setattr(module, "run_adder", counted)
    # every preset: each PCC branch of run_adder, and the APC
    for name in DESIGN_NAMES + ABLATION_NAMES:
        d, w = make_design(name, 10), (0.5, -0.25, 0.25)
        for mode in (None, "uniform", "pm"):
            calls.clear()
            scmux.analysis.accuracy_stats(d, w, 37, 5, mode)
            assert calls == [(10, 1024)] * 37, (name, mode)
        calls.clear()
        scmux.filterapp.stochastic_fir(d, FilterSpec(w), Signal(np.linspace(-1.0, 1.0, 9)), 5)
        assert calls == [(10, 1024)] * 9, name
