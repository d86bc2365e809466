"""Bit-accurate simulation and accuracy analysis of stochastic-computing
mux-based weighted adders."""

from .bitstream import Bitstream
from .rns import RnsSpec, complement_output, rns_sequence
from .sngen import InputChannel, PccKind, QuantizationWarning, make_channels
from .muxtree import build_biased_selector_tree, build_hardwired_tree, quantize_weights
from .adders import (
    AdderDesign,
    SimulationReport,
    make_design,
    run_adder,
    run_apc,
    structural_report,
)
from .analysis import (
    AccuracyStats,
    ModelConfig,
    VarianceReport,
    accuracy_stats,
    closed_form_variance,
    decompose_variance,
    expected_closed_form,
)
from .filterapp import (
    FilterSpec,
    Signal,
    filter_rmse_vs_length,
    make_lowpass,
    make_noisy_signal,
    pulse_train_signal,
    reference_fir,
    stochastic_fir,
)

__all__ = [name for name in dir() if not name.startswith("_")]
