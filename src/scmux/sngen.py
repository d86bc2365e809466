"""Probability conversion circuits and shared-source stochastic number generation.

A stochastic number generator (SNG) is a number source plus a probability
conversion circuit (PCC). Two PCCs are provided: the comparator and the
weighted binary generator (WBG). The channel wiring implements sign-aware
generation: channels with negative weights can be fed the complemented
source word so that, after the sign-inverter array, every pair of data
streams entering the adder tree is maximally correlated.
"""

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bitstream import bipolar_thresholds
from .rns import complement_output, wbg_bit_index


class PccKind(Enum):
    COMPARATOR = "comparator"
    WBG = "wbg"


class QuantizationWarning(UserWarning):
    """A value was clamped because the chosen PCC cannot represent it exactly."""


@dataclass(frozen=True)
class InputChannel:
    """One data input: its value, weight, threshold and source wiring."""

    value: float
    weight: float
    threshold: int
    uses_complemented_rns: bool


def pcc_thresholds(values, n: int, pcc: PccKind) -> np.ndarray:
    """Threshold codes a PCC of width n realizes for bipolar values (int64).

    The WBG has no all-ones code, so probability 1 is clamped to
    (2^n - 1)/2^n with a warning.
    """
    b = bipolar_thresholds(values, n)
    # b <= 2^n; initial=0 lets an empty row through to the checks after this
    if pcc is PccKind.WBG and b.max(initial=0) == 1 << n:
        warnings.warn(
            f"WBG cannot represent probability 1; clamping threshold to {(1 << n) - 1}",
            QuantizationWarning,
            stacklevel=2,
        )
        b = np.minimum(b, (1 << n) - 1)
    return b


def make_channels(
    values,
    weights,
    n: int,
    pcc: PccKind = PccKind.COMPARATOR,
    correlated_wiring: bool = True,
) -> list[InputChannel]:
    """Build input channels for bipolar values; negative-weight channels get
    the complemented source word when correlated wiring is enabled."""
    if len(values) != len(weights):
        raise ValueError("values and weights must have equal length")
    thresholds = pcc_thresholds(values, n, pcc).tolist()
    return [
        InputChannel(
            value=float(v),
            weight=float(w),
            threshold=b,
            uses_complemented_rns=bool(correlated_wiring and w < 0),
        )
        for v, w, b in zip(values, weights, thresholds)
    ]


def pcc_bits(pcc: PccKind, words: np.ndarray, b, n: int) -> np.ndarray:
    """Vectorized PCC over an array of source words; returns uint8 bits.

    b is one threshold for every word, or an array holding each word's own
    threshold (a PCC whose threshold register changes from cycle to cycle).
    """
    if pcc is PccKind.COMPARATOR:
        return (words < b).astype(np.uint8)
    # b >> n is nonzero exactly when b lies outside [0, 2^n)
    if (np.asarray(b) >> n).any():
        raise ValueError(f"WBG threshold outside [0, 2^{n} - 1]: {b}")
    return ((b >> wbg_bit_index(words, n)) & 1).astype(np.uint8)


def input_bit_matrix(
    channels: list[InputChannel], words: np.ndarray, pcc: PccKind, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Generate raw and sign-inverted bit matrices, one row per channel.

    X holds the PCC outputs, Y the streams after the sign-inverter array
    (rows of negative-weight channels are complemented).
    """
    thresholds = np.array([ch.threshold for ch in channels], dtype=np.int64)
    if np.any(thresholds > (1 << n)):
        raise ValueError("channel threshold exceeds source range")
    complemented = np.array([ch.uses_complemented_rns for ch in channels], dtype=bool)
    word_rows = np.where(complemented[:, None], complement_output(words, n), words)
    x = pcc_bits(pcc, word_rows, thresholds[:, None], n)
    negs = np.array([ch.weight < 0 for ch in channels], dtype=np.uint8)
    y = x ^ negs[:, None]
    return x, y
