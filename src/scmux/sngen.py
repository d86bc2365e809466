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
from functools import lru_cache

import numpy as np

from .bitstream import (
    Bitstream,
    SnFormat,
    SnValue,
    bipolar_thresholds,
    quantize_to_probability,
)
from .rns import RnsState, complement_output


class PccKind(Enum):
    COMPARATOR = "comparator"
    WBG = "wbg"


class QuantizationWarning(UserWarning):
    """A value was clamped because the chosen PCC cannot represent it exactly."""


@dataclass(frozen=True)
class InputChannel:
    """One data input: its value, weight, threshold and source wiring."""

    value: SnValue
    weight: float
    threshold: int
    uses_complemented_rns: bool


def _clamp_for_pcc(b, n: int, pcc: PccKind):
    # the WBG has no all-ones code
    if pcc is PccKind.WBG and np.any(b == 1 << n):
        warnings.warn(
            f"WBG cannot represent probability 1; clamping threshold to {(1 << n) - 1}",
            QuantizationWarning,
            stacklevel=3,
        )
        b = np.minimum(b, (1 << n) - 1)
    return b


def pcc_threshold(v: SnValue, n: int, pcc: PccKind) -> int:
    """Quantize a value to the threshold code a PCC of width n can realize.

    The WBG has no all-ones code, so probability 1 is clamped to
    (2^n - 1)/2^n with a warning.
    """
    return int(_clamp_for_pcc(quantize_to_probability(v, n), n, pcc))


def pcc_thresholds(values, n: int, pcc: PccKind) -> np.ndarray:
    """pcc_threshold for an array of bipolar values, as an int64 array."""
    return _clamp_for_pcc(bipolar_thresholds(values, n), n, pcc)


def make_channels(
    values,
    weights,
    n: int,
    pcc: PccKind = PccKind.COMPARATOR,
    correlated_wiring: bool = True,
) -> list[InputChannel]:
    """Build input channels; negative-weight channels get the complemented source
    word when correlated wiring is enabled."""
    if len(values) != len(weights):
        raise ValueError("values and weights must have equal length")
    out = []
    for v, w in zip(values, weights):
        # bare floats are treated as bipolar, matching the adder designs
        sv = v if isinstance(v, SnValue) else SnValue(float(v), SnFormat.BIPOLAR)
        out.append(
            InputChannel(
                value=sv,
                weight=float(w),
                threshold=pcc_threshold(sv, n, pcc),
                uses_complemented_rns=bool(correlated_wiring and w < 0),
            )
        )
    return out


def comparator_bit(r: int, b: int) -> int:
    """1 iff r < b. Over a full-period source this yields exactly b ones."""
    return 1 if r < b else 0


@lru_cache(maxsize=None)
def _wbg_shift_table(n: int) -> np.ndarray:
    # shift[r] = index of r's leading one counted from the LSB;
    # shift[0] = n so that (b >> n) & 1 == 0 for any b < 2^n
    tbl = np.full(1 << n, n, dtype=np.int64)
    for r in range(1, 1 << n):
        tbl[r] = r.bit_length() - 1
    tbl.setflags(write=False)
    return tbl


def wbg_bit(r: int, b: int, n: int) -> int:
    """Weighted binary generator output bit.

    The WBG decodes the position of r's leading one (a set of mutually
    exclusive events with dyadic probabilities) and outputs the threshold bit
    of matching significance, so a full period carries exactly b ones for
    b in [0, 2^n - 1].
    """
    if not 0 <= b < (1 << n):
        raise ValueError(f"WBG threshold {b} outside [0, 2^{n} - 1]")
    if r == 0:
        return 0
    return (b >> (r.bit_length() - 1)) & 1


def pcc_bits(pcc: PccKind, words: np.ndarray, b, n: int) -> np.ndarray:
    """Vectorized PCC over an array of source words; returns uint8 bits.

    b is one threshold for every word, or an array holding each word's own
    threshold (a PCC whose threshold register changes from cycle to cycle).
    """
    if pcc is PccKind.COMPARATOR:
        return (words < b).astype(np.uint8)
    if np.any((b < 0) | (b >= (1 << n))):
        raise ValueError(f"WBG threshold outside [0, 2^{n} - 1]: {b}")
    return ((b >> _wbg_shift_table(n)[words]) & 1).astype(np.uint8)


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
    if complemented.any():
        word_rows = np.where(
            complemented[:, None], complement_output(words, n)[None, :], words[None, :]
        )
    else:
        word_rows = np.broadcast_to(words, (len(channels), words.size))
    if pcc is PccKind.COMPARATOR:
        x = (word_rows < thresholds[:, None]).astype(np.uint8)
    else:
        if np.any(thresholds >= (1 << n)):
            raise ValueError(f"WBG threshold outside [0, 2^{n} - 1]")
        shifts = _wbg_shift_table(n)[word_rows]
        x = ((thresholds[:, None] >> shifts) & 1).astype(np.uint8)
    negs = np.array([ch.weight < 0 for ch in channels], dtype=np.uint8)
    y = x ^ negs[:, None]
    return x, y


def generate_inputs(
    channels: list[InputChannel], rns: RnsState, pcc: PccKind, count: int
) -> list[tuple[Bitstream, Bitstream]]:
    """Draw `count` shared source words and produce (X_i, Y_i) per channel.

    Every channel sees the same word each cycle (or its complement, per the
    channel wiring); Y_i is X_i after the sign-inverter array.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    words = rns.take(count)
    x, y = input_bit_matrix(channels, words, pcc, rns.spec.width)
    return [(Bitstream(x[i]), Bitstream(y[i])) for i in range(len(channels))]
