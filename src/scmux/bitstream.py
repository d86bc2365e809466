"""Stochastic number (SN) bit-streams and bipolar comparator thresholds.

A stochastic number is a fixed-length stream of bits whose value is encoded
by the frequency of 1s: unipolar value = P(bit = 1), bipolar value =
2 P(bit = 1) - 1.
"""

import numpy as np


class Bitstream:
    """An immutable sequence of bits, one bit per clock cycle.

    Bits are stored packed, eight cycles per byte, in clock-cycle order.
    Simulation streams always have power-of-two length; arbitrary lengths are
    accepted so that hand-written streams can be compared.
    """

    __slots__ = ("_packed", "_n")

    def __init__(self, bits):
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("bits must be a non-empty one-dimensional sequence")
        if arr.max() > 1:
            raise ValueError("bits must be 0 or 1")
        self._n = int(arr.size)
        packed = np.packbits(arr)
        packed.setflags(write=False)
        self._packed = packed

    @classmethod
    def from_string(cls, s: str) -> "Bitstream":
        return cls([int(c) for c in s])

    def __len__(self) -> int:
        return self._n

    @property
    def packed(self) -> np.ndarray:
        return self._packed

    @property
    def unpacked(self) -> np.ndarray:
        return np.unpackbits(self._packed)[: self._n]

    def count_ones(self) -> int:
        # packbits pads the final byte with 0s, so padding never adds ones
        return int(np.bitwise_count(self._packed).sum())

    def overlap_ones(self, other: "Bitstream") -> int:
        """Number of clock cycles in which both streams carry a 1."""
        if len(other) != self._n:
            raise ValueError("length mismatch")
        return int(np.bitwise_count(self._packed & other._packed).sum())

    def complement(self) -> "Bitstream":
        return Bitstream(1 - self.unpacked)

    def __eq__(self, other):
        if not isinstance(other, Bitstream):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._packed, other._packed)

    def __hash__(self):
        return hash((self._n, self._packed.tobytes()))

    def __repr__(self):
        bits = "".join(map(str, self.unpacked[:32]))
        tail = "..." if self._n > 32 else ""
        return f"Bitstream({bits}{tail}, len={self._n})"


def bipolar_thresholds(values, n: int) -> np.ndarray:
    """Comparator thresholds B in [0, 2^n] for bipolar values, as int64.

    B is the code whose stream probability B/2^n is closest to (v + 1)/2,
    ties rounding up, i.e. floor((v + 1)/2 * 2^n + 1/2); n + 1 bits hold it
    so that probability 1 is representable. Exact for every double: B counts
    the rounding midpoints (2k + 1 - 2^n)/2^n, k in [0, 2^n), at or below v,
    and as 2k + 1 - 2^n is an integer, those are the k with
    2k + 1 - 2^n <= floor(v 2^n), so B = (floor(v 2^n) + 2^n + 1) >> 1;
    v 2^n, a power-of-two scaling, and its floor are exact.
    """
    if n < 1:
        raise ValueError("bit-width must be >= 1")
    v = np.asarray(values, dtype=np.float64)
    inside = np.abs(v) <= 1.0  # NaN fails the comparison
    if np.count_nonzero(inside) != inside.size:
        raise ValueError(f"bipolar values must lie in [-1, 1]; input value {v[~inside][0]} is outside")
    size = 1 << n
    return (np.floor(v * size).astype(np.int64) + (size + 1)) >> 1
