"""Assembled weighted-adder designs and their cycle-accurate simulation.

Six named designs are provided. The feature matrix (tree style, data PCC,
full correlation, precise sampling):

    cemux            hardwired  comparators  yes  yes
    cemux_wbg        hardwired  WBGs         no   yes
    cemux_biased     biased     comparators  yes  no
    basic_hardwired  hardwired  WBGs         no   no
    basic_biased     biased     WBGs         no   no
    apc              XNOR array + accumulative parallel counter

The select wiring follows from the sampling mode: under precise sampling the
mux select lines are the bits of one counter, otherwise each tree level has
its own LFSR. A biased tree converts each select word through a WBG.

All designs share one low-discrepancy source for the data inputs. Ablation
variants of cemux (suffixes _nofc, _nops, _nofc_nops, _lfsr) remove full
correlation, precise sampling, or swap the data source for an LFSR.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bitstream import bipolar_thresholds
from .muxtree import (
    _biased_rows,
    _hardwired_rows,
    _quantize_rows,
    quantize_weights,
    tree_size,
)
from .rns import _source_starts, _source_table, complement_output, wbg_bit_index

# make_channels is not on the run path; it stays reachable as
# scmux.adders.make_channels, where callers and perfbench's tracer look it up
from .sngen import PccKind, make_channels, pcc_thresholds  # noqa: F401

@dataclass(frozen=True)
class AdderDesign:
    """A preset's wiring at precision n; each run brings its own weight row."""

    name: str
    n: int
    tree_type: str  # hardwired | biased | apc
    data_pcc: PccKind
    data_rns_kind: str
    full_correlation: bool
    precise_sampling: bool


_PRESETS = {
    "cemux": dict(
        tree_type="hardwired",
        data_pcc=PccKind.COMPARATOR,
        data_rns_kind="sobol_reversed_counter",
        full_correlation=True,
        precise_sampling=True,
    ),
    "cemux_wbg": dict(
        tree_type="hardwired",
        data_pcc=PccKind.WBG,
        data_rns_kind="sobol_reversed_counter",
        full_correlation=False,
        precise_sampling=True,
    ),
    "cemux_biased": dict(
        tree_type="biased",
        data_pcc=PccKind.COMPARATOR,
        data_rns_kind="sobol_reversed_counter",
        full_correlation=True,
        precise_sampling=False,
    ),
    "basic_hardwired": dict(
        tree_type="hardwired",
        data_pcc=PccKind.WBG,
        data_rns_kind="sobol_reversed_counter",
        full_correlation=False,
        precise_sampling=False,
    ),
    "basic_biased": dict(
        tree_type="biased",
        data_pcc=PccKind.WBG,
        data_rns_kind="sobol_reversed_counter",
        full_correlation=False,
        precise_sampling=False,
    ),
    "apc": dict(
        tree_type="apc",
        data_pcc=PccKind.COMPARATOR,
        data_rns_kind="sobol_reversed_counter",
        full_correlation=False,
        precise_sampling=False,
    ),
    # cemux ablations
    "cemux_nofc": dict(
        tree_type="hardwired",
        data_pcc=PccKind.COMPARATOR,
        data_rns_kind="sobol_reversed_counter",
        full_correlation=False,
        precise_sampling=True,
    ),
    "cemux_nops": dict(
        tree_type="hardwired",
        data_pcc=PccKind.COMPARATOR,
        data_rns_kind="sobol_reversed_counter",
        full_correlation=True,
        precise_sampling=False,
    ),
    "cemux_nofc_nops": dict(
        tree_type="hardwired",
        data_pcc=PccKind.COMPARATOR,
        data_rns_kind="sobol_reversed_counter",
        full_correlation=False,
        precise_sampling=False,
    ),
    "cemux_lfsr": dict(
        tree_type="hardwired",
        data_pcc=PccKind.COMPARATOR,
        data_rns_kind="lfsr",
        full_correlation=True,
        precise_sampling=True,
    ),
}


def normalize_design_name(name: str) -> str:
    key = name.lower().replace("-", "_")
    if key not in _PRESETS:
        raise ValueError(
            f"unknown design {name!r}; known: {', '.join(sorted(_PRESETS))}"
        )
    return key


def make_design(name: str, n: int) -> AdderDesign:
    """Instantiate a named design at precision n.

    Weights are checked where a run or a report uses them: by the quantizer,
    or by the APC kernel (_apc) for the APC.
    """
    key = normalize_design_name(name)
    if not 3 <= n <= 16:
        raise ValueError("precision n must be in [3, 16]")
    return AdderDesign(name=key, n=n, **_PRESETS[key])


@dataclass(frozen=True)
class SimulationReport:
    """One simulation run: output stream, estimate, target and error."""

    estimate: float
    target: float
    error: float
    # one uint8 per cycle; None for the APC, whose output is multi-bit
    output_bits: np.ndarray | None = field(repr=False)
    sampling_counts: np.ndarray | None


def _values_array(values, m: int) -> np.ndarray:
    # the range is checked once, where the values are quantized
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (m,):
        raise ValueError("values and weights must have equal length")
    return v


# _run_reports fills runs a block (_block_runs) at a time, and _simulate runs a
# block's cycles a slice at a time: each array with a 2^n axis holds at most
# _CHUNK_ELEMENTS elements, or one run's, as do the model path's chunks.
_CHUNK_ELEMENTS = 1 << 14
_BLOCK_ELEMENTS = 1 << 17
# A block holds at most this many runs' drawn Python objects and reports.
_CHUNK_RUNS = 128


def _chunk_runs(per_run: int) -> int:
    return max(1, _CHUNK_ELEMENTS // per_run)


def _block_runs(design: AdderDesign, m: int) -> int:
    """Runs in one block of M-input runs of `design`.

    Its (R, M) rows stay within _CHUNK_ELEMENTS elements and its largest
    per-run table within _BLOCK_ELEMENTS, or it holds one run if that has
    more: the APC's (R, M, n + 2) terms (_apc); a biased fill's
    (R, 2^D - 1, n + 1) step tables, D at most (M - 1).bit_length()
    (_fill_tables); a hardwired slice's (R, n + 1, M) numerator bits, read
    to build its owner maps (_hardwired_rows). 2^n bounds the slices alone.
    """
    n = design.n
    if design.tree_type == "apc":
        table = m * (n + 2)
    elif design.tree_type == "biased":
        table = ((1 << (m - 1).bit_length()) - 1) * (n + 1)
    else:
        table = (n + 1) * m
    return min(_chunk_runs(m), max(1, _BLOCK_ELEMENTS // max(table, 1)), _CHUNK_RUNS)


# The weight tables of the last fill, keyed by (|w| bytes, n, tree type). The
# tree depends on the magnitudes alone; the signs act after it, so weights that
# differ only in sign share one entry. An entry is (numerators, tree),
# read-only views of the fill's blocks. A "hardwired" tree is its owner map,
# which has a 2^n axis: a fill builds its rows' maps only if they fit one slice
# of cycles, _chunk_runs(2^n) rows, as under fixed weights or in a run alone,
# and otherwise its trees are None and each slice builds its runs' maps. A
# "biased" tree is (step, leaf_owner). Entry step[s (n + 1) + k] is where the
# walk goes from heap slot s when the select word has WBG class k (see
# wbg_bit_index): the next slot times n + 1 if that slot is a mux, or else the
# next slot's position among the leaves. A fill's biased trees share one depth,
# that of its deepest tree (see _biased_rows), and _fill_rows keeps the last
# fill's entries alone, so every entry a block reads has that depth: _simulate
# reads it off one entry.
_tables: dict[tuple[bytes, int, str], tuple] = {}


def _fill_rows(cache: dict, rows: np.ndarray, tag: tuple, build) -> tuple[list, list[int]]:
    """The cache entries of the distinct rows of the (R, M) block `rows`, and each row's entry index.

    A row's key is (its bytes, *tag), and the cache holds the entries of the
    last fill alone: if every row's entry is present, nothing is built;
    otherwise build(the distinct rows as one block) returns their entries,
    in order, and they replace the cache's contents. A build that raises
    leaves the cache as it was.
    """
    index = {}
    which = [index.setdefault((row.tobytes(), *tag), len(index)) for row in rows]
    if not index.keys() <= cache.keys():
        distinct = {(row.tobytes(), *tag): row for row in rows}
        entries = build(np.array(list(distinct.values())))
        cache.clear()
        cache.update(zip(distinct, entries))
    return [cache[key] for key in index], which


def _fill_tables(design: AdderDesign, weights) -> tuple[list[tuple], list[int]]:
    """The _tables entries of the distinct magnitude rows of `weights`, and each row's entry index.

    See _fill_rows: the distinct magnitude rows are quantized as one block
    and their trees built as one block: hardwired owner maps if they fit one
    slice, biased trees at the depth of the deepest, each slot's step-table
    row read off the bits of its code and pre-scaled (see _tables). A block
    the quantizer rejects (NaN, infinite or zero weights) raises its message
    and leaves the cache as it was.
    """
    n, tree_type = design.n, design.tree_type

    def build(mags):
        nums = _quantize_rows(mags, n)
        nums.setflags(write=False)
        if tree_type == "hardwired":
            if len(nums) > _chunk_runs(1 << n):
                return [(row, None) for row in nums]
            owners = _hardwired_rows(nums, n)
            owners.setflags(write=False)
            return list(zip(nums, owners))
        heap, leaf_owner = _biased_rows(nums, n)
        # slot s goes to slot 2s + 2 on select bit 0 and to 2s + 1 on bit 1
        slots = heap.shape[1]
        nxt = 2 * np.arange(slots)[:, None] + [2, 1]
        right, left = np.where(nxt < slots, nxt * (n + 1), nxt - slots).T
        # a select WBG outputs bit k of its code for a word of class k; codes
        # lie below 2^n, so class n (the word 0) reads bit n, a 0. Each step
        # is in place, over the block's one (R, slots, n + 1) array
        step = heap[:, :, None] >> np.arange(n + 1)
        step &= 1
        step *= (left - right)[:, None]
        step += right[:, None]
        step = step.reshape(len(nums), -1)
        for arr in (step, leaf_owner):
            arr.setflags(write=False)
        return list(zip(nums, zip(step, leaf_owner)))

    return _fill_rows(_tables, np.abs(np.asarray(weights, dtype=np.float64)), (n, tree_type), build)


def _per_run(rows: list, which: list) -> np.ndarray:
    """Row which[r] of the equal-length arrays `rows` for each run r, (R, L).

    A lone row serves every run as a (1, L) view, which broadcasts.
    """
    return rows[0][None] if len(rows) == 1 else np.array([rows[k] for k in which])


def _row_offsets(rows: int, width: int):
    """Offset of each row in a flattened (rows, width) block, as a column; 0 for one row."""
    return width * np.arange(rows)[:, None] if rows > 1 else 0


def _biased_walk(step: np.ndarray, leaf_owner: np.ndarray, classes: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Input each run's biased tree samples at each cycle, (R, 2^n).

    step and leaf_owner hold each run's tree, all of one depth D, as a row,
    or one row for every run (see _per_run and _tables). Run r's level l
    reads row starts[r, l - 1] of classes, rows of select-word WBG classes
    (rns.wbg_bit_index). Every cycle walks the heap from the root, one level
    per select source, each mux converting its source's word through a WBG
    (see build_biased_selector_tree). The step table is pre-scaled, so a
    level is one add and one gather, and the last level's entries are leaf
    positions.
    """
    if not starts.shape[1]:
        # a one-input tree has no levels: its leaf owns every cycle
        return np.repeat(leaf_owner, classes.shape[-1], axis=1)
    # with its row's offset added, each entry indexes the flattened block: the
    # next slot's row of entries, or a leaf position plus the offset
    offsets = _row_offsets(*step.shape)
    flat = (step + offsets).ravel()
    idx = offsets
    for level in starts.T:
        rows = classes[level]
        rows += idx
        idx = flat.take(rows)
    idx += _row_offsets(*leaf_owner.shape) - offsets
    return leaf_owner.ravel().take(idx)


def _simulate(design: AdderDesign, weights: np.ndarray, values: np.ndarray, seeds) -> list:
    """SimulationReports of the runs (weights[r], values[r], seeds[r]) of a mux design, as one block.

    weights and values are (R, M) float64 blocks and seeds R master seeds.
    Each clock cycle the tree passes one input's bit to the output, so only
    that bit is generated: the sampled input's PCC reads the cycle's shared
    source word x (complemented for a negative input under full correlation),
    and its sign inverter follows. The inverter is folded into the PCC:
      comparator, full correlation: the complement and the inverter cancel,
          1 - [2^n - 1 - x < B] = [x < 2^n - B], so a negative input compares
          x with its post-sign code B' = 2^n - B;
      comparator otherwise: [x < B], inverted for a negative input;
      WBG: bit k of the code for a word of class k (bit n, which is 0, for
          the word 0), so a negative input's code has all n + 1 bits inverted.
    The up-down counter accumulates the output. Each per-run step is one
    array pass over the whole block: the codes and targets, the weight
    tables (_fill_tables) and the LFSR starts. Each step over cycles is one
    array pass over a slice of _chunk_runs(2^n) runs, so that no array with a
    2^n axis outgrows _CHUNK_ELEMENTS elements, or one run: the owner maps,
    the select, the data bits and the counts. A report's output_bits and
    sampling_counts are read-only rows of its slice's arrays.
    """
    n, big_n = design.n, 1 << design.n
    runs, m = values.shape
    thresholds = pcc_thresholds(values, n, design.data_pcc)
    tables, which = _fill_tables(design, weights)
    # one seed's starts cost less in Python integers than as a one-element array
    seed = seeds[0] if runs == 1 else np.array(seeds, dtype=np.uint64)
    neg = weights < 0
    post_sign = np.where(neg, big_n - thresholds, thresholds)
    rows, trees = zip(*tables)
    nums = _per_run(rows, which)
    # sum_i s_i (q_i / 2^n)(2 B_i / 2^n - 1) = sum_i (q_i / 2^n)(2 B'_i / 2^n - 1)
    # = (2 sum_i q_i B'_i - 2^2n) / 2^2n, as the q_i sum to 2^n: an integer
    # over 2^2n, so one correctly rounded division gives the double nearest it
    dots = np.vecdot(nums, post_sign).tolist()
    comparator = design.data_pcc is PccKind.COMPARATOR
    # the code each input's PCC reads, its sign inverter folded in
    if comparator:
        codes = post_sign if design.full_correlation else thresholds
    else:
        codes = np.where(neg, thresholds ^ ((2 << n) - 1), thresholds)
    # a reset source's table is one row, every run's; an LFSR's run starts
    # from its seed
    kind = design.data_rns_kind
    data = _source_starts(kind, seed, 0, n).reshape(runs) if kind == "lfsr" else slice(None)
    if comparator or design.full_correlation:
        words = _source_table(kind, n, "words")
    if not comparator:
        classes = _source_table(kind, n, "wbg_classes")
    starts = None
    if design.tree_type == "biased":
        # a fill's trees share one depth (see _tables)
        depth = trees[0][1].size.bit_length() - 1
        starts = _source_starts("lfsr", seed, slice(1, depth + 1), n).reshape(runs, depth)
        steps, leaves = [step for step, _ in trees], [leaf for _, leaf in trees]
    elif not design.precise_sampling:
        # one independent LFSR per level; its word's MSB is the select bit,
        # bit n - l of the owner-map index for level l
        starts = _source_starts("lfsr", seed, slice(1, n + 1), n).reshape(runs, n)
    step = _chunk_runs(big_n)
    if starts is not None and design.tree_type == "hardwired":
        levels = _source_table("lfsr", n, "level_msbs")
        # a slice gathers the levels a group at a time, each gather within
        # _CHUNK_ELEMENTS elements or one level of one run
        group = _chunk_runs(min(step, runs) << n)
        level_rows = np.arange(n)[:, None]

    reports = []
    square = big_n * big_n
    per_run = (data, starts, codes, neg, dots)
    for lo in range(0, runs, step):
        part = slice(lo, lo + step)
        # a block of one slice is its own slice, which spares a run alone the
        # slicing; a reset source's slice(None) and absent starts stay as
        # they are
        part_data, part_starts, part_codes, part_neg, part_dots = (
            per_run if runs <= step
            else [arr[part] if isinstance(arr, (np.ndarray, list)) else arr for arr in per_run]
        )
        size = len(part_codes)
        # owners[r, t]: the input run r samples at cycle t
        if design.tree_type == "biased":
            owners = _biased_walk(
                _per_run(steps, which[part]), _per_run(leaves, which[part]),
                _source_table("lfsr", n, "wbg_classes"), part_starts,
            )
        else:
            # under precise sampling the counter runs from its reset state over
            # its 2^n words, so its dyadic blocks stay aligned with the
            # low-discrepancy data source: cycle t samples owner[t]
            owners = _hardwired_rows(nums[part], n) if trees[0] is None else _per_run(trees, which[part])
            if part_starts is not None:
                select = _row_offsets(*owners.shape)
                for first in range(0, n, group):
                    at = slice(first, first + group)
                    gathered = levels[level_rows[at], part_starts[:, at].T]
                    select = select + gathered.sum(axis=0, dtype=np.uint16)
                owners = owners.ravel().take(select)
        # idx: the flat index of each cycle's sampled input in the slice's
        # (R, M) rows; a lone run's is its owner
        idx = owners + np.arange(0, size * m, m)[:, None] if size > 1 else owners
        sampled = part_codes.ravel().take(idx)
        if comparator:
            z = words[part_data] < sampled
            if not design.full_correlation:
                z ^= part_neg.ravel().take(idx)
            z = z.view(np.uint8)
        else:
            # a WBG outputs bit k of its code for a word of class k, and bit n,
            # which is 0, for the word 0; so inverting all n + 1 bits of a
            # negative input's code inverts each of its outputs
            part_classes = classes[part_data]
            if design.full_correlation:
                complemented = wbg_bit_index(complement_output(words[part_data], n), n)
                part_classes = np.where(part_neg.ravel().take(idx), complemented, part_classes)
            sampled >>= part_classes
            sampled &= 1
            z = sampled.astype(np.uint8)
        counts = np.bincount(idx.ravel(), minlength=size * m).reshape(size, m)
        z.setflags(write=False)
        counts.setflags(write=False)
        for ones, dot, bits, row_counts in zip(z.sum(axis=1).tolist(), part_dots, z, counts):
            estimate = 2.0 * ones / big_n - 1.0  # ones lies in [0, 2^n]
            target = (2 * dot - square) / square
            reports.append(SimulationReport(estimate, target, estimate - target, bits, row_counts))
        # freed before the next slice makes its own
        del owners, idx, sampled
    return reports


# The reports of the last _fill_runs, one block's runs, keyed by (design, seed,
# value row bytes, weight row bytes).
_reports: dict[tuple, SimulationReport] = {}


def _run_block(design: AdderDesign, weights: np.ndarray, values: np.ndarray, seeds) -> list:
    """SimulationReports of the runs (weights[r], values[r], seeds[r]): _apc for the APC, else _simulate."""
    if design.tree_type == "apc":
        return _apc(weights, values, design.n)
    return _simulate(design, weights, values, seeds)


def _fill_runs(design: AdderDesign, weights, values, seeds) -> None:
    """Make _reports hold the reports of the runs (weights[r], values[r], seeds[r]) alone.

    weights and values are (R, M) blocks and seeds R master seeds in
    [0, 2^64). A block that the kernel rejects raises its message and
    leaves the reports as they were.
    """
    weights = np.asarray(weights, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    reports = _run_block(design, weights, values, seeds)
    _reports.clear()
    _reports.update(
        ((design, seed, v.tobytes(), w.tobytes()), report)
        for seed, v, w, report in zip(seeds, values, weights, reports)
    )


def run_adder(design: AdderDesign, values, big_n: int, seed: int, weights) -> SimulationReport:
    """Cycle-accurate simulation of one adder run with the weight row `weights`.

    After the checks, a run returns the report the last _fill_runs stored
    for this design, seed, value row and weight row, or else runs its
    design's block kernel (_run_block) on this run alone.
    """
    n = design.n
    if big_n != (1 << n):
        raise ValueError(f"stream length must be 2^n = {1 << n} for design {design.name}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d sequence")
    v = _values_array(values, w.size)
    # a stored report's value row passed the range check when it was filled
    report = _reports.get((design, seed, v.tobytes(), w.tobytes()))
    if report is None:
        report = _run_block(design, w[None], v[None], [seed])[0]
    return report


def _run_reports(design: AdderDesign, m: int, runs: int, draw):
    """Each of `runs` M-input runs' value row and SimulationReport, in run order.

    Runs come a block (_block_runs) at a time: draw(lo, hi) returns runs lo
    to hi - 1's (R, M) weights and values and R seeds, drawn ahead as a run
    draws nothing, and one _fill_runs pass simulates them. Each run is then
    one run_adder call at big_n = 2^n, which returns its stored report.
    """
    step = _block_runs(design, m)
    for lo in range(0, runs, step):
        weights, values, seeds = draw(lo, min(lo + step, runs))
        _fill_runs(design, weights, values, seeds)
        for w, v, seed in zip(weights, values, seeds):
            yield v, run_adder(design, v, 1 << design.n, seed, w)


# the stream lengths an APC runs at, with their bit-widths
_APC_WIDTHS = {1 << n: n for n in range(3, 17)}


def _count_terms(b: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K(a, b) = #{t < a : rev_n(t) < b} in closed form, as terms read off the codes b.

    rev_n(t) is the bit-reversed counter's word at cycle t, so K(a, b)
    counts the cycles among the first a whose word lies below b, for a and
    b in [0, 2^n]; it is symmetric in a and b. Returns offsets and counts of
    shape b.shape + (n + 1,) and n + 1 shifts, with
    K(a, b) = sum_j counts_j ((a + offsets_j) >> shifts_j).

    The count halves t level by level, reading the bits of b - 1 from the
    top: the ceil(a/2) even t have words below 2^(n-1), the floor(a/2) odd
    t words at or above it. On a 1 bit every even t counts and the odd ones
    go on, a := floor(a/2); on a 0 bit only the even ones go on,
    a := ceil(a/2). Each t left after the n levels counts. As
    floor((floor((a + c)/2^l) + e)/2) = floor((a + c + e 2^l)/2^(l+1)),
    level l's a is (a + c_l) >> l, c_l summing 2^k over the levels k < l
    that rounded up. b = 0 counts nothing.
    """
    b = np.asarray(b, dtype=np.int64)[..., None]
    levels = np.arange(n)
    ones = ((b - 1) >> (n - 1 - levels)) & 1
    up = (1 - ones) << levels
    c = np.cumsum(up, axis=-1)  # c_(l+1)
    offsets = np.concatenate((c - up + (1 << levels), c[..., -1:]), axis=-1)
    counts = np.concatenate((ones, np.ones_like(b)), axis=-1) * (b > 0)
    return offsets, np.append(levels + 1, n), counts


# The coefficient sides of the last APC fill, keyed by (weight row bytes, n); see
# _fill_rows and _apc_sides_of.
_apc_sides: dict[tuple[bytes, int], tuple | None] = {}


def _apc_sides_of(w: np.ndarray, n: int) -> list:
    """The coefficient side of each row of the (R, M) weight block `w`, what each of its runs reads (see _apc).

    A row with some |w_i| outside [0, 1] (NaN included) has the side None.
    Any other row's side holds the offsets (M, n + 2) and shifts (n + 2) of
    its terms, the terms' (M (n + 2), 2) coefficients in the accumulator
    and the target numerator, their two constant parts, and the codes'
    unsigned sum, sum_i (2 Bw_i - 2^n), 2^n times the quantized
    coefficients' sum. Its arrays are read-only.
    """
    big_n = 1 << n
    inside = np.abs(w) <= 1.0  # NaN fails
    bw = bipolar_thresholds(np.where(inside, np.abs(w), 0.0), n)
    neg = w < 0
    signs = np.where(neg, -1, 1)
    codes = 2 * bw - big_n
    # over 2^n cycles input i's data and coefficient bits differ in
    # D_i = Bx_i + Bw_i - 2 K(Bw_i, Bx_i) cycles, and its product bit,
    # XNOR(x, w) inverted for w_i < 0, adds 2^n - D_i, or D_i for w_i < 0,
    # to the accumulator: Bw_i for w_i < 0, else 2^n - Bw_i, plus
    # s_i (2 K(Bw_i, Bx_i) - Bx_i). The target numerator
    # sum_i s_i (2 Bw_i - 2^n)(2 Bx_i - 2^n) is the sum of
    # 2 s_i (2 Bw_i - 2^n) Bx_i and -2^n s_i (2 Bw_i - 2^n). So a run's
    # terms are K's n + 1 terms, then Bx_i itself (offset and shift 0)
    offsets, shifts, counts = _count_terms(bw, n)
    offsets = np.concatenate((offsets, np.zeros_like(bw)[..., None]), axis=-1)
    shifts = np.append(shifts, 0)
    coefs = np.zeros(offsets.shape + (2,), dtype=np.int64)
    coefs[..., :-1, 0] = 2 * signs[..., None] * counts
    coefs[..., -1, 0] = -signs
    coefs[..., -1, 1] = 2 * signs * codes
    coefs = coefs.reshape(len(w), -1, 2)
    bases = np.stack(
        (np.where(neg, bw, big_n - bw).sum(axis=-1), -big_n * (signs * codes).sum(axis=-1)),
        axis=-1,
    )
    for arr in (offsets, shifts, coefs, bases):
        arr.setflags(write=False)
    masses = codes.sum(axis=-1).tolist()
    return [
        (offsets[d], shifts, coefs[d], bases[d], masses[d]) if inside[d].all() else None
        for d in range(len(w))
    ]


def _apc(weights: np.ndarray, values: np.ndarray, n: int) -> list:
    """SimulationReports of the APC runs (weights[r], values[r]), as one block.

    weights and values are (R, M) float64 blocks. Each run makes run_apc's
    checks, and a block raises the message of its first failing run: its
    values' range, then its coefficients' range, then its quantized mass.
    Both sources run from reset, so at cycle t input i's data bit is
    [rev_n(t) < Bx_i] and its coefficient bit [t < Bw_i]: the run's
    accumulator, the sum of its M 2^n product bits, is a closed form in the
    value codes Bx (see _apc_sides_of and _count_terms), one array pass over
    the block's (R, M, n + 2) terms.
    """
    big_n = 1 << n
    runs, m = values.shape
    sides, which = _fill_rows(_apc_sides, weights, (n,), lambda w: _apc_sides_of(w, n))
    failed = [side is None or side[-1] <= 0 for side in sides]
    if any(failed):
        first = next(r for r, k in enumerate(which) if failed[k])
        # a run before it fails none of the checks; its own values' range
        # comes first
        bipolar_thresholds(values[: first + 1], n)
        if sides[which[first]] is None:
            raise ValueError("APC coefficient values |w_i| must lie in [0, 1]")
        raise ValueError("zero weight mass after quantization")
    bx = bipolar_thresholds(values, n)
    terms = bx[..., None] + _per_run([side[0] for side in sides], which)
    terms >>= sides[0][1]
    coefs = _per_run([side[2] for side in sides], which)
    sums = (terms.reshape(runs, 1, -1) @ coefs)[:, 0] + _per_run([side[3] for side in sides], which)
    reports = []
    for (acc, num), k in zip(sums.tolist(), which):
        # the quantized coefficients and values are their codes over 2^n, so
        # the sum of the coefficients and the signed sum of their products
        # with the values are integers over 2^n and 2^2n; one correctly
        # rounded division gives the double nearest each
        denom = sides[k][-1] / big_n
        raw = 2.0 * acc / (big_n * m) - 1.0
        estimate = min(1.0, max(-1.0, raw * m / denom))
        target = num / (big_n * big_n) / denom
        reports.append(SimulationReport(estimate, target, estimate - target, None, None))
    return reports


def run_apc(weights, values, big_n: int) -> SimulationReport:
    """Accumulative-parallel-counter adder with two shared sources.

    Data SNs share one low-discrepancy source and coefficient SNs (values
    |w_i|, signs folded into the XNOR array) share a second one; the two
    sources are the bit-reversed counter and the plain counter, whose paired
    outputs are jointly equidistributed. The parallel counter adds all M
    product bits each cycle; the accumulator's mean is rescaled so the report
    targets the same normalized weighted mean as the mux designs. The
    design is fully deterministic; the run is the block kernel (_apc) on
    this run alone.
    """
    n = _APC_WIDTHS.get(big_n)
    if n is None:
        raise ValueError("stream length must be a power of two with 3 <= log2(N) <= 16")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d sequence")
    return _apc(w[None], _values_array(values, w.size)[None], n)[0]


def structural_report(design: AdderDesign, weights) -> dict[str, int]:
    """Exact component counts for a design built for the weight row `weights`.

    inverters = the n source-complement inverters (present when full
    correlation is wired and some weight is negative) plus one sign inverter
    per negative-weight input. Inputs whose quantized weight is zero are
    dropped from the datapath. counter bits cover the select counter
    (precise-sampling designs) and the output up-down counter.
    """
    n = design.n
    nums = quantize_weights(weights, n)
    active = int(np.count_nonzero(nums))
    negatives = int(np.count_nonzero((nums > 0) & (np.asarray(weights) < 0)))
    counts = {
        "muxes": 0,
        "comparators": 0,
        "wbgs": 0,
        "inverters": 0,
        "xnors": 0,
        "rns_instances": 0,
        "select_counter_bits": 0,
        "output_counter_bits": n,
        "parallel_counter_bits": 0,
    }
    if design.tree_type == "apc":
        m = nums.size
        counts["comparators"] = 2 * m
        counts["xnors"] = m
        counts["rns_instances"] = 2
        counts["parallel_counter_bits"] = math.ceil(math.log2(m + 1))
        return counts

    data_key = "comparators" if design.data_pcc is PccKind.COMPARATOR else "wbgs"
    counts[data_key] = active
    counts["inverters"] = negatives + (
        n if design.full_correlation and negatives else 0
    )
    counts["rns_instances"] = 1  # shared data source
    counts["muxes"], levels = tree_size(nums, design.tree_type)
    if design.precise_sampling:
        counts["select_counter_bits"] = levels
    else:
        counts["rns_instances"] += levels  # one LFSR per level
    if design.tree_type == "biased":
        counts["wbgs"] += counts["muxes"]  # one select WBG per mux
    return counts
