"""Independent oracles used by the test suite.

Everything here is deliberately written as directly as possible (plain loops,
exact rational arithmetic, integer arrays whose range is checked) and never
calls into the production code paths it is used to check. The full-matrix
adder run builds on the separately tested stream-generation primitives
(sources, trees, scalar quantizer, channels) to check the O(N) run kernel.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def quantize_weights_transcription(weights, m):
    """Line-by-line transcription of the weight-quantization pseudocode.

    Round half away from zero; adjustment loops pick the entry with the
    largest current rounding error, lowest index on ties.
    """
    a = [abs(float(w)) for w in weights]
    total = sum(a)
    assert total > 0
    t = [(2**m) * x / total for x in a]
    q = [math.floor(x + 0.5) for x in t]
    while sum(q) > 2**m:
        errs = [q[i] - t[i] for i in range(len(q))]
        i = errs.index(max(errs))
        q[i] -= 1
    while sum(q) < 2**m:
        errs = [t[i] - q[i] for i in range(len(q))]
        i = errs.index(max(errs))
        q[i] += 1
    return q


def level_ordered_blocks(numerators, h):
    """Select-word blocks hardwired to each input, as (input, level, start).

    The full height-h tree has 2^h leaf slots; input i owns one dyadic range
    of length 2^(h-l) per set bit 2^(h-l) of its numerator, allocated in level
    order (level 1 first) and input order within a level, exactly the
    hardwiring the redundancy-free construction encodes. A numerator of 2^h
    is a single level-0 block covering every slot. Allocating the longest
    ranges first keeps every block aligned to its own length.
    """
    blocks = []
    cursor = 0
    for lvl in range(h + 1):
        span = 1 << (h - lvl)
        for i, q in enumerate(numerators):
            if (q >> (h - lvl)) & 1:
                blocks.append((i, lvl, cursor))
                cursor += span
    assert cursor == 1 << h
    return blocks


def full_tree_select(numerators, h, word):
    """Route a select word through the full height-h tree, no mux elimination.

    Slots are hardwired per level_ordered_blocks. Every level consumes one
    select bit (MSB first), so the walk always descends h levels.
    """
    size = 1 << h
    slots = [None] * size
    for i, lvl, start in level_ordered_blocks(numerators, h):
        for s in range(start, start + (1 << (h - lvl))):
            slots[s] = i
    lo, hi = 0, size
    for lvl in range(1, h + 1):
        bit = (word >> (h - lvl)) & 1
        mid = (lo + hi) // 2
        if bit:
            lo = mid
        else:
            hi = mid
    assert hi - lo == 1
    return slots[lo]


def bipolar_threshold(value, n):
    """Comparator threshold of a bipolar value: floor((v + 1) / 2 * 2^n + 1/2)."""
    return math.floor((Fraction(value) + 1) / 2 * (1 << n) + Fraction(1, 2))


def threshold_law(n):
    """Law of bipolar_threshold(v, n) for v ~ U[-1, 1], as integer weights.

    Code B has probability weight[B] / 2^(n+1): 1/2^n inside, half that at
    B = 0 and B = 2^n, whose rounding cells are cut by the ends of [-1, 1].
    """
    weight = np.full((1 << n) + 1, 2, dtype=np.int64)
    weight[0] = weight[-1] = 1
    return weight


def _bit_reverse(x, width):
    out = 0
    for _ in range(width):
        out = (out << 1) | (x & 1)
        x >>= 1
    return out


def _cemux_blocks(numerators, signs, n, full_correlation):
    """Each owned block's data words, as (input, level, offset, sign).

    cemux's select counter and its bit-reversed-counter data source both run
    from reset, and its tree height equals n, so counter index t drives
    select word t and data word bitrev_n(t). On the aligned level-l block
    with index j the data words are exactly {r + s * 2^l : 0 <= s < 2^(n-l)}
    with r = bitrev_l(j): the (0,1)-sequence property of van der Corput
    (Niederreiter 1992). Complemented wiring feeds a negative input
    2^n - 1 - word, which is the same set with offset 2^l - 1 - r.
    """
    out = []
    for i, lvl, start in level_ordered_blocks(numerators, n):
        r = _bit_reverse(start >> (n - lvl), lvl)
        if full_correlation and signs[i] < 0:
            r = (1 << lvl) - 1 - r
        out.append((i, lvl, r, signs[i]))
    return out


def cemux_block_error(numerators, signs, thresholds, n, full_correlation=True):
    """Exact error of one cemux run (cemux_nofc without full correlation).

    numerators are the quantized weight numerators over 2^n, signs the weight
    signs and thresholds the comparator codes B_i of the inputs. On a level-l
    block with offset r the comparator emits ceil((B - r) / 2^l) ones; the
    sign inverter turns a negative input's count c into 2^(n-l) - c. The
    error is the decoded estimate minus sum_i s_i q_i/2^n (2 B_i/2^n - 1).
    """
    big_n = 1 << n
    ones = 0
    for i, lvl, r, sign in _cemux_blocks(numerators, signs, n, full_correlation):
        c = -((r - thresholds[i]) >> lvl)
        ones += c if sign > 0 else (1 << (n - lvl)) - c
    target = sum(
        Fraction(s * q * (2 * b - big_n), big_n * big_n)
        for q, s, b in zip(numerators, signs, thresholds)
    )
    return Fraction(2 * ones - big_n, big_n) - target


def cemux_error_moments(numerators, signs, n, full_correlation=True):
    """E[err^2] and E[err^4] of cemux over independent U[-1, 1] input values.

    The error is 2/N^2 * sum_i X_i with X_i = N * ones_i - q_i * B'_i
    (N = 2^n, B' the post-sign threshold), the same rule as
    cemux_block_error evaluated at every code at once. X_i depends on B_i
    alone, so the inputs are independent. E[err^2] is exact (a Fraction, from
    integer moments over threshold_law). E[err^4] adds up the inputs'
    cumulants in float64; it only feeds standard errors.
    """
    big_n = 1 << n
    law = threshold_law(n)
    codes = np.arange(big_n + 1, dtype=np.int64)
    # one row per block, rows of one input adjacent; summed per input below
    blocks = sorted(_cemux_blocks(numerators, signs, n, full_correlation))
    inp, lvl, r, sign = (np.array(col, dtype=np.int64)[:, None] for col in zip(*blocks))
    c = -((r - codes) >> lvl)
    ones = np.where(sign > 0, c, (1 << (n - lvl)) - c).cumsum(axis=0)
    last = np.flatnonzero(np.diff(inp[:, 0], append=-1))
    ones = np.diff(ones[last], axis=0, prepend=0)
    q = np.array(numerators, dtype=np.int64)[inp[last]]
    x = big_n * ones - q * np.where(sign[last] > 0, codes, big_n - codes)
    # each block's count is within one of its share, so |X_i| < N (n + 1);
    # the check keeps the int64 sums over the law exact
    assert int(np.abs(x).max()) ** 2 * 2 * big_n < 2**63
    denom = 2 * big_n
    t1 = x @ law
    t2 = (x * x) @ law
    mean = Fraction(sum(t1.tolist()), denom)
    var = Fraction(
        sum(t2.tolist()) * denom - sum(a * a for a in t1.tolist()), denom * denom
    )
    e2 = 4 * (var + mean * mean) / big_n**4

    p = law / denom
    y = x - (t1 / denom)[:, None]
    y2 = y * y
    c2, c3, c4 = (z @ p for z in (y2, y2 * y, y2 * y2))
    k2, k3 = c2.sum(), c3.sum()
    central4 = (c4 - 3 * c2 * c2).sum() + 3 * k2 * k2
    mu = float(mean)
    s4 = central4 + 4 * mu * k3 + 6 * mu * mu * k2 + mu**4
    return e2, 16 * s4 / float(big_n) ** 8


def cemux_expected_mse(numerators, signs, n, full_correlation=True):
    """Exact expected squared error of cemux over U[-1, 1] input values."""
    return cemux_error_moments(numerators, signs, n, full_correlation)[0]


def enumerate_model_variance(cfg, owner_period, thresholds_post_sign):
    """Exact output variance of a model configuration by full enumeration.

    Enumerates every stream outcome and every select outcome. Outcome
    probabilities are integer weights over a common denominator, so the
    whole computation stays in integer arithmetic until the final division.
    Only feasible for tiny M and N.
    """
    n_len = cfg.N
    h = cfg.effective_height
    m_inputs = len(cfg.weights)
    reps = n_len >> h
    bp = list(thresholds_post_sign)

    # (weight, bits) outcomes with a common probability denominator
    streams = []
    if cfg.sn_model == "hypergeometric":
        perms = list(itertools.permutations(range(n_len)))
        if cfg.input_scc == 1:
            stream_denom = len(perms)
            for perm in perms:
                bits = [
                    [1 if perm[t] < bp[i] else 0 for t in range(n_len)]
                    for i in range(m_inputs)
                ]
                streams.append((1, bits))
        else:
            stream_denom = len(perms) ** m_inputs
            for combo in itertools.product(perms, repeat=m_inputs):
                bits = [
                    [1 if combo[i][t] < bp[i] else 0 for t in range(n_len)]
                    for i in range(m_inputs)
                ]
                streams.append((1, bits))
    else:
        if cfg.input_scc == 1:
            stream_denom = n_len**n_len
            for words in itertools.product(range(n_len), repeat=n_len):
                bits = [
                    [1 if words[t] < bp[i] else 0 for t in range(n_len)]
                    for i in range(m_inputs)
                ]
                streams.append((1, bits))
        else:
            # independent bits: P(bit)=b/N, so each outcome has an integer
            # weight over N^(M*n_len)
            stream_denom = n_len ** (m_inputs * n_len)
            for flat in itertools.product((0, 1), repeat=m_inputs * n_len):
                weight = 1
                for i in range(m_inputs):
                    for t in range(n_len):
                        weight *= bp[i] if flat[i * n_len + t] else (n_len - bp[i])
                        if weight == 0:
                            break
                    if weight == 0:
                        break
                if weight == 0:
                    continue
                bits = [
                    [flat[i * n_len + t] for t in range(n_len)] for i in range(m_inputs)
                ]
                streams.append((weight, bits))

    selects = []
    if cfg.sampling == "precise":
        select_denom = 1
        selects.append(list(owner_period) * reps)
    else:
        select_denom = (1 << h) ** n_len
        for words in itertools.product(range(1 << h), repeat=n_len):
            selects.append([owner_period[w] for w in words])

    sum_w = 0
    sum_w_ones = 0
    sum_w_ones2 = 0
    for weight, bits in streams:
        for owners in selects:
            ones = 0
            for t in range(n_len):
                ones += bits[owners[t]][t]
            sum_w += weight
            sum_w_ones += weight * ones
            sum_w_ones2 += weight * ones * ones
    denom = stream_denom * select_denom
    assert sum_w == denom
    # mu = (2*ones - N)/N; E[mu] and E[mu^2] from the integer moments
    e1 = Fraction(2 * sum_w_ones, denom * n_len) - 1
    e_ones2 = Fraction(sum_w_ones2, denom)
    e_ones = Fraction(sum_w_ones, denom)
    e2 = (4 * e_ones2 - 4 * n_len * e_ones + n_len * n_len) / Fraction(n_len * n_len)
    return e2 - e1 * e1


def spawned_seeds(master_seed, count=25):
    """Per-source seeds as a fixed-size spawn: entry 0 data, entry l level l."""
    children = np.random.SeedSequence(master_seed).spawn(count)
    return [int(c.generate_state(2, np.uint64)[0]) for c in children]


def full_matrix_owners(design, q, n, big_n, seeds):
    """Input sampled at each cycle, every mux's select bit generated first."""
    from scmux.muxtree import build_biased_selector_tree, build_hardwired_tree
    from scmux.rns import RnsSpec, rns_sequence
    from scmux.sngen import pcc_bits

    def level_words(lvl):
        return rns_sequence(RnsSpec(design.select_rns_kind, n, seeds[lvl]), big_n)

    if design.tree_type == "hardwired":
        tree = build_hardwired_tree(q)
        if design.precise_sampling:
            return tree.owner[np.arange(big_n) % (1 << q.height)]
        words = np.zeros(big_n, dtype=np.int64)
        for lvl in range(1, q.height + 1):
            words |= (level_words(lvl) >> (n - 1)) << (q.height - lvl)
        return tree.owner[words]

    tree = build_biased_selector_tree(q, design.select_pcc, design.select_rns_kind, n)
    if tree.root < 0:
        return np.full(big_n, ~tree.root, dtype=np.int64)
    node_bits = np.empty((tree.mux_count, big_n), dtype=np.uint8)
    for k in range(tree.mux_count):
        node_bits[k] = pcc_bits(
            tree.select_pcc, level_words(int(tree.node_level[k])), int(tree.thresholds[k]), n
        )
    owners = []
    for t in range(big_n):
        ref = tree.root
        while ref >= 0:
            ref = int(tree.child0[ref] if node_bits[ref, t] else tree.child1[ref])
        owners.append(~ref)
    return np.array(owners, dtype=np.int64)


def full_matrix_run(design, values, big_n, seed):
    """One mux-adder run with every input's whole stream generated.

    Returns (output bits, sampling counts, estimate, target, error). The
    M x N matrix holds each input's stream after its sign inverter; the tree
    passes one of its entries per cycle.
    """
    from scmux.muxtree import quantize_weights
    from scmux.rns import RnsSpec, rns_sequence
    from scmux.sngen import input_bit_matrix, make_channels

    n = design.n
    seeds = spawned_seeds(seed)
    data_seed = seeds[0]
    if design.data_rns_kind in ("sobol_reversed_counter", "counter"):
        data_seed = 0
    q = quantize_weights(design.weights, n)
    words = rns_sequence(RnsSpec(design.data_rns_kind, n, data_seed), big_n)
    channels = make_channels(
        values, design.weights, n, design.data_pcc, correlated_wiring=design.full_correlation
    )
    _, y = input_bit_matrix(channels, words, design.data_pcc, n)
    owners = full_matrix_owners(design, q, n, big_n, seeds)
    z = y[owners, np.arange(big_n)]
    counts = np.bincount(owners, minlength=len(channels))
    estimate = min(1.0, max(-1.0, 2.0 * int(z.sum()) / big_n - 1.0))
    target = float(sum(
        Fraction(s * num * (2 * ch.threshold - big_n), q.denominator * big_n)
        for num, s, ch in zip(q.numerators, q.signs, channels)
    ))
    return z, counts, estimate, target, estimate - target


def full_matrix_apc(weights, values, big_n):
    """APC run with both M x N bit matrices: (estimate, target, error)."""
    from scmux.bitstream import SnFormat, SnValue, quantize_to_probability
    from scmux.rns import RnsSpec, rns_sequence

    n = big_n.bit_length() - 1
    data_words = rns_sequence(RnsSpec("sobol_reversed_counter", n, 0), big_n)
    coeff_words = rns_sequence(RnsSpec("counter", n, 0), big_n)
    bx = [quantize_to_probability(SnValue(float(v), SnFormat.BIPOLAR), n) for v in values]
    bw = [quantize_to_probability(SnValue(abs(float(x)), SnFormat.BIPOLAR), n) for x in weights]
    negs = np.array([float(x) < 0 for x in weights], dtype=np.uint8)
    x_bits = (data_words[None, :] < np.array(bx)[:, None]).astype(np.uint8)
    w_bits = (coeff_words[None, :] < np.array(bw)[:, None]).astype(np.uint8)
    prod = (1 - (x_bits ^ w_bits)) ^ negs[:, None]
    m = len(bx)
    raw = 2.0 * int(prod.sum()) / (big_n * m) - 1.0
    w_hat = [2.0 * b / big_n - 1.0 for b in bw]
    mu_hat = [2.0 * b / big_n - 1.0 for b in bx]
    denom = math.fsum(w_hat)
    estimate = min(1.0, max(-1.0, raw * m / denom))
    target = math.fsum(
        (-1.0 if ng else 1.0) * wh * mh for ng, wh, mh in zip(negs, w_hat, mu_hat)
    ) / denom
    return estimate, target, estimate - target
