"""Hash center generation and per-sample semantic centers.

Centers live in {-1,+1}^K. Orthogonal centers come from a Sylvester
Hadamard matrix (rows, then their negations); everything else is drawn by
one seeded Bernoulli acceptance loop with a minimum-separation rule, its
inner products taken in int64.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, GenerationFailure, InvalidArgument, integer

MAX_RETRIES_PER_CENTER = 1000

METHOD_HADAMARD = "hadamard"
METHOD_HADAMARD_PLUS_BERNOULLI = "hadamard_plus_bernoulli"
METHOD_BERNOULLI = "bernoulli"
# a method's .cshc tag is its position here
METHODS = (METHOD_HADAMARD, METHOD_HADAMARD_PLUS_BERNOULLI, METHOD_BERNOULLI)


def sylvester_hadamard(order: int) -> np.ndarray:
    """Return the order x order Sylvester Hadamard matrix (int8, +-1).

    Rows are mutually orthogonal: H @ H.T == order * I.
    """
    order = integer(order, "order", 1)
    if order & (order - 1):
        raise InvalidArgument(f"Hadamard order must be a power of two, got {order}")
    h = np.array([[1]], dtype=np.int8)
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]]).astype(np.int8)
    return h


def hamming_from_inner(inner_product: int, code_length: int) -> int:
    """Hamming distance from the inner product of two +-1 codes: (K - <a,b>)/2."""
    k = integer(code_length, "code_length", 0)
    ip = integer(inner_product, "inner_product", -k, k + 1)
    if (k - ip) % 2 != 0:
        raise InvalidArgument(f"inner product {ip} has wrong parity for K={k}")
    return (k - ip) // 2


@dataclass(frozen=True)
class HashCenterSet:
    """V mutually well-separated centers of length K, plus how they were made."""

    centers: np.ndarray  # V x K, int8, entries in {-1,+1}
    code_length: int
    num_classes: int
    method: str
    seed: int  # in [0, 2^64): the .cshc header holds it as a u64

    def __post_init__(self):
        c = self.centers
        if c.shape != (self.num_classes, self.code_length):
            raise InvalidArgument(
                f"centers shape {c.shape} != ({self.num_classes}, {self.code_length})"
            )
        if not np.isin(c, (-1, 1)).all():
            raise InvalidArgument("center entries must be -1 or +1")
        if self.method not in METHODS:
            raise InvalidArgument(f"unknown center method {self.method!r}")
        integer(self.seed, "seed", 0, 2**64)

    def mean_pairwise_inner(self) -> float:
        """(1/T) sum over unordered pairs of <hc_i, hc_j>."""
        inners = _pair_inners(self)
        return float(inners.sum()) / inners.size


def _pair_inners(center_set: HashCenterSet) -> np.ndarray:
    """<hc_i, hc_j> in int64 for every unordered pair i < j."""
    v = center_set.num_classes
    if v < 2:
        raise InvalidArgument("need at least two centers")
    c = center_set.centers.astype(np.int64)
    return (c @ c.T)[np.triu_indices(v, k=1)]


def min_pairwise_distance(center_set: HashCenterSet) -> int:
    """Smallest Hamming distance over all unordered center pairs."""
    return (center_set.code_length - int(_pair_inners(center_set).max())) // 2


def _sample_bernoulli_centers(base: np.ndarray, count: int, k: int, rng) -> np.ndarray:
    """`base` followed by `count` drawn centers of K bits, each kept only if it
    stays >= ceil(K/4) bits away from every accepted center and does not push
    the running pairwise inner product sum positive. One candidate per attempt."""
    min_dist = -(-k // 4)  # ceil(K/4)
    chosen = np.empty((len(base) + count, k), dtype=np.int64)
    chosen[:len(base)] = base
    for n in range(len(base), len(chosen)):
        for _ in range(MAX_RETRIES_PER_CENTER):
            cand = rng.integers(0, 2, size=k) * 2 - 1
            inners = chosen[:n] @ cand
            # with nothing accepted yet the max is -K: distance K, always kept
            achieved = (k - int(inners.max(initial=-k))) // 2
            if achieved >= min_dist and inners.sum() <= 0:
                chosen[n] = cand
                break
        else:
            raise GenerationFailure(
                f"no acceptable center after {MAX_RETRIES_PER_CENTER} tries "
                f"(need separation >= {min_dist}, best candidate reached {achieved})"
            )
    return chosen


def generate_centers(num_classes: int, code_length: int, seed: int) -> HashCenterSet:
    """Generate V centers of K bits.

    If K is a power of two, up to 2K centers come from stacking the Hadamard
    matrix over its negation; any surplus (or all centers when K is not a
    power of two) is Bernoulli-sampled under the acceptance rule.
    """
    v, k = integer(num_classes, "num_classes", 1), integer(code_length, "code_length", 2)
    seed = integer(seed, "seed", 0, 2**64)  # checked before any center is drawn
    if k < 63 and v > 2**k:
        raise CapacityError(f"{v} classes need more than the 2^{k} distinct codes available")

    rng = np.random.default_rng(seed)
    base = np.empty((0, k), dtype=np.int8)
    if (k & (k - 1)) == 0:
        h = sylvester_hadamard(k)
        base = np.vstack([h, -h])[:v]
    return HashCenterSet(
        centers=_sample_bernoulli_centers(base, v - len(base), k, rng).astype(np.int8),
        code_length=k,
        num_classes=v,
        method=METHOD_HADAMARD if len(base) == v
        else METHOD_HADAMARD_PLUS_BERNOULLI if len(base) else METHOD_BERNOULLI,
        seed=seed,
    )


# numpy.random.SeedSequence: a pool of 4 uint32 words mixed with these
# constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier as 32-bit limbs, least significant first
_PCG_MULT = [(0x2360ED051FC65DA44385DF649FCCF645 >> (32 * i)) & _MASK32 for i in range(4)]


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix: its multiplier advances on every call."""
    hash_const = init

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    return hashmix


def _mix_entropy(words: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.mix_entropy, one uint32 lane per coin."""
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.generate_state(4, uint64) as its 8 uint32 halves, low half first."""
    hashmix = _hasher(_INIT_B, _MULT_B)
    return [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * _POOL_SIZE)]


def _carry(columns: list) -> list[np.ndarray]:
    """Propagate carries through 32-bit limb columns held in uint64, mod 2^128."""
    out, carry = [], 0
    for column in columns:
        column = column + carry
        out.append(column & _MASK32)
        carry = column >> 32
    return out


def _lcg_step(state: list[np.ndarray], inc: list[np.ndarray]) -> list[np.ndarray]:
    """PCG64 step, state * multiplier + inc mod 2^128, on 32-bit limbs."""
    columns = list(inc)
    for i in range(4):
        for j in range(4 - i):
            product = state[i] * _PCG_MULT[j]
            columns[i + j] = columns[i + j] + (product & _MASK32)
            if i + j < 3:
                columns[i + j + 1] = columns[i + j + 1] + (product >> 32)
    return _carry(columns)


# coins per block in _tie_coins: each coin keeps about 290 bytes of uint32/
# uint64 temporaries alive, so a block peaks near 5 MB. Best of 21 over the
# 225,536 tied bits of 14,000 two-label rows at K = 64 (2-core x86-64, one
# thread): 4k 33-42 ms, 8k 24-28, 16k 21-23, 32k 21-22, 64k 24-27, and all
# coins at once 64 ms with a 60 MB traced peak.
_COIN_BLOCK = 1 << 14


def _tie_coins(seed: int, rows: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """default_rng([seed, row, bit]).integers(0, 2) for every (row, bit) pair,
    evaluated _COIN_BLOCK pairs at a time.

    Reproduces numpy's SeedSequence entropy mixing and generate_state, PCG64
    seeding and its first output (XSL-RR). Lemire's bounded draw for range 2
    takes no rejection and returns bit 31 of that output. Returns int8 0/1.
    The caller checks that `seed` is an int >= 0.
    """
    rows = np.asarray(rows, dtype=np.int64)
    bits = np.asarray(bits, dtype=np.int64)
    if rows.size == 0:
        return np.zeros(0, dtype=np.int8)
    for name, values in (("row id", rows), ("bit index", bits)):
        bad = values[(values < 0) | (values > _MASK32)]
        if bad.size:
            raise InvalidArgument(f"{name} {bad[0]} is outside [0, 2^32)")
    # SeedSequence splits each entropy integer into little-endian 32-bit words
    seed_words = []
    while True:
        seed_words.append(np.array([seed & _MASK32], dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    coins = np.empty(rows.size, dtype=np.int8)
    for start in range(0, rows.size, _COIN_BLOCK):
        block = slice(start, start + _COIN_BLOCK)
        words = seed_words + [rows[block].astype(np.uint32), bits[block].astype(np.uint32)]
        w = _generate_state(_mix_entropy(words))
        # PCG64 seeds from state words (s_hi, s_lo, seq_hi, seq_lo) as 128-bit s and seq
        initstate = [w[2], w[3], w[0], w[1]]
        seq = [w[6], w[7], w[4], w[5]]
        inc = [((seq[k] << 1) & _MASK32) | (seq[k - 1] >> 31 if k else 1) for k in range(4)]
        # srandom: state = inc; state += initstate; step. Then the first draw steps once more.
        state = _carry([a + b for a, b in zip(inc, initstate)])
        state = _lcg_step(_lcg_step(state, inc), inc)
        # XSL-RR: rotate (hi64 ^ lo64) right by the top 6 state bits; keep output bit 31
        xored = ((state[3] ^ state[1]) << 32) | (state[2] ^ state[0])
        rotation = state[3] >> 26
        coins[block] = (xored >> ((rotation + 31) & 63)) & 1
    return coins


def semantic_centers_for(
    labels: np.ndarray, centers: HashCenterSet, seed: int = 0
) -> np.ndarray:
    """Per-sample target centers of multi-hot label rows.

    Single-label row: the class center verbatim. Multi-label row: element-wise
    majority vote over the active labels' centers; row i's tied bit b (a zero
    column sum) takes the coin ``default_rng([seed, i, b]).integers(0, 2)``
    (1 -> +1, 0 -> -1), so results are reproducible. The vote is one float64
    BLAS product, exact because every sum is an integer of magnitude at most
    V; the tied bits' coins are evaluated in blocks of _COIN_BLOCK, so memory
    stays bounded however many bits tie.
    """
    seed = integer(seed, "seed", 0)
    labels = np.asarray(labels)
    if labels.ndim != 2 or labels.shape[1] != centers.num_classes:
        raise InvalidArgument(
            f"labels shape {labels.shape} does not have num_classes={centers.num_classes} columns"
        )
    active = labels != 0
    empty = np.flatnonzero(~active.any(axis=1))
    if empty.size:
        raise InvalidArgument(f"label row {int(empty[0])} has no active label")
    code = np.sign(active.astype(np.float64) @ centers.centers.astype(np.float64)).astype(np.int8)
    tied = np.flatnonzero(code == 0)
    rows, bits = np.divmod(tied, centers.code_length)
    code.flat[tied] = 2 * _tie_coins(seed, rows, bits) - 1
    return code
