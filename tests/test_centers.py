import tracemalloc

import numpy as np
import pytest

from mvhash import centers as C
from mvhash.errors import CapacityError, GenerationFailure, InvalidArgument


def test_hadamard_base_cases():
    assert C.sylvester_hadamard(1).tolist() == [[1]]
    assert C.sylvester_hadamard(2).tolist() == [[1, 1], [1, -1]]


def test_hadamard_orthogonality_order4():
    h = C.sylvester_hadamard(4).astype(np.int64)
    # oracle: direct multiplication
    assert (h @ h.T == 4 * np.eye(4, dtype=np.int64)).all()


@pytest.mark.parametrize("bad", [0, 3, 6, -4, 4.0])
def test_hadamard_rejects_non_power_of_two(bad):
    with pytest.raises(InvalidArgument):
        C.sylvester_hadamard(bad)


def test_hamming_from_inner_trivials():
    assert C.hamming_from_inner(16, 16) == 0
    assert C.hamming_from_inner(0, 16) == 8
    assert C.hamming_from_inner(-16, 16) == 16


def test_hamming_from_inner_rejects_bad_input():
    with pytest.raises(InvalidArgument):
        C.hamming_from_inner(17, 16)  # out of range
    with pytest.raises(InvalidArgument):
        C.hamming_from_inner(3, 16)  # parity
    with pytest.raises(InvalidArgument, match=r"^code_length must be an integer, got 16\.5$"):
        C.hamming_from_inner(0, 16.5)  # int() made it 16
    with pytest.raises(InvalidArgument, match=r"^inner_product must be an integer, got 2\.0$"):
        C.hamming_from_inner(2.0, 16)


def test_inner_product_identity_random_pairs():
    rng = np.random.default_rng(7)
    for k in (16, 32, 64, 128):
        a = rng.integers(0, 2, size=(200, k)) * 2 - 1
        b = rng.integers(0, 2, size=(200, k)) * 2 - 1
        naive = (a != b).sum(axis=1)
        via_inner = [(k - int(x @ y)) // 2 for x, y in zip(a, b)]
        assert naive.tolist() == via_inner


def test_generate_hadamard_v_le_k():
    cs = C.generate_centers(4, 4, seed=3)
    assert cs.method == C.METHOD_HADAMARD
    assert (cs.centers == C.sylvester_hadamard(4)).all()
    # orthogonal rows: every pairwise distance is exactly K/2
    for i in range(4):
        for j in range(i + 1, 4):
            assert (cs.centers[i] != cs.centers[j]).sum() == 2


def test_generate_hadamard_v_le_2k():
    cs = C.generate_centers(8, 4, seed=3)
    h = C.sylvester_hadamard(4)
    assert (cs.centers == np.vstack([h, -h])).all()
    # oracle: enumerate all 28 unordered pairs
    total = 0
    for i in range(8):
        for j in range(i + 1, 8):
            total += int(cs.centers[i].astype(int) @ cs.centers[j].astype(int))
    assert total / 28 <= 0
    assert cs.mean_pairwise_inner() == pytest.approx(total / 28)


def test_generate_bernoulli_non_power_of_two():
    cs = C.generate_centers(3, 6, seed=11)
    assert cs.method == C.METHOD_BERNOULLI
    # brute-force pairwise distances respect the acceptance floor ceil(K/4)=2
    for i in range(3):
        for j in range(i + 1, 3):
            assert (cs.centers[i] != cs.centers[j]).sum() >= 2


def test_generate_hadamard_plus_bernoulli():
    cs = C.generate_centers(10, 4, seed=5)
    assert cs.method == C.METHOD_HADAMARD_PLUS_BERNOULLI
    assert cs.num_classes == 10
    assert cs.mean_pairwise_inner() <= 0
    # pairwise distinct
    assert len({tuple(row) for row in cs.centers.tolist()}) == 10


def test_generate_is_deterministic():
    a = C.generate_centers(7, 10, seed=99)
    b = C.generate_centers(7, 10, seed=99)
    assert (a.centers == b.centers).all()
    assert a.method == b.method


def test_generate_capacity_error():
    with pytest.raises(CapacityError):
        C.generate_centers(17, 4, seed=0)


def test_generate_rejects_bad_dims():
    with pytest.raises(InvalidArgument):
        C.generate_centers(0, 8, seed=0)
    with pytest.raises(InvalidArgument):
        C.generate_centers(4, 1, seed=0)


def test_generate_rejects_non_integer_sizes_and_seed():
    for args, name in [((4.7, 16, 0), "num_classes"),  # int() made 4 centers of 16 bits
                       ((4, 16.9, 0), "code_length"),
                       ((4, 16, 0.5), "seed"),
                       ((4, "16", 0), "code_length")]:
        with pytest.raises(InvalidArgument, match=rf"^{name} must be an integer, got "):
            C.generate_centers(*args)
    cs = C.generate_centers(np.int64(4), np.uint8(16), np.uint64(3))  # numpy integers pass
    assert type(cs.seed) is int and (cs.num_classes, cs.code_length, cs.seed) == (4, 16, 3)


def _oracle_bernoulli_centers(existing, count, code_length, rng):
    """The per-center acceptance loop that the one-matrix sampler replaces,
    with its inner products taken in int64."""
    min_dist = -(-code_length // 4)  # ceil(K/4)
    chosen = [np.asarray(c, dtype=np.int64) for c in existing]
    out = []
    for _ in range(count):
        for _ in range(C.MAX_RETRIES_PER_CENTER):
            cand = rng.integers(0, 2, size=code_length).astype(np.int64) * 2 - 1
            if not chosen:
                chosen.append(cand)
                out.append(cand)
                break
            inners = np.array([int(cand @ c) for c in chosen])
            dists = (code_length - inners) // 2
            if dists.min() >= min_dist and inners.sum() <= 0:
                chosen.append(cand)
                out.append(cand)
                break
        else:
            raise GenerationFailure(
                f"no acceptable center after {C.MAX_RETRIES_PER_CENTER} tries "
                f"(need separation >= {min_dist}, best candidate reached {int(dists.min())})"
            )
    return out


def _oracle_generate_centers(v, k, seed):
    """(method, centers) from the three branches that one construction path replaces."""
    rng = np.random.default_rng(seed)
    if k & (k - 1) == 0:
        h = C.sylvester_hadamard(k)
        stacked = np.vstack([h, -h])
        if v <= 2 * k:
            return C.METHOD_HADAMARD, stacked[:v]
        extra = _oracle_bernoulli_centers(list(stacked), v - 2 * k, k, rng)
        return C.METHOD_HADAMARD_PLUS_BERNOULLI, np.vstack([stacked, extra])
    return C.METHOD_BERNOULLI, np.array(_oracle_bernoulli_centers([], v, k, rng))


def _outcome(make, *args):
    try:
        return make(*args)
    except GenerationFailure as exc:
        return f"GenerationFailure: {exc}"


@pytest.mark.parametrize("seed", [0, 2**40 + 3])
@pytest.mark.parametrize("k", [5, 8, 37, 63, 64, 65, 128, 256])
def test_generate_centers_matches_per_center_loop(k, seed):
    methods = set()
    for v in sorted({1, 3, 17, 2 * k, 2 * k + 3, 200}):
        if v > 2**k:
            continue
        want = _outcome(_oracle_generate_centers, v, k, seed)
        got = _outcome(C.generate_centers, v, k, seed)
        if isinstance(want, str):
            assert got == want, (v, k)
            methods.add("failure")
            continue
        assert got.method == want[0], (v, k)
        assert got.centers.dtype == np.int8 and (got.centers == want[1]).all(), (v, k)
        # Hadamard pairs have inner product 0 or -K, and a drawn center is kept only
        # if its inner products with the accepted ones sum to <= 0
        assert v < 2 or got.mean_pairwise_inner() <= 0, (v, k)
        methods.add(got.method)
    pow2 = {C.METHOD_HADAMARD, C.METHOD_HADAMARD_PLUS_BERNOULLI}
    assert methods >= (pow2 if k & (k - 1) == 0 else {C.METHOD_BERNOULLI})
    if k in (5, 8):
        assert "failure" in methods  # 17 centers do not fit at K = 5, nor 200 at K = 8


class _RepeatingRng:
    """An rng stub whose every draw is the 0/1 bits of one fixed center."""

    def __init__(self, center):
        self.bits = (np.asarray(center, dtype=np.int64) + 1) // 2

    def integers(self, low, high, size):
        assert (low, high, size) == (0, 2, self.bits.size)
        return self.bits.copy()


@pytest.mark.parametrize("k", [128, 200, 256])
def test_sampler_rejects_a_repeated_center_at_wide_k(k):
    """An inner product of K >= 128 wraps in int8 (128 -> -128, 200 -> -56,
    256 -> 0) and made an exact duplicate look far away."""
    base = C.generate_centers(3, k, seed=0).centers
    with pytest.raises(GenerationFailure, match=r"best candidate reached 0\)$"):
        C._sample_bernoulli_centers(base, 1, k, _RepeatingRng(base[1]))


def test_min_pairwise_distance():
    h4 = C.generate_centers(4, 4, seed=0)
    assert C.min_pairwise_distance(h4) == 2
    both = C.generate_centers(8, 4, seed=0)
    # complementary pairs have distance 4, others 2
    assert C.min_pairwise_distance(both) == 2
    dup = C.HashCenterSet(
        centers=np.array([[1, 1, -1, -1], [1, 1, -1, -1]], dtype=np.int8),
        code_length=4, num_classes=2, method=C.METHOD_BERNOULLI, seed=0,
    )
    assert C.min_pairwise_distance(dup) == 0  # invariant violation is visible


def test_min_pairwise_distance_needs_two():
    one = C.HashCenterSet(
        centers=np.ones((1, 4), dtype=np.int8),
        code_length=4, num_classes=1, method=C.METHOD_HADAMARD, seed=0,
    )
    with pytest.raises(InvalidArgument, match="need at least two centers"):
        C.min_pairwise_distance(one)
    with pytest.raises(InvalidArgument, match="need at least two centers"):
        one.mean_pairwise_inner()


def test_center_set_rejects_a_fractional_seed_and_an_unknown_method():
    c = np.ones((1, 8), dtype=np.int8)
    with pytest.raises(InvalidArgument, match=r"^seed must be an integer, got 1\.5$"):
        C.HashCenterSet(c, 8, 1, C.METHOD_HADAMARD, 1.5)
    with pytest.raises(InvalidArgument, match="^unknown center method 'hadamrd'$"):
        C.HashCenterSet(c, 8, 1, "hadamrd", 0)  # save_centers raised KeyError on it


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_center_seed_outside_u64_rejected(seed, monkeypatch):
    with pytest.raises(InvalidArgument, match=rf"^seed {seed} is outside \[0, 2\^64\)$"):
        C.HashCenterSet(centers=np.ones((1, 4), dtype=np.int8), code_length=4,
                        num_classes=1, method=C.METHOD_HADAMARD, seed=seed)

    def no_draw(*args):
        raise AssertionError("a center was drawn before the seed was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for v, k in ((4, 8), (3, 37)):  # Hadamard, Bernoulli
        with pytest.raises(InvalidArgument, match=rf"^seed {seed} is outside \[0, 2\^64\)$"):
            C.generate_centers(v, k, seed)


def test_semantic_center_single_label():
    cs = C.generate_centers(4, 4, seed=0)
    lab = np.array([[0, 0, 1, 0]])
    assert (C.semantic_centers_for(lab, cs)[0] == cs.centers[2]).all()


def test_semantic_center_empty_label_rejected():
    cs = C.generate_centers(4, 4, seed=0)
    with pytest.raises(InvalidArgument):
        C.semantic_centers_for(np.zeros((1, 4)), cs)


def test_semantic_center_unanimous_bits():
    cs = C.generate_centers(4, 4, seed=0)
    lab = np.array([[1, 1, 0, 0]] * 2)
    out = C.semantic_centers_for(lab, cs)[1]
    agree = cs.centers[0] == cs.centers[1]
    assert (out[agree] == cs.centers[0][agree]).all()


def test_semantic_center_majority_three_labels():
    cs = C.generate_centers(4, 4, seed=0)
    lab = np.array([[1, 1, 1, 0]] * 4)
    # oracle: column sums of the three known Hadamard rows
    sums = cs.centers[:3].astype(int).sum(axis=0)
    out = C.semantic_centers_for(lab, cs, seed=5)[2]
    for k in range(4):
        if sums[k] != 0:
            assert out[k] == np.sign(sums[k])
        else:
            assert out[k] in (-1, 1)
    # tie fill is reproducible per (seed, row, bit)
    again = C.semantic_centers_for(lab, cs, seed=5)[2]
    assert (out == again).all()
    # a different row may resolve ties differently but stays valid
    other = C.semantic_centers_for(lab, cs, seed=5)[3]
    assert np.isin(other, (-1, 1)).all()


def test_semantic_center_idempotent_over_one_element():
    cs = C.generate_centers(6, 8, seed=2)
    assert (C.semantic_centers_for(np.eye(6), cs) == cs.centers).all()


def _oracle_semantic_center(label_vector, centers, sample_id, seed=0):
    """The per-bit default_rng loop that the batched semantic centers replace."""
    labels = np.asarray(label_vector)
    active = np.flatnonzero(labels)
    if active.size == 0:
        raise InvalidArgument("label vector has no active label")
    if labels.shape[0] != centers.num_classes:
        raise InvalidArgument(
            f"label vector length {labels.shape[0]} != num_classes {centers.num_classes}"
        )
    if active.size == 1:
        return centers.centers[active[0]].copy()

    sums = centers.centers[active].astype(np.int64).sum(axis=0)
    code = np.sign(sums).astype(np.int8)
    for bit in np.flatnonzero(sums == 0):
        coin = np.random.default_rng([int(seed), int(sample_id), int(bit)])
        code[bit] = 1 if coin.integers(0, 2) else -1
    return code


def _oracle_semantic_centers_for(labels, centers, seed=0):
    return np.array(
        [_oracle_semantic_center(row, centers, i, seed) for i, row in enumerate(labels)],
        dtype=np.int8,
    )


def _multi_hot(rows, num_classes, seed):
    """1-4 active labels per row, every count present; even counts give ties."""
    rng = np.random.default_rng(seed)
    labels = np.zeros((rows, num_classes), dtype=np.uint8)
    for r in range(rows):
        labels[r, rng.choice(num_classes, size=r % 4 + 1, replace=False)] = 1
    return labels


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 7, 2**64 + 3])
@pytest.mark.parametrize("k", [8, 37, 63, 64, 65, 128])
def test_semantic_centers_for_matches_per_bit_loop(k, seed):
    cs = C.generate_centers(12, k, seed=3)
    labels = _multi_hot(96, 12, seed=k)
    sums = labels.astype(np.int64) @ cs.centers.astype(np.int64)
    assert (sums == 0).any()  # the coin is exercised at every K
    out = C.semantic_centers_for(labels, cs, seed=seed)
    assert out.dtype == np.int8 and out.shape == (96, k)
    assert (out == _oracle_semantic_centers_for(labels, cs, seed=seed)).all()
    single = labels.sum(axis=1) == 1
    assert (out[single] == cs.centers[labels[single].argmax(axis=1)]).all()


@pytest.mark.parametrize("k", [8, 37, 63, 64, 65, 128])
def test_blocked_coins_match_per_bit_loop(k, monkeypatch):
    cs = C.generate_centers(12, k, seed=4)
    labels = _multi_hot(160, 12, seed=k + 1)
    tied = int(((labels.astype(np.int64) @ cs.centers.astype(np.int64)) == 0).sum())
    want = _oracle_semantic_centers_for(labels, cs, seed=2**32 + 7)
    for block in (7, 64):
        assert tied > 3 * block  # several full blocks and a partial one
        monkeypatch.setattr(C, "_COIN_BLOCK", block)
        assert (C.semantic_centers_for(labels, cs, seed=2**32 + 7) == want).all()


@pytest.mark.parametrize("block", [7, C._COIN_BLOCK])
def test_tie_coins_name_a_bad_value_past_the_first_block(block, monkeypatch):
    monkeypatch.setattr(C, "_COIN_BLOCK", block)
    n = 3 * block
    rows, bits = np.arange(n), np.arange(n) % 64
    rows[2 * block + 1], rows[2 * block + 3] = 2**32, 2**33
    with pytest.raises(InvalidArgument, match=r"^row id 4294967296 is outside \[0, 2\^32\)$"):
        C._tie_coins(0, rows, bits)
    rows[2 * block + 1], rows[2 * block + 3] = 0, 0
    bits[block + 2] = -1
    with pytest.raises(InvalidArgument, match=r"^bit index -1 is outside \[0, 2\^32\)$"):
        C._tie_coins(0, rows, bits)
    # the seed is checked by the one caller, before the vote
    with pytest.raises(InvalidArgument, match="^seed must be >= 0, got -3$"):
        C.semantic_centers_for(np.ones((1, 4)), C.generate_centers(4, 4, seed=0), seed=-3)


def test_semantic_centers_peak_memory_is_bounded():
    """14,000 rows, half of them two-class mixtures, at K = 64: about 225k tied
    bits, whose coins evaluated all at once took about 70 MB of traced peak."""
    rng = np.random.default_rng(5)
    n, v = 14_000, 20
    first = rng.integers(0, v, size=n)
    labels = np.zeros((n, v), dtype=np.uint8)
    labels[np.arange(n), first] = 1
    mixed = rng.permutation(n)[:n // 2]
    labels[mixed, (first[mixed] + rng.integers(1, v, size=mixed.size)) % v] = 1
    cs = C.generate_centers(v, 64, seed=1)
    assert int(((labels.astype(np.int64) @ cs.centers.astype(np.int64)) == 0).sum()) > 200_000
    tracemalloc.start()
    try:
        C.semantic_centers_for(labels, cs, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25e6, f"traced peak {peak / 1e6:.1f} MB"


def test_semantic_center_coins_at_largest_sample_id():
    bits = np.arange(4)
    for sample_id in (2**31, 2**32 - 1):
        got = C._tie_coins(9, np.full(4, sample_id), bits)
        want = [np.random.default_rng([9, sample_id, b]).integers(0, 2) for b in bits]
        assert got.tolist() == want


def test_tie_coins_reject_ids_outside_32_bits():
    with pytest.raises(InvalidArgument, match="4294967296"):
        C._tie_coins(0, np.array([2**32]), np.array([0]))
    with pytest.raises(InvalidArgument, match="-1"):
        C._tie_coins(0, np.array([0]), np.array([-1]))


def test_negative_seed_rejected_when_a_coin_is_needed():
    cs = C.generate_centers(4, 4, seed=0)
    with pytest.raises(InvalidArgument, match="^seed must be >= 0, got -1$"):
        C.semantic_centers_for(np.array([[1, 1, 0, 0]]), cs, seed=-1)


def test_semantic_centers_check_the_seed_with_or_without_a_tie():
    cs = C.generate_centers(4, 4, seed=0)
    tied, untied = np.array([[1, 1, 0, 0]]), np.array([[0, 1, 0, 0]])
    assert (C.semantic_centers_for(tied, cs, seed=0) == 0).sum() == 0  # the coins filled 2 ties
    with pytest.raises(InvalidArgument, match=r"^seed must be an integer, got 1\.5$"):
        C.semantic_centers_for(tied, cs, seed=1.5)  # int(1.5) gave the seed-1 coins
    with pytest.raises(InvalidArgument, match="^seed must be >= 0, got -1$"):
        C.semantic_centers_for(untied, cs, seed=-1)
    tied_seed = C.semantic_centers_for(tied, cs, seed=np.uint8(1))
    assert (tied_seed == C.semantic_centers_for(tied, cs, seed=1)).all()


def test_semantic_centers_for_names_the_empty_row():
    cs = C.generate_centers(4, 8, seed=0)
    labels = np.eye(4, dtype=np.uint8)
    labels[2] = 0
    with pytest.raises(InvalidArgument, match="label row 2 "):
        C.semantic_centers_for(labels, cs)


def test_semantic_centers_reject_wrong_label_width():
    cs = C.generate_centers(4, 8, seed=0)
    with pytest.raises(InvalidArgument, match="num_classes=4"):
        C.semantic_centers_for(np.ones((3, 5), dtype=np.uint8), cs)
    with pytest.raises(InvalidArgument, match="num_classes=4"):
        C.semantic_centers_for(np.ones(4), cs)
