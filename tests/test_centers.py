import dataclasses
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from mvhash import centers as C
from mvhash.errors import CapacityError, GenerationFailure, InvalidArgument
from oracles import oracle_generate_centers, oracle_semantic_centers_for


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
    assert cs.method == "hadamard"
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
    assert cs.method == "bernoulli"
    # brute-force pairwise distances respect the acceptance floor ceil(K/4)=2
    for i in range(3):
        for j in range(i + 1, 3):
            assert (cs.centers[i] != cs.centers[j]).sum() >= 2


def test_generate_hadamard_plus_bernoulli():
    cs = C.generate_centers(10, 4, seed=5)
    assert cs.method == "hadamard_plus_bernoulli"
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


# sha256 of generate_centers(V, K, seed).centers.tobytes(). The oracles draw from the same
# numpy, so only these literals fail when numpy's Generator stream or the arithmetic of the
# tie coins moves; a change of a pinned value is a change of every trained model
PINNED_CENTERS = [
    (12, 8, 0, "hadamard", "acffcf174c85c6cd235d5ff305dcc522a540527915f4f2a8eebe6989e54c8c48"),
    (20, 8, 1, "hadamard_plus_bernoulli",
     "cf555b4dc128ee35de80d709d13b85a299654c8daa4e8548c6a444f827ad6900"),
    (40, 37, 2, "bernoulli", "fe49d3f9f19fd974cc8ac04e8d15cbbace0422dd664875153d73f97f9b678a32"),
    (40, 63, 3, "bernoulli", "9ebfc497dc08bf1913c4635a54a5664e17c68dce32d626b70c68b3885a9afd14"),
    (100, 64, 4, "hadamard", "959175e5d8472be0567e38258f68adf0e93b8d27a163f920266383532f182b88"),
    (40, 65, 5, "bernoulli", "dd7ce102c7126cf6a66d8d43150ff4d0cccb79d6aa930e873f9c9fe81493683f"),
    (260, 128, 2**32 + 7, "hadamard_plus_bernoulli",
     "10a449adeed8826e32f809c3dfbaf6f51fb7ab71d0dc91236fd8e037e43c851f"),
    (40, 200, 2**64 - 1, "bernoulli",
     "1683927192e49a47d2e888422123fc8b14c364ae6892d4bd2117816865bc6d74"),
]
# sha256 of semantic_centers_for(labels, generate_centers(12, K, 3), seed).tobytes() on the
# fixed labels of _pinned_labels, with the count of tied bits that take a coin
PINNED_SEMANTIC = [
    (37, 0, 776, "31081dbfdc59e8336b28712ce915501b45ef213c9c6d6f1a24026cf17e1af37c"),
    (37, 2**32 + 7, 776, "924175e188bf9c9e5dcf761983bffa8dcb6ce91bb3e070419134293501813cda"),
    (64, 0, 1344, "a2c9a51ef8c54d2591da769959f0fc540a1b8cace97026ae7ae60a41f1ebfd28"),
    (64, 2**32 + 7, 1344, "16090884bff966e039b61b5a467fc1410a77263327c729d7a701286d241cbeee"),
]


def _pinned_labels():
    """96 rows over 12 classes with 1-4 active labels, built without a random draw."""
    labels = np.zeros((96, 12), dtype=np.uint8)
    for r in range(96):
        labels[r, [(7 * r + 3 * j) % 12 for j in range(r % 4 + 1)]] = 1
    return labels


def test_center_bytes_are_pinned():
    for v, k, seed, method, digest in PINNED_CENTERS:
        cs = C.generate_centers(v, k, seed)
        assert (cs.method, hashlib.sha256(cs.centers.tobytes()).hexdigest()) == (method, digest)
    labels = _pinned_labels()
    for k, seed, tied, digest in PINNED_SEMANTIC:
        cs = C.generate_centers(12, k, 3)
        assert int((labels.astype(np.int64) @ cs.centers.astype(np.int64) == 0).sum()) == tied
        out = C.semantic_centers_for(labels, cs, seed)
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest


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
        want = _outcome(oracle_generate_centers, v, k, seed)
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
    pow2 = {"hadamard", "hadamard_plus_bernoulli"}
    assert methods >= (pow2 if k & (k - 1) == 0 else {"bernoulli"})
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
    dup = C.HashCenterSet(centers=np.array([[1, 1, -1, -1], [1, 1, -1, -1]], np.int8), seed=0)
    assert C.min_pairwise_distance(dup) == 0  # invariant violation is visible


def test_min_pairwise_distance_needs_two():
    one = C.HashCenterSet(centers=np.ones((1, 4), dtype=np.int8), seed=0)
    with pytest.raises(InvalidArgument, match="need at least two centers"):
        C.min_pairwise_distance(one)
    with pytest.raises(InvalidArgument, match="need at least two centers"):
        one.mean_pairwise_inner()


def test_center_set_rejects_a_fractional_seed():
    with pytest.raises(InvalidArgument, match=r"^seed must be an integer, got 1\.5$"):
        C.HashCenterSet(np.ones((1, 8), dtype=np.int8), 1.5)


@pytest.mark.parametrize("shape, message", [
    ((0, 8), "num_classes must be >= 1, got 0"),
    ((4, 0), "code_length must be >= 1, got 0"),
], ids=["no-row", "no-column"])
def test_center_set_rejects_an_array_without_a_row_or_a_column(shape, message):
    with pytest.raises(InvalidArgument, match=f"^{message}$"):
        C.HashCenterSet(np.ones(shape, dtype=np.int8), 0)


@pytest.mark.parametrize("centers, message", [
    (np.ones(8, np.int8), r"centers must be V x K, got shape \(8,\)"),
    (np.where(np.eye(4, 8) > 0, 0, 1).astype(np.int8), r"center entries must be -1 or \+1"),
], ids=["shape", "zero-entry"])
def test_center_set_rejects_a_shape_mismatch_and_entries_other_than_plus_minus_one(
        centers, message):
    with pytest.raises(InvalidArgument, match=f"^{message}$"):
        C.HashCenterSet(centers, 0)


@pytest.mark.parametrize("centers", [np.array([[True, True]]), np.ones((2, 2)),
                                     np.ones((2, 2), np.int64)],
                         ids=["bool", "float64", "int64"])
def test_center_set_rejects_an_array_that_is_not_int8(centers):
    # True == 1 and 1.0 == 1, so the -1/+1 entry check alone let each build
    with pytest.raises(InvalidArgument, match=f"^centers must be int8, got {centers.dtype}$"):
        C.HashCenterSet(centers, 0)


@pytest.mark.parametrize("v, k, message", [
    (2**32, 8, r"num_classes 4294967296 is outside \[1, 2\^32\)"),
    (4, 2**32, r"code_length 4294967296 is outside \[2, 2\^32\)"),
], ids=["classes", "bits"])
def test_generate_centers_refuses_what_a_u32_cshc_field_cannot_hold(v, k, message, monkeypatch):
    def no_draw(*args):
        raise AssertionError("centers were drawn before V and K were checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(InvalidArgument, match=f"^{message}$"):
        C.generate_centers(v, k, 0)


@pytest.mark.parametrize("v, k, method", [
    (1, 1, "hadamard"), (2, 1, "hadamard"), (3, 1, "hadamard_plus_bernoulli"),
    (8, 4, "hadamard"), (9, 4, "hadamard_plus_bernoulli"), (1, 3, "bernoulli"),
    (5, 6, "bernoulli"), (40, 37, "bernoulli"),
])
def test_center_set_method_is_read_from_v_and_k(v, k, method):
    """Rows over 2K, or a K that is not a power of two, mean Bernoulli draws."""
    cs = C.HashCenterSet(np.ones((v, k), dtype=np.int8), 0)
    assert [f.name for f in dataclasses.fields(cs)] == ["centers", "seed"]
    assert (cs.num_classes, cs.code_length, cs.method) == (v, k, method)
    assert type(cs.num_classes) is int and type(cs.code_length) is int


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_center_seed_outside_u64_rejected(seed, monkeypatch):
    message = "seed must be >= 0, got -1" if seed < 0 else f"seed {seed} is outside [0, 2^64)"
    with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
        C.HashCenterSet(centers=np.ones((1, 4), dtype=np.int8), seed=seed)

    def no_draw(*args):
        raise AssertionError("a center was drawn before the seed was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for v, k in ((4, 8), (3, 37)):  # Hadamard, Bernoulli
        with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
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
    assert (out == oracle_semantic_centers_for(labels, cs, seed=seed)).all()
    single = labels.sum(axis=1) == 1
    assert (out[single] == cs.centers[labels[single].argmax(axis=1)]).all()


@pytest.mark.parametrize("k", [8, 37, 63, 64, 65, 128])
def test_blocked_coins_match_per_bit_loop(k, monkeypatch):
    cs = C.generate_centers(12, k, seed=4)
    labels = _multi_hot(160, 12, seed=k + 1)
    tied = int(((labels.astype(np.int64) @ cs.centers.astype(np.int64)) == 0).sum())
    want = oracle_semantic_centers_for(labels, cs, seed=2**32 + 7)
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
