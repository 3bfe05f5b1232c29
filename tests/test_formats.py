import errno
import hashlib
import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from mvhash import formats, net
from mvhash.centers import generate_centers
from mvhash.errors import FormatError, InvalidArgument, ShapeMismatch
from oracles import CHECKPOINT_BLOCKS


def test_centers_roundtrip(tmp_path):
    cs = generate_centers(10, 12, seed=44)
    path = tmp_path / "c.cshc"
    formats.save_centers(cs, path)
    back = formats.load_centers(path)
    assert (back.centers == cs.centers).all()
    assert back.method == cs.method
    assert back.seed == cs.seed
    assert back.code_length == 12 and back.num_classes == 10


def test_center_method_tags(tmp_path):
    """Header byte 24: 0 hadamard, 1 hadamard_plus_bernoulli, 2 bernoulli; 3 fails closed."""
    path = tmp_path / "c.cshc"
    for tag, (v, k, method) in enumerate([(4, 8, "hadamard"), (20, 8, "hadamard_plus_bernoulli"),
                                          (3, 37, "bernoulli")]):
        formats.save_centers(generate_centers(v, k, seed=1), path)
        assert path.read_bytes()[24] == tag
        assert formats.load_centers(path).method == method
    path.write_bytes(path.read_bytes()[:24] + b"\x03" + path.read_bytes()[25:])
    with pytest.raises(FormatError, match="method tag 3, but V=3 K=37 make tag 2$"):
        formats.load_centers(path)


@pytest.mark.parametrize("v, k", [(4, 8), (20, 8), (3, 37)])
def test_a_center_method_tag_that_v_and_k_do_not_make_fails_closed(tmp_path, v, k):
    # one method fits a V and a K, so any other tag is a corrupt header
    path = tmp_path / "c.cshc"
    formats.save_centers(generate_centers(v, k, seed=1), path)
    good = path.read_bytes()
    for tag in set(range(256)) - {good[24]}:
        path.write_bytes(good[:24] + bytes([tag]) + good[25:])
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: method tag {tag}, "
                                              rf"but V={v} K={k} make tag {good[24]}$"):
            formats.load_centers(path)


@pytest.mark.parametrize("v, k, field", [(0, 8, "num_classes"), (4, 0, "code_length")])
def test_centers_with_no_classes_or_no_bits_fail_closed(tmp_path, v, k, field):
    # a hand-written header: at V = 0 or K = 0 no packed row bytes follow it
    path = tmp_path / "c.cshc"
    path.write_bytes(struct.pack("<4sIIIQB", b"CSHC", 1, v, k, 7, 0))
    with pytest.raises(FormatError, match=rf"c\.cshc: {field} must be >= 1, got 0$"):
        formats.load_centers(path)


def test_centers_bad_magic(tmp_path):
    path = tmp_path / "c.cshc"
    path.write_bytes(b"NOPE" + b"\0" * 20)
    with pytest.raises(FormatError, match="magic"):
        formats.load_centers(path)


def test_centers_truncated(tmp_path):
    cs = generate_centers(8, 16, seed=1)
    path = tmp_path / "c.cshc"
    formats.save_centers(cs, path)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(FormatError, match="offset"):
        formats.load_centers(path)


def test_centers_trailing_bytes(tmp_path):
    cs = generate_centers(4, 8, seed=1)
    path = tmp_path / "c.cshc"
    formats.save_centers(cs, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="trailing"):
        formats.load_centers(path)


def test_features_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(7, 5)).astype(np.float32).astype(np.float64)
    path = tmp_path / "f.csft"
    formats.save_features(m, path)
    assert (formats.load_features(path) == m).all()


def test_features_expected_dim(tmp_path):
    path = tmp_path / "f.csft"
    formats.save_features(np.zeros((3, 768)), path)
    with pytest.raises(ShapeMismatch, match="768.*512"):
        formats.load_features(path, expected_dim=512)


def test_features_truncated(tmp_path):
    path = tmp_path / "f.csft"
    formats.save_features(np.ones((4, 4)), path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(FormatError):
        formats.load_features(path)


@pytest.mark.parametrize("row, col, value", [(1, 2, np.nan), (0, 0, np.inf), (3, 4, -np.inf)])
def test_features_reject_non_finite_value(tmp_path, row, col, value):
    m = np.arange(20, dtype=np.float64).reshape(4, 5)
    m[row, col] = value
    m[3, 4] = value  # only the first bad cell is named
    path = tmp_path / "f.csft"
    # written by hand: save_features refuses such a matrix
    path.write_bytes(struct.pack("<4sIII", b"CSFT", 1, 4, 5) + m.astype("<f4").tobytes())
    offset = 16 + 4 * (row * 5 + col)
    assert np.isnan(np.frombuffer(path.read_bytes()[offset:offset + 4], "<f4")[0]) \
        == np.isnan(value)
    with pytest.raises(FormatError, match=rf"f\.csft: non-finite feature at row {row}, "
                                          rf"column {col}, byte offset {offset}$"):
        formats.load_features(path)


@pytest.mark.parametrize("row, col, value", [(1, 2, np.nan), (0, 0, np.inf), (3, 4, -np.inf),
                                             (2, 1, 1e39), (0, 3, -3.5e38)])
def test_save_features_refuses_what_the_loader_refuses(tmp_path, row, col, value):
    # 1e39 and -3.5e38 are finite as float64 and overflow the float32 cast, with no warning
    m = np.arange(20, dtype=np.float64).reshape(4, 5)
    m[row, col] = value
    m[3, 4] = np.nan  # only the first bad cell is named
    path = tmp_path / "f.csft"
    with pytest.raises(InvalidArgument, match=rf"f\.csft: non-finite float32 at row {row}, "
                                              rf"column {col}$"):
        formats.save_features(m, path)
    assert list(tmp_path.iterdir()) == []
    m[row, col] = 3.4e38  # the largest float32 is about 3.4028e38
    m[3, 4] = 0.0
    formats.save_features(m, path)
    assert (formats.load_features(path) == m.astype(np.float32)).all()


def test_labels_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    labels = (rng.random((9, 21)) < 0.3).astype(np.uint8)
    path = tmp_path / "l.cslb"
    formats.save_labels(labels, path)
    assert (formats.load_labels(path) == labels).all()


def test_label_rows_pack_lsb_first(tmp_path):
    labels = np.array([[1, 0, 0, 1, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0, 0, 0, 0]], np.uint8)
    path = tmp_path / "l.cslb"
    formats.save_labels(labels, path)
    assert path.read_bytes() == struct.pack("<4sIII", b"CSLB", 1, 2, 9) + bytes([9, 1, 2, 0])


def test_codes_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    from mvhash.retrieval import pack_codes, unpack_codes

    codes = (rng.integers(0, 2, size=(6, 37)) * 2 - 1).astype(np.int8)
    labels = (rng.random((6, 5)) < 0.4).astype(np.uint8)
    labels[:, 0] = 1
    path = tmp_path / "c.cscd"
    formats.save_codes(pack_codes(codes), labels, 37, path)
    packed, lab, k = formats.load_codes(path)
    assert k == 37
    assert (unpack_codes(packed, k) == codes).all()
    assert (lab == labels).all()


@pytest.mark.parametrize("kind", ["labels", "codes"])
def test_labels_written_by_the_non_zero_rule(tmp_path, kind):
    # 256 wraps and 0.5 truncates to 0 under a uint8 cast; both are active labels
    labels = np.array([[256, 0.5, -1, 1, 0], [0, 0, 0, 2, -0.25]])
    active = (labels != 0).astype(np.uint8)
    if kind == "labels":
        path = tmp_path / "l.cslb"
        formats.save_labels(labels, path)
        back = formats.load_labels(path)
        formats.save_labels(active, tmp_path / "ref.cslb")
    else:
        from mvhash.retrieval import pack_codes

        packed = pack_codes(np.ones((2, 8), np.int8))
        path = tmp_path / "c.cscd"
        formats.save_codes(packed, labels, 8, path)
        back = formats.load_codes(path)[1]
        formats.save_codes(packed, active, 8, tmp_path / "ref.cscd")
    assert back.tolist() == [[1, 1, 1, 1, 0], [0, 0, 0, 1, 1]]
    assert path.read_bytes() == (tmp_path / f"ref{path.suffix}").read_bytes()


@pytest.mark.parametrize("packed, k, message", [
    (np.zeros((2, 3), np.uint8), 16, "packed width 3 inconsistent with K=16"),
    (np.zeros((2, 1), np.uint8), 16, "packed width 1 inconsistent with K=16"),
    (np.array([[0x1F], [0xFF]], np.uint8), 5, r"code row 1 has non-zero padding bits \(K=5\)"),
    # K = 0 wrote a 23-byte file that every consumer then refused without naming it
    (np.zeros((2, 0), np.uint8), 0, "^code_length must be >= 1, got 0$"),
    (np.zeros((3, 1), np.uint8), 8, "^codes rows 3 != label rows 2$"),
], ids=["too-wide", "too-narrow", "padding-bits", "no-bits", "row-mismatch"])
def test_save_codes_rejects_what_load_codes_rejects(tmp_path, packed, k, message):
    path = tmp_path / "c.cscd"
    with pytest.raises(InvalidArgument, match=message):
        formats.save_codes(packed, np.ones((2, 3), np.uint8), k, path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [256, 300, -1, 1.7, np.nan])
def test_save_codes_rejects_values_that_are_not_bytes(tmp_path, bad):
    # a uint8 cast would write 256 as 0, 300 as 44, -1 as 255 and 1.7 as 1
    path = tmp_path / "c.cscd"
    with pytest.raises(InvalidArgument, match="code row 1 holds a value that is not a byte"):
        formats.save_codes(np.array([[3], [bad], [255]]), np.ones((3, 2), np.uint8), 8, path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("matrix", [np.zeros((3, 0)), np.zeros((0, 0)), np.zeros(0)])
def test_save_features_refuses_a_dim_of_zero(tmp_path, matrix):
    # dim 0 wrote a 16-byte file that loaded, and `train` then failed without naming it
    with pytest.raises(InvalidArgument, match=r"f\.csft: feature dim must be >= 1, got 0$"):
        formats.save_features(matrix, tmp_path / "f.csft")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", [3, 0])
def test_features_without_a_dim_fail_closed(tmp_path, n):
    # a hand-written header: dim 0, so no feature bytes follow it
    path = tmp_path / "f.csft"
    path.write_bytes(struct.pack("<4sIII", b"CSFT", 1, n, 0))
    with pytest.raises(FormatError, match=r"f\.csft: dim must be >= 1, got 0$"):
        formats.load_features(path)
    formats.save_features(np.zeros((0, 4)), path)  # zero rows of a real dim still load
    assert formats.load_features(path).shape == (0, 4)


def test_save_codes_writes_in_range_int64_rows_as_their_bytes(tmp_path):
    packed = np.array([[0, 255], [7, 128]])  # int64 rows, K = 16
    formats.save_codes(packed, np.ones((2, 3)), 16, tmp_path / "wide.cscd")
    formats.save_codes(packed.astype(np.uint8), np.ones((2, 3)), 16, tmp_path / "u8.cscd")
    assert (tmp_path / "wide.cscd").read_bytes() == (tmp_path / "u8.cscd").read_bytes()
    assert formats.load_codes(tmp_path / "wide.cscd")[0].tolist() == packed.tolist()


@pytest.mark.parametrize("r, v", [(3, 2), (0, 0)])
def test_codes_without_bits_fail_closed(tmp_path, r, v):
    # a hand-written header: K = 0, so no code bytes, then V and R label rows
    path = tmp_path / "c.cscd"
    path.write_bytes(struct.pack("<4sIIII", b"CSCD", 1, r, 0, v) + bytes(r * -(-v // 8)))
    with pytest.raises(FormatError, match=r"c\.cscd: code_length must be >= 1, got 0$"):
        formats.load_codes(path)


def _set_bits(path, offset, mask):
    data = bytearray(path.read_bytes())
    data[offset] |= mask
    path.write_bytes(bytes(data))


def test_codes_padding_bits_rejected(tmp_path):
    # K=12: 2 bytes per code row, the top 4 bits of byte 1 are padding. Set,
    # they used to put an identical query at Hamming distance 4.
    from mvhash.retrieval import pack_codes

    codes = np.ones((3, 12), dtype=np.int8)
    path = tmp_path / "c.cscd"
    formats.save_codes(pack_codes(codes), np.ones((3, 5), np.uint8), 12, path)
    _set_bits(path, 16 + 2 * 2 + 1, 0xF0)  # header 16 bytes, row 2, byte 1
    with pytest.raises(FormatError, match=r"c\.cscd: non-zero padding bits in packed "
                                          r"codes at byte offset 21"):
        formats.load_codes(path)


def test_codes_label_padding_bits_rejected(tmp_path):
    from mvhash.retrieval import pack_codes

    path = tmp_path / "c.cscd"
    formats.save_codes(pack_codes(np.ones((3, 8), np.int8)), np.ones((3, 5), np.uint8), 8, path)
    # header 16, codes 3 x 1 byte, u32 V, then one byte per label row
    _set_bits(path, 16 + 3 + 4 + 1, 0x20)
    with pytest.raises(FormatError, match="label rows at byte offset 24"):
        formats.load_codes(path)


def test_labels_padding_bits_rejected(tmp_path):
    path = tmp_path / "l.cslb"
    formats.save_labels(np.zeros((4, 21), np.uint8), path)
    _set_bits(path, 16 + 3 * 3 + 2, 0x80)  # row 3, byte 2 holds classes 16-20
    with pytest.raises(FormatError, match=r"l\.cslb: .*label rows at byte offset 27"):
        formats.load_labels(path)


def test_centers_padding_bits_rejected(tmp_path):
    path = tmp_path / "c.cshc"
    formats.save_centers(generate_centers(4, 12, seed=3), path)
    _set_bits(path, 25 + 1, 0x10)  # header 25 bytes, row 0, byte 1
    with pytest.raises(FormatError, match="byte offset 26"):
        formats.load_centers(path)


def test_checkpoint_roundtrip(tmp_path):
    dims = net.Dims(d_img=5, d_txt=7, d=4, code_length=6)
    p = net.init_params(dims, seed=33)
    path = tmp_path / "model.csmv"
    formats.save_checkpoint(p, path)
    back = formats.load_checkpoint(path)
    assert back.dims == dims
    assert back.init_seed == 33
    for name, arr in net.block_views(p.flat, p.dims).items():
        assert (arr == net.block_views(back.flat, back.dims)[name]).all()
    side = json.loads(path.with_name("model.csmv.json").read_text())
    assert side == {"fusion": "gmu", "csmv_sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def test_checkpoint_of_numpy_integer_dims_and_seed_saves(tmp_path):
    # the sidecar's json.dumps raised on an np.int64 dim
    dims = net.Dims(np.int64(5), np.uint8(7), np.int32(4), np.uint64(6))
    p = net.init_params(dims, seed=np.uint64(33))
    formats.save_checkpoint(p, tmp_path / "model.csmv")
    back = formats.load_checkpoint(tmp_path / "model.csmv")
    assert back.dims == net.Dims(5, 7, 4, 6) and back.init_seed == 33
    assert (back.flat == net.init_params(net.Dims(5, 7, 4, 6), seed=33).flat).all()


def test_checkpoint_with_a_zero_dim_fails_closed(tmp_path):
    # a hand-written header with d = 0, so no parameter bytes follow it
    path = tmp_path / "m.csmv"
    path.write_bytes(struct.pack("<4sIIIIIIQ", b"CSMV", 1, 8, 8, 0, 4, 2, 0))
    with pytest.raises(FormatError, match=r"m\.csmv: d must be >= 1, got 0$"):
        formats.load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    dims = net.Dims(d_img=2, d_txt=2, d=2, code_length=2)
    p = net.init_params(dims, seed=0)
    path = tmp_path / "m.csmv"
    formats.save_checkpoint(p, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9  # bump version field
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        formats.load_checkpoint(path)


def test_checkpoint_bytes_equal_per_block_body(tmp_path):
    dims = net.Dims(d_img=5, d_txt=7, d=4, code_length=37)
    p = net.init_params(dims, seed=2**64 - 1)
    rng = np.random.default_rng(3)
    p.flat[:] = rng.normal(size=p.flat.size)
    path = tmp_path / "model.csmv"
    formats.save_checkpoint(p, path)
    head = struct.pack("<4sIIIIIIQ", b"CSMV", 1, 5, 7, 4, 37, 2, 2**64 - 1)
    blocks = net.block_views(p.flat, p.dims)
    body = b"".join(np.ascontiguousarray(blocks[name], dtype="<f8").tobytes()
                    for name in CHECKPOINT_BLOCKS)
    assert path.read_bytes() == head + body


def test_checkpoint_blocks_are_views_after_load(tmp_path):
    dims = net.Dims(d_img=5, d_txt=7, d=4, code_length=6)
    path = tmp_path / "model.csmv"
    formats.save_checkpoint(net.init_params(dims, seed=1), path)
    back = formats.load_checkpoint(path)
    assert back.flat.shape == (dims.param_count(),)
    for name, block in net.block_views(back.flat, back.dims).items():
        assert np.shares_memory(block, back.flat), name


@pytest.mark.parametrize("name, index, value", [
    ("W_vnorm", (0, 0), np.nan), ("W_z", (1, 3), -np.inf), ("b_hash", (5,), np.inf),
])
def test_checkpoint_rejects_non_finite_parameter(tmp_path, name, index, value):
    dims = net.Dims(d_img=5, d_txt=7, d=4, code_length=6)
    p = net.init_params(dims, seed=1)
    net.block_views(p.flat, p.dims)[name][index] = value
    path = tmp_path / "model.csmv"
    formats.save_checkpoint(p, path)
    offset = 36 + 8 * int(np.flatnonzero(~np.isfinite(p.flat))[0])
    with pytest.raises(FormatError, match=rf"model\.csmv: non-finite parameter in block "
                                          rf"{name} at byte offset {offset}$"):
        formats.load_checkpoint(path)


def test_checkpoint_rejects_num_views_other_than_two(tmp_path):
    path = tmp_path / "m.csmv"
    formats.save_checkpoint(net.init_params(net.Dims(2, 2, 2, 2), seed=0), path)
    raw = bytearray(path.read_bytes())
    raw[24:28] = struct.pack("<I", 7)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"m\.csmv: num_views must be 2, got 7"):
        formats.load_checkpoint(path)


@pytest.mark.parametrize("fusion", net.FUSION_MODES)
def test_checkpoint_carries_its_fusion_mode(tmp_path, fusion):
    path = tmp_path / "m.csmv"
    formats.save_checkpoint(net.init_params(net.Dims(2, 3, 2, 4), seed=1, fusion=fusion), path)
    assert json.loads((tmp_path / "m.csmv.json").read_text())["fusion"] == fusion
    assert formats.load_checkpoint(path).fusion == fusion


def test_checkpoint_sidecar_without_fusion_is_rejected(tmp_path):
    # it loaded as gmu, whatever mode the weights were trained in
    path = tmp_path / "m.csmv"
    formats.save_checkpoint(net.init_params(net.Dims(2, 3, 2, 4), seed=1, fusion="concat"), path)
    side = tmp_path / "m.csmv.json"
    meta = json.loads(side.read_text())
    del meta["fusion"]
    side.write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=r"m\.csmv\.json: unknown fusion mode None$"):
        formats.load_checkpoint(path)


def test_checkpoint_sidecar_without_digest_cannot_relabel_the_fusion(tmp_path):
    # a sidecar without csmv_sha256 was not checked against the .csmv at all
    path = tmp_path / "m.csmv"
    formats.save_checkpoint(net.init_params(net.Dims(2, 3, 2, 4), seed=1, fusion="gmu"), path)
    (tmp_path / "m.csmv.json").write_text('{"fusion": "concat"}')
    with pytest.raises(FormatError, match=r"m\.csmv\.json: csmv_sha256 None does not match "):
        formats.load_checkpoint(path)


@pytest.mark.parametrize("extra", [{}, {"train_config": {"epochs": 3, "lam": 0.25}}],
                         ids=["four-keys", "train-config"])
def test_checkpoint_loads_beside_an_older_sidecar_layout(tmp_path, extra):
    """Sidecars once also held dims and init_seed, and some train_config: the
    digest binds them to the .csmv, and the keys no loader reads are ignored."""
    dims, fusion = net.Dims(d_img=5, d_txt=7, d=4, code_length=6), "text"
    p = net.init_params(dims, seed=2**64 - 3, fusion=fusion)
    path = tmp_path / "m.csmv"
    formats.save_checkpoint(p, path)
    (tmp_path / "m.csmv.json").write_text(json.dumps({
        "dims": {"d_img": 5, "d_txt": 7, "d": 4, "code_length": 6, "num_views": 2},
        "init_seed": 2**64 - 3, "fusion": fusion,
        "csmv_sha256": hashlib.sha256(path.read_bytes()).hexdigest(), **extra,
    }, indent=2, sort_keys=True) + "\n")
    back = formats.load_checkpoint(path)
    assert (back.dims, back.init_seed, back.fusion) == (dims, 2**64 - 3, fusion)
    assert (back.flat == p.flat).all()


@pytest.mark.parametrize("text, message", [
    ('{"fusion": "sum", "csmv_sha256": DIGEST}', "unknown fusion mode 'sum'"),
    ('{"fusion": null, "csmv_sha256": DIGEST}', "unknown fusion mode None"),
    ('["concat"]', "expected a JSON object, got list"),
    ("{not json", "not valid JSON"),
], ids=["unknown-mode", "null-mode", "not-object", "undecodable"])
def test_checkpoint_rejects_bad_sidecar_naming_it(tmp_path, text, message):
    path = tmp_path / "m.csmv"
    formats.save_checkpoint(net.init_params(net.Dims(2, 3, 2, 4), seed=1), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()  # the mode check comes after it
    (tmp_path / "m.csmv.json").write_text(text.replace("DIGEST", json.dumps(digest)))
    with pytest.raises(FormatError, match=rf"m\.csmv\.json: {message}"):
        formats.load_checkpoint(path)


@pytest.mark.parametrize("edit, got", [
    (lambda m: m.update(csmv_sha256="0" * 64), "'0{64}'"),
    (lambda m: m.pop("csmv_sha256"), "None"),  # as a sidecar written before the digest
], ids=["digest", "no-digest"])
def test_checkpoint_rejects_sidecar_that_disagrees_with_header(tmp_path, edit, got):
    path, side = tmp_path / "m.csmv", tmp_path / "m.csmv.json"
    formats.save_checkpoint(net.init_params(net.Dims(2, 3, 3, 4), seed=1), path)
    meta = json.loads(side.read_text())
    edit(meta)
    side.write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=rf"m\.csmv\.json: csmv_sha256 {got} does not match "
                                          rf"the \.csmv's '[0-9a-f]{{64}}'$"):
        formats.load_checkpoint(path)


@pytest.mark.parametrize("seed", [0, 33, 2**63, 2**64 - 1])
@pytest.mark.parametrize("fusion", net.FUSION_MODES)
def test_every_saved_checkpoint_loads(tmp_path, seed, fusion):
    dims = net.Dims(d_img=5, d_txt=7, d=4, code_length=37)
    flat = np.random.default_rng(4).normal(size=dims.param_count())
    p = net.ModelParams(dims, seed, flat, fusion)
    path = tmp_path / "m.csmv"
    formats.save_checkpoint(p, path)
    back = formats.load_checkpoint(path)
    assert (back.dims, back.init_seed, back.fusion) == (dims, seed, fusion)
    assert (back.flat == flat).all()
    side = json.loads((tmp_path / "m.csmv.json").read_text())
    assert side["csmv_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", [2**64 + 5, -1, 2**64])
@pytest.mark.parametrize("fusion", net.FUSION_MODES)
def test_checkpoint_seed_outside_u64_rejected(seed, fusion):
    """The header holds init_seed as a u64: such a seed would load back changed."""
    dims = net.Dims(d_img=5, d_txt=7, d=4, code_length=37)
    message = "must be >= 0, got -1" if seed < 0 else f"{seed} is outside [0, 2^64)"
    with pytest.raises(InvalidArgument, match=f"^init_seed {re.escape(message)}$"):
        net.ModelParams(dims, seed, np.zeros(dims.param_count()), fusion)


def test_failed_write_keeps_the_old_target_and_leaves_no_temporary_file(tmp_path, monkeypatch):
    target = tmp_path / "x.cscd"
    formats.save_codes(np.zeros((2, 1), dtype=np.uint8), np.ones((2, 1)), 8, target)
    old = target.read_bytes()
    write_bytes = Path.write_bytes

    def disk_full(path, data):
        write_bytes(path, data[:5])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", disk_full)
    with pytest.raises(FormatError, match=f"^{re.escape(str(target))}: cannot write: No space left"):
        formats.save_codes(np.ones((3, 1), dtype=np.uint8), np.ones((3, 1)), 8, target)
    assert target.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.cscd"]


def test_an_interrupted_write_is_reraised_as_it_is_and_leaves_no_temporary_file(tmp_path,
                                                                               monkeypatch):
    target = tmp_path / "x.csv"
    target.write_bytes(b"old")

    def interrupted(self, target):
        raise KeyboardInterrupt

    monkeypatch.setattr(Path, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        formats._atomic_write(target, b"new bytes")
    assert target.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


def test_new_weights_do_not_load_beside_a_stale_sidecar(tmp_path, monkeypatch):
    """A sidecar write that fails leaves the old sidecar next to the new .csmv."""
    path, side = tmp_path / "m.csmv", tmp_path / "m.csmv.json"
    dims = net.Dims(2, 3, 2, 4)
    formats.save_checkpoint(net.init_params(dims, seed=1, fusion="gmu"), path)
    write = formats._atomic_write

    def fail_on_sidecar(target, data):
        if str(target).endswith(".json"):
            raise OSError(28, "No space left on device")
        write(target, data)

    concat = net.init_params(dims, seed=1, fusion="concat")
    concat.flat[:] *= 0.5  # trained: the same init draws as gmu's, other weights now
    monkeypatch.setattr(formats, "_atomic_write", fail_on_sidecar)
    with pytest.raises(OSError):
        formats.save_checkpoint(concat, path)
    assert json.loads(side.read_text())["fusion"] == "gmu"
    with pytest.raises(FormatError, match=r"m\.csmv\.json: csmv_sha256 "):
        formats.load_checkpoint(path)


def test_csmv_copied_over_another_is_rejected(tmp_path):
    dims = net.Dims(2, 3, 2, 4)
    a, b = tmp_path / "a.csmv", tmp_path / "b.csmv"
    formats.save_checkpoint(net.init_params(dims, seed=1), a)
    p = net.init_params(dims, seed=1)
    p.flat[0] += 1.0
    formats.save_checkpoint(p, b)
    a.write_bytes(b.read_bytes())  # same dims and seed, other weights
    with pytest.raises(FormatError, match=r"a\.csmv\.json: csmv_sha256 "):
        formats.load_checkpoint(a)
    assert formats.load_checkpoint(b).flat[0] == p.flat[0]


def test_checkpoint_without_sidecar_is_not_loaded(tmp_path):
    path = tmp_path / "m.csmv"
    formats.save_checkpoint(net.init_params(net.Dims(2, 3, 2, 4), seed=1, fusion="image"), path)
    (tmp_path / "m.csmv.json").unlink()
    with pytest.raises(FormatError) as exc:
        formats.load_checkpoint(path)
    assert str(exc.value) == f"{path}.json: cannot read: {os.strerror(errno.ENOENT)}"


@pytest.mark.parametrize("load", [formats.load_centers, formats.load_features,
                                  formats.load_labels, formats.load_codes,
                                  formats.load_checkpoint, formats.load_json_object])
@pytest.mark.parametrize("code", [errno.ENOENT, errno.EISDIR], ids=["missing", "directory"])
def test_unreadable_input_fails_closed_naming_it(tmp_path, load, code):
    # load_json_object reads --splits and the checkpoint sidecar
    path = tmp_path / "input"
    if code == errno.EISDIR:
        path.mkdir()
    with pytest.raises(FormatError) as exc:
        load(path)
    assert str(exc.value) == f"{path}: cannot read: {os.strerror(code)}"


def _mutation_files(tmp_path):
    """(loader, path, header bytes that hold magic, version and sizes) per format.
    The CSHC seed field is left out: no checksum covers it. The CSMV seed is
    covered by the sidecar's csmv_sha256."""
    from mvhash.retrieval import pack_codes

    rng = np.random.default_rng(7)
    files = tmp_path / "files"
    files.mkdir()
    centers, feats, labels = files / "c.cshc", files / "f.csft", files / "l.cslb"
    codes, ckpt = files / "c.cscd", files / "m.csmv"
    formats.save_centers(generate_centers(4, 12, seed=1), centers)
    formats.save_features(rng.normal(size=(3, 5)), feats)
    formats.save_labels((rng.random((3, 10)) < 0.5).astype(np.uint8), labels)
    formats.save_codes(pack_codes(np.ones((3, 12), np.int8)), np.ones((3, 5), np.uint8), 12,
                       codes)
    formats.save_checkpoint(net.init_params(net.Dims(2, 3, 2, 4), seed=5), ckpt)
    return {
        "centers": (formats.load_centers, centers, [*range(16), 24]),
        "features": (formats.load_features, feats, range(16)),
        "labels": (formats.load_labels, labels, range(16)),
        # the label width u32 sits after the 3 x 2 code bytes
        "codes": (formats.load_codes, codes, [*range(16), *range(22, 26)]),
        "checkpoint": (formats.load_checkpoint, ckpt, range(36)),
    }


@pytest.mark.parametrize("kind", ["centers", "features", "labels", "codes", "checkpoint"])
def test_byte_mutations_rejected_naming_the_file(tmp_path, kind):
    load, path, header = _mutation_files(tmp_path)[kind]
    good = path.read_bytes()
    load(path)
    mutants = [("truncated", good[:-1]), ("extended", good + b"\0")]
    for offset in header:
        flipped = bytearray(good)
        flipped[offset] ^= 0xFF
        mutants.append((f"byte {offset} flipped", bytes(flipped)))
    for what, data in mutants:
        path.write_bytes(data)
        with pytest.raises(FormatError) as exc:
            load(path)
        assert str(path) in str(exc.value), what


def _header_fields(kind, good):
    """(name, offset, size) of each fixed-width field that the loader of `kind` reads
    before the first row bytes, and of CSCD's label width after its code rows."""
    names = {
        "centers": [("num_classes", 4), ("code_length", 4), ("seed", 8), ("method tag", 1)],
        "features": [("row count", 4), ("dim", 4)],
        "labels": [("row count", 4), ("num_classes", 4)],
        "codes": [("code count", 4), ("code_length", 4)],
        "checkpoint": [("d_img", 4), ("d_txt", 4), ("d", 4), ("code_length", 4),
                       ("num_views", 4), ("init_seed", 8)],
    }[kind]
    out, offset = [], 0
    for name, size in [("magic", 4), ("version", 4), *names]:
        out.append((name, offset, size))
        offset += size
    if kind == "codes":
        r, k = struct.unpack_from("<II", good, 8)
        out.append(("num_classes", offset + r * -(-k // 8), 4))
    return out


@pytest.mark.parametrize("kind", ["centers", "features", "labels", "codes", "checkpoint"])
def test_header_truncation_names_the_field_and_its_offset(tmp_path, kind):
    load, path, _ = _mutation_files(tmp_path)[kind]
    good = path.read_bytes()
    for name, offset, size in _header_fields(kind, good):
        for cut in range(offset, offset + size):
            path.write_bytes(good[:cut])
            with pytest.raises(FormatError) as exc:
                load(path)
            assert str(exc.value) == \
                f"{path}: truncated reading {name} at byte offset {offset}", cut
