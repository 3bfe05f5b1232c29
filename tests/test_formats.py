import struct

import numpy as np
import pytest

from mvhash import formats, net
from mvhash.centers import generate_centers
from mvhash.errors import FormatError, ShapeMismatch


def test_centers_roundtrip(tmp_path):
    cs = generate_centers(10, 12, seed=44)
    path = tmp_path / "c.cshc"
    formats.save_centers(cs, path)
    back = formats.load_centers(path)
    assert (back.centers == cs.centers).all()
    assert back.method == cs.method
    assert back.seed == cs.seed
    assert back.code_length == 12 and back.num_classes == 10


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
    formats.save_features(m, path)
    offset = 16 + 4 * (row * 5 + col)
    assert np.isnan(np.frombuffer(path.read_bytes()[offset:offset + 4], "<f4")[0]) \
        == np.isnan(value)
    with pytest.raises(FormatError, match=rf"f\.csft: non-finite feature at row {row}, "
                                          rf"column {col}, byte offset {offset}$"):
        formats.load_features(path)


def test_labels_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    labels = (rng.random((9, 21)) < 0.3).astype(np.uint8)
    path = tmp_path / "l.cslb"
    formats.save_labels(labels, path)
    assert (formats.load_labels(path) == labels).all()


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
    formats.save_checkpoint(p, path, sidecar={"fusion": "gmu"})
    back = formats.load_checkpoint(path)
    assert back.dims == dims
    assert back.init_seed == 33
    for name, arr in p.blocks().items():
        assert (arr == back.blocks()[name]).all()
    side = path.with_name("model.csmv.json")
    assert side.exists()
    assert '"fusion": "gmu"' in side.read_text()


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
    body = b"".join(np.ascontiguousarray(p.blocks()[name], dtype="<f8").tobytes()
                    for name in net.PARAM_NAMES)
    assert path.read_bytes() == head + body


def test_checkpoint_blocks_are_views_after_load(tmp_path):
    dims = net.Dims(d_img=5, d_txt=7, d=4, code_length=6)
    path = tmp_path / "model.csmv"
    formats.save_checkpoint(net.init_params(dims, seed=1), path)
    back = formats.load_checkpoint(path)
    assert back.flat.shape == (dims.param_count(),)
    for name, block in back.blocks().items():
        assert np.shares_memory(block, back.flat), name


@pytest.mark.parametrize("name, index, value", [
    ("W_vnorm", (0, 0), np.nan), ("W_z", (1, 3), -np.inf), ("b_hash", (5,), np.inf),
])
def test_checkpoint_rejects_non_finite_parameter(tmp_path, name, index, value):
    dims = net.Dims(d_img=5, d_txt=7, d=4, code_length=6)
    p = net.init_params(dims, seed=1)
    p.blocks()[name][index] = value
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


def _mutation_files(tmp_path):
    """(loader, path, header bytes that hold magic, version and sizes) per format.
    The CSHC and CSMV seed fields are left out: no checksum covers them."""
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
        "checkpoint": (formats.load_checkpoint, ckpt, range(28)),
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
