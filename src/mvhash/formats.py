"""Binary file formats (all little-endian, all fail-closed on truncation).

  CSHC  hash centers:  magic, u32 version=1, u32 V, u32 K, u64 seed,
        u8 method tag, V x ceil(K/8) packed rows (LSB of byte 0 = bit 0)
  CSFT  features:      magic, u32 version=1, u32 N, u32 dim, N*dim f32
  CSLB  labels:        magic, u32 version=1, u32 N, u32 V, N x ceil(V/8) packed rows
  CSCD  codes+labels:  magic, u32 version=1, u32 R, u32 K, R x ceil(K/8) packed
        codes, u32 V, R x ceil(V/8) packed multi-hot rows
  CSMV  checkpoint:    magic, u32 version=1, u32 d_img, u32 d_txt, u32 d,
        u32 K, u32 num_views=2, u64 init_seed, parameter blocks as finite f64
        in PARAM_NAMES order (ModelParams.flat); JSON sidecar written next to it
"""

import json
import struct
from pathlib import Path

import numpy as np

from . import centers as centers_mod
from .errors import FormatError, InvalidArgument, ShapeMismatch
from .net import Dims, ModelParams, first_non_finite
from .retrieval import pack_codes, unpack_codes

_METHOD_TAGS = {
    centers_mod.METHOD_HADAMARD: 0,
    centers_mod.METHOD_HADAMARD_PLUS_BERNOULLI: 1,
    centers_mod.METHOD_BERNOULLI: 2,
}
_METHOD_NAMES = {v: k for k, v in _METHOD_TAGS.items()}


class _Reader:
    def __init__(self, path):
        self.path = Path(path)
        self.buf = self.path.read_bytes()
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.buf):
            raise FormatError(
                f"{self.path}: truncated reading {what} at byte offset {self.pos}"
            )
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def magic(self, expected):
        got = self.take(4, "magic")
        if got != expected:
            raise FormatError(f"{self.path}: bad magic {got!r}, expected {expected!r}")

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]

    def u8(self, what):
        return self.take(1, what)[0]

    def array(self, dtype, count, what):
        raw = self.take(np.dtype(dtype).itemsize * count, what)
        return np.frombuffer(raw, dtype=dtype).copy()

    def packed_rows(self, n, width, what):
        """n rows of ceil(width/8) LSB-first bytes whose padding bits must be zero."""
        nbytes, start = -(-width // 8), self.pos
        rows = self.array(np.uint8, n * nbytes, what).reshape(n, nbytes)
        bad = np.flatnonzero(rows[:, -1] >> (width % 8)) if width % 8 else ()
        if len(bad):
            offset = start + int(bad[0]) * nbytes + nbytes - 1
            raise FormatError(
                f"{self.path}: non-zero padding bits in {what} at byte offset {offset}"
            )
        return rows

    def done(self):
        if self.pos != len(self.buf):
            raise FormatError(
                f"{self.path}: {len(self.buf) - self.pos} trailing bytes at offset {self.pos}"
            )


def _version(r, expected=1):
    ver = r.u32("version")
    if ver != expected:
        raise FormatError(f"{r.path}: unsupported version {ver}")


def _atomic_write(path, data: bytes):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)


def pack_multihot(rows: np.ndarray) -> np.ndarray:
    return np.packbits(np.atleast_2d(rows).astype(np.uint8), axis=1, bitorder="little")


def unpack_multihot(packed: np.ndarray, width: int) -> np.ndarray:
    return np.unpackbits(packed, axis=1, bitorder="little")[:, :width]


# ---- CSHC: hash centers ----

def save_centers(center_set: centers_mod.HashCenterSet, path) -> None:
    head = struct.pack(
        "<4sIIIQB",
        b"CSHC", 1,
        center_set.num_classes, center_set.code_length,
        center_set.seed & 0xFFFFFFFFFFFFFFFF,
        _METHOD_TAGS[center_set.method],
    )
    _atomic_write(path, head + pack_codes(center_set.centers).tobytes())


def load_centers(path) -> centers_mod.HashCenterSet:
    r = _Reader(path)
    r.magic(b"CSHC")
    _version(r)
    v = r.u32("num_classes")
    k = r.u32("code_length")
    seed = r.u64("seed")
    tag = r.u8("method tag")
    if tag not in _METHOD_NAMES:
        raise FormatError(f"{r.path}: unknown method tag {tag}")
    packed = r.packed_rows(v, k, "packed centers")
    r.done()
    return centers_mod.HashCenterSet(
        centers=unpack_codes(packed, k),
        code_length=k,
        num_classes=v,
        method=_METHOD_NAMES[tag],
        seed=seed,
    )


# ---- CSFT: feature matrices ----

def save_features(matrix: np.ndarray, path) -> None:
    m = np.ascontiguousarray(np.atleast_2d(matrix), dtype="<f4")
    head = struct.pack("<4sIII", b"CSFT", 1, m.shape[0], m.shape[1])
    _atomic_write(path, head + m.tobytes())


def load_features(path, expected_dim: int | None = None) -> np.ndarray:
    r = _Reader(path)
    r.magic(b"CSFT")
    _version(r)
    n = r.u32("row count")
    dim = r.u32("dim")
    if expected_dim is not None and dim != expected_dim:
        raise ShapeMismatch(f"{r.path}: file dim {dim} != expected {expected_dim}")
    body = r.pos
    m = r.array("<f4", n * dim, "feature rows")
    r.done()
    finite = np.isfinite(m)
    if not finite.all():
        i = int(np.argmin(finite))
        raise FormatError(f"{r.path}: non-finite feature at row {i // dim}, column {i % dim}, "
                          f"byte offset {body + 4 * i}")
    return m.reshape(n, dim).astype(np.float64)


# ---- CSLB: multi-hot labels ----

def save_labels(labels: np.ndarray, path) -> None:
    rows = np.atleast_2d(labels).astype(np.uint8)
    head = struct.pack("<4sIII", b"CSLB", 1, rows.shape[0], rows.shape[1])
    _atomic_write(path, head + pack_multihot(rows).tobytes())


def load_labels(path) -> np.ndarray:
    r = _Reader(path)
    r.magic(b"CSLB")
    _version(r)
    n = r.u32("row count")
    v = r.u32("num_classes")
    packed = r.packed_rows(n, v, "label rows")
    r.done()
    return unpack_multihot(packed, v)


# ---- CSCD: packed codes with labels ----

def save_codes(packed_codes: np.ndarray, labels: np.ndarray, code_length: int, path) -> None:
    pc = np.atleast_2d(packed_codes).astype(np.uint8)
    rows = np.atleast_2d(labels).astype(np.uint8)
    if pc.shape[0] != rows.shape[0]:
        raise ShapeMismatch(f"codes rows {pc.shape[0]} != label rows {rows.shape[0]}")
    head = struct.pack("<4sIII", b"CSCD", 1, pc.shape[0], code_length)
    mid = struct.pack("<I", rows.shape[1])
    _atomic_write(path, head + pc.tobytes() + mid + pack_multihot(rows).tobytes())


def load_codes(path) -> tuple[np.ndarray, np.ndarray, int]:
    """Returns (packed codes R x ceil(K/8), multi-hot labels R x V, K)."""
    r = _Reader(path)
    r.magic(b"CSCD")
    _version(r)
    n = r.u32("code count")
    k = r.u32("code_length")
    packed = r.packed_rows(n, k, "packed codes")
    v = r.u32("num_classes")
    lab = r.packed_rows(n, v, "label rows")
    r.done()
    return packed, unpack_multihot(lab, v), k


# ---- CSMV: model checkpoint ----

def save_checkpoint(params: ModelParams, path, sidecar: dict | None = None) -> None:
    d = params.dims
    head = struct.pack(
        "<4sIIIIIIQ", b"CSMV", 1, d.d_img, d.d_txt, d.d, d.code_length,
        d.num_views, params.init_seed & 0xFFFFFFFFFFFFFFFF,
    )
    _atomic_write(path, head + params.flat.astype("<f8", copy=False).tobytes())
    meta = {"dims": {"d_img": d.d_img, "d_txt": d.d_txt, "d": d.d,
                     "code_length": d.code_length, "num_views": d.num_views},
            "init_seed": params.init_seed}
    if sidecar:
        meta.update(sidecar)
    side = Path(str(path) + ".json")
    _atomic_write(side, (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())


def load_checkpoint(path) -> ModelParams:
    r = _Reader(path)
    r.magic(b"CSMV")
    _version(r)
    d_img, d_txt, d, k, views = (r.u32(x) for x in
                                 ("d_img", "d_txt", "d", "code_length", "num_views"))
    seed = r.u64("init_seed")
    try:
        dims = Dims(d_img=d_img, d_txt=d_txt, d=d, code_length=k, num_views=views)
    except InvalidArgument as exc:
        raise FormatError(f"{r.path}: {exc}") from exc
    body = r.pos
    params = ModelParams(dims, seed, r.array("<f8", dims.param_count(), "parameters"))
    r.done()
    bad = first_non_finite(params.flat, dims)
    if bad is not None:
        name, index = bad
        raise FormatError(
            f"{r.path}: non-finite parameter in block {name} at byte offset {body + 8 * index}"
        )
    return params
