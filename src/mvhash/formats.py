"""Binary file formats (all little-endian, all fail-closed on truncation).

  CSHC  hash centers:  magic, u32 version=1, u32 V, u32 K, u64 seed,
        u8 method tag (its index in centers.METHODS), V x ceil(K/8) packed rows
        (LSB of byte 0 = bit 0)
  CSFT  features:      magic, u32 version=1, u32 N, u32 dim, N*dim f32
  CSLB  labels:        magic, u32 version=1, u32 N, u32 V, N x ceil(V/8) packed rows
  CSCD  codes+labels:  magic, u32 version=1, u32 R, u32 K, R x ceil(K/8) packed
        codes, u32 V, R x ceil(V/8) packed multi-hot rows
  CSMV  checkpoint:    magic, u32 version=1, u32 d_img, u32 d_txt, u32 d,
        u32 K, u32 num_views=2, u64 init_seed, parameter blocks as finite f64
        in PARAM_NAMES order (ModelParams.flat); the JSON sidecar <path>.json holds
        dims, init_seed, the fusion mode and csmv_sha256, the digest of the .csmv
        bytes written with it. Load reads the mode back (gmu if absent) and rejects
        sidecar dims, init_seed or digest that differ from the .csmv's
"""

import hashlib
import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import centers as centers_mod
from .errors import FormatError, InvalidArgument, ShapeMismatch
from .net import Dims, ModelParams, first_non_finite
from .retrieval import (check_code_rows, pack_bits, pack_codes, padding_bits_set, unpack_bits,
                        unpack_codes)


class _Reader:
    """A file's bytes, read in order; opening checks the magic and version 1."""

    def __init__(self, path, magic):
        self.path = Path(path)
        self.buf = self.path.read_bytes()
        self.pos = 0
        got = self.take(4, "magic")
        if got != magic:
            raise FormatError(f"{self.path}: bad magic {got!r}, expected {magic!r}")
        ver = self.u32("version")
        if ver != 1:
            raise FormatError(f"{self.path}: unsupported version {ver}")

    def take(self, n, what):
        if self.pos + n > len(self.buf):
            raise FormatError(
                f"{self.path}: truncated reading {what} at byte offset {self.pos}"
            )
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

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
        bad = padding_bits_set(rows, width)
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


def load_json_object(path) -> dict:
    try:
        obj = json.loads(Path(path).read_text())
    except ValueError as exc:  # undecodable bytes or JSON
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _atomic_write(path, data: bytes):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        tmp.replace(path)
    except BaseException:  # a partial write must not outlive the failure
        tmp.unlink(missing_ok=True)
        raise


# ---- CSHC: hash centers ----

def save_centers(center_set: centers_mod.HashCenterSet, path) -> None:
    head = struct.pack(
        "<4sIIIQB",
        b"CSHC", 1,
        center_set.num_classes, center_set.code_length, center_set.seed,
        centers_mod.METHODS.index(center_set.method),
    )
    _atomic_write(path, head + pack_codes(center_set.centers).tobytes())


def load_centers(path) -> centers_mod.HashCenterSet:
    r = _Reader(path, b"CSHC")
    v = r.u32("num_classes")
    k = r.u32("code_length")
    seed = r.u64("seed")
    tag = r.u8("method tag")
    if tag >= len(centers_mod.METHODS):
        raise FormatError(f"{r.path}: unknown method tag {tag}")
    packed = r.packed_rows(v, k, "packed centers")
    r.done()
    return centers_mod.HashCenterSet(
        centers=unpack_codes(packed, k),
        code_length=k,
        num_classes=v,
        method=centers_mod.METHODS[tag],
        seed=seed,
    )


# ---- CSFT: feature matrices ----

def save_features(matrix: np.ndarray, path) -> None:
    with np.errstate(over="ignore"):  # an overflow casts to inf, which is refused below
        m = np.ascontiguousarray(np.atleast_2d(matrix), dtype="<f4")
    bad = np.argwhere(~np.isfinite(m))
    if len(bad):
        raise InvalidArgument(f"{path}: non-finite float32 at row {bad[0][0]}, column {bad[0][1]}")
    head = struct.pack("<4sIII", b"CSFT", 1, m.shape[0], m.shape[1])
    _atomic_write(path, head + m.tobytes())


def load_features(path, expected_dim: int | None = None) -> np.ndarray:
    r = _Reader(path, b"CSFT")
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
    rows = np.atleast_2d(labels) != 0
    head = struct.pack("<4sIII", b"CSLB", 1, rows.shape[0], rows.shape[1])
    _atomic_write(path, head + pack_bits(rows).tobytes())


def load_labels(path) -> np.ndarray:
    r = _Reader(path, b"CSLB")
    n = r.u32("row count")
    v = r.u32("num_classes")
    packed = r.packed_rows(n, v, "label rows")
    r.done()
    return unpack_bits(packed, v)


# ---- CSCD: packed codes with labels ----

def save_codes(packed_codes: np.ndarray, labels: np.ndarray, code_length: int, path) -> None:
    pc = check_code_rows(packed_codes, code_length)
    rows = np.atleast_2d(labels) != 0
    if pc.shape[0] != rows.shape[0]:
        raise ShapeMismatch(f"codes rows {pc.shape[0]} != label rows {rows.shape[0]}")
    head = struct.pack("<4sIII", b"CSCD", 1, pc.shape[0], code_length)
    mid = struct.pack("<I", rows.shape[1])
    _atomic_write(path, head + pc.tobytes() + mid + pack_bits(rows).tobytes())


def load_codes(path) -> tuple[np.ndarray, np.ndarray, int]:
    """Returns (packed codes R x ceil(K/8), multi-hot labels R x V, K)."""
    r = _Reader(path, b"CSCD")
    n = r.u32("code count")
    k = r.u32("code_length")
    packed = r.packed_rows(n, k, "packed codes")
    v = r.u32("num_classes")
    lab = r.packed_rows(n, v, "label rows")
    r.done()
    return packed, unpack_bits(lab, v), k


# ---- CSMV: model checkpoint ----

def save_checkpoint(params: ModelParams, path, sidecar: dict | None = None) -> None:
    """Writes the model to `path` and the sidecar <path>.json: the caller's
    `sidecar` keys, and the model's dims, init_seed, fusion and the sha256 of
    the .csmv bytes, which win."""
    d = params.dims
    head = struct.pack(
        "<4sIIIIIIQ", b"CSMV", 1, d.d_img, d.d_txt, d.d, d.code_length,
        2, params.init_seed,  # num_views
    )
    data = head + params.flat.astype("<f8", copy=False).tobytes()
    _atomic_write(path, data)
    meta = {**(sidecar or {}),
            "dims": {"d_img": d.d_img, "d_txt": d.d_txt, "d": d.d,
                     "code_length": d.code_length, "num_views": 2},
            "init_seed": params.init_seed, "fusion": params.fusion,
            "csmv_sha256": hashlib.sha256(data).hexdigest()}
    side = Path(str(path) + ".json")
    _atomic_write(side, (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())


def load_checkpoint(path) -> ModelParams:
    r = _Reader(path, b"CSMV")
    d_img, d_txt, d, k, views = (r.u32(x) for x in
                                 ("d_img", "d_txt", "d", "code_length", "num_views"))
    seed = r.u64("init_seed")
    if views != 2:  # the fusion equations are written for two views
        raise FormatError(f"{r.path}: num_views must be 2, got {views}")
    try:
        dims = Dims(d_img=d_img, d_txt=d_txt, d=d, code_length=k)
    except InvalidArgument as exc:
        raise FormatError(f"{r.path}: {exc}") from exc
    body = r.pos
    flat = r.array("<f8", dims.param_count(), "parameters")
    r.done()
    bad = first_non_finite(flat, dims)
    if bad is not None:
        name, index = bad
        raise FormatError(
            f"{r.path}: non-finite parameter in block {name} at byte offset {body + 8 * index}"
        )
    side = Path(str(path) + ".json")
    meta = load_json_object(side)
    # a key the sidecar lacks is not checked: older sidecars have no digest
    csmv = {"dims": {**asdict(dims), "num_views": views}, "init_seed": seed,
            "csmv_sha256": hashlib.sha256(r.buf).hexdigest()}
    for key, value in csmv.items():
        got = meta.get(key, value)
        if got != value:
            raise FormatError(f"{side}: {key} {got!r} does not match the .csmv's {value!r}")
    try:
        return ModelParams(dims, seed, flat, meta.get("fusion", "gmu"))
    except InvalidArgument as exc:
        raise FormatError(f"{side}: {exc}") from exc
