"""Binary file formats (all little-endian, all fail-closed on truncation).

Each file is its magic, a u32 VERSION, the header fields HEADERS declares, then:
  CSHC  hash centers:  V x ceil(K/8) packed rows (LSB of byte 0 = bit 0); the header's
        method tag must name the method that V and K make (HashCenterSet.method)
  CSFT  features:      N*dim f32
  CSLB  labels:        N x ceil(V/8) packed rows
  CSCD  codes+labels:  R x ceil(K/8) packed codes, u32 V, R x ceil(V/8) packed rows
  CSMV  checkpoint:    parameter blocks as finite f64 in Dims.param_shapes() order
        (ModelParams.flat); the JSON sidecar <path>.json holds two keys, fusion
        (the mode) and csmv_sha256 (the digest of the .csmv bytes written with
        it). Load requires both and rejects a digest that differs from the .csmv's
"""

import contextlib
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from . import centers as centers_mod
from .errors import FormatError, InvalidArgument, ShapeMismatch, in_file, integer
from .net import Dims, ModelParams, first_non_finite
from .retrieval import (check_code_rows, pack_bits, pack_codes, padding_bits_set, unpack_bits,
                        unpack_codes)


VERSION = 1
# per magic: the struct codes (B u8, I u32, Q u64) and names of the fields after the version
HEADERS = {  # a CSHC method tag is centers.METHODS.index(the method); CSMV num_views is 2
    b"CSHC": ("IIQB", "num_classes", "code_length", "seed", "method tag"),
    b"CSFT": ("II", "row count", "dim"),
    b"CSLB": ("II", "row count", "num_classes"),
    b"CSCD": ("II", "code count", "code_length"),
    b"CSMV": ("IIIIIQ", "d_img", "d_txt", "d", "code_length", "num_views", "init_seed"),
}


def _header(magic, *values) -> bytes:
    return struct.pack("<4sI" + HEADERS[magic][0], magic, VERSION, *values)


class _Reader:
    """A file's bytes, read in order; opening checks magic and VERSION and reads `head`."""

    def __init__(self, path, magic):
        self.path = Path(path)
        with in_file(self.path):
            self.buf = self.path.read_bytes()
        self.pos = 0
        got = self.take(4, "magic")
        if got != magic:
            raise FormatError(f"{self.path}: bad magic {got!r}, expected {magic!r}")
        (ver,) = self.fields("I", "version")
        if ver != VERSION:
            raise FormatError(f"{self.path}: unsupported version {ver}")
        self.head = self.fields(*HEADERS[magic])

    def take(self, n, what):
        if self.pos + n > len(self.buf):
            raise FormatError(
                f"{self.path}: truncated reading {what} at byte offset {self.pos}"
            )
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def fields(self, codes, *names):
        """One little-endian unsigned int per struct code, each taken under its name."""
        return [int.from_bytes(self.take(struct.calcsize("<" + c), name), "little")
                for c, name in zip(codes, names, strict=True)]

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
        with in_file(path):
            obj = json.loads(Path(path).read_text())
    except ValueError as exc:  # undecodable bytes or JSON
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _atomic_write(path, data: bytes):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with in_file(path, "write"):
        try:
            tmp.write_bytes(data)
            tmp.replace(path)
        except BaseException:  # a partial write must not outlive the failure
            with contextlib.suppress(FileNotFoundError, NotADirectoryError):  # no temporary made
                tmp.unlink()
            raise


# ---- CSHC: hash centers ----

def save_centers(center_set: centers_mod.HashCenterSet, path) -> None:
    head = _header(b"CSHC", center_set.num_classes, center_set.code_length, center_set.seed,
                   centers_mod.METHODS.index(center_set.method))
    _atomic_write(path, head + pack_codes(center_set.centers).tobytes())


def load_centers(path) -> centers_mod.HashCenterSet:
    r = _Reader(path, b"CSHC")
    v, k, seed, tag = r.head
    packed = r.packed_rows(v, k, "packed centers")
    r.done()
    with in_file(r.path):  # V = 0 or K = 0 fails closed, as the Dims of a checkpoint do
        cset = centers_mod.HashCenterSet(unpack_codes(packed, k), seed)
    if tag != (want := centers_mod.METHODS.index(cset.method)):
        raise FormatError(f"{r.path}: method tag {tag}, but V={v} K={k} make tag {want}")
    return cset


# ---- CSFT: feature matrices ----

def save_features(matrix: np.ndarray, path) -> None:
    with np.errstate(over="ignore"):  # an overflow casts to inf, which is refused below
        m = np.ascontiguousarray(np.atleast_2d(matrix), dtype="<f4")
    if m.shape[1] < 1:
        raise InvalidArgument(f"{path}: feature dim must be >= 1, got {m.shape[1]}")
    bad = np.argwhere(~np.isfinite(m))
    if len(bad):
        raise InvalidArgument(f"{path}: non-finite float32 at row {bad[0][0]}, column {bad[0][1]}")
    _atomic_write(path, _header(b"CSFT", *m.shape) + m.tobytes())


def load_features(path, expected_dim: int | None = None) -> np.ndarray:
    r = _Reader(path, b"CSFT")
    n, dim = r.head
    if dim == 0:  # no feature to fuse; zero rows still load
        raise FormatError(f"{r.path}: dim must be >= 1, got 0")
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
    _atomic_write(path, _header(b"CSLB", *rows.shape) + pack_bits(rows).tobytes())


def load_labels(path) -> np.ndarray:
    r = _Reader(path, b"CSLB")
    n, v = r.head
    packed = r.packed_rows(n, v, "label rows")
    r.done()
    return unpack_bits(packed, v)


# ---- CSCD: packed codes with labels ----

def save_codes(packed_codes: np.ndarray, labels: np.ndarray, code_length: int, path) -> None:
    pc = check_code_rows(packed_codes, integer(code_length, "code_length", 1))
    rows = np.atleast_2d(labels) != 0
    if pc.shape[0] != rows.shape[0]:
        raise ShapeMismatch(f"codes rows {pc.shape[0]} != label rows {rows.shape[0]}")
    head = _header(b"CSCD", pc.shape[0], code_length)
    mid = struct.pack("<I", rows.shape[1])
    _atomic_write(path, head + pc.tobytes() + mid + pack_bits(rows).tobytes())


def load_codes(path) -> tuple[np.ndarray, np.ndarray, int]:
    """Returns (packed codes R x ceil(K/8), multi-hot labels R x V, K)."""
    r = _Reader(path, b"CSCD")
    n, k = r.head
    if k == 0:  # no code to rank by; R = 0 and V = 0 still load
        raise FormatError(f"{r.path}: code_length must be >= 1, got 0")
    packed = r.packed_rows(n, k, "packed codes")
    (v,) = r.fields("I", "num_classes")
    lab = r.packed_rows(n, v, "label rows")
    r.done()
    return packed, unpack_bits(lab, v), k


# ---- CSMV: model checkpoint ----

def sidecar(path) -> Path:
    """The JSON sidecar written and read beside the checkpoint at `path`: <path>.json."""
    return Path(str(path) + ".json")


def save_checkpoint(params: ModelParams, path) -> None:
    """Writes the model to `path` and, to sidecar(path), its fusion and the .csmv's sha256."""
    d = params.dims
    head = _header(b"CSMV", d.d_img, d.d_txt, d.d, d.code_length, 2, params.init_seed)
    data = head + params.flat.astype("<f8", copy=False).tobytes()
    _atomic_write(path, data)
    meta = {"fusion": params.fusion, "csmv_sha256": hashlib.sha256(data).hexdigest()}
    _atomic_write(sidecar(path), (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())


def load_checkpoint(path) -> ModelParams:
    r = _Reader(path, b"CSMV")
    d_img, d_txt, d, k, views, seed = r.head
    if views != 2:  # the fusion equations are written for two views
        raise FormatError(f"{r.path}: num_views must be 2, got {views}")
    with in_file(r.path):
        dims = Dims(d_img=d_img, d_txt=d_txt, d=d, code_length=k)
    body = r.pos
    flat = r.array("<f8", dims.param_count(), "parameters")
    r.done()
    bad = first_non_finite(flat, dims)
    if bad is not None:
        name, index = bad
        raise FormatError(
            f"{r.path}: non-finite parameter in block {name} at byte offset {body + 8 * index}"
        )
    side = sidecar(path)
    meta = load_json_object(side)
    got, digest = meta.get("csmv_sha256"), hashlib.sha256(r.buf).hexdigest()
    if got != digest:  # the digest covers the header's dims and init_seed
        raise FormatError(f"{side}: csmv_sha256 {got!r} does not match the .csmv's {digest!r}")
    with in_file(side):
        return ModelParams(dims, seed, flat, meta.get("fusion"))
