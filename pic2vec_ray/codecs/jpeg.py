"""Pure-numpy JPEG codec — baseline sequential AND progressive DCT
(no libjpeg/PIL here).

The reference whitelists JPEG as a primary format and its fixture
corpus is led by a ``.jpg``
(``/root/reference/pic2vec/feature_preprocessing.py:118``,
``/root/reference/tests/test_feature_preprocessing.py:37``), so a real
decoder — not a stub that silently degrades every JPEG row to
``missing=True`` — is a correctness requirement for this engine.

Implemented from the public ITU-T T.81 spec:

- **decoder**: baseline sequential (SOF0/1) and progressive (SOF2,
  round 2) DCT, 8-bit, 1 or 3 components, sampling factors 1–2
  (4:4:4 / 4:2:2 / 4:2:0), DQT/DHT tables from the stream, DRI/restart
  markers, byte-stuffing. Progressive support is full: spectral
  selection, successive approximation (DC and AC first + refinement
  scans incl. correction bits), EOB runs with appended bits, ZRL in
  refinement. Both scan types share one bit reader: numpy builds the
  16-bit lookahead at every bit position of each entropy segment, and a
  1,024-entry value-folded table (T.81 Annex F lookahead with the
  magnitude bits folded in, as libjpeg does) decodes most symbols in
  one lookup, with the 16-bit packed table as the fallback. The
  per-symbol Huffman loop is the only hot Python loop; everything after
  entropy decode — dequantization, inverse zigzag, IDCT (two matrix
  contractions over all blocks at once), chroma upsampling, YCbCr→RGB —
  is vectorized numpy shared by both paths. Arithmetic
  coding / hierarchical / 12-bit raise :class:`JpegError`
  (→ missing-row semantics downstream, same as any corrupt payload).
- **encoder**: 4:4:4 or 4:2:0, Annex-K quantization tables scaled by
  the libjpeg quality convention, Annex-K Huffman tables, optional
  restart intervals, and ``progressive=True`` (SS+SA scan script, EOB
  runs capped at one block so the Annex-K tables suffice). Used by the
  synthetic fixture generator and the roundtrip tests; a progressive
  encoding transmits exactly the baseline scan's coefficients, so both
  encodings of an image decode bit-identically (pinned by test).

The DCT pair is the orthonormal matrix form: ``F = C·f·Cᵀ``,
``f = Cᵀ·F·C`` with ``C[k,n] = s_k·cos(π(2n+1)k/16)`` — exactly
T.81's FDCT/IDCT with the normalization folded in, so the decoder's
output is bit-reproducible from the quantized coefficients by any
conforming IDCT implementation (the exactness tests rely on this).
"""

from __future__ import annotations

import struct
from array import array

import numpy as np

__all__ = ["JpegError", "encode_jpeg", "decode_jpeg"]


class JpegError(ValueError):
    pass


# --------------------------------------------------------- constant tables

ZIGZAG = np.array([
     0,  1,  8, 16,  9,  2,  3, 10,
    17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63], dtype=np.int64)
UNZIGZAG = np.argsort(ZIGZAG)

_QT_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], dtype=np.int64)
_QT_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], dtype=np.int64)

# Annex K Huffman specs: (BITS[1..16], HUFFVAL)
_DC_LUMA_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
_DC_LUMA_VALS = list(range(12))
_DC_CHROMA_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
_DC_CHROMA_VALS = list(range(12))
_AC_LUMA_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
_AC_LUMA_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
    0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
    0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
    0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
    0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
    0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
    0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
    0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
    0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA]
_AC_CHROMA_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
_AC_CHROMA_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
    0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
    0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
    0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
    0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
    0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
    0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
    0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
    0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
    0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
    0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA]


def _dct_matrix() -> np.ndarray:
    k = np.arange(8)[:, None]
    n = np.arange(8)[None, :]
    c = np.cos(np.pi * (2 * n + 1) * k / 16.0)
    c[0] *= np.sqrt(0.5)
    return (c * 0.5).astype(np.float64)  # orthonormal 8x8 DCT-II


_C = _dct_matrix()


def _scaled_qt(base: np.ndarray, quality: int) -> np.ndarray:
    quality = min(max(int(quality), 1), 100)
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    return np.clip((base * scale + 50) // 100, 1, 255).astype(np.int64)


# ------------------------------------------------------------ huffman core


def _canonical_codes(bits: list[int], vals: list[int]) -> dict[int, tuple[int, int]]:
    """symbol → (code, length) per T.81 Annex C code assignment."""
    codes = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            codes[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return codes


_FAST_BITS = 10  # 1,024 entries; 11 or 12 cost 2-3x the build for no measured gain
_FAST_SHIFT = 16 - _FAST_BITS
# a block reads at most 64 symbols of ≤ 32 bits (code + magnitude), so
# this much zero padding after a segment keeps every window read in range
_PAD_BYTES = 64 * 32 // 8 + 2
_WINDOW_SHIFTS = np.arange(8, 0, -1, dtype=np.uint32)
_LUT_CACHE: dict[tuple, tuple[list[int], list]] = {}


def _decode_lut(bits: list[int], vals: list[int]) -> tuple[list[int], list]:
    """One DHT table → ``(packed, fast)`` decode tables.

    ``packed`` is indexed by the next 16 bits → one PACKED int
    ``(code_length << 8) | symbol`` (0 = invalid prefix). ``fast``
    (T.81 Annex F lookahead, with the magnitude bits folded in as
    libjpeg does) is indexed by the next ``_FAST_BITS`` bits →
    ``(bits consumed, advance, value)`` wherever the code plus its
    magnitude bits fit in those bits, else None. The advance is
    run + 1 for a coefficient, 16 for ZRL and 0 for EOB; the value is
    the signed coefficient (0 for ZRL and EOB). Read as a DC table, an
    entry with advance < 2 is ``(bits consumed, _, diff)``.

    Cached by table content — building the 65536-entry table costs
    ~10 ms, and real corpora reuse the Annex-K tables for every image
    (a warm decode worker pays it once per distinct table, not per
    image)."""
    key = (tuple(bits), tuple(vals))
    hit = _LUT_CACHE.get(key)
    if hit is not None:
        return hit
    packed = [0] * 65536
    code = 0
    k = 0
    for length in range(1, 17):
        tag = length << 8
        for _ in range(bits[length - 1]):
            base = code << (16 - length)
            entry = tag | (vals[k] & 0xFF)
            for idx in range(base, base + (1 << (16 - length))):
                packed[idx] = entry
            code += 1
            k += 1
        code <<= 1
    fast = []
    interned: dict[tuple, tuple] = {}
    for idx in range(1 << _FAST_BITS):
        e = packed[idx << _FAST_SHIFT]
        sym = e & 0xFF
        s = sym & 0xF
        n = (e >> 8) + s
        if e < 256 or n > _FAST_BITS or not (s or sym in (0x00, 0xF0)):
            fast.append(None)
            continue
        if s:
            t = (n, (sym >> 4) + 1,
                 _extend((idx >> (_FAST_BITS - n)) & ((1 << s) - 1), s))
        else:
            t = (n, 16 if sym else 0, 0)
        fast.append(interned.setdefault(t, t))
    if len(_LUT_CACHE) < 64:  # bound worker memory on adversarial inputs
        _LUT_CACHE[key] = (packed, fast)
    return packed, fast


class _BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int):
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            self.nbits -= 8
            byte = (self.acc >> self.nbits) & 0xFF
            self.out.append(byte)
            if byte == 0xFF:
                self.out.append(0x00)  # byte stuffing
        self.acc &= (1 << self.nbits) - 1

    def flush(self):
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)  # pad with 1-bits per spec


def _magnitude(v: int) -> tuple[int, int]:
    """value → (category, appended bits) per T.81 F.1.2.1."""
    if v == 0:
        return 0, 0
    a = abs(v)
    s = a.bit_length()
    bits = v if v > 0 else v + (1 << s) - 1
    return s, bits


# ---------------------------------------------------------------- encoder


def _subsample(plane: np.ndarray, fx: int, fy: int) -> np.ndarray:
    if fx == 1 and fy == 1:
        return plane
    h, w = plane.shape
    ph = (h + fy - 1) // fy * fy
    pw = (w + fx - 1) // fx * fx
    p = np.pad(plane, ((0, ph - h), (0, pw - w)), mode="edge")
    return p.reshape(ph // fy, fy, pw // fx, fx).mean(axis=(1, 3))


def _blockify(plane: np.ndarray) -> np.ndarray:
    """(H, W) → (n_blocks_y, n_blocks_x, 8, 8) with edge padding."""
    h, w = plane.shape
    ph = (h + 7) // 8 * 8
    pw = (w + 7) // 8 * 8
    p = np.pad(plane, ((0, ph - h), (0, pw - w)), mode="edge")
    return p.reshape(ph // 8, 8, pw // 8, 8).transpose(0, 2, 1, 3)


def _quantize_blocks(blocks: np.ndarray, qt: np.ndarray) -> np.ndarray:
    """blocks (by, bx, 8, 8) → zigzagged int coeffs (by*bx, 64)."""
    f = blocks.astype(np.float64) - 128.0
    F = np.einsum("ki,yxij,lj->yxkl", _C, f, _C, optimize=True)
    q = np.round(F / qt.reshape(8, 8)).astype(np.int64)
    return q.reshape(-1, 64)[:, ZIGZAG]


def _encode_block(w: _BitWriter, coeffs: np.ndarray, pred: int,
                  dc_codes: dict, ac_codes: dict) -> int:
    dc = int(coeffs[0])
    s, bits = _magnitude(dc - pred)
    code, ln = dc_codes[s]
    w.write(code, ln)
    if s:
        w.write(bits, s)
    nz = np.flatnonzero(coeffs[1:])
    last = 0
    for idx in nz:
        run = int(idx) - last
        while run >= 16:
            code, ln = ac_codes[0xF0]  # ZRL
            w.write(code, ln)
            run -= 16
        s, bits = _magnitude(int(coeffs[1 + idx]))
        code, ln = ac_codes[(run << 4) | s]
        w.write(code, ln)
        w.write(bits, s)
        last = int(idx) + 1
    if last < 63:
        code, ln = ac_codes[0x00]  # EOB
        w.write(code, ln)
    return dc


def encode_jpeg(img: np.ndarray, quality: int = 85, subsampling: str = "444",
                restart_interval: int = 0, progressive: bool = False,
                dht_per_scan: bool = False) -> bytes:
    """(H, W, 3) or (H, W[, 1]) uint8 → baseline JFIF bytes."""
    img = np.asarray(img)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.dtype != np.uint8 or img.ndim != 3 or img.shape[2] not in (1, 3):
        raise JpegError("encode_jpeg expects (H, W, 1|3) uint8")
    if subsampling not in ("444", "420"):
        raise JpegError("subsampling must be '444' or '420'")
    h, w, nc = img.shape
    gray = nc == 1
    if gray:
        planes = [img[:, :, 0].astype(np.float64)]
        factors = [(1, 1)]
    else:
        rgb = img.astype(np.float64)
        r, g, b = rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2]
        y = 0.299 * r + 0.587 * g + 0.114 * b
        cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
        cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
        if subsampling == "444":
            planes = [y, cb, cr]
            factors = [(1, 1), (1, 1), (1, 1)]
        else:
            planes = [y, _subsample(cb, 2, 2), _subsample(cr, 2, 2)]
            factors = [(2, 2), (1, 1), (1, 1)]
    qts = [_scaled_qt(_QT_LUMA, quality), _scaled_qt(_QT_CHROMA, quality)]
    qt_ids = [0] + [1] * (len(planes) - 1)

    hmax = max(f[0] for f in factors)
    vmax = max(f[1] for f in factors)
    mcux = (w + 8 * hmax - 1) // (8 * hmax)
    mcuy = (h + 8 * vmax - 1) // (8 * vmax)

    # per-component zigzagged quantized coeff grids
    comp_coeffs = []
    for plane, (fx, fy), qid in zip(planes, factors, qt_ids):
        blocks = _blockify(plane)
        by, bx = blocks.shape[:2]
        # pad the block grid to the MCU grid (edge blocks repeated)
        need_by, need_bx = mcuy * fy, mcux * fx
        if by < need_by or bx < need_bx:
            blocks = np.pad(blocks, ((0, need_by - by), (0, need_bx - bx),
                                     (0, 0), (0, 0)), mode="edge")
        q = _quantize_blocks(blocks, qts[qid])
        comp_coeffs.append(q.reshape(need_by, need_bx, 64))

    dc_specs = [(_DC_LUMA_BITS, _DC_LUMA_VALS), (_DC_CHROMA_BITS, _DC_CHROMA_VALS)]
    ac_specs = [(_AC_LUMA_BITS, _AC_LUMA_VALS), (_AC_CHROMA_BITS, _AC_CHROMA_VALS)]
    dc_codes = [_canonical_codes(*s) for s in dc_specs]
    ac_codes = [_canonical_codes(*s) for s in ac_specs]
    tbl_ids = [0] + [1] * (len(planes) - 1)

    if progressive:
        if restart_interval:
            raise JpegError("restart intervals unsupported with progressive=True")
        return _encode_progressive(
            h, w, gray, factors, qt_ids, tbl_ids, qts, comp_coeffs,
            dc_specs, ac_specs, dc_codes, ac_codes, mcux, mcuy, hmax, vmax,
            dht_per_scan)
    if dht_per_scan:
        raise JpegError("dht_per_scan requires progressive=True")

    wtr = _BitWriter()
    preds = [0] * len(planes)
    mcu_no = 0
    rst_no = 0
    body = bytearray()
    for my in range(mcuy):
        for mx in range(mcux):
            if restart_interval and mcu_no and mcu_no % restart_interval == 0:
                wtr.flush()
                body += wtr.out
                body += bytes([0xFF, 0xD0 + (rst_no & 7)])
                wtr = _BitWriter()
                rst_no += 1
                preds = [0] * len(planes)
            for ci, (fx, fy) in enumerate(factors):
                for v in range(fy):
                    for u in range(fx):
                        blk = comp_coeffs[ci][my * fy + v, mx * fx + u]
                        preds[ci] = _encode_block(
                            wtr, blk, preds[ci],
                            dc_codes[tbl_ids[ci]], ac_codes[tbl_ids[ci]])
            mcu_no += 1
    wtr.flush()
    body += wtr.out

    out = bytearray(b"\xff\xd8")  # SOI
    out += b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    for tid, qt in enumerate(qts[: 1 if gray else 2]):
        out += b"\xff\xdb" + struct.pack(">H", 67) + bytes([tid]) + bytes(
            int(x) for x in qt[ZIGZAG])
    # SOF0
    ncomp = len(planes)
    out += b"\xff\xc0" + struct.pack(">HBHHB", 8 + 3 * ncomp, 8, h, w, ncomp)
    for ci, (fx, fy) in enumerate(factors):
        out += bytes([ci + 1, (fx << 4) | fy, qt_ids[ci]])
    # DHT
    for cls, specs in ((0, dc_specs), (1, ac_specs)):
        for tid, (bits, vals) in enumerate(specs[: 1 if gray else 2]):
            out += b"\xff\xc4" + struct.pack(">H", 19 + len(vals))
            out += bytes([(cls << 4) | tid]) + bytes(bits) + bytes(vals)
    if restart_interval:
        out += b"\xff\xdd" + struct.pack(">HH", 4, restart_interval)
    # SOS
    out += b"\xff\xda" + struct.pack(">HB", 6 + 2 * ncomp, ncomp)
    for ci in range(ncomp):
        out += bytes([ci + 1, (tbl_ids[ci] << 4) | tbl_ids[ci]])
    out += b"\x00\x3f\x00"
    out += body
    out += b"\xff\xd9"  # EOI
    return bytes(out)


def _encode_progressive(h, w, gray, factors, qt_ids, tbl_ids, qts, comp_coeffs,
                        dc_specs, ac_specs, dc_codes, ac_codes,
                        mcux, mcuy, hmax, vmax,
                        dht_per_scan: bool = False) -> bytes:
    """Progressive (SOF2) encoding with a fixed 4-stage script:
    DC first (Al=1) → DC refinement → per-component AC first scans
    (Ss=1..63, Al=1) → per-component AC refinements (Ah=1, Al=0).

    ``dht_per_scan=True`` mimics libjpeg's optimized progressive
    output: no up-front DHT block — each scan is preceded by a DHT
    that (re)defines SLOT 0 with the table that scan uses, so slot 0's
    meaning changes between scans (luma AC vs chroma AC). Decoders
    that resolve table slots after parsing the whole stream instead of
    at each SOS decode such files wrong; the repo's decoder snapshots
    per-SOS and a regression test pins bit-identity with the
    all-tables-up-front encoding.

    Exercises spectral selection, successive approximation, EOB and ZRL
    coding in both directions. EOB runs are capped at one block so the
    standard Annex-K tables suffice (longer runs need EOBn symbols
    those tables don't define); the refinement emitters literally
    mirror the decoder's walk, so correction-bit order is correct by
    construction. The coefficients transmitted are EXACTLY the baseline
    scan's, so progressive and baseline encodings of the same image
    must decode bit-identically (pinned by test).
    """
    AL = 1  # successive-approximation split point
    ncomp = len(factors)
    ntab = 1 if gray else 2

    out = bytearray(b"\xff\xd8")
    out += b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    for tid, qt in enumerate(qts[:ntab]):
        out += b"\xff\xdb" + struct.pack(">H", 67) + bytes([tid]) + bytes(
            int(x) for x in qt[ZIGZAG])
    out += b"\xff\xc2" + struct.pack(">HBHHB", 8 + 3 * ncomp, 8, h, w, ncomp)
    for ci, (fx, fy) in enumerate(factors):
        out += bytes([ci + 1, (fx << 4) | fy, qt_ids[ci]])
    if not dht_per_scan:
        for cls, specs in ((0, dc_specs), (1, ac_specs)):
            for tid, (bits, vals) in enumerate(specs[:ntab]):
                out += b"\xff\xc4" + struct.pack(">H", 19 + len(vals))
                out += bytes([(cls << 4) | tid]) + bytes(bits) + bytes(vals)

    bw = [(w * fx + 8 * hmax - 1) // (8 * hmax) for fx, _ in factors]
    bh = [(h * fy + 8 * vmax - 1) // (8 * vmax) for _, fy in factors]
    row_blocks = [mcux * fx for fx, _ in factors]

    def dht(cls, tid, spec):
        bits, vals = spec
        return (b"\xff\xc4" + struct.pack(">H", 19 + len(vals))
                + bytes([(cls << 4) | tid]) + bytes(bits) + bytes(vals))

    def sos(comp_ids, ss, se, ahl_hi, ahl_lo):
        hdr = bytearray(b"\xff\xda")
        hdr += struct.pack(">HB", 6 + 2 * len(comp_ids), len(comp_ids))
        for ci in comp_ids:
            t = 0 if dht_per_scan else tbl_ids[ci]
            hdr += bytes([ci + 1, (t << 4) | t])
        hdr += bytes([ss, se, (ahl_hi << 4) | ahl_lo])
        return bytes(hdr)

    # table used per component: with dht_per_scan everything is encoded
    # through slot 0, whose content the per-scan DHTs swap around
    scan_dc_codes = [dc_codes[0]] * ncomp if dht_per_scan else \
        [dc_codes[tbl_ids[ci]] for ci in range(ncomp)]

    # ---- scan 1: DC first (interleaved when ncomp > 1), Al=AL ----
    if dht_per_scan:
        out += dht(0, 0, dc_specs[0])
    out += sos(list(range(ncomp)), 0, 0, 0, AL)
    wtr = _BitWriter()
    preds = [0] * ncomp
    if ncomp > 1:
        for my in range(mcuy):
            for mx in range(mcux):
                for ci, (fx, fy) in enumerate(factors):
                    for v in range(fy):
                        for u in range(fx):
                            dc = int(comp_coeffs[ci][my * fy + v, mx * fx + u, 0])
                            red = dc >> AL  # arithmetic shift per T.81
                            s, bits = _magnitude(red - preds[ci])
                            code, ln = scan_dc_codes[ci][s]
                            wtr.write(code, ln)
                            if s:
                                wtr.write(bits, s)
                            preds[ci] = red
    else:
        for b in range(bw[0] * bh[0]):
            by, bx = divmod(b, bw[0])
            dc = int(comp_coeffs[0][by, bx, 0])
            red = dc >> AL
            s, bits = _magnitude(red - preds[0])
            code, ln = dc_codes[0][s]
            wtr.write(code, ln)
            if s:
                wtr.write(bits, s)
            preds[0] = red
    wtr.flush()
    out += wtr.out

    # ---- scan 2: DC refinement (Ah=AL → one more bit per block) ----
    out += sos(list(range(ncomp)), 0, 0, AL, 0)
    wtr = _BitWriter()
    if ncomp > 1:
        for my in range(mcuy):
            for mx in range(mcux):
                for ci, (fx, fy) in enumerate(factors):
                    for v in range(fy):
                        for u in range(fx):
                            wtr.write(int(comp_coeffs[ci][my * fy + v, mx * fx + u, 0]) & 1, 1)
    else:
        for b in range(bw[0] * bh[0]):
            by, bx = divmod(b, bw[0])
            wtr.write(int(comp_coeffs[0][by, bx, 0]) & 1, 1)
    wtr.flush()
    out += wtr.out

    # ---- per-component AC first scans (Ss=1..63, Ah=0, Al=AL) ----
    for ci in range(ncomp):
        if dht_per_scan:  # redefines AC slot 0 (luma↔chroma) per scan
            out += dht(1, 0, ac_specs[tbl_ids[ci]])
        out += sos([ci], 1, 63, 0, AL)
        wtr = _BitWriter()
        ac = ac_codes[tbl_ids[ci]]
        grid = comp_coeffs[ci]
        for b in range(bw[ci] * bh[ci]):
            by, bx = divmod(b, bw[ci])
            band = grid[by, bx, 1:64]
            red = np.sign(band) * (np.abs(band) >> AL)  # sign-magnitude
            nz = np.flatnonzero(red)
            if nz.size == 0:
                code, ln = ac[0x00]
                wtr.write(code, ln)  # EOB (run capped at 1 block)
                continue
            r = 0
            for k in range(64 - 1):
                v = int(red[k])
                if v == 0:
                    r += 1
                    continue
                while r > 15:
                    code, ln = ac[0xF0]
                    wtr.write(code, ln)
                    r -= 16
                s, bits = _magnitude(v)
                code, ln = ac[(r << 4) | s]
                wtr.write(code, ln)
                wtr.write(bits, s)
                r = 0
            if int(nz[-1]) < 62:  # trailing zeros → EOB
                code, ln = ac[0x00]
                wtr.write(code, ln)
        wtr.flush()
        out += wtr.out

    # ---- per-component AC refinements (Ah=AL, Al=0) ----
    for ci in range(ncomp):
        if dht_per_scan:
            out += dht(1, 0, ac_specs[tbl_ids[ci]])
        out += sos([ci], 1, 63, AL, 0)
        wtr = _BitWriter()
        ac = ac_codes[tbl_ids[ci]]
        grid = comp_coeffs[ci]
        for b in range(bw[ci] * bh[ci]):
            by, bx = divmod(b, bw[ci])
            band = grid[by, bx, 1:64]
            absv = np.abs(band)
            k = 0  # index into the 63-coeff band
            while True:
                # next newly-significant coeff (|v| == 1 at this stage)
                # and the zero-run before it (positions with |v| == 0)
                found = -1
                r = 0
                j = k
                while j < 63:
                    a = int(absv[j])
                    if a == 1:
                        found = j
                        break
                    if a == 0:
                        r += 1
                    j += 1
                if found < 0:
                    if k < 63:  # band positions remain → decoder reads EOB
                        code, ln = ac[0x00]
                        wtr.write(code, ln)  # EOB (run of 1)
                        for t in range(k, 63):  # tail correction bits
                            if int(absv[t]) >= 2:
                                wtr.write(int(absv[t]) & 1, 1)
                    # k == 63: the decoder already left this block — a
                    # trailing EOB here would desync the next block
                    break
                while r > 15:  # ZRL: 16 zero-history skips w/ corrections
                    code, ln = ac[0xF0]
                    wtr.write(code, ln)
                    zeros = 0
                    while k < 63:
                        a = int(absv[k])
                        if a >= 2:
                            wtr.write(a & 1, 1)
                        else:  # a == 0 (first |v|==1 lies beyond these zeros)
                            zeros += 1
                            if zeros == 16:
                                k += 1
                                break
                        k += 1
                    r -= 16
                code, ln = ac[(r << 4) | 1]
                wtr.write(code, ln)
                wtr.write(1 if int(band[found]) > 0 else 0, 1)
                while k < 63:  # mirror the decoder's placement walk
                    a = int(absv[k])
                    if a >= 2:
                        wtr.write(a & 1, 1)
                        k += 1
                        continue
                    if r == 0:  # the placement position (a == 1 here)
                        k += 1
                        break
                    r -= 1
                    k += 1
        wtr.flush()
        out += wtr.out

    out += b"\xff\xd9"
    return bytes(out)


# ---------------------------------------------------------------- decoder


def _split_entropy_segments(data: bytes, start: int) -> tuple[list[bytes], int]:
    """Entropy-coded data → list of unstuffed per-restart segments.

    Returns (segments, position of the terminating marker's 0xFF)."""
    segments = []
    seg_start = start
    pos = start
    n = len(data)
    while True:
        ff = data.find(b"\xff", pos)
        if ff < 0 or ff + 1 >= n:
            segments.append(data[seg_start: ff if ff >= 0 else n].replace(b"\xff\x00", b"\xff"))
            return segments, n
        nxt = data[ff + 1]
        if nxt == 0x00:
            pos = ff + 2
            continue
        if 0xD0 <= nxt <= 0xD7:  # restart marker: close segment
            segments.append(data[seg_start:ff].replace(b"\xff\x00", b"\xff"))
            seg_start = pos = ff + 2
            continue
        segments.append(data[seg_start:ff].replace(b"\xff\x00", b"\xff"))
        return segments, ff


def decode_jpeg(data: bytes) -> np.ndarray:
    """JFIF bytes → (H, W, 3) or (H, W, 1) uint8."""
    if len(data) < 4 or data[:2] != b"\xff\xd8":
        raise JpegError("not a JPEG (missing SOI)")
    qts: dict[int, np.ndarray] = {}
    dc_luts: dict[int, tuple[list, list]] = {}  # slot → (packed, fast)
    ac_luts: dict[int, tuple[list, list]] = {}
    restart = 0
    frame = None
    progressive = False
    pos = 2
    n = len(data)
    scans: list[dict] = []
    while pos + 4 <= n:
        if data[pos] != 0xFF:
            raise JpegError(f"marker sync lost at {pos}")
        marker = data[pos + 1]
        if marker == 0xD9:  # EOI
            break
        if marker in (0x01,) or 0xD0 <= marker <= 0xD7:
            pos += 2
            continue
        (seglen,) = struct.unpack(">H", data[pos + 2: pos + 4])
        seg = data[pos + 4: pos + 2 + seglen]
        if marker == 0xDB:  # DQT (possibly several tables)
            o = 0
            while o < len(seg):
                pq, tq = seg[o] >> 4, seg[o] & 0xF
                o += 1
                if pq:
                    vals = np.frombuffer(seg[o: o + 128], dtype=">u2").astype(np.int64)
                    o += 128
                else:
                    vals = np.frombuffer(seg[o: o + 64], dtype=np.uint8).astype(np.int64)
                    o += 64
                qt = np.empty(64, dtype=np.int64)
                qt[ZIGZAG] = vals  # stored in zigzag order
                qts[tq] = qt
        elif marker == 0xC4:  # DHT (possibly several tables)
            o = 0
            while o < len(seg):
                tc, th = seg[o] >> 4, seg[o] & 0xF
                bits = list(seg[o + 1: o + 17])
                cnt = sum(bits)
                vals = list(seg[o + 17: o + 17 + cnt])
                (dc_luts if tc == 0 else ac_luts)[th] = _decode_lut(bits, vals)
                o += 17 + cnt
        elif marker in (0xC0, 0xC1, 0xC2):  # baseline / ext.seq / progressive
            prec, fh, fw, ncomp = seg[0], struct.unpack(">H", seg[1:3])[0], \
                struct.unpack(">H", seg[3:5])[0], seg[5]
            if prec != 8:
                raise JpegError(f"{prec}-bit precision unsupported")
            comps = []
            for ci in range(ncomp):
                cid, hv, tq = seg[6 + 3 * ci: 9 + 3 * ci]
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 0xF, "tq": tq})
            frame = {"h": fh, "w": fw, "comps": comps}
            progressive = marker == 0xC2
        elif marker in (0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB,
                        0xCD, 0xCE, 0xCF):
            raise JpegError("only baseline and progressive DCT JPEG are supported")
        elif marker == 0xDD:  # DRI
            restart = struct.unpack(">H", seg[:2])[0]
        elif marker == 0xDA:  # SOS
            ns = seg[0]
            scan_comps = []
            for ci in range(ns):
                cs, tt = seg[1 + 2 * ci: 3 + 2 * ci]
                # Snapshot the RESOLVED LUTs now, not the slot ids: a
                # later DHT may redefine slot 0/1 for the next scan
                # (libjpeg's optimized progressive output does exactly
                # this), and each scan must decode with the tables that
                # were current when ITS SOS appeared (T.81 B.2.4.2).
                scan_comps.append({"id": cs,
                                   "dc_lut": dc_luts.get(tt >> 4),
                                   "ac_lut": ac_luts.get(tt & 0xF)})
            ss, se, ahl = seg[1 + 2 * ns], seg[2 + 2 * ns], seg[3 + 2 * ns]
            segments, pos = _split_entropy_segments(data, pos + 2 + seglen)
            scans.append({"comps": scan_comps, "Ss": ss, "Se": se,
                          "Ah": ahl >> 4, "Al": ahl & 0xF,
                          "segments": segments, "restart": restart})
            if not progressive:
                break  # baseline: single scan
            continue
        pos += 2 + seglen
    if frame is None or not scans:
        raise JpegError("truncated JPEG (no frame/scan)")

    comps = frame["comps"]
    scan_comps = scans[0]["comps"]
    segments = scans[0]["segments"]
    for c in comps:
        if not (1 <= c["h"] <= 2 and 1 <= c["v"] <= 2):
            raise JpegError(f"sampling factor {c['h']}x{c['v']} unsupported")
        if c["tq"] not in qts:
            raise JpegError("missing quantization table")
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    h, w = frame["h"], frame["w"]
    mcux = (w + 8 * hmax - 1) // (8 * hmax)
    mcuy = (h + 8 * vmax - 1) // (8 * vmax)
    n_mcus = mcux * mcuy
    for c in comps:
        # flat zigzag-ordered coefficients, 64 per block
        c["coef"] = array("i", bytes(4 * 64 * mcuy * c["v"] * mcux * c["h"]))
        # non-interleaved scans walk the component's OWN block grid
        c["bw"] = (w * c["h"] + 8 * hmax - 1) // (8 * hmax)
        c["bh"] = (h * c["v"] + 8 * vmax - 1) // (8 * vmax)
        c["row_blocks"] = mcux * c["h"]

    if progressive:
        _decode_progressive_scans(comps, scans, mcux, n_mcus)
        return _reconstruct(comps, qts, mcux, mcuy, hmax, vmax, h, w)

    for c in comps:
        sc = next((s for s in scan_comps if s["id"] == c["id"]), None)
        if sc is None:
            raise JpegError("scan/frame component mismatch")
        if sc["dc_lut"] is None or sc["ac_lut"] is None:
            raise JpegError("scan references an undefined Huffman table")
        c["dc_lut"] = sc["dc_lut"]
        c["ac_lut"] = sc["ac_lut"]

    # ---- the Huffman scan: the only per-symbol Python loop. Most
    # symbols cost one window read and one fast-table hit that yields
    # the bits consumed, the advance and the signed value together. ----
    seg_iter = iter(segments)
    win, end = _bit_windows(next(seg_iter))
    p = 0
    plan = [(*c["dc_lut"], *c["ac_lut"], c["coef"]) for c in comps]
    preds = [0] * len(plan)
    shift = _FAST_SHIFT
    mcus = zip(*[_block_offsets(c, mcux, n_mcus) for c in comps])
    for mcu_no, mcu in enumerate(mcus):
        if restart and mcu_no and mcu_no % restart == 0:
            win, end = _next_windows(seg_iter)
            p = 0
            preds = [0] * len(plan)
        for ci, (dtab, dfast, atab, afast, coef) in enumerate(plan):
            pred = preds[ci]
            for boff in mcu[ci]:
                if p > end:  # past the data every window reads zero
                    p = end
                look = win[p]
                e = dfast[look >> shift]
                if e is not None and e[1] < 2:  # a DC category ≤ 15
                    p += e[0]
                    pred += e[2]
                else:
                    p, diff = _dc_slow(win, p, dtab, look)
                    pred += diff
                coef[boff] = pred
                k = boff  # last flat position filled
                last = boff + 63
                while k < last:
                    look = win[p]
                    e = afast[look >> shift]
                    if e is not None:
                        n, adv, val = e
                        p += n
                        if val:
                            k += adv
                            if k > last:
                                raise JpegError("AC index overrun")
                            coef[k] = val
                        elif adv:  # ZRL
                            k += 16
                        else:  # EOB
                            break
                        continue
                    p, rs = _ac_slow(p, atab, look)
                    if rs == 0x00:  # EOB
                        break
                    if rs == 0xF0:  # ZRL
                        k += 16
                        continue
                    k += (rs >> 4) + 1
                    s = rs & 0xF
                    if k > last:
                        raise JpegError("AC index overrun")
                    if not s:
                        raise JpegError("bad AC run/size symbol")
                    coef[k] = _extend(win[p] >> (16 - s), s)
                    p += s
            preds[ci] = pred
    return _reconstruct(comps, qts, mcux, mcuy, hmax, vmax, h, w)


def _reconstruct(comps, qts, mcux, mcuy, hmax, vmax, h, w) -> np.ndarray:
    """Dequantize + inverse-zigzag + IDCT + upsample + color convert —
    shared by the baseline and progressive paths (both leave their
    result in the per-component flat ``coef`` arrays)."""
    planes = []
    for c in comps:
        coef = np.frombuffer(c["coef"], dtype=np.intc).reshape(-1, 64)
        # coefficients are zigzag-ordered: reorder to natural order, then
        # dequantize in integers (exact) before the float cast
        blocks = (coef[:, UNZIGZAG] * qts[c["tq"]]).astype(np.float64).reshape(-1, 8, 8)
        # f = Cᵀ·F·C as the two BLAS contractions (and in the order)
        # that np.einsum("ik,ykl,jl->yij", Cᵀ, F, Cᵀ, optimize=True)
        # runs, so the floats are bitwise those of that einsum
        pix = np.tensordot(np.tensordot(blocks, _C.T, axes=((1,), (1,))),
                           _C.T, axes=((1,), (1,))) + 128.0
        by, bx = mcuy * c["v"], mcux * c["h"]
        plane = pix.reshape(by, bx, 8, 8).transpose(0, 2, 1, 3).reshape(by * 8, bx * 8)
        # upsample to full MCU-grid resolution, then crop to (h, w)
        ry, rx = vmax // c["v"], hmax // c["h"]
        if ry > 1 or rx > 1:
            plane = np.repeat(np.repeat(plane, ry, axis=0), rx, axis=1)
        planes.append(plane[:h, :w])

    if len(planes) == 1:
        out = np.clip(np.round(planes[0]), 0, 255).astype(np.uint8)[:, :, None]
        return out
    y, cb, cr = planes[0], planes[1] - 128.0, planes[2] - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    rgb = np.stack([r, g, b], axis=2)
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


# ------------------------------------- scan helpers (baseline + progressive)


def _bit_windows(seg: bytes) -> tuple[memoryview, int]:
    """Unstuffed entropy segment → (the 16-bit lookahead at every bit
    position, the segment's length in bits).

    Window ``8i + j`` is byte triple ``i`` shifted right by ``8 - j``.
    Bits past the segment read as zero, as T.81 decoders pad a short
    scan; the zero padding covers one block past ``end``, and the scans
    clamp the position to ``end`` before each block (every window from
    ``end`` on is zero)."""
    b = np.frombuffer(seg + bytes(_PAD_BYTES), dtype=np.uint8).astype(np.uint32)
    triples = (b[:-2] << 16) | (b[1:-1] << 8) | b[2:]
    win = (triples[:, None] >> _WINDOW_SHIFTS).astype(np.uint16)
    return memoryview(win.reshape(-1)), 8 * len(seg)


def _next_windows(seg_iter) -> tuple[memoryview, int]:
    try:
        return _bit_windows(next(seg_iter))
    except StopIteration as exc:
        raise JpegError("missing restart segment") from exc


def _extend(r: int, s: int) -> int:
    """``s`` received magnitude bits → signed value (T.81 F.2.2.1)."""
    return r - (1 << s) + 1 if r < (1 << (s - 1)) else r


def _dc_slow(win, p: int, tab: list[int], look: int) -> tuple[int, int]:
    """A DC symbol the fast table does not hold → (new position, diff)."""
    e = tab[look]
    if e < 256:
        raise JpegError("bad DC Huffman code")
    p += e >> 8
    s = e & 0xFF
    if not s:
        return p, 0
    if s > 16:  # T.81 allows 11 for 8-bit samples
        raise JpegError("bad DC magnitude category")
    return p + s, _extend(win[p] >> (16 - s), s)


def _ac_slow(p: int, tab: list[int], look: int) -> tuple[int, int]:
    """An AC symbol the fast table does not hold → (new position, RS)."""
    e = tab[look]
    if e < 256:
        raise JpegError("bad AC Huffman code")
    return p + (e >> 8), e & 0xFF


def _block_offsets(c, mcux: int = 0, n_mcus: int = 0) -> list:
    """Flat ``coef`` offsets of a component's blocks in scan order.

    Without ``mcux``: one offset per block, row-major over the
    component's own grid (a non-interleaved scan). With it: per MCU, the
    list of the component's blocks in that MCU (an interleaved scan)."""
    if not mcux:
        by, bx = np.divmod(np.arange(c["bw"] * c["bh"]), c["bw"])
        return ((by * c["row_blocks"] + bx) << 6).tolist()
    my, mx = np.divmod(np.arange(n_mcus)[:, None], mcux)
    v, u = np.divmod(np.arange(c["v"] * c["h"]), c["h"])
    return (((my * c["v"] + v) * c["row_blocks"] + mx * c["h"] + u) << 6).tolist()


# ----------------------------------------------------------- progressive


def _decode_progressive_scans(comps, scans, mcux, n_mcus):
    by_id = {c["id"]: c for c in comps}
    for scan in scans:
        ss, se = scan["Ss"], scan["Se"]
        ah, al = scan["Ah"], scan["Al"]
        segs = scan["segments"]
        restart = scan["restart"]
        sc_list = scan["comps"]
        if ss == 0:
            if se != 0:
                raise JpegError("progressive scan mixes DC and AC")
            _scan_dc(by_id, sc_list, segs, restart, ah, al, mcux, n_mcus)
        else:
            if len(sc_list) != 1:
                raise JpegError("progressive AC scans are single-component")
            c = by_id.get(sc_list[0]["id"])
            if c is None:
                raise JpegError("scan/frame component mismatch")
            lut = sc_list[0]["ac_lut"]  # snapshotted at SOS parse time
            if lut is None:
                raise JpegError("AC scan references an undefined Huffman table")
            if ah == 0:
                _scan_ac_first(c, lut, segs, restart, ss, se, al)
            else:
                _scan_ac_refine(c, lut, segs, restart, ss, se, al)


def _scan_dc(by_id, sc_list, segs, restart, ah, al, mcux, n_mcus):
    scs = []
    for sc in sc_list:
        c = by_id.get(sc["id"])
        if c is None:
            raise JpegError("scan/frame component mismatch")
        if ah == 0 and sc["dc_lut"] is None:
            raise JpegError("DC scan references an undefined Huffman table")
        scs.append((c, sc["dc_lut"] if ah == 0 else (None, None)))
    seg_iter = iter(segs)
    win, end = _bit_windows(next(seg_iter))
    p = 0
    preds = [0] * len(scs)
    if len(scs) > 1:  # interleaved: units are MCUs
        units = zip(*[_block_offsets(c, mcux, n_mcus) for c, _ in scs])
    else:  # units are the component's blocks
        units = (([o],) for o in _block_offsets(scs[0][0]))
    bit = 1 << al
    for unit, offs in enumerate(units):
        if restart and unit and unit % restart == 0:
            win, end = _next_windows(seg_iter)
            p = 0
            preds = [0] * len(scs)
        if p > end:
            p = end
        for ci, ((c, (tab, fast)), blocks) in enumerate(zip(scs, offs)):
            coef = c["coef"]
            for o in blocks:
                if ah:  # refinement: one more low-order bit
                    if win[p] >> 15:
                        coef[o] |= bit
                    p += 1
                    continue
                # first DC scan: diffs of DC >> Al (arithmetic shift)
                look = win[p]
                e = fast[look >> _FAST_SHIFT]
                if e is not None and e[1] < 2:
                    p += e[0]
                    diff = e[2]
                else:
                    p, diff = _dc_slow(win, p, tab, look)
                preds[ci] += diff
                coef[o] = preds[ci] << al


def _scan_ac_first(c, lut, segs, restart, ss, se, al):
    tab, fast = lut
    coef = c["coef"]
    seg_iter = iter(segs)
    win, end = _bit_windows(next(seg_iter))
    p = 0
    eobrun = 0
    for b, o in enumerate(_block_offsets(c)):
        if restart and b and b % restart == 0:
            win, end = _next_windows(seg_iter)
            p = 0
            eobrun = 0
        if eobrun > 0:
            eobrun -= 1
            continue
        if p > end:
            p = end
        k = o + ss - 1  # last flat position filled
        last = o + se
        while k < last:
            look = win[p]
            e = fast[look >> _FAST_SHIFT]
            if e is not None:
                n, adv, val = e
                p += n
                if val:
                    k += adv
                    if k > last:
                        raise JpegError("AC band overrun")
                    coef[k] = val << al
                elif adv:  # ZRL
                    k += 16
                else:  # EOB0: this block only
                    break
                continue
            p, rs = _ac_slow(p, tab, look)
            r, s = rs >> 4, rs & 0xF
            if s == 0:
                if r < 15:  # EOBn: run of (1<<r) + appended blocks
                    eobrun = (1 << r) - 1 + (win[p] >> (16 - r))
                    p += r
                    break
                k += 16  # ZRL
                continue
            k += r + 1
            if k > last:
                raise JpegError("AC band overrun")
            coef[k] = _extend(win[p] >> (16 - s), s) << al
            p += s


def _scan_ac_refine(c, lut, segs, restart, ss, se, al):
    # Each nonzero coefficient of the band that the scan passes reads one
    # correction bit; a new coefficient (magnitude 1) lands on the r-th
    # zero-history position.
    tab, fast = lut
    coef = c["coef"]
    p1 = 1 << al
    m1 = -p1
    seg_iter = iter(segs)
    win, end = _bit_windows(next(seg_iter))
    p = 0
    eobrun = 0
    for b, o in enumerate(_block_offsets(c)):
        if restart and b and b % restart == 0:
            win, end = _next_windows(seg_iter)
            p = 0
            eobrun = 0
        if p > end:
            p = end
        k = o + ss
        stop = o + se + 1
        if eobrun == 0:
            while k < stop:
                look = win[p]
                e = fast[look >> _FAST_SHIFT]
                if e is not None:
                    n, adv, val = e
                    p += n
                    if not adv:  # EOB0
                        eobrun = 1
                        break
                    if val > 1 or val < -1:
                        raise JpegError("invalid refinement magnitude")
                    r = adv - 1  # ZRL: r = 15, val = 0
                    newval = val * p1
                else:
                    p, rs = _ac_slow(p, tab, look)
                    r, s = rs >> 4, rs & 0xF
                    newval = 0
                    if s == 0:
                        if r < 15:  # EOBn
                            eobrun = (1 << r) + (win[p] >> (16 - r))
                            p += r
                            break
                        # ZRL: skip 16 zero-history coeffs
                    else:
                        if s != 1:
                            raise JpegError("invalid refinement magnitude")
                        newval = p1 if win[p] >> 15 else m1
                        p += 1
                # advance over the band: correction bits on nonzero
                # history, count down r zero-history positions
                while k < stop:
                    cur = coef[k]
                    if cur:
                        if win[p] >> 15 and not cur & p1:
                            coef[k] = cur + (p1 if cur > 0 else m1)
                        p += 1
                    else:
                        if r == 0:
                            if newval:
                                coef[k] = newval
                            k += 1
                            break
                        r -= 1
                    k += 1
        if eobrun > 0:
            # EOB region: one correction bit per nonzero coeff left
            for k, cur in enumerate(coef[k:stop], k):
                if cur:
                    if win[p] >> 15 and not cur & p1:
                        coef[k] = cur + (p1 if cur > 0 else m1)
                    p += 1
            eobrun -= 1
