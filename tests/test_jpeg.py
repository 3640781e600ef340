"""Baseline-JPEG codec tests.

The exactness test re-derives the expected pixels with an INDEPENDENT
scalar implementation (explicit cos-sum DCT loops, explicit color
formulas — no shared code with ``codecs/jpeg.py`` beyond the public
quant/zigzag constants of the ITU-T T.81 spec): for a 4:4:4 stream the
decoder must reproduce clip(round(color(IDCT(dequant(quant(DCT))))))
bit-for-bit. A decoder that mis-parses Huffman codes, mis-predicts DC,
mis-orders zigzag or mis-scales the IDCT cannot pass.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from pic2vec_ray.codecs import jpeg as jpeg_mod
from pic2vec_ray.codecs.jpeg import (
    _AC_LUMA_BITS,
    _AC_LUMA_VALS,
    _DC_LUMA_BITS,
    _DC_LUMA_VALS,
    _QT_LUMA,
    _QT_CHROMA,
    ZIGZAG,
    JpegError,
    _BitWriter,
    _canonical_codes,
    decode_jpeg,
    encode_jpeg,
)
from pic2vec_ray.functions.image_ops import psnr


def _smooth(h, w, seed=0):
    yy, xx = np.mgrid[0:h, 0:w]
    rng = np.random.default_rng(seed)
    base = np.stack([
        (xx * 255 // max(w - 1, 1)),
        (yy * 255 // max(h - 1, 1)),
        ((xx * 2 + yy * 3) % 256),
    ], axis=2)
    return (base + rng.integers(0, 8, size=(h, w, 3))).clip(0, 255).astype(np.uint8)


# ------------------------------------------------ independent scalar ref


def _ref_dct8(block):
    out = np.empty((8, 8))
    for k in range(8):
        for l in range(8):
            s = 0.0
            for n in range(8):
                for m in range(8):
                    s += block[n, m] * math.cos(math.pi * (2 * n + 1) * k / 16) \
                        * math.cos(math.pi * (2 * m + 1) * l / 16)
            ck = math.sqrt(0.125) if k == 0 else math.sqrt(0.25)
            cl = math.sqrt(0.125) if l == 0 else math.sqrt(0.25)
            out[k, l] = ck * cl * s
    return out


def _ref_idct8(coef):
    out = np.empty((8, 8))
    for n in range(8):
        for m in range(8):
            s = 0.0
            for k in range(8):
                for l in range(8):
                    ck = math.sqrt(0.125) if k == 0 else math.sqrt(0.25)
                    cl = math.sqrt(0.125) if l == 0 else math.sqrt(0.25)
                    s += ck * cl * coef[k, l] \
                        * math.cos(math.pi * (2 * n + 1) * k / 16) \
                        * math.cos(math.pi * (2 * m + 1) * l / 16)
            out[n, m] = s
    return out


def _scaled_qt_ref(base, quality):
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    return np.clip((base * scale + 50) // 100, 1, 255)


def _ref_roundtrip_444(img, quality):
    """Expected decode of our encoder's 4:4:4 output, scalar end to end."""
    h, w, _ = img.shape
    rgb = img.astype(np.float64)
    r, g, b = rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2]
    planes = [
        0.299 * r + 0.587 * g + 0.114 * b,
        -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0,
        0.5 * r - 0.418688 * g - 0.081312 * b + 128.0,
    ]
    qts = [_scaled_qt_ref(_QT_LUMA, quality).reshape(8, 8),
           _scaled_qt_ref(_QT_CHROMA, quality).reshape(8, 8)]
    rec = []
    for pi, plane in enumerate(planes):
        qt = qts[0 if pi == 0 else 1]
        out = np.empty_like(plane)
        for by in range(h // 8):
            for bx in range(w // 8):
                blk = plane[by * 8:(by + 1) * 8, bx * 8:(bx + 1) * 8] - 128.0
                q = np.round(_ref_dct8(blk) / qt)
                out[by * 8:(by + 1) * 8, bx * 8:(bx + 1) * 8] = \
                    _ref_idct8(q * qt) + 128.0
        rec.append(out)
    y, cb, cr = rec[0], rec[1] - 128.0, rec[2] - 128.0
    exp = np.stack([y + 1.402 * cr,
                    y - 0.344136 * cb - 0.714136 * cr,
                    y + 1.772 * cb], axis=2)
    return np.clip(np.round(exp), 0, 255).astype(np.uint8)


def test_decode_exact_vs_independent_reference():
    img = _smooth(16, 24, seed=3)
    for quality in (90, 60):
        got = decode_jpeg(encode_jpeg(img, quality=quality, subsampling="444"))
        exp = _ref_roundtrip_444(img, quality)
        assert np.array_equal(got, exp), f"mismatch at q{quality}"


def test_decode_exact_with_restart_markers():
    img = _smooth(24, 32, seed=5)
    plain = decode_jpeg(encode_jpeg(img, quality=80))
    restarted = decode_jpeg(encode_jpeg(img, quality=80, restart_interval=3))
    assert np.array_equal(plain, restarted)  # restarts change framing only


# -------------------------------------------------------- behavior tests


@pytest.mark.parametrize("shape", [(8, 8), (64, 64), (17, 23), (96, 112)])
def test_roundtrip_psnr_over_40db(shape):
    img = _smooth(*shape, seed=shape[0])
    out = decode_jpeg(encode_jpeg(img, quality=95))
    assert out.shape == img.shape
    assert psnr(out, img) > 40


def test_subsampled_roundtrip():
    img = _smooth(40, 56, seed=9)
    out = decode_jpeg(encode_jpeg(img, quality=90, subsampling="420"))
    assert out.shape == img.shape
    assert psnr(out, img) > 33  # chroma halved: lower but sane bar


def test_grayscale_roundtrip():
    yy, xx = np.mgrid[0:24, 0:16]
    g = ((xx * 16 + yy) % 256).astype(np.uint8)
    out = decode_jpeg(encode_jpeg(g, quality=95))
    assert out.shape == (24, 16, 1)
    assert psnr(out, g[:, :, None]) > 40


def test_arithmetic_and_hierarchical_rejected():
    img = _smooth(16, 16)
    for sof in (0xC9, 0xCA, 0xC3):  # arithmetic seq./prog., lossless
        enc = bytearray(encode_jpeg(img))
        idx = bytes(enc).find(b"\xff\xc0")
        enc[idx + 1] = sof
        with pytest.raises(JpegError, match="baseline and progressive"):
            decode_jpeg(bytes(enc))


def test_malformed_progressive_scan_rejected():
    """A baseline full-band scan relabeled SOF2 mixes DC+AC in one scan
    — illegal in progressive mode and must fail loudly, not desync."""
    img = _smooth(16, 16)
    enc = bytearray(encode_jpeg(img))
    idx = bytes(enc).find(b"\xff\xc0")
    enc[idx + 1] = 0xC2
    with pytest.raises(JpegError):
        decode_jpeg(bytes(enc))


@pytest.mark.parametrize("sub,shape,quality", [
    ("444", (33, 41), 75), ("420", (32, 32), 90), ("420", (17, 23), 50),
])
def test_progressive_decodes_bit_identical_to_baseline(sub, shape, quality):
    """The progressive script (SS+SA: DC first/refine, per-component AC
    first/refine with EOB runs and ZRL) transmits exactly the baseline
    coefficients — two completely different entropy layouts must decode
    to identical pixels."""
    rng = np.random.default_rng(shape[0])
    img = rng.integers(0, 256, (*shape, 3), dtype=np.uint8)
    base = decode_jpeg(encode_jpeg(img, quality=quality, subsampling=sub))
    prog = decode_jpeg(encode_jpeg(img, quality=quality, subsampling=sub,
                                   progressive=True))
    assert np.array_equal(base, prog)


@pytest.mark.parametrize("sub,shape,quality", [
    ("444", (33, 41), 75), ("420", (32, 32), 90),
])
def test_progressive_dht_redefined_between_scans(sub, shape, quality):
    """libjpeg's optimized progressive output emits a fresh DHT before
    each scan, REUSING slot ids 0/1 — the luma AC scan and the chroma
    AC scans see different tables behind the same slot. A decoder that
    resolves slots after parsing the whole stream decodes early scans
    with the LAST table definitions; the per-SOS LUT snapshot must
    yield pixels bit-identical to the all-tables-up-front encoding."""
    rng = np.random.default_rng(shape[1])
    img = rng.integers(0, 256, (*shape, 3), dtype=np.uint8)
    plain = encode_jpeg(img, quality=quality, subsampling=sub,
                        progressive=True)
    per_scan = encode_jpeg(img, quality=quality, subsampling=sub,
                           progressive=True, dht_per_scan=True)
    # the stream really does redefine tables mid-stream: DHT segments
    # must appear AFTER the first SOS
    first_sos = per_scan.find(b"\xff\xda")
    assert per_scan.find(b"\xff\xc4", first_sos) > first_sos
    assert per_scan.count(b"\xff\xc4") >= 3
    assert np.array_equal(decode_jpeg(per_scan), decode_jpeg(plain))


def test_scan_missing_huffman_table_rejected():
    """A scan whose SOS references a slot no DHT has defined yet must
    raise JpegError (missing-row semantics), not KeyError/garbage."""
    img = _smooth(16, 16)
    enc = bytearray(encode_jpeg(img, progressive=True, dht_per_scan=True))
    # drop the first DHT (appears before the first SOS) entirely
    idx = bytes(enc).find(b"\xff\xc4")
    (seglen,) = np.frombuffer(bytes(enc[idx + 2: idx + 4]), dtype=">u2")
    del enc[idx: idx + 2 + int(seglen)]
    with pytest.raises(JpegError):
        decode_jpeg(bytes(enc))


def test_progressive_grayscale_bit_identical():
    g = np.random.default_rng(9).integers(0, 256, (24, 16), dtype=np.uint8)
    assert np.array_equal(
        decode_jpeg(encode_jpeg(g, quality=80)),
        decode_jpeg(encode_jpeg(g, quality=80, progressive=True)))


def test_truncated_and_garbage_rejected():
    img = _smooth(16, 16)
    enc = encode_jpeg(img)
    with pytest.raises(JpegError):
        decode_jpeg(enc[:20])
    with pytest.raises((JpegError, Exception)):
        decode_jpeg(b"\xff\xd8" + b"\x13" * 64)


def test_zigzag_is_an_involution_pair():
    rng = np.random.default_rng(0)
    v = rng.integers(-100, 100, 64)
    from pic2vec_ray.codecs.jpeg import UNZIGZAG

    assert np.array_equal(v[ZIGZAG][UNZIGZAG], v)


# ------------------------------------------- pinned pixels and edge cases


def _digest(a: np.ndarray) -> str:
    return hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest()


def _scan_bounds(enc: bytes, n: int = 0) -> tuple[int, int]:
    """[start, end) of the entropy data of the ``n``-th scan (no restarts)."""
    sos = -1
    for _ in range(n + 1):
        sos = enc.find(b"\xff\xda", sos + 1)
    start = sos + 2 + int.from_bytes(enc[sos + 2:sos + 4], "big")
    end = start
    while not (enc[end] == 0xFF and enc[end + 1] != 0x00):
        end += 1
    return start, end


def _with_scan_data(enc: bytes, data: bytes, n: int = 0) -> bytes:
    start, end = _scan_bounds(enc, n)
    return enc[:start] + data + enc[end:]


# blake2b-128 of the decoded pixels, recorded with the decoder before its
# table-driven rewrite; shapes are (h, w, c)
_FIXTURE_PIXELS = {  # partkey → (progressive, shape, digest)
    2: (False, (128, 96, 3), "e4f36f1a1902c19c3f124264a126a846"),
    5: (True, (128, 80, 3), "4eaab821d38395e2c4badef7e6fbce2b"),
    8: (False, (128, 64, 3), "9defcf45e3b929a3136528887f2e12d3"),
    11: (False, (128, 112, 3), "bab3d00ec6ecf0b8695d7f15d974c0f2"),
    29: (False, (128, 80, 3), "f010942a512bdf6304f0321220a316ca"),
    56: (False, (128, 64, 3), "346b8ef7129a74052a41661efcee5f1a"),  # black
    65: (True, (128, 80, 3), "e54c9e8e665afc8560bb0fe82a902f09"),
    125: (True, (128, 80, 3), "caa41ed783e6b9a02a385fc409efb7d2"),
}


@pytest.mark.parametrize("partkey", sorted(_FIXTURE_PIXELS))
def test_fixture_jpeg_rows_decode_to_pinned_pixels(partkey):
    from pic2vec_ray.fixtures.synth import make_image_row

    progressive, shape, digest = _FIXTURE_PIXELS[partkey]
    row = make_image_row(partkey, "")
    assert row["fmt"] == "jpeg"
    assert (row["bytes"].find(b"\xff\xc2") >= 0) == progressive
    out = decode_jpeg(row["bytes"])
    assert out.shape == shape
    assert _digest(out) == digest


def _pinned_encoding(name: str) -> bytes:
    img = _smooth(40, 56, seed=9)
    noisy = np.random.default_rng(4).integers(0, 256, (33, 41, 3), dtype=np.uint8)
    return {
        "420": lambda: encode_jpeg(img, quality=75, subsampling="420"),
        "420_prog": lambda: encode_jpeg(img, quality=75, subsampling="420",
                                        progressive=True, dht_per_scan=True),
        "gray": lambda: encode_jpeg(img[:, :, 1], quality=80),
        "gray_prog": lambda: encode_jpeg(img[:, :, 1], quality=80, progressive=True),
        "restart": lambda: encode_jpeg(noisy, quality=70, restart_interval=3),
        "restart_420": lambda: encode_jpeg(noisy, quality=30, subsampling="420",
                                           restart_interval=1),
    }[name]()


@pytest.mark.parametrize("name,shape,digest", [
    ("420", (40, 56, 3), "4b7562fb00f702104556382859149b62"),
    ("420_prog", (40, 56, 3), "4b7562fb00f702104556382859149b62"),
    ("gray", (40, 56, 1), "d0872a21ba8a50340f12ce8c31394fd7"),
    ("gray_prog", (40, 56, 1), "d0872a21ba8a50340f12ce8c31394fd7"),
    ("restart", (33, 41, 3), "2e129dea5774a4ea8c2f73c571f09725"),
    ("restart_420", (33, 41, 3), "ce97da2cfb51268ede592435a4699fa4"),
])
def test_encoder_outputs_decode_to_pinned_pixels(name, shape, digest):
    out = decode_jpeg(_pinned_encoding(name))
    assert out.shape == shape
    assert _digest(out) == digest


@pytest.mark.parametrize("frac,rows,digest", [
    (0.5, 16, "c5558f8646157f10d91e00f212e0ddc2"),
    (0.8, 32, "427f9c06bd1181d64973dd7c76fa0b69"),
    (0.95, 40, "1c157eaf6f7e7fc3e1fe24ead2649a67"),
])
def test_truncated_scan_decodes_with_zero_bits(frac, rows, digest):
    """A scan cut short reads zero bits past its end: the full frame
    still decodes, its leading rows equal the full decode, and the
    rest is pinned."""
    enc = encode_jpeg(_smooth(48, 64, seed=1), quality=60)
    full = decode_jpeg(enc)
    start, end = _scan_bounds(enc)
    out = decode_jpeg(enc[:start + int(frac * (end - start))])
    assert out.shape == full.shape == (48, 64, 3)
    assert np.array_equal(out[:rows], full[:rows])
    assert _digest(out) == digest


def test_stream_cut_before_a_restart_marker_raises():
    enc = encode_jpeg(_smooth(48, 64), quality=60, restart_interval=2)
    with pytest.raises(JpegError, match="missing restart segment"):
        decode_jpeg(enc[:enc.find(b"\xff\xd3")])


_ONES = b"\xff\x00" * 16  # stuffed 0xFF bytes: no Annex-K code is all ones


def test_code_not_in_table_raises_baseline():
    enc = encode_jpeg(_smooth(16, 16))
    with pytest.raises(JpegError, match="bad DC Huffman code"):
        decode_jpeg(_with_scan_data(enc, _ONES))
    # '00' is luma DC category 0; the AC lookahead is then all ones
    with pytest.raises(JpegError, match="bad AC Huffman code"):
        decode_jpeg(_with_scan_data(enc, b"\x3f" + _ONES))


def test_code_not_in_table_raises_progressive():
    enc = encode_jpeg(_smooth(16, 16), progressive=True)
    with pytest.raises(JpegError, match="Huffman code"):
        decode_jpeg(_with_scan_data(enc, _ONES, n=0))  # DC first scan
    with pytest.raises(JpegError, match="Huffman code"):
        decode_jpeg(_with_scan_data(enc, _ONES, n=2))  # first AC scan


@pytest.mark.parametrize("symbols", [
    [0x11] * 32,  # short codes: run 1 size 1, the 32nd lands on index 64
    [0xF0] * 3 + [0xF1],  # long codes: 3 ZRL to index 49, then run 15
])
def test_run_past_index_63_raises(symbols):
    dc = _canonical_codes(_DC_LUMA_BITS, _DC_LUMA_VALS)
    ac = _canonical_codes(_AC_LUMA_BITS, _AC_LUMA_VALS)
    w = _BitWriter()
    w.write(*dc[0])
    for rs in symbols:
        w.write(*ac[rs])
        if rs & 0xF:
            w.write(1, rs & 0xF)
    w.flush()
    enc = encode_jpeg(np.full((8, 8), 128, dtype=np.uint8))
    with pytest.raises(JpegError, match="AC index overrun"):
        decode_jpeg(_with_scan_data(enc, bytes(w.out)))


def test_fast_table_agrees_with_packed_table():
    """Each fast entry is what the packed 16-bit table decodes: the code
    length plus magnitude bits, the advance and the signed value."""
    packed, fast = jpeg_mod._decode_lut(_AC_LUMA_BITS, _AC_LUMA_VALS)
    k = jpeg_mod._FAST_BITS
    assert len(fast) == 1 << k
    hits = 0
    for idx, entry in enumerate(fast):
        e = packed[idx << (16 - k)]
        length, rs = e >> 8, e & 0xFF
        size = rs & 0xF
        if entry is None:
            assert e == 0 or length + size > k
            continue
        hits += 1
        bits = (idx >> (k - length - size)) & ((1 << size) - 1)
        value = 0
        if size:
            value = bits if bits >> (size - 1) else bits - (1 << size) + 1
        advance = 0 if rs == 0x00 else 16 if rs == 0xF0 else (rs >> 4) + 1
        assert entry == (length + size, advance, value)
    assert hits > (1 << k) // 2


def test_table_cache_stays_bounded():
    """Streams that define more than 64 distinct Huffman tables leave at
    most 64 cached (packed, fast) table pairs, and still decode."""
    enc = encode_jpeg(_smooth(16, 16))
    plain = decode_jpeg(enc)
    for i in range(70):
        vals = _AC_LUMA_VALS[i:] + _AC_LUMA_VALS[:i]  # an unused slot-3 table
        dht = (b"\xff\xc4" + (19 + len(vals)).to_bytes(2, "big")
               + bytes([0x13]) + bytes(_AC_LUMA_BITS) + bytes(vals))
        assert np.array_equal(decode_jpeg(enc[:2] + dht + enc[2:]), plain)
    assert len(jpeg_mod._LUT_CACHE) <= 64
    for packed, fast in jpeg_mod._LUT_CACHE.values():
        assert len(packed) == 65536 and len(fast) == 1 << jpeg_mod._FAST_BITS


# ------------------------------------------------------ property tests


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=40),
    w=st.integers(min_value=1, max_value=40),
    quality=st.integers(min_value=5, max_value=100),
    sub=st.sampled_from(["444", "420"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_roundtrip_never_crashes_and_preserves_shape(h, w, quality, sub, seed):
    """Any size × quality × subsampling roundtrips to the exact input
    shape with in-range pixels — no crashes, no dimension drift."""
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    out = decode_jpeg(encode_jpeg(img, quality=quality, subsampling=sub))
    assert out.shape == (h, w, 3)
    assert out.dtype == np.uint8


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       ri=st.integers(min_value=1, max_value=7))
def test_restart_interval_is_pixel_invariant(seed, ri):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (24, 24, 3), dtype=np.uint8)
    plain = decode_jpeg(encode_jpeg(img, quality=70))
    restarted = decode_jpeg(encode_jpeg(img, quality=70, restart_interval=ri))
    assert np.array_equal(plain, restarted)


@settings(max_examples=20, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=40),
    w=st.integers(min_value=1, max_value=40),
    quality=st.integers(min_value=5, max_value=100),
    sub=st.sampled_from(["444", "420"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_progressive_equals_baseline_property(h, w, quality, sub, seed):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    base = decode_jpeg(encode_jpeg(img, quality=quality, subsampling=sub))
    prog = decode_jpeg(encode_jpeg(img, quality=quality, subsampling=sub,
                                   progressive=True))
    assert np.array_equal(base, prog)
