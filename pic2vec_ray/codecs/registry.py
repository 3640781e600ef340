"""Image codec dispatch.

The reference whitelists JPEG/BMP/PNG by probing content with PIL
(``/root/reference/pic2vec/feature_preprocessing.py:118`` uses
``Image.open(...).format``); we mirror that by sniffing magic bytes, not
trusting the ``fmt`` column or extensions.

All three whitelisted formats decode with from-scratch pure-numpy
codecs (no image library exists in this environment): PNG (zlib +
filters), BMP, and baseline-sequential and progressive JPEG
(``codecs/jpeg.py`` — Huffman + dequant + IDCT). Other JPEG processes
(12-bit, arithmetic, lossless, hierarchical) raise, and the decode stage
maps any failure to the reference's missing-image semantics (zero
tensor + ``missing=True``, mirroring the silent zero-fill at
``/root/reference/pic2vec/feature_preprocessing.py:318-323``).
"""

from __future__ import annotations

import numpy as np

from .bmp import decode_bmp
from .jpeg import decode_jpeg
from .png import decode_png

VALID_FORMATS = ("png", "jpeg", "bmp")  # mirror of the reference whitelist


class DecodeError(ValueError):
    pass


class UnsupportedFormatError(DecodeError):
    pass


def sniff_format(data: bytes) -> str | None:
    """Identify the image format from magic bytes (content, not metadata)."""
    if len(data) < 8:
        return None
    if data[:8] == b"\x89PNG\r\n\x1a\n":
        return "png"
    if data[:2] == b"BM":
        return "bmp"
    if data[:3] == b"\xff\xd8\xff":
        return "jpeg"
    if data[:6] in (b"GIF87a", b"GIF89a"):
        return "gif"
    return None


_DECODERS = {
    "png": decode_png,
    "bmp": decode_bmp,
    "jpeg": decode_jpeg,
}


def decode_image(data: bytes) -> np.ndarray:
    """Decode image bytes → (H, W, C) uint8. Raises DecodeError on failure.

    Formats outside the whitelist (e.g. GIF, mirroring the reference's
    rejected ``heidegger.gif`` fixture) raise UnsupportedFormatError.
    """
    if not data:
        raise DecodeError("empty bytes")
    fmt = sniff_format(bytes(data[:8]))
    if fmt is None or fmt not in VALID_FORMATS:
        raise UnsupportedFormatError(f"format {fmt!r} not in whitelist {VALID_FORMATS}")
    try:
        return _DECODERS[fmt](bytes(data))
    except DecodeError:
        raise
    except Exception as exc:  # corrupt payload → decode failure, never a crash
        raise DecodeError(f"{fmt} decode failed: {exc}") from exc
