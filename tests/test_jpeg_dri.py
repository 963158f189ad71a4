"""Restart-interval (DRI/RSTn) JPEG: encoder support plus the lockstep
vectorized decoder (``_decode_seq_vec``, T.81 E.1.4 — restart intervals
are independent bitstreams, so they decode in numpy lockstep). The vec
path must be bit-identical to the scalar per-interval path on valid AND
malformed streams (same zero-padded reader semantics), and a DRI stream
must decode to exactly the pixels of the plain stream of the same
image (same coefficients, only predictor resets and markers differ)."""

import zlib

import numpy as np
import pytest

from hierarchical_bloom_filter_index_ray.functions import jpeg
from hierarchical_bloom_filter_index_ray.functions.jpeg import (
    decode_jpeg, encode_jpeg_color, encode_jpeg_gray)


def _both(payload):
    """(outcome, pixels) under the scalar and the vectorized decoder."""
    out = []
    default = jpeg.VEC_MIN_INTERVALS
    for threshold in (1 << 62, default):     # never / default lockstep
        jpeg.VEC_MIN_INTERVALS = threshold
        try:
            out.append(("ok", decode_jpeg(payload)))
        except (ValueError, NotImplementedError) as e:
            out.append((type(e).__name__, None))
        finally:
            jpeg.VEC_MIN_INTERVALS = default
    return out


def _agree(payload):
    (ka, va), (kb, vb) = _both(payload)
    assert ka == kb, (ka, kb)
    if va is not None:
        assert np.array_equal(va, vb)


class TestDriIdentity:
    def test_gray_vec_matches_scalar_and_plain(self):
        rng = np.random.default_rng(zlib.crc32(b"dri-gray"))
        for _ in range(4):
            h, w = (int(x) for x in rng.integers(40, 120, 2))
            img = rng.integers(0, 256, (h, w), np.uint8)
            plain = decode_jpeg(encode_jpeg_gray(img, quality=85))
            for rst in (1, 2, 7):
                p = encode_jpeg_gray(img, quality=85, restart_mcus=rst)
                (ka, a), (kb, b) = _both(p)
                assert ka == kb == "ok"
                assert np.array_equal(a, b)
                # DRI only resets predictors/markers; coefficients and
                # therefore pixels match the plain stream exactly
                assert np.array_equal(a, plain)

    @pytest.mark.parametrize("sub", ["444", "420"])
    def test_color_vec_matches_scalar_and_plain(self, sub):
        rng = np.random.default_rng(zlib.crc32(b"dri-color"))
        h, w = 80, 104
        img = rng.integers(0, 256, (h, w, 3), np.uint8)
        plain = decode_jpeg(encode_jpeg_color(img, quality=85,
                                              subsampling=sub))
        for rst in (1, 3):
            p = encode_jpeg_color(img, quality=85, subsampling=sub,
                                  restart_mcus=rst)
            (ka, a), (kb, b) = _both(p)
            assert ka == kb == "ok"
            assert np.array_equal(a, b)
            assert np.array_equal(a, plain)

    def test_odd_sizes_partial_last_interval(self):
        rng = np.random.default_rng(zlib.crc32(b"dri-odd"))
        for h, w in [(41, 47), (64, 9), (8, 200)]:
            img = rng.integers(0, 256, (h, w), np.uint8)
            for rst in (1, 3, 5):
                _agree(encode_jpeg_gray(img, quality=70,
                                        restart_mcus=rst))


class TestDriMalformedAgreement:
    """The vec decoder emulates the scalar reader's zero padding, so
    scalar and vec must agree (same outcome kind, same pixels when both
    succeed) even on truncated or bit-flipped streams."""

    def _payload(self):
        rng = np.random.default_rng(zlib.crc32(b"dri-fuzz"))
        img = rng.integers(0, 256, (48, 48), np.uint8)
        return encode_jpeg_gray(img, quality=85, restart_mcus=1)

    def test_truncations(self):
        p = self._payload()
        for frac in (0.35, 0.6, 0.9, 0.99):
            _agree(p[:int(len(p) * frac)])

    def test_bit_flips(self):
        p = self._payload()
        rng = np.random.default_rng(zlib.crc32(b"dri-flip"))
        for _ in range(24):
            i = int(rng.integers(0, len(p)))
            bit = 1 << int(rng.integers(0, 8))
            _agree(bytes(p[:i]) + bytes([p[i] ^ bit]) + bytes(p[i + 1:]))
