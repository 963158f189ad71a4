"""Hierarchical JPEG (T.81 Annex J, ``functions/jpeg_hier.py``):
DHP/EXP marker handling, per-frame sub-stream decode, the J.1.1.2
upsampling filter, the closed-loop pyramid encoder, and the decode
boundary (malformed → ValueError, declared seams →
NotImplementedError)."""

import zlib

import numpy as np
import pytest

from hierarchical_bloom_filter_index_ray.functions import jpeg_hier as jh
from hierarchical_bloom_filter_index_ray.functions.jpeg import (
    decode_jpeg, encode_jpeg_gray)


def _image(h, w, seed):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    img = ((yy * 3 + xx * 2) % 256).astype(np.float64)
    img += rng.normal(0, 10, size=(h, w))
    return np.clip(img, 0, 255).astype(np.uint8)


class TestExpand:
    def test_spec_interpolation(self):
        a = np.array([[0, 10], [20, 30]], dtype=np.int64)
        h = jh._expand(a, 1, 0)
        # out[2i] = in[i], out[2i+1] = (in[i]+in[i+1]+1)>>1, edge repl.
        assert h.tolist() == [[0, 5, 10, 10], [20, 25, 30, 30]]
        v = jh._expand(a, 0, 1)
        assert v.tolist() == [[0, 10], [10, 20], [20, 30], [20, 30]]
        b = jh._expand(a, 1, 1)
        assert b.shape == (4, 4)
        assert b[0, 0] == 0 and b[0, 2] == 10 and b[2, 0] == 20


class TestRoundTrip:
    @pytest.mark.parametrize("h,w,levels,quality", [
        (64, 64, 3, 90), (33, 47, 2, 85), (96, 72, 4, 75),
        (9, 100, 3, 90), (1, 1, 2, 90),
    ])
    def test_encode_decode(self, h, w, levels, quality):
        img = _image(h, w, zlib.crc32(f"{h}x{w}".encode()))
        p = jh.encode_jpeg_hier(img, quality=quality, levels=levels)
        assert jh.is_hierarchical(p)
        out = jh.decode_jpeg_hier(p)
        assert out.shape == (h, w) and out.dtype == np.uint8
        err = out.astype(float) - img.astype(float)
        psnr = 10 * np.log10(255**2 / max((err**2).mean(), 1e-9))
        assert psnr > 25.0

    def test_single_level_equals_sequential(self):
        # a 1-level hierarchical stream codes the same coefficients as
        # the plain SOF0 encoder: decoded pixels must be identical
        img = _image(40, 56, 3)
        hier = jh.decode_jpeg_hier(
            jh.encode_jpeg_hier(img, quality=88, levels=1))
        seq = decode_jpeg(encode_jpeg_gray(img, quality=88))
        assert np.array_equal(hier, seq)

    def test_deterministic(self):
        img = _image(48, 48, 9)
        p1 = jh.encode_jpeg_hier(img, quality=85, levels=3)
        p2 = jh.encode_jpeg_hier(img, quality=85, levels=3)
        assert p1 == p2
        assert np.array_equal(jh.decode_jpeg_hier(p1),
                              jh.decode_jpeg_hier(p2))

    def test_dispatches_through_decode_jpeg(self):
        img = _image(32, 32, 5)
        p = jh.encode_jpeg_hier(img, quality=90, levels=2)
        assert np.array_equal(decode_jpeg(p), jh.decode_jpeg_hier(p))

    def test_refinement_improves_over_base(self):
        # decoding only the base frame (truncate refinements, upsample
        # to full) must be WORSE than the full pyramid
        img = _image(64, 64, 11)
        p = jh.encode_jpeg_hier(img, quality=90, levels=3)
        full = jh.decode_jpeg_hier(p)
        # build a stream with just the base frame: cut at first EXP
        cut = p.find(b"\xff\xdf")
        base_only = p[:cut] + b"\xff\xd9"
        base = jh.decode_jpeg_hier(base_only)
        assert base.shape == img.shape        # upsampled to DHP dims
        e_full = ((full.astype(float) - img) ** 2).mean()
        e_base = ((base.astype(float) - img) ** 2).mean()
        assert e_full < e_base


class TestBoundary:
    def test_foreign_seam_markers(self):
        img = _image(16, 16, 1)
        p = bytearray(jh.encode_jpeg_hier(img, levels=2))
        i = p.find(b"\xff\xc5")
        p[i + 1] = 0xCD                        # arithmetic differential
        with pytest.raises(NotImplementedError):
            jh.decode_jpeg_hier(bytes(p))

    def test_differential_first_frame_rejected(self):
        img = _image(16, 16, 2)
        p = bytearray(jh.encode_jpeg_hier(img, levels=2))
        i = p.find(b"\xff\xc0")
        p[i + 1] = 0xC5
        with pytest.raises((ValueError, NotImplementedError)):
            jh.decode_jpeg_hier(bytes(p))

    def test_truncation_and_bitflips_never_crash(self):
        img = _image(40, 40, 4)
        p = jh.encode_jpeg_hier(img, quality=85, levels=3)
        rng = np.random.default_rng(zlib.crc32(b"hier-fuzz"))
        for cut in (3, 20, len(p) // 3, len(p) - 2):
            try:
                jh.decode_jpeg_hier(p[:cut])
            except (ValueError, NotImplementedError):
                pass
        for _ in range(60):
            mut = bytearray(p)
            for _ in range(int(rng.integers(1, 6))):
                mut[int(rng.integers(2, len(mut)))] = int(
                    rng.integers(0, 256))
            try:
                out = jh.decode_jpeg_hier(bytes(mut))
                assert out.dtype == np.uint8
            except (ValueError, NotImplementedError):
                pass


class TestLossless:
    """SOF3 base + SOF7 differential refinements (J.1.5, Ss=0 = no
    prediction, mod-2^16 adds): decode returns the input EXACTLY."""

    @pytest.mark.parametrize("h,w,levels", [
        (64, 64, 3), (33, 47, 2), (9, 100, 3), (1, 1, 2),
    ])
    def test_exact_round_trip(self, h, w, levels):
        img = _image(h, w, zlib.crc32(f"ll{h}x{w}".encode()))
        p = jh.encode_jpeg_hier(img, levels=levels, lossless=True)
        assert jh.is_hierarchical(p)
        assert np.array_equal(jh.decode_jpeg_hier(p), img)
        assert np.array_equal(decode_jpeg(p), img)

    def test_random_noise_exact(self):
        rng = np.random.default_rng(7)
        img = rng.integers(0, 256, (40, 40), np.uint8)
        p = jh.encode_jpeg_hier(img, levels=3, lossless=True)
        assert np.array_equal(jh.decode_jpeg_hier(p), img)

    def test_mixed_frames_rejected(self):
        # DCT base + lossless refinement (or vice versa) is malformed
        img = _image(32, 32, 4)
        p_dct = bytearray(jh.encode_jpeg_hier(img, levels=2))
        p_ll = jh.encode_jpeg_hier(img, levels=2, lossless=True)
        # graft the lossless refinement (from first EXP) onto DCT base
        cut_d = p_dct.index(b"\xff\xdf")
        cut_l = p_ll.index(b"\xff\xdf")
        frank = bytes(p_dct[:cut_d]) + p_ll[cut_l:]
        with pytest.raises((ValueError, NotImplementedError)):
            jh.decode_jpeg_hier(frank)

    def test_fuzz_lossless_stream(self):
        img = _image(32, 32, 8)
        p = jh.encode_jpeg_hier(img, levels=3, lossless=True)
        rng = np.random.default_rng(zlib.crc32(b"hier-ll-fuzz"))
        for _ in range(40):
            mut = bytearray(p)
            for _ in range(int(rng.integers(1, 6))):
                mut[int(rng.integers(2, len(mut)))] = int(
                    rng.integers(0, 256))
            try:
                out = jh.decode_jpeg_hier(bytes(mut))
                assert out.dtype == np.uint8
            except (ValueError, NotImplementedError):
                pass


class TestArithmeticPyramid:
    """SOF9 base + EXP/SOF13 QM-coded refinements (T.81 Annex J x
    Annex D/F structure, profile-tagged): pixel-identical to the
    Huffman pyramid, foreign/standalone forms stay declared seams."""

    @pytest.mark.parametrize("h,w,levels", [
        (64, 64, 3), (41, 53, 2), (8, 8, 1), (100, 37, 3),
    ])
    def test_matches_huffman_pyramid(self, h, w, levels):
        img = _image(h, w, zlib.crc32(f"ah{h}x{w}".encode()))
        ph = jh.encode_jpeg_hier(img, 85, levels=levels)
        pa = jh.encode_jpeg_hier(img, 85, levels=levels,
                                 arithmetic=True)
        assert jh.is_hierarchical(pa)
        da = jh.decode_jpeg_hier(pa)
        assert np.array_equal(da, jh.decode_jpeg_hier(ph))
        # magic dispatch routes DHP+tag streams to the hier decoder
        assert np.array_equal(decode_jpeg(pa), da)

    def test_usually_smaller_than_huffman(self):
        img = _image(96, 96, 11)
        ph = jh.encode_jpeg_hier(img, 85, levels=3)
        pa = jh.encode_jpeg_hier(img, 85, levels=3, arithmetic=True)
        assert len(pa) < len(ph)

    def test_foreign_untagged_is_declared_seam(self):
        img = _image(32, 32, 12)
        pa = bytearray(jh.encode_jpeg_hier(img, 85, levels=2,
                                           arithmetic=True))
        i = pa.index(b"\xff\xeb")                  # APP11 profile tag
        seg_len = int.from_bytes(pa[i + 2:i + 4], "big")
        del pa[i:i + 2 + seg_len]
        with pytest.raises(NotImplementedError):
            jh.decode_jpeg_hier(bytes(pa))

    def test_standalone_differential_rejected(self):
        from hierarchical_bloom_filter_index_ray.functions.jpeg_arith \
            import decode_jpeg_arith, encode_jpeg_arith
        img = _image(24, 24, 13)
        p = bytearray(encode_jpeg_arith(img, 85))
        p[p.index(b"\xff\xc9") + 1] = 0xCD         # SOF9 -> SOF13
        with pytest.raises(ValueError):
            decode_jpeg_arith(bytes(p))

    def test_lossless_arithmetic_is_declared_seam(self):
        img = _image(16, 16, 14)
        with pytest.raises(NotImplementedError):
            jh.encode_jpeg_hier(img, levels=2, lossless=True,
                                arithmetic=True)

    def test_fuzz_arith_pyramid(self, monkeypatch):
        # small pixel cap: a flipped u16 dimension otherwise buys
        # minutes of per-symbol QM decode (see test_codec_fuzz)
        from hierarchical_bloom_filter_index_ray.functions import codecs
        monkeypatch.setattr(codecs, "MAX_PIXELS", 1 << 16)
        img = _image(32, 32, 15)
        p = jh.encode_jpeg_hier(img, 85, levels=3, arithmetic=True)
        rng = np.random.default_rng(zlib.crc32(b"hier-arith-fuzz"))
        for _ in range(60):
            mut = bytearray(p)
            for _ in range(int(rng.integers(1, 6))):
                mut[int(rng.integers(2, len(mut)))] = int(
                    rng.integers(0, 256))
            try:
                out = jh.decode_jpeg_hier(bytes(mut))
                assert out.dtype == np.uint8
            except (ValueError, NotImplementedError):
                pass
        for cut in range(4, len(p), 97):
            try:
                jh.decode_jpeg_hier(p[:cut])
            except (ValueError, NotImplementedError):
                pass
