"""Decode-boundary fuzz: every media decoder, fed garbage bytes,
truncations of a valid stream, or single-bit flips, must raise
``ValueError`` or ``NotImplementedError`` — never ``struct.error``,
``IndexError``, ``zlib.error`` or an unbounded loop. The actor-pool
media stages run over untrusted crawl payloads; a stray exception type
there kills a whole Ray task batch instead of being handled as one
malformed row. Deterministic seeds keep this reproducible."""

import struct

import numpy as np
import pytest

from hierarchical_bloom_filter_index_ray.functions import (
    avi, flac, gif, jpeg, mp4, tiff, webm)
from hierarchical_bloom_filter_index_ray.functions import codecs

_OK = (ValueError, NotImplementedError)


@pytest.fixture(autouse=True, scope="module")
def _small_pixel_cap():
    """Tighten the decode-work cap for the whole fuzz module: every
    valid fixture here is <= 48x48, but one bit flip in a u16
    dimension field can otherwise claim a frame just under the default
    2^27-pixel cap — harmless memory-wise, yet minutes of per-symbol
    work in the pure-Python entropy decoders (arithmetic JPEG
    especially) multiplied by 1500 flips. The cap is the documented
    production bound (``codecs.MAX_PIXELS``) for exactly this; fuzzing
    under a small value exercises the same ValueError path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codecs, "MAX_PIXELS", 1 << 16)
        yield

_RNG = np.random.default_rng(12345)
_IMG = _RNG.integers(0, 256, (9, 11)).astype(np.uint8)
_PAL = _RNG.integers(0, 256, (16, 3)).astype(np.uint8)


def _empty_bmp(w: int, h: int) -> bytes:
    """A valid 4x4 BMP whose header then claims ``w`` x ``h``."""
    buf = bytearray(codecs.encode_bmp(np.zeros((4, 4), np.uint8)))
    buf[18:26] = struct.pack("<ii", w, h)
    return bytes(buf)

_CASES = {
    "png": (codecs.decode_png, b"\x89PNG\r\n\x1a\n",
            lambda: codecs.encode_png(_IMG)),
    "wav": (codecs.decode_wav, b"RIFF\x10\x00\x00\x00WAVE",
            lambda: codecs.encode_wav(
                _RNG.integers(-3000, 3000, (50, 1)).astype(np.int16),
                8000)),
    "bmp": (codecs.decode_bmp, b"BM",
            lambda: codecs.encode_bmp(_IMG)),
    "gif": (gif.decode_gif, b"GIF89a",
            lambda: gif.encode_gif(_IMG % 16, _PAL)),
    "jpeg": (jpeg.decode_jpeg, b"\xff\xd8",
             lambda: jpeg.encode_jpeg(_IMG)),
    "jpegll": (jpeg.decode_jpeg, b"\xff\xd8",
               lambda: jpeg.encode_jpeg_lossless(_IMG)),
    # >= 32 restart intervals: exercises the lockstep vectorized
    # entropy decoder (_decode_seq_vec) on malformed streams
    "jpegdri": (jpeg.decode_jpeg, b"\xff\xd8",
                lambda: jpeg.encode_jpeg_gray(
                    _RNG.integers(0, 256, (48, 48)).astype(np.uint8),
                    restart_mcus=1)),
    "jpegarith": (jpeg.decode_jpeg, b"\xff\xd8",
                  lambda: __import__(
                      "hierarchical_bloom_filter_index_ray.functions."
                      "jpeg_arith", fromlist=["x"]).encode_jpeg_arith(
                      _RNG.integers(0, 256, (24, 24)).astype(np.uint8),
                      restart_mcus=2)),
    "jpeghier": (jpeg.decode_jpeg, b"\xff\xd8",
                 lambda: __import__(
                     "hierarchical_bloom_filter_index_ray.functions."
                     "jpeg_hier", fromlist=["x"]).encode_jpeg_hier(
                     _RNG.integers(0, 256, (32, 32)).astype(np.uint8),
                     levels=3)),
    "jpeghierarith": (jpeg.decode_jpeg, b"\xff\xd8",
                      lambda: __import__(
                          "hierarchical_bloom_filter_index_ray."
                          "functions.jpeg_hier", fromlist=["x"]
                      ).encode_jpeg_hier(
                          _RNG.integers(0, 256, (32, 32)).astype(
                              np.uint8),
                          levels=3, arithmetic=True)),
    "mp4": (mp4.video_track, b"\x00\x00\x00\x18ftypisom",
            lambda: mp4.encode_mp4_video([b"fr1", b"fr2"],
                                         codec=b"jpeg",
                                         width=2, height=2)),
    "webm": (webm.video_track, b"\x1aE\xdf\xa3",
             lambda: webm.encode_webm_video([b"fr1", b"fr2"],
                                            width=2, height=2)),
    "avi": (avi.parse_avi, b"RIFF\x40\x00\x00\x00AVI ",
            lambda: avi.encode_avi_video([b"fr1", b"fr2"],
                                         width=2, height=2)),
    "flac": (flac.decode_flac, b"fLaC",
             lambda: flac.encode_flac(
                 (_RNG.integers(-3000, 3000, 600)).astype(np.int64),
                 8000, blocksize=256)),
    "tiff": (tiff.decode_tiff, b"II*\x00",
             lambda: tiff.encode_tiff(_IMG, compression="lzw")),
    "h264": (lambda p: __import__(
                 "hierarchical_bloom_filter_index_ray.functions.h264",
                 fromlist=["x"]).decode_h264(p),
             b"\x00\x00\x00\x01\x67",
             lambda: __import__(
                 "hierarchical_bloom_filter_index_ray.functions.h264",
                 fromlist=["x"]).encode_h264_ipcm(
                 _RNG.integers(0, 256, (2, 32, 32)).astype(np.uint8))),
}


def _seed(name: str) -> int:
    """Stable across processes (hash() is salted per run — an earlier
    revision used it and silently explored different inputs each run)."""
    import zlib as _z
    return _z.crc32(name.encode())


@pytest.mark.parametrize("name", sorted(_CASES))
def test_garbage_after_magic(name):
    fn, magic, _ = _CASES[name]
    rng = np.random.default_rng(_seed(name))
    for _ in range(2000):
        n = int(rng.integers(0, 120))
        payload = magic + rng.integers(0, 256, n,
                                       dtype=np.uint8).tobytes()
        try:
            fn(payload)
        except _OK:
            pass


@pytest.mark.parametrize("name", sorted(_CASES))
def test_truncations(name):
    fn, _, make = _CASES[name]
    v = make()
    for cut in range(1, len(v)):
        try:
            fn(v[:cut])
        except _OK:
            pass


@pytest.mark.parametrize("name", sorted(_CASES))
def test_bit_flips(name):
    fn, _, make = _CASES[name]
    v = make()
    rng = np.random.default_rng(_seed(name) + 1)
    for _ in range(1500):
        b = bytearray(v)
        i = int(rng.integers(0, len(b)))
        b[i] ^= 1 << int(rng.integers(0, 8))
        try:
            fn(bytes(b))
        except _OK:
            pass


class TestOnErrorPolicy:
    def test_skip_drops_bad_rows(self, ray_session):
        import ray
        from hierarchical_bloom_filter_index_ray.pipelines.multimodal \
            import extract_features
        good = codecs.encode_png(_IMG)
        rows = [
            {"media_id": 0, "payload": good, "media_type": "image/png"},
            {"media_id": 1, "payload": b"\xff\xd8garbage",
             "media_type": "image/jpeg"},
            {"media_id": 2, "payload": good, "media_type": "image/png"},
            {"media_id": 3, "payload": b"OggS unsupported",
             "media_type": "audio/ogg"},
            # empty / negative-width BMPs: no pixels to featurize
            *({"media_id": 10 + k, "payload": _empty_bmp(w, h),
               "media_type": "image/bmp"}
              for k, (w, h) in enumerate(((0, 4), (4, 0), (-4, 4)))),
        ]
        out = extract_features(ray.data.from_items(rows),
                               decoder="real", feature_dim=8,
                               concurrency=1, on_error="skip"
                               ).to_pandas()
        assert sorted(out["media_id"]) == [0, 2]

    def test_raise_is_default(self, ray_session):
        import ray
        from hierarchical_bloom_filter_index_ray.pipelines.multimodal \
            import extract_features
        rows = [{"media_id": 0, "payload": b"\xff\xd8garbage",
                 "media_type": "image/jpeg"}]
        with pytest.raises(Exception):
            extract_features(ray.data.from_items(rows), decoder="real",
                             feature_dim=8, concurrency=1).to_pandas()

    def test_bad_policy_rejected(self):
        from hierarchical_bloom_filter_index_ray.pipelines.multimodal \
            import MediaFeatureExtractor
        with pytest.raises(ValueError):
            MediaFeatureExtractor(on_error="ignore")


class TestAllocationBombs:
    """A malformed header must not make a tiny payload allocate
    gigabytes (one bad crawl row would OOM the whole Ray worker)."""

    def test_png_inflate_bounded_by_ihdr(self):
        """A 1x1 PNG whose IDAT inflates to 64 MiB must be rejected
        after inflating at most the raster size IHDR implies."""
        import tracemalloc
        import zlib
        z = zlib.compressobj(9)
        bomb = b"".join(z.compress(bytes(1 << 20)) for _ in range(64))
        bomb += z.flush()
        ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)
        buf = (codecs._PNG_SIG + codecs._chunk(b"IHDR", ihdr)
               + codecs._chunk(b"IDAT", bomb)
               + codecs._chunk(b"IEND", b""))
        assert len(buf) < 100_000
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="length mismatch"):
                codecs.decode_png(buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak          # bomb: 64 MiB

    def test_gif_huge_dimensions_tiny_data(self):
        buf = bytearray(b"GIF89a")
        buf += struct.pack("<HHBBB", 65535, 65535, 0x80, 0, 0)
        buf += bytes(6)                       # 2-colour GCT
        buf += b"\x2c" + struct.pack("<HHHHB", 0, 0, 65535, 65535, 0)
        buf += b"\x02\x02\x4c\x01\x00\x3b"    # 2-byte LZW stream
        with pytest.raises(ValueError):
            gif.decode_gif(bytes(buf))

    def test_gif_huge_screen_valid_tiny_frame(self):
        """The logical-screen descriptor alone must not size the
        compositing canvas: a ~40-byte GIF with one VALID 1x1 frame but
        a 65535x65535 screen claim would allocate ~12.9 GB."""
        pal = np.array([[0, 0, 0], [255, 255, 255]], np.uint8)
        buf = bytearray(gif.encode_gif(np.zeros((1, 1), np.uint8), pal))
        buf[6:10] = struct.pack("<HH", 65535, 65535)
        with pytest.raises(ValueError, match="cap"):
            gif.decode_gif(bytes(buf))

    def test_tiff_lzw_output_impossible_for_input(self):
        """A forged IFD's strip byte count must be rejected before the
        LZW loop grows the output toward it (~3600x max amplification)."""
        with pytest.raises(ValueError, match="impossible"):
            tiff._lzw_decode(b"\x00" * 1024, 1 << 31)
        with pytest.raises(ValueError, match="impossible"):
            tiff._packbits_decode(b"\x81\x00" * 512, 1 << 31)
        # sanity: legitimate ratios still decode
        row = bytes(range(64)) * 4
        assert tiff._lzw_decode(tiff._lzw_encode(row), len(row)) == row

    def test_mp4_zero_sample_track(self):
        """Spec-legal zero-sample track (empty stsz/stsc/stco, as
        written for metadata-only tracks) resolves to empty arrays —
        not IndexError (which would escape the on_error='skip' net)."""
        stbl = {"stsz": np.zeros(0, np.int64),
                "stco": np.zeros(0, np.int64),
                "stsc": np.zeros((0, 3), np.int64)}
        off, sz, t = mp4._resolve_samples(stbl)
        assert len(off) == len(sz) == len(t) == 0

    def test_container_recursion_guard(self):
        """A container whose sample bytes are themselves a container
        (offsets are arbitrary absolute ranges, so a crafted file can
        even cover itself) must fail with ValueError after ONE level,
        not recurse to RecursionError."""
        from hierarchical_bloom_filter_index_ray.pipelines.multimodal \
            import MediaFeatureExtractor
        inner = mp4.encode_mp4_video([b"frame"], codec=b"jpeg",
                                     width=1, height=1)
        outer = mp4.encode_mp4_video([inner, inner, inner],
                                     codec=b"jpeg", width=1, height=1)
        ext = MediaFeatureExtractor(decoder="real", feature_dim=8)
        with pytest.raises(ValueError, match="nested"):
            ext._real_features(outer)

    def test_png_adam7_huge_dimensions_tiny_data(self):
        import zlib
        ihdr = struct.pack(">IIBBBBB", 500_000, 500_000, 8, 0, 0, 0, 1)
        buf = (codecs._PNG_SIG + codecs._chunk(b"IHDR", ihdr)
               + codecs._chunk(b"IDAT", zlib.compress(b"\x00" * 64))
               + codecs._chunk(b"IEND", b""))
        with pytest.raises(ValueError):
            codecs.decode_png(buf)

    def test_jpeg_gigapixel_cap(self):
        img = np.zeros((8, 8), np.uint8)
        buf = bytearray(jpeg.encode_jpeg_gray(img))
        i = buf.index(b"\xff\xc0")
        # rewrite SOF dims to 60000x60000
        buf[i + 5:i + 9] = (60000).to_bytes(2, "big") * 2
        with pytest.raises(ValueError, match="MAX_PIXELS"):
            jpeg.decode_jpeg(bytes(buf))

    def test_skip_policy_on_resizer_and_sampler(self, ray_session):
        import ray
        from hierarchical_bloom_filter_index_ray.functions.webm \
            import encode_webm_video
        from hierarchical_bloom_filter_index_ray.pipelines.multimodal \
            import FrameSampler, ImageResizer
        good_img = codecs.encode_png(_IMG)
        rows = [
            {"media_id": 0, "payload": good_img,
             "media_type": "image/png", "width": 11, "height": 9},
            {"media_id": 1, "payload": b"\x89PNG\r\n\x1a\njunk",
             "media_type": "image/png", "width": 11, "height": 9},
        ]
        out = (ray.data.from_items(rows)
               .map_batches(ImageResizer, batch_format="pyarrow",
                            concurrency=1,
                            fn_constructor_kwargs={
                                "width": 4, "height": 4,
                                "decoder": "real", "on_error": "skip"})
               .to_pandas())
        assert out["media_id"].tolist() == [0]
        vid = encode_webm_video([b"f0", b"f1"], width=2, height=2)
        vrows = [{"media_id": 0, "payload": vid},
                 {"media_id": 1, "payload": b"OggS not a container"}]
        out = (ray.data.from_items(vrows)
               .map_batches(FrameSampler, batch_format="pyarrow",
                            concurrency=1,
                            fn_constructor_kwargs={
                                "n_frames": 2, "decoder": "real",
                                "on_error": "skip"})
               .to_pandas())
        assert sorted(out["media_id"].unique()) == [0]
