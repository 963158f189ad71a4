"""Multimodal column plumbing (build-brief requirement).

Images/audio/video are opaque ``binary`` columns with typed metadata.
Three decoder modes:

- ``decoder="pgm"`` — a REAL decode path for binary PGM (P5) images,
  parsed and resized in pure numpy (no codec library needed): actual
  pixels flow through decode -> feature-extract -> resize. The matching
  ``decoder="pgmv"`` on :class:`FrameSampler` splits a pgmv container
  (concatenated P5 frames) and uniformly samples real frames.
- ``decoder="fake"`` — deterministic stand-in features that exercise the
  Ray-side plumbing (schema, batch sizing, actor signature, layout).
- ``decoder="real"`` — REAL codecs from ``functions/`` (pure numpy +
  stdlib zlib/struct), dispatched by payload magic bytes: PNG, GIF,
  BMP, TIFF and the JPEG family for images; RIFF/WAVE, FLAC, MP3 and
  Ogg-Vorbis for audio; MP4/WebM/AVI demux (the middle keyframe's
  sample is decoded again through this dispatch, so Motion-JPEG and
  avc1 tracks decode end-to-end) and the Annex B H.264 I_PCM lane.
  P5 payloads fall through to the PGM path. H.264 predicted-MB,
  VP9/AV1 and Opus sample decode remain a declared
  ``NotImplementedError`` seam (README media matrix).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from ..state.splitmix import hash_u64


# ----------------------------------------------------- PGM (P5) codec ----
def _parse_pgm_header(payload: bytes, start: int = 0
                      ) -> tuple[int, int, int]:
    """Parse a binary PGM (P5) header at ``start``. Header grammar:
    b"P5" <ws> width <ws> height <ws> maxval <single ws>. Returns
    ``(width, height, raster_offset)``."""
    if payload[start:start + 2] != b"P5":
        raise ValueError("not a binary PGM (P5) payload")
    fields: list[int] = []
    i = start + 2
    while len(fields) < 3:
        while i < len(payload) and payload[i:i + 1].isspace():
            i += 1
        if payload[i:i + 1] == b"#":          # comment line
            i = payload.index(b"\n", i) + 1
            continue
        j = i
        while j < len(payload) and not payload[j:j + 1].isspace():
            j += 1
        fields.append(int(payload[i:j]))
        i = j
    i += 1  # single whitespace before raster
    w, h, maxval = fields
    if maxval > 255:
        raise ValueError("16-bit PGM not supported")
    return w, h, i


def decode_pgm(payload: bytes) -> np.ndarray:
    """Binary PGM (P5) -> (h, w) uint8 array, pure numpy."""
    w, h, off = _parse_pgm_header(payload)
    raster = np.frombuffer(payload, dtype=np.uint8, count=w * h, offset=off)
    return raster.reshape(h, w)


def split_pgmv_frames(payload: bytes) -> list[bytes]:
    """Split a ``pgmv`` container (back-to-back binary PGM frames; each
    frame is self-delimiting — the header declares the raster length)
    into per-frame PGM byte strings."""
    frames: list[bytes] = []
    pos = 0
    while pos < len(payload):
        w, h, off = _parse_pgm_header(payload, pos)
        end = off + w * h
        frames.append(payload[pos:end])
        pos = end
    return frames


def encode_pgm(img: np.ndarray) -> bytes:
    """(h, w) uint8 -> binary PGM (P5) bytes."""
    h, w = img.shape
    return b"P5\n%d %d\n255\n" % (w, h) + img.astype(np.uint8).tobytes()


def resize_nearest(img: np.ndarray, width: int, height: int) -> np.ndarray:
    """Nearest-neighbor resize via index gathers (pure numpy)."""
    h, w = img.shape
    rows = np.minimum((np.arange(height) * h) // height, h - 1)
    cols = np.minimum((np.arange(width) * w) // width, w - 1)
    return img[rows[:, None], cols[None, :]]


def pgm_features(img: np.ndarray, feature_dim: int) -> np.ndarray:
    """Real image features: an 8-bin intensity histogram (density) plus
    coarse row/column mean pools, truncated/padded to ``feature_dim``."""
    hist = np.bincount(img.reshape(-1) >> 5, minlength=8) / img.size
    n_pool = max(1, (feature_dim - 8) // 2)
    row_pool = np.array_split(img.mean(axis=1) / 255.0, n_pool)
    col_pool = np.array_split(img.mean(axis=0) / 255.0, n_pool)
    feats = np.concatenate([hist,
                            [p.mean() for p in row_pool],
                            [p.mean() for p in col_pool]])
    out = np.zeros(feature_dim, dtype=np.float32)
    out[:min(feature_dim, len(feats))] = feats[:feature_dim]
    return out

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("payload", pa.binary()),       # opaque encoded bytes
    ("media_type", pa.string()),    # "image/png" | "audio/wav" | ...
    ("width", pa.int32()),          # typed metadata (nullable)
    ("height", pa.int32()),
])


def _container_module(payload: bytes):
    """Magic-byte dispatch to the video-container demuxer whose API this
    payload speaks (all three modules expose ``video_track`` /
    ``extract_sample`` over the same track shape), or ``None``."""
    from ..functions import avi, mp4, webm
    if mp4.is_mp4(payload):
        return mp4
    if webm.is_webm(payload):
        return webm
    if avi.is_avi(payload):
        return avi
    return None


class MediaFeatureExtractor:
    """Actor-pool stage: decode + featurize binary media payloads.

    Real deployments load the codec/model once per actor here
    (``__init__``); per-batch work is batched decode + feature extraction.
    ``feature_dim`` floats per item are emitted as ``list<float>``.
    """

    def __init__(self, *, decoder: str = "real", feature_dim: int = 16,
                 seed: int = 42, on_error: str = "raise"):
        self.decoder = decoder
        self.feature_dim = feature_dim
        self.seed = seed
        if decoder not in ("fake", "pgm", "real"):
            raise ValueError(f"unknown decoder {decoder!r}")
        if on_error not in ("raise", "skip"):
            raise ValueError(f"unknown on_error policy {on_error!r}")
        # "skip" drops rows whose payload fails to decode (malformed or
        # unsupported format) instead of failing the whole batch task —
        # the right default posture over crawl corpora, opt-in here so
        # tests and curated corpora keep loud failures
        self.on_error = on_error

    def _real_features(self, payload: bytes,
                       depth: int = 0) -> np.ndarray:
        """Dispatch on payload magic bytes: PNG, GIF, BMP, WAV, FLAC,
        JPEG (baseline, extended 12-bit, progressive, lossless,
        profile-tagged arithmetic, hierarchical incl. arithmetic
        pyramid) and P5 decode through the pure-numpy codecs; MP4,
        Matroska/WebM and AVI demux to their middle keyframe; Annex B
        H.264 and avc1-in-MP4 decode through the I_PCM lane. What
        remains of the codec seam: predicted-MB H.264 (CAVLC/CABAC),
        VP9/AV1 tile decode and Opus (their structural layers —
        ``h264.py``, ``vp9av1.py``, ``ogg.py`` — are real)."""
        from ..functions.codecs import decode_bmp, decode_png, \
            decode_wav, is_bmp, wav_features
        from ..functions.gif import decode_gif_first, is_gif
        if payload[:8] == b"\x89PNG\r\n\x1a\n":
            img = decode_png(payload)
            if img.ndim == 3:          # luma approximation for features
                img = img.mean(axis=2).astype(np.uint8)
            return pgm_features(img, self.feature_dim)
        if is_gif(payload):
            img = decode_gif_first(payload).mean(axis=2).astype(np.uint8)
            return pgm_features(img, self.feature_dim)
        if is_bmp(payload):
            img = decode_bmp(payload)
            if img.ndim == 3:
                img = img.mean(axis=2).astype(np.uint8)
            return pgm_features(img, self.feature_dim)
        if payload[:4] in (b"II*\x00", b"MM\x00*"):
            from ..functions.tiff import decode_tiff
            img = decode_tiff(payload)
            if img.ndim == 3:
                img = img[:, :, :3].mean(axis=2).astype(np.uint8)
            return pgm_features(img, self.feature_dim)
        if payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
            samples, rate = decode_wav(payload)
            return wav_features(samples, rate, self.feature_dim)
        if payload[:4] == b"fLaC":
            from ..functions.flac import decode_flac
            samples, rate = decode_flac(payload)
            # wav_features keys its peak off the dtype: FLAC decodes to
            # int32 but carries 16-bit PCM here, so narrow when it fits
            if samples.min() >= -32768 and samples.max() < 32768:
                samples = samples.astype(np.int16)
            return wav_features(samples, rate, self.feature_dim)
        if payload[:2] == b"\xff\xd8":
            from ..functions.jpeg import decode_jpeg
            img = decode_jpeg(payload)
            if img.ndim == 3:          # luma approximation for features
                img = img.mean(axis=2)
            if img.dtype != np.uint8:  # 12/16-bit stream: features run
                # in 8-bit space — shift so the brightest sample fits
                shift = max(0, int(img.max()).bit_length() - 8)
                img = (img.astype(np.int64) >> shift)
            return pgm_features(img.astype(np.uint8), self.feature_dim)
        if payload[:2] == b"P5":
            return pgm_features(decode_pgm(payload), self.feature_dim)
        from ..functions.mp3 import is_mp3
        if is_mp3(payload):
            from ..functions.mp3dec import decode_mp3_samples, \
                is_profile_mp3
            if is_profile_mp3(payload):
                # full Layer III decode (functions/mp3dec.py): the
                # profile marker says the stream's Huffman codes are
                # the profile's, so sample decode is exact
                samples, srate = decode_mp3_samples(payload)
                return wav_features(samples, srate, self.feature_dim)
            # foreign stream: its ISO Table B.7 Huffman codes are the
            # one spec blob unverifiable in this sandbox — the DSP
            # chain is real (mp3dec), the code tables are the seam
            raise NotImplementedError(
                "MP3 sample decode for foreign streams needs the ISO "
                "Huffman tables loaded into an Mp3Profile — the full "
                "decode chain (mp3dec) and the structural layer "
                "(mp3_info/parse_frames/extract_frames) are implemented")
        from ..functions.ogg import is_ogg
        if is_ogg(payload):
            # full from-scratch Vorbis I decode (functions/vorbis.py);
            # Opus remains the declared seam (normative RFC 6716
            # codebooks) and raises NotImplementedError inside
            from ..functions.ogg import decode_ogg
            samples, srate = decode_ogg(payload)
            # Vorbis decodes to float ±1; wav_features keys its peak
            # off integer dtypes — quantize to 16-bit PCM
            s16 = np.clip(samples * 32767.0, -32768, 32767) \
                .astype(np.int16)
            return wav_features(s16, srate, self.feature_dim)
        mod = _container_module(payload)
        if mod is not None:
            if depth > 0:
                # sample byte ranges in mp4/webm/avi are arbitrary
                # absolute offsets — a crafted container whose middle
                # sample covers the file itself would otherwise recurse
                # until RecursionError (which escapes on_error="skip")
                raise ValueError(
                    "container sample is itself a container — refusing "
                    "nested demux")
            # thumbnail features: the middle keyframe of the video
            # track; an audio-only WebM falls through to its A_VORBIS
            # track (full Vorbis decode, functions/webm.py)
            try:
                trk = mod.video_track(payload)
            except ValueError:
                from ..functions import webm as _webm
                if mod is _webm:
                    samples, srate = _webm.decode_webm_audio(payload)
                    s16 = np.clip(samples * 32767.0, -32768, 32767) \
                        .astype(np.int16)
                    return wav_features(s16, srate, self.feature_dim)
                raise
            mid = trk.sync_at_or_before(trk.n_samples // 2)
            sample = mod.extract_sample(payload, trk, mid)
            if getattr(trk, "codec", None) in ("avc1", "avc3"):
                # length-prefixed AVC sample: convert to a
                # self-contained Annex B unit and run the I_PCM lane
                from ..functions.h264 import mp4_h264_sample_annexb
                sample = mp4_h264_sample_annexb(payload, mid)
            return self._real_features(sample, depth=depth + 1)
        from ..functions.h264 import is_annexb
        if is_annexb(payload):
            # I_PCM sample lane (h264.py): exact decode for all-PCM
            # streams; predicted/CAVLC/CABAC macroblocks raise the
            # declared seam error inside
            from ..functions.h264 import decode_h264
            frames = decode_h264(payload)
            mid_f = frames[len(frames) // 2]
            img = mid_f.mean(axis=2).astype(np.uint8) \
                if mid_f.ndim == 3 else mid_f
            return pgm_features(img, self.feature_dim)
        raise NotImplementedError(
            "payload is not PNG/GIF/BMP/TIFF/WAV/FLAC/PGM/JPEG/MP3/"
            "Ogg/MP4/WebM/AVI/AnnexB-H.264 — H.264 predicted-MB, "
            "VP9/AV1 and Opus sample decode are the declared codec "
            "seam (README media matrix; structural layers in "
            "h264.py / vp9av1.py / ogg.py)")

    def _fake_decode(self, payloads: list[bytes]) -> np.ndarray:
        """Deterministic stand-in: features = seeded hash-mix of payload
        bytes, shaped like a real embedding batch."""
        out = np.empty((len(payloads), self.feature_dim), dtype=np.float32)
        for i, p in enumerate(payloads):
            base = np.frombuffer(p, dtype=np.uint8)
            acc = np.uint64(len(p))
            h = hash_u64(
                np.resize(base.astype(np.uint64), self.feature_dim)
                + np.arange(self.feature_dim, dtype=np.uint64),
                self.seed) if len(base) else np.zeros(self.feature_dim,
                                                      dtype=np.uint64)
            out[i] = (h >> np.uint64(40)).astype(np.float32) / float(1 << 24)
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        if self.decoder == "pgm":
            decode = lambda p: pgm_features(decode_pgm(p),  # noqa: E731
                                            self.feature_dim)
        elif self.decoder == "real":
            decode = self._real_features
        else:
            decode = None
        if decode is not None:
            rows = []
            keep = np.ones(len(payloads), dtype=bool)
            for i, p in enumerate(payloads):
                try:
                    rows.append(decode(p))
                except (ValueError, NotImplementedError):
                    if self.on_error == "raise":
                        raise
                    keep[i] = False
            if not keep.all():
                batch = batch.filter(pa.array(keep))
                payloads = [p for p, k in zip(payloads, keep) if k]
            feats = np.stack(rows) if rows else np.empty(
                (0, self.feature_dim), np.float32)
        else:
            feats = self._fake_decode(payloads)
        offsets = np.arange(0, (len(payloads) + 1) * self.feature_dim,
                            self.feature_dim, dtype=np.int32)
        return pa.table({
            "media_id": batch["media_id"],
            "media_type": batch["media_type"],
            "n_bytes": pa.array([len(p) for p in payloads], pa.int64()),
            "features": pa.ListArray.from_arrays(
                pa.array(offsets), pa.array(feats.reshape(-1), pa.float32())),
        })


def extract_features(ds: "rd.Dataset", *, decoder: str = "fake",
                     feature_dim: int = 16, seed: int = 42,
                     batch_size: int = 64, concurrency: int = 2,
                     on_error: str = "raise") -> "rd.Dataset":
    """Media featurization pipeline. Small ``batch_size`` by design: large
    binary payloads x concurrency must fit the worker heap.
    ``on_error="skip"`` drops undecodable rows instead of failing the
    task (crawl-corpus posture)."""
    return ds.map_batches(
        MediaFeatureExtractor, batch_format="pyarrow",
        batch_size=batch_size, concurrency=concurrency,
        fn_constructor_kwargs={"decoder": decoder,
                               "feature_dim": feature_dim, "seed": seed,
                               "on_error": on_error})


class ImageResizer:
    """Actor-pool resize stage. ``decoder="pgm"`` REALLY decodes,
    resizes (nearest-neighbor, pure numpy) and re-encodes each payload;
    ``decoder="real"`` dispatches on magic bytes and resizes PNG, PGM,
    BMP, JPEG, GIF (all frames, index-plane resize — palette
    preserved, no re-quantization) and TIFF, re-encoding each in its
    own format; ``decoder="fake"`` rewrites only the typed metadata
    (plumbing drill)."""

    def __init__(self, *, width: int, height: int,
                 decoder: str = "real", on_error: str = "raise"):
        if decoder not in ("fake", "pgm", "real"):
            raise ValueError(f"unknown decoder {decoder!r}")
        if on_error not in ("raise", "skip"):
            raise ValueError(f"unknown on_error policy {on_error!r}")
        self.decoder = decoder
        self.on_error = on_error
        self.width, self.height = width, height

    def _resize_any(self, img: np.ndarray) -> np.ndarray:
        if img.ndim == 2:
            return resize_nearest(img, self.width, self.height)
        return np.stack([resize_nearest(img[:, :, c], self.width,
                                        self.height)
                         for c in range(img.shape[2])], axis=2)

    def _resize_payload(self, p: bytes) -> bytes:
        """Magic-byte dispatch: resize and re-encode IN the payload's
        own format (GIF resizes the palette-index planes directly, so
        no re-quantization; JPEG re-encodes baseline at q92 — the one
        necessarily lossy hop)."""
        from ..functions.codecs import decode_bmp, decode_png, \
            encode_bmp, encode_png, is_bmp
        if p[:8] == b"\x89PNG\r\n\x1a\n":
            img = decode_png(p)
            if img.dtype != np.uint8:        # 16-bit: keep 8-bit out
                img = (img >> 8).astype(np.uint8)
            return encode_png(self._resize_any(img))
        if p[:2] == b"P5":
            return encode_pgm(resize_nearest(decode_pgm(p), self.width,
                                             self.height))
        if is_bmp(p):
            return encode_bmp(self._resize_any(decode_bmp(p)))
        if p[:2] == b"\xff\xd8":
            from ..functions.jpeg import decode_jpeg, encode_jpeg
            img = decode_jpeg(p)
            if img.dtype != np.uint8:
                img = (img.astype(np.int64)
                       >> max(0, int(img.max()).bit_length() - 8)
                       ).astype(np.uint8)
            if img.ndim == 3 and img.shape[2] != 3:
                img = img.mean(axis=2).astype(np.uint8)
            return encode_jpeg(self._resize_any(img), quality=92)
        from ..functions.gif import encode_gif, is_gif, parse_gif
        if is_gif(p):
            g = parse_gif(p)
            f0 = g["frames"][0]
            if any(f["left"] or f["top"]
                   or f["index"].shape != f0["index"].shape
                   or f["palette"] is not f0["palette"]
                   and not np.array_equal(f["palette"], f0["palette"])
                   for f in g["frames"]):
                raise NotImplementedError(
                    "resize of offset-composited / per-frame-palette "
                    "GIFs (decode via decode_gif and re-encode instead)")
            # transparency survives an index-plane resize, but only a
            # single uniform index can be re-encoded (encode_gif writes
            # one GCE transparent index), and disposal 2/3 semantics
            # under transparency cannot be preserved (encode_gif writes
            # disposal 0); full-frame opaque frames make disposal moot
            transp = f0["transparent"]
            if any(f["transparent"] != transp for f in g["frames"]):
                raise NotImplementedError(
                    "resize of GIFs with per-frame transparent indices")
            if transp is not None and any(f["disposal"] not in (0, 1)
                                          for f in g["frames"]):
                raise NotImplementedError(
                    "resize of transparent GIFs with restore-to-"
                    "background/previous disposal")
            frames = [resize_nearest(f["index"], self.width,
                                     self.height)
                      for f in g["frames"]]
            return encode_gif(frames, f0["palette"], delays_cs=[
                f["delay_cs"] for f in g["frames"]], loop=g["loop"],
                transparent=transp)
        from ..functions.tiff import decode_tiff, encode_tiff, is_tiff
        if is_tiff(p):
            img = decode_tiff(p)
            if img.ndim == 3 and img.shape[2] == 4:
                img = img[:, :, :3]
            return encode_tiff(self._resize_any(img),
                               compression="lzw")
        raise NotImplementedError(
            "resize: payload is not PNG/PGM/BMP/JPEG/GIF/TIFF")

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.decoder == "real":
            payloads = []
            keep = np.ones(batch.num_rows, dtype=bool)
            for i, p in enumerate(batch["payload"].to_pylist()):
                try:
                    payloads.append(self._resize_payload(p))
                except (ValueError, NotImplementedError):
                    if self.on_error == "raise":
                        raise
                    keep[i] = False
            if not keep.all():
                batch = batch.filter(pa.array(keep))
            batch = batch.set_column(
                batch.schema.get_field_index("payload"), "payload",
                pa.array(payloads, pa.binary()))
        elif self.decoder == "pgm":
            payloads = [
                encode_pgm(resize_nearest(decode_pgm(p), self.width,
                                          self.height))
                for p in batch["payload"].to_pylist()]
            batch = batch.set_column(
                batch.schema.get_field_index("payload"), "payload",
                pa.array(payloads, pa.binary()))
        n = batch.num_rows
        for name, v in (("width", self.width), ("height", self.height)):
            col = pa.array([v] * n, pa.int32())
            i = batch.schema.get_field_index(name)
            # arbitrary corpora (e.g. the media CLI's raw-file reader)
            # may not carry typed dims — append instead of set
            batch = (batch.set_column(i, name, col) if i >= 0
                     else batch.append_column(name, col))
        return batch


class FrameSampler:
    """Video frame-sampling stage (flat_map-shaped: one output row per
    sampled frame). ``decoder="real"`` demuxes REAL containers: MP4
    (ISO-BMFF sample tables via ``functions/mp4.py``), Matroska/WebM
    (EBML clusters via ``functions/webm.py`` — keyframe flags from
    SimpleBlock / ReferenceBlock), AVI (RIFF movi chunks + idx1
    keyframe flags via ``functions/avi.py``), animated GIF (composited
    frames re-encoded as PNG payloads) and the pgmv concatenation —
    evenly-spaced sample indices, optionally snapped to the nearest
    preceding sync sample (true keyframe seek); each sampled frame's
    own payload is emitted (Motion-JPEG tracks then decode through
    ``functions/jpeg.py`` downstream; ``avc1`` tracks are emitted as
    self-contained Annex B units that decode through the H.264 I_PCM
    lane). ``decoder="pgmv"`` accepts only pgmv; ``decoder="fake"``
    replicates the opaque payload per frame (plumbing drill). Sample
    DECODE of predicted-MB H.264 and VP9/AV1 tracks stays the declared
    seam — demux/seek/extract here is codec-independent (README media
    matrix)."""

    def __init__(self, *, n_frames: int, decoder: str = "real",
                 snap_to_sync: bool = False, on_error: str = "raise"):
        if decoder not in ("fake", "pgmv", "real"):
            raise ValueError(f"unknown decoder {decoder!r}")
        if on_error not in ("raise", "skip"):
            raise ValueError(f"unknown on_error policy {on_error!r}")
        self.decoder = decoder
        self.n_frames = n_frames
        self.snap_to_sync = snap_to_sync
        self.on_error = on_error

    def _split(self, p: bytes) -> tuple[np.ndarray, list[bytes]]:
        """One container -> (sampled source indices, frame payloads)."""
        mod = _container_module(p) if self.decoder == "real" else None
        k = self.n_frames
        if mod is not None:
            trk = mod.video_track(p)
            total = trk.n_samples
            kk = min(k, total)
            idx = (np.arange(kk) * total) // max(1, kk)
            if self.snap_to_sync:
                idx = np.unique([trk.sync_at_or_before(int(i))
                                 for i in idx]).astype(np.int64)
            if getattr(trk, "codec", None) in ("avc1", "avc3"):
                # emit self-contained Annex B units (parameter sets
                # prepended) so each sampled frame decodes standalone
                # through the I_PCM lane
                from ..functions.h264 import mp4_h264_sample_annexb
                return idx, [mp4_h264_sample_annexb(p, int(i))
                             for i in idx]
            return idx, [mod.extract_sample(p, trk, int(i)) for i in idx]
        if self.decoder == "real":
            from ..functions.gif import is_gif
            if is_gif(p):
                # animated GIF: composited frames re-encoded as PNG
                # (every composited frame is independently decodable,
                # so snap_to_sync is the identity here)
                from ..functions.codecs import encode_png
                from ..functions.gif import decode_gif
                frames, _ = decode_gif(p)
                total = len(frames)
                kk = min(k, total)
                idx = (np.arange(kk) * total) // max(1, kk)
                return idx, [encode_png(frames[int(i)]) for i in idx]
        if self.decoder == "real" and p[:2] != b"P5":
            raise NotImplementedError(
                "payload is not ISO-BMFF (mp4), Matroska/WebM, AVI, "
                "GIF or pgmv (README media matrix)")
        frames = split_pgmv_frames(p)
        total = len(frames)
        kk = min(k, total)
        # evenly-spaced source indices, same gather rule as resize
        idx = (np.arange(kk) * total) // max(1, kk)
        return idx, [frames[i] for i in idx]

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.decoder in ("pgmv", "real"):
            ids: list[int] = []
            frame_no: list[int] = []
            payloads: list[bytes] = []
            for mid, p in zip(batch["media_id"].to_pylist(),
                              batch["payload"].to_pylist()):
                try:
                    idx, frames = self._split(p)
                except (ValueError, NotImplementedError):
                    if self.on_error == "raise":
                        raise
                    continue            # skip: drop the whole container
                ids.extend([mid] * len(frames))
                frame_no.extend(int(i) for i in idx)
                payloads.extend(frames)
            return pa.table({
                "media_id": pa.array(ids, pa.int64()),
                "frame_no": pa.array(frame_no, pa.int32()),
                "payload": pa.array(payloads, pa.binary()),
            })
        n = batch.num_rows
        rep = np.repeat(np.arange(n), self.n_frames)
        frame_no = np.tile(np.arange(self.n_frames, dtype=np.int32), n)
        return pa.table({
            "media_id": batch["media_id"].take(pa.array(rep)),
            "frame_no": pa.array(frame_no, pa.int32()),
            "payload": batch["payload"].take(pa.array(rep)),
        })


def synth_frame(i: int, frame: int, *, seed: int, width: int, height: int
                ) -> np.ndarray:
    """Deterministic (h, w) uint8 test image: horizontal gradient +
    per-(item, frame) hash noise."""
    yy, xx = np.mgrid[0:height, 0:width]
    noise = (hash_u64(
        (yy * width + xx).reshape(-1).astype(np.uint64)
        + np.uint64((int(i) << 20) + (frame << 10)), seed) & np.uint64(63)
    ).astype(np.uint8).reshape(height, width)
    return ((xx * 191 // max(1, width - 1)) + noise).astype(np.uint8)


def synth_media(n: int, *, seed: int = 42, kind: str = "fake",
                width: int = 16, height: int = 16,
                frames: int = 8) -> "rd.Dataset":
    """Deterministic media table for tests. ``kind="fake"`` -> opaque
    seeded bytes; every other kind emits REAL payloads through the
    from-scratch codecs: ``pgm``/``png``/``bmp``/``tiff``/``gif``
    (animated, 256-grey palette)/``jpeg``/``jpeg_rgb``/``jpeg_ll``/
    ``jpeg_arith`` (arithmetic SOF9)
    (lossless) images, ``wav``/``flac``/``mp3``/``ogg`` (Ogg-Vorbis)
    audio tones, and ``pgmv``/``mp4``/``webm``/``avi`` Motion-JPEG
    videos (``frames`` per item, keyframe every 4)."""
    def gen(batch: dict) -> pa.Table:
        from ..functions.codecs import encode_png, encode_wav
        from ..functions.jpeg import encode_jpeg_color, encode_jpeg_gray
        ids = np.asarray(batch["id"], dtype=np.int64)
        payloads = []
        for i in ids:
            if kind == "pgm":
                payloads.append(encode_pgm(synth_frame(
                    i, 0, seed=seed, width=width, height=height)))
            elif kind == "png":
                payloads.append(encode_png(synth_frame(
                    i, 0, seed=seed, width=width, height=height)))
            elif kind == "jpeg":
                payloads.append(encode_jpeg_gray(synth_frame(
                    i, 0, seed=seed, width=width, height=height),
                    quality=92))
            elif kind == "jpeg_dri":
                # restart interval per MCU: every entropy segment is
                # independent -> the lockstep vectorized decode path
                payloads.append(encode_jpeg_gray(synth_frame(
                    i, 0, seed=seed, width=width, height=height),
                    quality=92, restart_mcus=1))
            elif kind == "jpeg_rgb":
                # NB: don't name this `frames` — it would shadow the
                # enclosing parameter the pgmv branch reads
                rgb = np.stack([synth_frame(
                    i, f, seed=seed, width=width, height=height)
                    for f in range(3)], axis=2)
                payloads.append(encode_jpeg_color(rgb, quality=92,
                                                  subsampling="420"))
            elif kind == "wav":
                t = np.arange(width * height, dtype=np.float64)
                tone = np.sin(2 * np.pi * (220 + 11 * (int(i) % 8))
                              * t / 8000.0)
                payloads.append(encode_wav(
                    (tone * 20000).astype(np.int16), 8000))
            elif kind == "pgmv":
                payloads.append(b"".join(
                    encode_pgm(synth_frame(i, f, seed=seed, width=width,
                                           height=height))
                    for f in range(frames)))
            elif kind == "mp4":
                # Motion-JPEG in MP4: every sample independently
                # decodable by the from-scratch JPEG codec
                from ..functions.mp4 import encode_mp4_video
                payloads.append(encode_mp4_video(
                    [encode_jpeg_gray(synth_frame(
                        i, f, seed=seed, width=width, height=height),
                        quality=92) for f in range(frames)],
                    codec=b"jpeg", width=width, height=height,
                    sync_every=4))
            elif kind == "webm":
                # Motion-JPEG in Matroska: same frames, EBML container
                from ..functions.webm import encode_webm_video
                payloads.append(encode_webm_video(
                    [encode_jpeg_gray(synth_frame(
                        i, f, seed=seed, width=width, height=height),
                        quality=92) for f in range(frames)],
                    codec="V_MJPEG", width=width, height=height,
                    sync_every=4))
            elif kind == "avi":
                # Motion-JPEG in AVI: same frames, RIFF container
                from ..functions.avi import encode_avi_video
                payloads.append(encode_avi_video(
                    [encode_jpeg_gray(synth_frame(
                        i, f, seed=seed, width=width, height=height),
                        quality=92) for f in range(frames)],
                    codec="MJPG", width=width, height=height,
                    sync_every=4))
            elif kind == "gif":
                # animated GIF over a 256-grey identity palette: the
                # composited frames decode to the synth frames exactly
                from ..functions.gif import encode_gif
                pal = np.repeat(np.arange(256, dtype=np.uint8),
                                3).reshape(256, 3)
                payloads.append(encode_gif(
                    [synth_frame(i, f, seed=seed, width=width,
                                 height=height) for f in range(frames)],
                    pal, delays_cs=[4] * frames))
            elif kind == "bmp":
                from ..functions.codecs import encode_bmp
                payloads.append(encode_bmp(synth_frame(
                    i, 0, seed=seed, width=width, height=height)))
            elif kind == "tiff":
                from ..functions.tiff import encode_tiff
                payloads.append(encode_tiff(synth_frame(
                    i, 0, seed=seed, width=width, height=height),
                    compression="lzw"))
            elif kind == "jpeg_ll":
                from ..functions.jpeg import encode_jpeg_lossless
                payloads.append(encode_jpeg_lossless(synth_frame(
                    i, 0, seed=seed, width=width, height=height)))
            elif kind == "jpeg_arith":
                # profile-tagged arithmetic SOF9 (functions/jpeg_arith):
                # QM-family entropy layer over the same DCT/quant
                from ..functions.jpeg_arith import encode_jpeg_arith
                payloads.append(encode_jpeg_arith(synth_frame(
                    i, 0, seed=seed, width=width, height=height),
                    quality=92, restart_mcus=2))
            elif kind == "jpeg_hier":
                # hierarchical pyramid (T.81 Annex J): SOF0 base +
                # EXP/SOF5 differential refinements
                from ..functions.jpeg_hier import encode_jpeg_hier
                payloads.append(encode_jpeg_hier(synth_frame(
                    i, 0, seed=seed, width=width, height=height),
                    quality=92, levels=3))
            elif kind == "h264":
                # Annex B all-IDR I_PCM stream (functions/h264.py):
                # spec-valid, exact sample lane through the entropy seam
                from ..functions.h264 import encode_h264_ipcm
                fr = np.stack([synth_frame(i, k, seed=seed, width=width,
                                           height=height)
                               for k in range(frames)])
                payloads.append(encode_h264_ipcm(fr))
            elif kind == "jpeg_hier_arith":
                # arithmetic pyramid: SOF9 base + EXP/SOF13 QM-coded
                # refinements (profile-tagged)
                from ..functions.jpeg_hier import encode_jpeg_hier
                payloads.append(encode_jpeg_hier(synth_frame(
                    i, 0, seed=seed, width=width, height=height),
                    quality=92, levels=3, arithmetic=True))
            elif kind == "flac":
                from ..functions.flac import encode_flac
                t = np.arange(width * height, dtype=np.float64)
                tone = np.sin(2 * np.pi * (220 + 11 * (int(i) % 8))
                              * t / 8000.0)
                payloads.append(encode_flac(
                    (tone * 20000).astype(np.int64), 8000,
                    blocksize=192))
            elif kind == "mp3":
                # profile-tagged Layer III stream (functions/mp3dec):
                # real reservoir bitstream + hybrid/polyphase DSP
                from ..functions.mp3dec import encode_mp3
                t = np.arange(width * height, dtype=np.float64)
                tone = np.sin(2 * np.pi * (220 + 11 * (int(i) % 8))
                              * t / 32000.0)
                payloads.append(encode_mp3(
                    (tone * 20000).astype(np.int16), 32000,
                    bitrate=64, reservoir=True, tag=True))
            elif kind == "ogg":
                # Ogg-Vorbis: full from-scratch MDCT codec round trip
                # (functions/vorbis.py), RFC 3533 pages
                from ..functions.ogg import encode_ogg_vorbis
                t = np.arange(width * height, dtype=np.float64)
                tone = 0.5 * np.sin(2 * np.pi * (220 + 11 * (int(i) % 8))
                                    * t / 8000.0)
                payloads.append(encode_ogg_vorbis(tone, 8000))
            else:
                payloads.append(bytes((
                    hash_u64(np.arange(64, dtype=np.uint64)
                             + np.uint64(i), seed) & np.uint64(255)
                ).astype(np.uint8).tolist()))
        mt = {"pgm": "image/x-portable-graymap", "jpeg": "image/jpeg",
              "jpeg_dri": "image/jpeg",
              "jpeg_rgb": "image/jpeg", "jpeg_ll": "image/jpeg",
              "jpeg_arith": "image/jpeg", "jpeg_hier": "image/jpeg",
              "jpeg_hier_arith": "image/jpeg",
              "h264": "video/h264",
              "mp4": "video/mp4", "webm": "video/webm",
              "avi": "video/x-msvideo", "gif": "image/gif",
              "bmp": "image/bmp", "tiff": "image/tiff",
              "flac": "audio/flac", "mp3": "audio/mpeg",
              "ogg": "audio/ogg",
              "pgmv": "video/x-pgm-frames",
              "png": "image/png",
              "wav": "audio/wav"}.get(kind, "image/fake")
        return pa.table({
            "media_id": pa.array(ids),
            "payload": pa.array(payloads, pa.binary()),
            "media_type": pa.array([mt] * len(ids), pa.string()),
            "width": pa.array([width] * len(ids), pa.int32()),
            "height": pa.array([height] * len(ids), pa.int32()),
        })
    return rd.range(n).map_batches(gen, batch_format="numpy")
