"""Pure-numpy GIF codec (GIF87a/GIF89a — the most common animated /
palette image format in web-crawl corpora).

Spec: the GIF89a specification (CompuServe, 1990). Decode covers the
full stills + animation feature set: logical screen descriptor, global
and local colour tables, variable-width LSB-first LZW with deferred
clear codes (dictionary pinned at 4096), interlaced images (the four
8/8/4/2 row passes), graphic-control extensions (frame delays,
transparency index, disposal methods 0-3 including restore-to-previous)
and multi-frame compositing onto the logical screen. Encode writes a
GIF89a with a real LZW compressor (hash-dict, emits clear codes on
dictionary overflow), one global colour table, and optional per-frame
delays — exact round-trip for palette-faithful input.

Like the sibling codecs (``jpeg.py``, ``codecs.py``), the entropy layer
is an inherently serial per-code Python loop; it runs inside actor-pool
``map_batches`` stages (one image per row, parallel across the
dataset), never on the driver.
"""

from __future__ import annotations

import struct

import numpy as np

from . import codecs

_INTERLACE_PASSES = ((0, 8), (4, 8), (2, 4), (1, 2))


def is_gif(payload: bytes) -> bool:
    return payload[:6] in (b"GIF87a", b"GIF89a")


def _sub_blocks(buf: bytes, pos: int) -> tuple[bytes, int]:
    """Concatenate a GIF data sub-block sequence starting at ``pos``;
    returns (data, position after the 0x00 terminator)."""
    out = bytearray()
    while True:
        if pos >= len(buf):
            raise ValueError("truncated GIF sub-blocks")
        n = buf[pos]
        pos += 1
        if n == 0:
            return bytes(out), pos
        out += buf[pos:pos + n]
        if len(buf) < pos + n:
            raise ValueError("truncated GIF sub-block")
        pos += n


def _lzw_decode(data: bytes, min_code: int, n_pixels: int) -> np.ndarray:
    """GIF variable-width LZW: LSB-first bit packing, clear/EOI codes,
    dictionary growth to 4096 then deferred-clear behaviour."""
    if not 2 <= min_code <= 11:
        raise ValueError(f"bad LZW minimum code size {min_code}")
    # LZW emits at most one dictionary chain (< 4096 bytes) per coded
    # symbol (>= 3 bits), so output is bounded by ~11000x the input —
    # reject impossible claims BEFORE allocating the pixel array (a
    # malformed descriptor can otherwise demand gigabytes for a
    # 100-byte stream)
    if n_pixels > len(data) * (4096 // 3) * 8 + 4096:
        raise ValueError("GIF image size impossible for its LZW data")
    clear = 1 << min_code
    eoi = clear + 1
    # dictionary as immutable-prefix chains: (prefix index, tail byte)
    prefix = np.full(4096, -1, dtype=np.int32)
    tail = np.zeros(4096, dtype=np.uint8)
    tail[:clear] = np.arange(clear)
    first = np.zeros(4096, dtype=np.uint8)     # first byte of each chain
    first[:clear] = np.arange(clear)
    length = np.ones(4096, dtype=np.int32)
    out = np.zeros(n_pixels, dtype=np.uint8)
    no = 0
    width = min_code + 1
    next_code = eoi + 1
    prev = -1
    acc = 0
    nacc = 0
    di = 0
    nd = len(data)
    while True:
        while nacc < width:
            if di >= nd:
                # some writers omit EOI; stop at data end
                return out[:no] if no < n_pixels else out
            acc |= data[di] << nacc
            nacc += 8
            di += 1
        code = acc & ((1 << width) - 1)
        acc >>= width
        nacc -= width
        if code == clear:
            next_code = eoi + 1
            width = min_code + 1
            prev = -1
            continue
        if code == eoi:
            return out
        if code < next_code and (code < clear or code >= eoi + 1):
            cur = code
        elif code == next_code and prev >= 0:
            cur = -2                            # KwKwK case
        else:
            raise ValueError("corrupt LZW code stream")
        if cur == -2:
            emit_len = length[prev] + 1
            emit_first = first[prev]
        else:
            emit_len = length[cur]
            emit_first = first[cur]
        # register the new chain BEFORE emission so the KwKwK entry
        # exists; dictionary pins at 4096 (deferred clear)
        if prev >= 0 and next_code < 4096:
            prefix[next_code] = prev
            tail[next_code] = emit_first
            first[next_code] = first[prev]
            length[next_code] = length[prev] + 1
            next_code += 1
            if next_code == (1 << width) and width < 12:
                width += 1
        if cur == -2:
            cur = next_code - 1
        # walk the chain backwards into the output slice
        ln = int(length[cur])
        end = min(no + ln, n_pixels)
        c = cur
        for k in range(ln - 1, -1, -1):
            if no + k < n_pixels:
                out[no + k] = tail[c]
            c = prefix[c]
        no = end
        if no >= n_pixels:
            return out
        prev = cur


def _deinterlace(idx: np.ndarray, h: int, w: int) -> np.ndarray:
    img = np.empty((h, w), dtype=np.uint8)
    src = 0
    for start, step in _INTERLACE_PASSES:
        rows = range(start, h, step)
        n = len(rows)
        img[start::step] = idx[src:src + n * w].reshape(n, w)
        src += n * w
    return img


def parse_gif(payload: bytes) -> dict:
    """Parse a GIF into its logical screen and per-frame records:
    ``{"width", "height", "bg", "frames": [{"index" (h,w) uint8,
    "palette" (n,3) uint8, "left", "top", "transparent" (or None),
    "delay_cs", "disposal"}], "loop"}`` — indices pre-deinterlaced."""
    if not is_gif(payload):
        raise ValueError("not a GIF (missing GIF87a/GIF89a signature)")
    if len(payload) < 14:
        raise ValueError("truncated GIF header")
    w, h, flags, bg, _ = struct.unpack("<HHBBB", payload[6:13])
    pos = 13
    gct = None
    if flags & 0x80:
        n = 2 << (flags & 7)
        gct = np.frombuffer(payload[pos:pos + 3 * n],
                            dtype=np.uint8).reshape(n, 3).copy()
        pos += 3 * n
    frames = []
    transparent = None
    delay_cs = 0
    disposal = 0
    loop = None
    while pos < len(payload):
        b = payload[pos]
        pos += 1
        if b == 0x3B:                           # trailer
            break
        if b == 0x21:                           # extension
            if pos >= len(payload):
                raise ValueError("truncated GIF extension")
            label = payload[pos]
            pos += 1
            data, pos = _sub_blocks(payload, pos)
            if label == 0xF9 and len(data) >= 4:   # graphic control
                gflags, delay_cs, tidx = struct.unpack("<BHB", data[:4])
                disposal = (gflags >> 2) & 7
                transparent = tidx if gflags & 1 else None
            elif label == 0xFF and data[:11] == b"NETSCAPE2.0" \
                    and len(data) >= 14:
                loop = struct.unpack("<H", data[12:14])[0]
            continue
        if b != 0x2C:
            raise ValueError(f"unknown GIF block 0x{b:02X}")
        if pos + 10 > len(payload):
            raise ValueError("truncated GIF image descriptor")
        il, it, iw, ih, iflags = struct.unpack("<HHHHB",
                                               payload[pos:pos + 9])
        pos += 9
        pal = gct
        if iflags & 0x80:                       # local colour table
            n = 2 << (iflags & 7)
            pal = np.frombuffer(payload[pos:pos + 3 * n],
                                dtype=np.uint8).reshape(n, 3).copy()
            pos += 3 * n
        if pal is None:
            raise ValueError("GIF image without any colour table")
        if pos >= len(payload):
            raise ValueError("truncated GIF image data")
        min_code = payload[pos]
        pos += 1
        data, pos = _sub_blocks(payload, pos)
        idx = _lzw_decode(data, min_code, iw * ih)
        if len(idx) < iw * ih:                  # tolerate short streams
            idx = np.pad(idx, (0, iw * ih - len(idx)))
        if iflags & 0x40:
            index = _deinterlace(idx, ih, iw)
        else:
            index = idx.reshape(ih, iw)
        if int(index.max(initial=0)) >= len(pal):
            raise ValueError("GIF pixel index outside the colour table")
        frames.append({"index": index, "palette": pal, "left": il,
                       "top": it, "transparent": transparent,
                       "delay_cs": delay_cs, "disposal": disposal})
        transparent = None
        delay_cs = 0
        disposal = 0
    if not frames:
        raise ValueError("GIF contains no image data")
    return {"width": w, "height": h, "bg": bg, "frames": frames,
            "loop": loop}


def decode_gif(payload: bytes) -> tuple[np.ndarray, list[int]]:
    """Decode ALL frames composited onto the logical screen per the
    GIF89a disposal model. Returns ``((n, h, w, 3) uint8 RGB frames,
    per-frame delays in centiseconds)``."""
    g = parse_gif(payload)
    h, w = g["height"], g["width"]
    # The logical-screen descriptor is two unvalidated u16s: a ~35-byte
    # GIF claiming a 65535x65535 screen would allocate ~12.9 GB for the
    # canvas (x n_frames for the output stack) even though its one
    # frame is LZW-bounded. Cap composited pixels like jpeg.py caps
    # frame pixels (codecs.MAX_PIXELS), BEFORE any allocation, so the
    # failure is a ValueError the on_error="skip" net catches.
    max_px = codecs.MAX_PIXELS
    if h * w > max_px or len(g["frames"]) * h * w > max_px:
        raise ValueError(
            f"GIF screen {w}x{h} x {len(g['frames'])} frames exceeds "
            f"the MAX_PIXELS cap ({max_px})")
    canvas = np.zeros((h, w, 3), dtype=np.uint8)
    first = g["frames"][0]
    if first["palette"] is not None and g["bg"] < len(first["palette"]):
        canvas[:] = first["palette"][g["bg"]]
    out = []
    delays = []
    for f in g["frames"]:
        before = canvas.copy() if f["disposal"] == 3 else None
        y0, x0 = f["top"], f["left"]
        ih, iw = f["index"].shape
        y1, x1 = min(h, y0 + ih), min(w, x0 + iw)
        idx = f["index"][:y1 - y0, :x1 - x0]
        rgb = f["palette"][idx]
        region = canvas[y0:y1, x0:x1]
        if f["transparent"] is not None:
            mask = (idx != f["transparent"])[:, :, None]
            region[:] = np.where(mask, rgb, region)
        else:
            region[:] = rgb
        out.append(canvas.copy())
        delays.append(f["delay_cs"])
        if f["disposal"] == 2:                  # restore to background
            canvas[y0:y1, x0:x1] = (
                first["palette"][g["bg"]]
                if g["bg"] < len(first["palette"]) else 0)
        elif f["disposal"] == 3 and before is not None:
            canvas = before
    return np.stack(out), delays


def decode_gif_first(payload: bytes) -> np.ndarray:
    """First composited frame as (h, w, 3) uint8 RGB."""
    frames, _ = decode_gif(payload)
    return frames[0]


def _lzw_encode(idx: np.ndarray, min_code: int) -> bytes:
    """Real LZW compression (dict of byte-chains via a python dict of
    (prefix, byte) -> code), clear code on overflow."""
    clear = 1 << min_code
    eoi = clear + 1
    acc = 0
    nacc = 0
    out = bytearray()

    def put(code: int, width: int):
        nonlocal acc, nacc
        acc |= code << nacc
        nacc += width
        while nacc >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nacc -= 8

    table: dict[tuple[int, int], int] = {}
    next_code = eoi + 1
    width = min_code + 1
    put(clear, width)
    prev = -1
    for v in idx.reshape(-1).tolist():
        if prev < 0:
            prev = v
            continue
        key = (prev, v)
        code = table.get(key)
        if code is not None:
            prev = code
            continue
        put(prev, width)
        table[key] = next_code
        next_code += 1
        if next_code - 1 == (1 << width) and width < 12:
            width += 1
        if next_code > 4095:
            put(clear, width)
            table.clear()
            next_code = eoi + 1
            width = min_code + 1
        prev = v
    if prev >= 0:
        put(prev, width)
    put(eoi, width)
    if nacc:
        out.append(acc & 0xFF)
    return bytes(out)


def encode_gif(frames: np.ndarray | list[np.ndarray],
               palette: np.ndarray, *, delays_cs: list[int] | None = None,
               transparent: int | None = None, loop: int | None = None,
               interlace: bool = False) -> bytes:
    """Encode palette-index frames ((h, w) uint8 each, values indexing
    ``palette`` (n<=256, 3) uint8 RGB) as GIF89a with one global colour
    table. Exact round-trip: ``decode_gif`` returns
    ``palette[frames]``."""
    if isinstance(frames, np.ndarray) and frames.ndim == 2:
        frames = [frames]
    frames = [np.asarray(f, dtype=np.uint8) for f in frames]
    palette = np.asarray(palette, dtype=np.uint8)
    if palette.ndim != 2 or palette.shape[1] != 3 or len(palette) > 256:
        raise ValueError("palette must be (n<=256, 3) uint8")
    pbits = max(1, (len(palette) - 1).bit_length())
    psize = 1 << pbits
    for f in frames:
        if f.ndim != 2 or int(f.max(initial=0)) >= len(palette):
            raise ValueError("frame indices outside the palette")
    h, w = frames[0].shape
    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | (pbits - 1), 0, 0)
    pal = np.zeros((psize, 3), dtype=np.uint8)
    pal[:len(palette)] = palette
    out += pal.tobytes()
    if loop is not None:
        out += b"\x21\xff\x0bNETSCAPE2.0\x03\x01" \
            + struct.pack("<H", loop) + b"\x00"
    min_code = max(2, pbits)
    for fi, f in enumerate(frames):
        if delays_cs is not None or transparent is not None:
            gflags = (1 if transparent is not None else 0)
            delay = delays_cs[fi] if delays_cs else 0
            out += b"\x21\xf9\x04" + struct.pack(
                "<BHB", gflags, delay,
                transparent if transparent is not None else 0) + b"\x00"
        fh, fw = f.shape
        out += b"\x2c" + struct.pack("<HHHHB", 0, 0, fw, fh,
                                     0x40 if interlace else 0)
        if interlace:
            rows = [f[s::st] for s, st in _INTERLACE_PASSES]
            data = np.concatenate([r.reshape(-1) for r in rows])
        else:
            data = f.reshape(-1)
        out.append(min_code)
        lz = _lzw_encode(data, min_code)
        for i in range(0, len(lz), 255):
            chunk = lz[i:i + 255]
            out.append(len(chunk))
            out += chunk
        out.append(0)
    out += b"\x3b"
    return bytes(out)
