"""Pure-numpy JPEG codec (round-3 VERDICT stretch #9: close the codec
seam; round 4 adds interleaved YCbCr colour, then progressive and
multi-scan decode).

Scope (deliberately restricted — the correctness baseline a production
build swaps for a SIMD library behind the same functions):

- decode: baseline DCT (SOF0) — interleaved or multi-scan
  non-interleaved — extended sequential (SOF1, 8- or 12-bit precision,
  8- or 16-bit quant tables) and progressive DCT (SOF2) with spectral
  selection and/or successive approximation (T.81 Annex G.1.2: DC
  first/refine, AC first/refine with EOB runs and correction bits);
  lossless (SOF3, Annex H: predictors 1-7, 2-16-bit precision, point
  transform, 1x1 sampling); single-component (greyscale) or
  3-component YCbCr with sampling factors whose ratio to the max is
  integral (covers 4:4:4, 4:2:2, 4:4:0 and 4:2:0). Optional restart
  intervals (DRI/RSTn) everywhere. Arithmetic coding and
  hierarchical/differential SOFs raise ``NotImplementedError`` with
  the form named. 12-bit DCT and >8-bit lossless streams decode to
  uint16 at native precision.
- encode: baseline greyscale or colour with the Annex K quantization
  tables (libjpeg-style quality scaling) and the Annex K standard
  Huffman tables; colour at 4:4:4 or 4:2:0 (JFIF YCbCr, box-filter
  chroma downsample); lossless greyscale or N-channel (SOF3,
  any predictor, exact round-trip).

Spec: ITU-T T.81 / ISO 10918-1. The entropy decoder follows the spec's
canonical-code algorithm (F.2.2) accelerated by a 16-bit prefix lookup
table; the bitstream itself is inherently serial, so per-symbol decode
is a Python loop — acceptable here because media decode runs inside an
actor-pool ``map_batches`` stage (one image per task-row, parallel
across the dataset), not on the driver. Dequantization and the IDCT are
vectorized over all blocks of a component (one einsum per component).
"""

from __future__ import annotations

import struct

import numpy as np

from . import codecs

# lockstep vectorized entropy decode of a baseline scan starts at this
# many independent restart intervals (measured break-even; below it the
# scalar loop's lower constant wins — 2.6-4.8x at DRI=1, parity at 32
# lanes)
VEC_MIN_INTERVALS = 32

# zigzag scan order: index i of the scan -> position in the 8x8 block
# (T.81 Figure 5), stored as the flat natural-order index.
ZIGZAG = np.array([
    0,  1,  8, 16,  9,  2,  3, 10,
    17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63], dtype=np.int64)

# Annex K Table K.1 luminance quantization, stored in NATURAL order
_QUANT_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], dtype=np.int64)

# Annex K Table K.2 chrominance quantization, NATURAL order
_QUANT_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], dtype=np.int64)

# Annex K standard Huffman tables: (BITS[1..16], HUFFVAL)
_DC_LUMA_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
_DC_LUMA_VALS = list(range(12))
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
_DC_CHROMA_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
_DC_CHROMA_VALS = list(range(12))
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
    """Orthonormal 8x8 DCT-II matrix A: coefs = A @ block @ A.T,
    block = A.T @ coefs @ A (the IDCT)."""
    k = np.arange(8).reshape(-1, 1)
    n = np.arange(8).reshape(1, -1)
    a = np.cos((2 * n + 1) * k * np.pi / 16) * np.sqrt(2.0 / 8.0)
    a[0, :] = np.sqrt(1.0 / 8.0)
    return a


_A = _dct_matrix()


def _canonical_codes(bits: list[int], vals: list[int]
                     ) -> list[tuple[int, int, int]]:
    """(code, length, value) triples per T.81 Annex C code assignment."""
    out = []
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out.append((code, length, vals[k]))
            code += 1
            k += 1
        code <<= 1
    return out


_LUT_CACHE: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}


def _decode_lut(bits: list[int], vals: list[int]
                ) -> tuple[np.ndarray, np.ndarray]:
    """16-bit-prefix lookup: for any next-16-bits window, the symbol
    value and its code length (0 length = invalid prefix). Cached by
    table content — most corpora reuse the Annex K tables for every
    image, and stable identities also let `_decode_seq_vec` cache its
    fused per-scan tables."""
    key = bytes(bits) + bytes(vals)
    hit = _LUT_CACHE.get(key)
    if hit is not None:
        return hit
    val_lut = np.zeros(1 << 16, dtype=np.int16)
    len_lut = np.zeros(1 << 16, dtype=np.int8)
    for code, length, value in _canonical_codes(bits, vals):
        lo = code << (16 - length)
        hi = (code + 1) << (16 - length)
        val_lut[lo:hi] = value
        len_lut[lo:hi] = length
    if len(_LUT_CACHE) < 64:
        _LUT_CACHE[key] = (val_lut, len_lut)
    return val_lut, len_lut


def _extend(v: int, t: int) -> int:
    """T.81 F.12: map the t-bit magnitude v to its signed value."""
    if t == 0:
        return 0
    return v if v >= (1 << (t - 1)) else v - (1 << t) + 1


class _BitReader:
    """MSB-first reader over ALREADY UNSTUFFED entropy-coded bytes."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0          # bit position
        self.nbits = len(data) * 8

    def peek16(self) -> int:
        byte, off = divmod(self.pos, 8)
        # read 4 bytes (padded) and slice the 16-bit window
        chunk = self.data[byte:byte + 4] + b"\x00\x00\x00\x00"
        word = int.from_bytes(chunk[:4], "big")
        return (word >> (16 - off)) & 0xFFFF

    def skip(self, n: int):
        self.pos += n

    def read(self, n: int) -> int:
        if n == 0:
            return 0
        byte, off = divmod(self.pos, 8)
        chunk = self.data[byte:byte + 5] + b"\x00\x00\x00\x00\x00"
        word = int.from_bytes(chunk[:5], "big")
        self.pos += n
        return (word >> (40 - off - n)) & ((1 << n) - 1)


def _unstuff(scan: bytes) -> list[bytes]:
    """Split the entropy-coded segment at restart markers and remove
    0xFF00 byte stuffing from each interval."""
    parts: list[bytes] = []
    cur = bytearray()
    i = 0
    n = len(scan)
    while i < n:
        b = scan[i]
        if b != 0xFF:
            cur.append(b)
            i += 1
            continue
        nxt = scan[i + 1] if i + 1 < n else 0xD9
        if nxt == 0x00:
            cur.append(0xFF)
            i += 2
        elif 0xD0 <= nxt <= 0xD7:      # RSTn: new interval
            parts.append(bytes(cur))
            cur = bytearray()
            i += 2
        else:                           # next marker: end of scan
            break
    parts.append(bytes(cur))
    return parts


def _decode_block(br: _BitReader, dc_val, dc_len, ac_val, ac_len,
                  out: np.ndarray, pred: int) -> int:
    """Decode one 8x8 block's coefficients (T.81 F.2.2) into ``out``
    (natural order); returns the updated DC predictor."""
    w16 = br.peek16()
    t = int(dc_val[w16])
    ln = int(dc_len[w16])
    if ln == 0:
        raise ValueError("bad DC Huffman code")
    br.skip(ln)
    pred += _extend(br.read(t), t)
    out[0] = pred
    k = 1
    while k < 64:
        w16 = br.peek16()
        rs = int(ac_val[w16])
        ln = int(ac_len[w16])
        if ln == 0:
            raise ValueError("bad AC Huffman code")
        br.skip(ln)
        r, s = rs >> 4, rs & 0xF
        if s == 0:
            if r == 15:                # ZRL: 16 zeros
                k += 16
                continue
            break                       # EOB
        k += r
        if k > 63:
            raise ValueError("AC run past block end")
        out[ZIGZAG[k]] = _extend(br.read(s), s)
        k += 1
    return pred


def _decode_dc_first(br: _BitReader, tabs, coef: np.ndarray,
                     pred: int, al: int) -> int:
    """Progressive DC first scan (T.81 G.1.2.1): the predictor runs in
    the point-transformed domain (DC >> Al); the stored coefficient is
    the accumulated value shifted back up."""
    dc_val, dc_len = tabs
    w16 = br.peek16()
    t = int(dc_val[w16])
    ln = int(dc_len[w16])
    if ln == 0:
        raise ValueError("bad DC Huffman code")
    br.skip(ln)
    pred += _extend(br.read(t), t)
    coef[0] = pred << al
    return pred


def _decode_dc_refine(br: _BitReader, coef: np.ndarray, al: int):
    """Progressive DC refinement: one raw bit appends bit Al to the
    two's-complement coefficient (T.81 G.1.2.1 — the point transform
    is an arithmetic shift, so a plain OR restores the bit)."""
    if br.read(1):
        coef[0] |= 1 << al


def _decode_ac_first(br: _BitReader, tabs, coef: np.ndarray,
                     ss: int, se: int, al: int, eobrun: int) -> int:
    """Progressive AC first scan over band [ss, se] (T.81 G.1.2.2):
    like sequential AC decode plus EOBn run-length codes that skip
    whole blocks. Returns the remaining end-of-band run."""
    if eobrun > 0:
        return eobrun - 1
    ac_val, ac_len = tabs
    k = ss
    while k <= se:
        w16 = br.peek16()
        rs = int(ac_val[w16])
        ln = int(ac_len[w16])
        if ln == 0:
            raise ValueError("bad AC Huffman code")
        br.skip(ln)
        r, s = rs >> 4, rs & 0xF
        if s == 0:
            if r == 15:                 # ZRL: 16 zeros within the band
                k += 16
                continue
            eobrun = (1 << r) - 1       # EOBn: this block is run member
            if r:
                eobrun += br.read(r)
            break
        k += r
        if k > se:
            raise ValueError("AC run past band end")
        coef[ZIGZAG[k]] = _extend(br.read(s), s) << al
        k += 1
    return eobrun


def _decode_ac_refine(br: _BitReader, tabs, coef: np.ndarray,
                      ss: int, se: int, al: int, eobrun: int) -> int:
    """Progressive AC refinement over band [ss, se] (T.81 G.1.2.3):
    newly-nonzero coefficients arrive as ±(1<<Al); every coefficient
    with prior history consumes a correction bit whenever the decode
    position passes over it — including for the rest of the band while
    inside an end-of-band run."""
    p1, m1 = 1 << al, -(1 << al)
    ac_val, ac_len = tabs
    k = ss
    if eobrun == 0:
        while k <= se:
            w16 = br.peek16()
            rs = int(ac_val[w16])
            ln = int(ac_len[w16])
            if ln == 0:
                raise ValueError("bad AC Huffman code")
            br.skip(ln)
            r, s = rs >> 4, rs & 0xF
            val = 0
            if s == 0:
                if r != 15:             # EOBn (run counts this block)
                    eobrun = 1 << r
                    if r:
                        eobrun += br.read(r)
                    break
                # ZRL: advance past 16 zero-history coefficients
            else:
                if s != 1:
                    raise ValueError("refinement magnitude != 1")
                val = p1 if br.read(1) else m1
            # advance r zero-history positions; history coefficients on
            # the way each take a correction bit
            while k <= se:
                z = ZIGZAG[k]
                if coef[z] != 0:
                    if br.read(1) and (coef[z] & p1) == 0:
                        coef[z] += p1 if coef[z] > 0 else m1
                else:
                    if r == 0:
                        break
                    r -= 1
                k += 1
            if val:
                if k > se:
                    raise ValueError("AC run past band end")
                coef[ZIGZAG[k]] = val
            k += 1
    if eobrun > 0:
        while k <= se:                  # correction bits to band end
            z = ZIGZAG[k]
            if coef[z] != 0:
                if br.read(1) and (coef[z] & p1) == 0:
                    coef[z] += p1 if coef[z] > 0 else m1
            k += 1
        eobrun -= 1
    return eobrun


def _entropy_end(payload: bytes, start: int) -> int:
    """Index of the first true marker (0xFF followed by anything but
    stuffing 0x00 or RSTn) at/after ``start`` — the end of an
    entropy-coded segment."""
    i = start
    n = len(payload)
    while i < n - 1:
        if payload[i] == 0xFF and payload[i + 1] != 0x00 and not (
                0xD0 <= payload[i + 1] <= 0xD7):
            return i
        i += 1
    return n


def _scan_units(scan_cis: list[int], comps: list[dict], geom,
                mcux: int, mcuy: int, width: int, height: int,
                hmax: int, vmax: int) -> list[list[tuple[int, int]]]:
    """Decode order for one scan as a list of restart-countable units,
    each a list of (component index, block index into the padded
    coefficient array). Interleaved scans (ns > 1) step the frame MCU
    grid with h*v blocks per member component (T.81 A.2.3);
    single-component scans step the component's OWN block grid — no
    MCU padding columns/rows are coded (T.81 A.2.2)."""
    if len(scan_cis) > 1:
        units = []
        for mcu in range(mcux * mcuy):
            my, mx = divmod(mcu, mcux)
            u = []
            for ci in scan_cis:
                c = comps[ci]
                nbx = geom[ci][0]
                for by in range(c["v"]):
                    row0 = (my * c["v"] + by) * nbx + mx * c["h"]
                    for bx in range(c["h"]):
                        u.append((ci, row0 + bx))
            units.append(u)
        return units
    ci = scan_cis[0]
    c = comps[ci]
    nbx = geom[ci][0]
    cw = (width * c["h"] + hmax - 1) // hmax
    ch = (height * c["v"] + vmax - 1) // vmax
    ux, uy = (cw + 7) // 8, (ch + 7) // 8
    return [[(ci, r * nbx + x)] for r in range(uy) for x in range(ux)]


_FUSED_CACHE: dict[tuple, tuple] = {}


def _fused_lut(scan_tabs) -> np.ndarray:
    """Stacked int32 symbol table for `_decode_seq_vec`: per component
    ci, row 2*ci (AC) and row 2*ci+1 (DC) map a 16-bit window to
    ``zrl<<15 | eob<<14 | code_length<<9 | run<<5 | appended_bits``.
    Cached by the identity of the underlying `_decode_lut` arrays
    (themselves content-cached), so same-table corpora build it once."""
    key = tuple(None if t is None else (id(t[0][0]), id(t[1][0]))
                for t in scan_tabs)
    hit = _FUSED_CACHE.get(key)
    if hit is not None and all(
            (t is None) == (h is None)
            and (t is None or (h[0] is t[0][0] and h[1] is t[1][0]))
            for t, h in zip(scan_tabs, hit[0])):
        return hit[1]
    lut = np.zeros((2 * len(scan_tabs), 1 << 16), np.int32)
    for ci, t in enumerate(scan_tabs):
        if t is None:
            continue
        (dv, dl), (av, al) = t
        lut[2 * ci + 1] = (dl.astype(np.int32) << 9) | dv
        nb = (av & 0xF).astype(np.int32)
        r = ((av >> 4) & 0xF).astype(np.int32)
        eob = ((nb == 0) & (r != 15)).astype(np.int32)
        zrl = ((nb == 0) & (r == 15)).astype(np.int32)
        lut[2 * ci] = ((zrl << 15) | (eob << 14)
                       | (al.astype(np.int32) << 9) | (r << 5) | nb)
    pins = [None if t is None else (t[0][0], t[1][0])
            for t in scan_tabs]
    if len(_FUSED_CACHE) < 64:
        _FUSED_CACHE[key] = (pins, lut)
    return lut


def _decode_seq_vec(units, intervals, tabs, coef, per_int: int):
    """Lockstep decode of ALL restart intervals of a sequential scan.

    T.81 E.1.4 resets bit alignment and DC predictors at every RSTn, so
    the intervals are independent bitstreams. One pass of the loop below
    advances EVERY still-active interval by one Huffman symbol with
    numpy array ops — vectorizing across intervals, the pure-numpy
    analogue of decoding restart segments on SIMD lanes/threads — so the
    per-symbol Python interpreter cost is shared by all intervals
    instead of paid per symbol (VERDICT r4 #4). Bit-identical to the
    scalar `_decode_block` path: reads past an interval's end see the
    same zero padding `_BitReader` emulates (window bits beyond the
    interval are masked off), and all error conditions match.
    """
    n_streams = (len(units) + per_int - 1) // per_int
    if len(intervals) < n_streams:
        raise ValueError("scan ended early")
    # pack interval bytes into one buffer; 8 zero bytes between streams
    # keep every 6-byte window gather inside the owning stream + padding
    bases = np.empty(n_streams, np.int64)
    nbits = np.empty(n_streams, np.int64)
    parts = []
    off = 0
    for s in range(n_streams):
        d = intervals[s]
        bases[s] = off
        nbits[s] = len(d) * 8
        parts.append(d)
        parts.append(b"\x00" * 8)
        off += len(d) + 8
    buf = np.frombuffer(b"".join(parts) + b"\x00" * 8,
                        np.uint8).astype(np.int64)

    # per-stream block sequence: stream s decodes target blocks
    # flat_*[blkp[s]:hi[s]] in order; rows are GLOBAL indices into one
    # concatenated coefficient buffer so every write is a single scatter
    goff = np.zeros(len(coef) + 1, np.int64)
    np.cumsum([cf.shape[0] for cf in coef], out=goff[1:])
    big = np.concatenate(coef, axis=0) if len(coef) > 1 else coef[0]
    nflat = sum(len(u) for u in units)
    flat_c = np.fromiter((ci for u in units for ci, _ in u),
                         np.int64, count=nflat)
    flat_r = np.fromiter((goff[ci] + bi for u in units for ci, bi in u),
                         np.int64, count=nflat)
    sizes = np.fromiter((len(u) for u in units), np.int64,
                        count=len(units))
    starts = np.zeros(len(units) + 1, np.int64)
    np.cumsum(sizes, out=starts[1:])
    s_ids = np.arange(n_streams, dtype=np.int64)
    blkp = starts[np.minimum(s_ids * per_int, len(units))].copy()
    hi = starts[np.minimum((s_ids + 1) * per_int, len(units))].copy()

    # fused per-scan symbol LUT: row 2*ci is component ci's AC table,
    # row 2*ci+1 its DC table; one int32 gather yields the packed
    # (zrl, eob, code length, run, appended bits) for mixed lanes
    nc = len(coef)
    lut = _fused_lut([tabs.get(ci) for ci in range(nc)])

    # 48-bit big-endian window at every byte offset, bits past each
    # stream's end already zero (the gap bytes are zero and every
    # window starting at/after a stream's end is cleared below), so the
    # per-symbol read is ONE gather with the scalar reader's padding
    # semantics
    win = ((buf[:-5] << 40) | (buf[1:-4] << 32) | (buf[2:-3] << 24)
           | (buf[3:-2] << 16) | (buf[4:-1] << 8) | buf[5:])
    ends = bases + (nbits >> 3)             # first gap byte per stream
    win[(ends[:, None] + np.arange(8)).ravel()] = 0

    # live-lane state, compacted whenever lanes finish their interval
    pos = np.zeros(n_streams, np.int64)     # bit position within stream
    kk = np.zeros(n_streams, np.int64)      # 0 = next symbol is DC
    predf = np.zeros(n_streams * nc, np.int64)      # flat (lane, comp)
    pbase = np.arange(n_streams, dtype=np.int64) * nc
    endb = ends
    keep0 = blkp < hi
    if not keep0.all():
        pos, kk, blkp, hi, bases, endb, pbase = (
            a[keep0] for a in (pos, kk, blkp, hi, bases, endb, pbase))
    one = np.int64(1)

    while len(pos):
        c = flat_c[blkp]
        isdc = kk == 0
        # reads past a stream's end clamp to its (zeroed) end window
        byte = np.minimum(bases + (pos >> 3), endb)
        w = win[byte]
        sh = 32 - (pos & 7)
        w16 = (w >> sh) & 0xFFFF
        e = lut[2 * c + isdc, w16]
        nb = (e & 0x1F).astype(np.int64)
        ln = (e >> 9) & 0x1F
        if not ln.all():
            raise ValueError("bad DC Huffman code"
                             if bool(((ln == 0) & isdc).any())
                             else "bad AC Huffman code")
        m = (one << nb) - 1
        raw = (w >> (sh + 16 - ln - nb)) & m
        # F.12 extend, branchless: top magnitude bit picks the sign arm
        ext = raw - (1 - (raw >> np.maximum(nb - 1, 0))) * m
        isval = ~isdc & (nb > 0)
        k2 = kk + ((e >> 5) & 0xF)          # AC: index after the run
        if bool((isval & (k2 > 63)).any()):
            raise ValueError("AC run past block end")
        pidx = pbase + c
        predf[pidx] += np.where(isdc, ext, 0)
        # DC lanes have run 0 and kk 0, so k2 = 0 and ZIGZAG[0] = 0 —
        # one unconditional column works for both symbol kinds
        wcol = ZIGZAG[np.minimum(k2, 63)]
        wval = np.where(isdc, predf[pidx], ext)
        wi = np.nonzero(isdc | isval)[0]
        big[flat_r[blkp[wi]], wcol[wi]] = wval[wi]
        # uniform advance: ln code bits + nb appended bits in all cases
        pos += ln + nb
        knew = np.where(isdc, 1,
                        np.where((e & 0x8000) != 0, kk + 16, k2 + 1))
        done = ((e & 0x4000) != 0) | (knew >= 64)
        kk = np.where(done, 0, knew)
        blkp += done
        dead = done & (blkp >= hi)
        if dead.any():
            live = ~dead
            pos, kk, blkp, hi, bases, endb, pbase = (
                a[live] for a in (pos, kk, blkp, hi, bases, endb,
                                  pbase))
    if len(coef) > 1:                       # copy the scatter target back
        for ci in range(len(coef)):
            coef[ci][:, :] = big[goff[ci]:goff[ci + 1]]


def _decode_scan(scan: dict, comps: list[dict], geom, coef,
                 mcux: int, mcuy: int, width: int, height: int,
                 hmax: int, vmax: int, progressive: bool):
    """Entropy-decode one scan (sequential full-band or any of the four
    progressive scan kinds) into the coefficient arrays in place."""
    ss, se, ah, al = scan["ss"], scan["se"], scan["ah"], scan["al"]
    cis = [ci for ci, _, _ in scan["comps"]]
    if progressive:
        if ss == 0 and se != 0:
            raise ValueError("progressive DC scan with Se != 0")
        if not 0 <= ss <= se <= 63:
            raise ValueError("bad spectral band")
        if ss > 0 and len(cis) > 1:
            raise ValueError("interleaved progressive AC scan")
    tabs: dict[int, tuple] = {}
    for ci, dc_t, ac_t in scan["comps"]:
        if progressive:
            need = dc_t if ss == 0 and ah == 0 else (
                None if ss == 0 else ac_t)
        else:
            need = dc_t if dc_t is not None and ac_t is not None else None
            if dc_t is None or ac_t is None:
                raise ValueError("SOS references a missing Huffman table")
        if progressive and need is None and not (ss == 0 and ah > 0):
            raise ValueError("SOS references a missing Huffman table")
        tabs[ci] = (dc_t, ac_t)
    units = _scan_units(cis, comps, geom, mcux, mcuy,
                        width, height, hmax, vmax)
    intervals = _unstuff(scan["data"])
    per_int = scan["restart"] or len(units)
    if not progressive and units:
        n_streams = (len(units) + per_int - 1) // per_int
        # enough independent restart intervals: lockstep numpy decode
        # amortizes the per-symbol interpreter cost across intervals
        if n_streams >= VEC_MIN_INTERVALS:
            _decode_seq_vec(units, intervals, tabs, coef, per_int)
            return
    pos = 0
    pi = 0
    while pos < len(units):
        if pi >= len(intervals):
            raise ValueError("scan ended early")
        br = _BitReader(intervals[pi])
        pi += 1
        preds = dict.fromkeys(cis, 0)
        eobrun = 0
        for u in units[pos:pos + per_int]:
            for ci, bi in u:
                dc_t, ac_t = tabs[ci]
                row = coef[ci][bi]
                if not progressive:
                    preds[ci] = _decode_block(
                        br, dc_t[0], dc_t[1], ac_t[0], ac_t[1],
                        row, preds[ci])
                elif ss == 0 and ah == 0:
                    preds[ci] = _decode_dc_first(br, dc_t, row,
                                                 preds[ci], al)
                elif ss == 0:
                    _decode_dc_refine(br, row, al)
                elif ah == 0:
                    eobrun = _decode_ac_first(br, ac_t, row, ss, se,
                                              al, eobrun)
                else:
                    eobrun = _decode_ac_refine(br, ac_t, row, ss, se,
                                               al, eobrun)
        pos += per_int


def _decode_lossless(scans: list[dict], comps: list[dict],
                     width: int, height: int, prec: int, *,
                     differential: bool = False) -> list[np.ndarray]:
    """Entropy-decode a lossless (SOF3) frame per T.81 Annex H:
    Huffman-coded prediction differences (DC-table categories 0-16,
    category 16 = difference 32768 with no appended bits), predictors
    1-7 selected per scan via Ss, point transform Pt in Al, arithmetic
    mod 2^16 (H.1.2.1). First sample of a scan/restart interval takes
    the default prediction 2^(P-Pt-1); the rest of the first line
    predicts from Ra, the first column from Rb (H.1.2.2). Restricted
    to 1x1 sampling (the shape every mainstream lossless producer,
    e.g. DNG, emits). Samples are reconstructed in the
    point-transformed domain and shifted left by Pt on output."""
    for c in comps:
        if c["h"] != 1 or c["v"] != 1:
            raise NotImplementedError("subsampled lossless JPEG")
    planes = [np.zeros((height, width), dtype=np.int64) for _ in comps]
    shifts = [0] * len(comps)
    decoded: set[int] = set()
    for scan in scans:
        pred_sel, pt = scan["ss"], scan["al"]
        if scan["se"] != 0:
            # lossless SOS carries (predictor, 0, Pt) — a nonzero Se is
            # a DCT scan header under a lossless SOF (T.81 B.2.3)
            raise ValueError("lossless scan with DCT spectral selection")
        lo = 0 if differential else 1
        if not lo <= pred_sel <= 7:
            raise ValueError(f"lossless predictor selection {pred_sel}")
        # Ss = 0: no prediction — ONLY the differential-lossless
        # hierarchical frames may use it (T.81 J.1.5); decoded values
        # are the raw mod-2^16 differences
        if pt >= prec:
            raise ValueError("point transform >= sample precision")
        cis = [ci for ci, _, _ in scan["comps"]]
        tabs = {}
        for ci, dc_t, _ in scan["comps"]:
            if dc_t is None:
                raise ValueError("SOS references a missing Huffman table")
            tabs[ci] = dc_t
            shifts[ci] = pt
        intervals = _unstuff(scan["data"])
        n_mcu = height * width          # 1x1: one sample/comp per MCU
        per_int = scan["restart"] or n_mcu
        default = 1 << (prec - pt - 1)
        pos = 0
        pi = 0
        while pos < n_mcu:
            if pi >= len(intervals):
                raise ValueError("scan ended early")
            br = _BitReader(intervals[pi])
            pi += 1
            start = pos
            for m in range(pos, min(n_mcu, pos + per_int)):
                y, x = divmod(m, width)
                for ci in cis:
                    val_lut, len_lut = tabs[ci]
                    w16 = br.peek16()
                    t = int(val_lut[w16])
                    ln = int(len_lut[w16])
                    if ln == 0:
                        raise ValueError("bad lossless Huffman code")
                    br.skip(ln)
                    diff = 32768 if t == 16 else _extend(br.read(t), t)
                    p = planes[ci]
                    if pred_sel == 0:
                        px = 0
                    elif m == start:
                        px = default
                    elif y == 0:
                        px = int(p[0, x - 1])
                    elif x == 0:
                        px = int(p[y - 1, 0])
                    else:
                        a = int(p[y, x - 1])
                        b = int(p[y - 1, x])
                        c = int(p[y - 1, x - 1])
                        if pred_sel == 1:
                            px = a
                        elif pred_sel == 2:
                            px = b
                        elif pred_sel == 3:
                            px = c
                        elif pred_sel == 4:
                            px = a + b - c
                        elif pred_sel == 5:
                            px = a + ((b - c) >> 1)
                        elif pred_sel == 6:
                            px = b + ((a - c) >> 1)
                        else:
                            px = (a + b) >> 1
                    p[y, x] = (px + diff) & 0xFFFF
            pos = min(n_mcu, pos + per_int)
        decoded.update(cis)
    if decoded != set(range(len(comps))):
        raise ValueError("lossless frame leaves a component unscanned")
    return [p << s for p, s in zip(planes, shifts)]


def _decode_planes(payload: bytes, *, differential: bool = False
                   ) -> tuple[list[np.ndarray], int, int, int, bool]:
    """Parse + entropy-decode a sequential (SOF0/SOF1, interleaved or
    multi-scan non-interleaved), progressive (SOF2, spectral selection
    and/or successive approximation) or lossless (SOF3) JPEG into
    full-resolution component planes (float64 for DCT modes, int64 for
    lossless; Y or Y/Cb/Cr, chroma upsampled by sample replication).
    Returns (planes, height, width, precision, lossless)."""
    if payload[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (missing SOI)")
    qt: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    width = height = 0
    comps: list[dict] = []              # SOF order: id, h, v, tq
    scans: list[dict] = []
    progressive = False
    lossless = False
    prec = 8
    restart = 0
    i = 2
    n = len(payload)
    while i < n:
        if payload[i] != 0xFF:
            raise ValueError("marker expected")
        m = payload[i + 1]
        if m in (0xD8, 0x01) or 0xD0 <= m <= 0xD7:
            i += 2
            continue
        if m == 0xD9:                          # EOI
            break
        seg_len = struct.unpack(">H", payload[i + 2:i + 4])[0]
        seg = payload[i + 4:i + 2 + seg_len]
        if m == 0xDB:                          # DQT
            j = 0
            while j < len(seg):
                pq, tq = seg[j] >> 4, seg[j] & 0xF
                if pq not in (0, 1):
                    raise ValueError(f"bad DQT element precision {pq}")
                if pq:                         # 16-bit table elements
                    z = np.frombuffer(seg[j + 1:j + 129],
                                      dtype=">u2").astype(np.int64)
                else:
                    z = np.frombuffer(seg[j + 1:j + 65], dtype=np.uint8)
                tbl = np.zeros(64, dtype=np.int64)
                tbl[ZIGZAG] = z                # zigzag -> natural
                qt[tq] = tbl
                j += 129 if pq else 65
        elif m == 0xC4:                        # DHT
            j = 0
            while j < len(seg):
                tc, th = seg[j] >> 4, seg[j] & 0xF
                bits = list(seg[j + 1:j + 17])
                cnt = sum(bits)
                vals = list(seg[j + 17:j + 17 + cnt])
                huff[(tc, th)] = _decode_lut(bits, vals)
                j += 17 + cnt
        elif m in (0xC0, 0xC1, 0xC2, 0xC3):    # SOF0/1/2/3
            if comps:
                raise ValueError("multiple frame headers")
            progressive = m == 0xC2
            lossless = m == 0xC3
            prec, height, width, ncomp = struct.unpack(
                ">BHHB", seg[:6])
            if lossless:
                if not 2 <= prec <= 16:
                    raise ValueError(f"lossless precision {prec}")
            elif prec not in (8, 12):
                raise NotImplementedError(f"{prec}-bit DCT precision")
            if not lossless and ncomp not in (1, 3):
                raise NotImplementedError(
                    f"{ncomp}-component JPEG (CMYK/unknown)")
            for c in range(ncomp):
                cid, hv, tq = seg[6 + 3 * c:9 + 3 * c]
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 0xF,
                              "tq": tq})
            if ncomp == 1:
                # a single-component frame is always non-interleaved:
                # one data unit per MCU over the component's own block
                # grid, sampling factors ignored (T.81 A.2.2)
                comps[0]["h"] = comps[0]["v"] = 1
        elif m in (0xC5, 0xC6, 0xC7,
                   0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                f"arithmetic/hierarchical JPEG (SOF marker 0x{m:02X})")
        elif m == 0xDD:                        # DRI
            restart = struct.unpack(">H", seg[:2])[0]
        elif m == 0xDA:                        # SOS
            if not comps:
                raise ValueError("SOS before frame header")
            ns = seg[0]
            by_id = {c["id"]: k for k, c in enumerate(comps)}
            sel = []
            for s in range(ns):
                cid = seg[1 + 2 * s]
                tsel = seg[2 + 2 * s]
                if cid not in by_id:
                    raise ValueError("SOS names unknown component")
                sel.append((by_id[cid],
                            huff.get((0, tsel >> 4)),
                            huff.get((1, tsel & 0xF))))
            ss, se, ahal = seg[1 + 2 * ns:4 + 2 * ns]
            data_start = i + 2 + seg_len
            data_end = _entropy_end(payload, data_start)
            scans.append({"comps": sel, "ss": ss, "se": se,
                          "ah": ahal >> 4, "al": ahal & 0xF,
                          "restart": restart,
                          "data": payload[data_start:data_end]})
            i = data_end
            continue
        i += 2 + seg_len
    if not scans or not width or not height or not comps:
        raise ValueError("no scan data / frame header")
    if width * height > codecs.MAX_PIXELS:
        # progressive EOB runs (and pathological lossless tables) make
        # a tiny stream able to claim a gigapixel frame, so size cannot
        # be validated against payload length — cap decoded pixels
        # (codecs.MAX_PIXELS) instead of letting one malformed row
        # allocate the worker's whole heap
        raise ValueError(
            f"JPEG dimensions {width}x{height} exceed the "
            f"MAX_PIXELS cap ({codecs.MAX_PIXELS})")
    if lossless:
        planes = _decode_lossless(scans, comps, width, height, prec,
                                  differential=differential)
        return planes, height, width, prec, True
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    for c in comps:
        if (not 1 <= c["h"] <= 4 or not 1 <= c["v"] <= 4
                or hmax % c["h"] or vmax % c["v"]):
            raise NotImplementedError(
                f"sampling factors {c['h']}x{c['v']} vs max "
                f"{hmax}x{vmax} (non-integral ratio)")
    mcux = (width + 8 * hmax - 1) // (8 * hmax)
    mcuy = (height + 8 * vmax - 1) // (8 * vmax)
    geom = []
    for c in comps:
        nbx, nby = mcux * c["h"], mcuy * c["v"]
        geom.append((nbx, nby))
    coef = [np.zeros((nby * nbx, 64), dtype=np.int64)
            for nbx, nby in geom]
    scanned = set()
    for scan in scans:
        _decode_scan(scan, comps, geom, coef, mcux, mcuy,
                     width, height, hmax, vmax, progressive)
        for ci, _, _ in scan["comps"]:
            if scan["ss"] == 0:
                scanned.add(ci)
    if not progressive and scanned != set(range(len(comps))):
        raise ValueError("sequential frame leaves a component unscanned")
    planes = []
    for ci, c in enumerate(comps):
        if c["tq"] not in qt:
            raise ValueError("frame references a missing quant table")
        nbx, nby = geom[ci]
        blocks = (coef[ci] * qt[c["tq"]]).reshape(
            nby * nbx, 8, 8).astype(np.float64)
        # dequantize + IDCT, all blocks of the component at once
        # (level shift 2^(P-1): 128 for 8-bit, 2048 for 12-bit, A.3.1)
        pix = np.einsum("ki,nkl,lj->nij", _A, blocks, _A) \
            + float(1 << (prec - 1))
        plane = pix.reshape(nby, nbx, 8, 8).transpose(
            0, 2, 1, 3).reshape(nby * 8, nbx * 8)
        # crop to the component's sampled size, then upsample to full
        # resolution by sample replication (baseline-quality filter)
        ch = (height * c["v"] + vmax - 1) // vmax
        cw = (width * c["h"] + hmax - 1) // hmax
        plane = plane[:ch, :cw]
        ry, rx = vmax // c["v"], hmax // c["h"]
        if ry > 1:
            plane = np.repeat(plane, ry, axis=0)
        if rx > 1:
            plane = np.repeat(plane, rx, axis=1)
        planes.append(plane[:height, :width])
    return planes, height, width, prec, False


def _to_clip(a: np.ndarray, prec: int) -> np.ndarray:
    """Round + clamp to the sample range of a P-bit stream; uint8 for
    P <= 8, uint16 above (native precision, no rescaling)."""
    dt = np.uint8 if prec <= 8 else np.uint16
    return np.clip(np.round(a), 0, (1 << prec) - 1).astype(dt)


def _to_u8(a: np.ndarray) -> np.ndarray:
    return _to_clip(a, 8)


def _planes_checked(payload: bytes):
    """``_decode_planes`` with the decode boundary hardened for
    untrusted bytes: truncations and bit flips surface as IndexError /
    struct.error deep in the marker and entropy loops — normalize them
    to ValueError so actor-pool stages see one malformed-input type."""
    try:
        return _decode_planes(payload)
    except (IndexError, struct.error) as ex:
        raise ValueError(f"malformed JPEG stream: {ex}") from ex


def decode_jpeg(payload: bytes) -> np.ndarray:
    """Decode a sequential (baseline or 12-bit extended), progressive
    or lossless JPEG: (h, w) for single-component, (h, w, 3) RGB for
    3-component YCbCr DCT streams (JFIF colour transform). Lossless
    multi-component streams return (h, w, n) with NO colour transform
    (T.81 lossless carries component samples verbatim — typically RGB
    already). dtype is uint8 for 8-bit precision, uint16 above.
    Raises ``NotImplementedError`` for arithmetic / hierarchical
    streams, ``ValueError`` for malformed data. Profile-tagged
    arithmetic (SOF9) streams — ours — decode via ``jpeg_arith``."""
    if payload[:2] == b"\xff\xd8" and payload.find(b"\xff\xde") > 0:
        # DHP first: a hierarchical arithmetic pyramid also carries the
        # APP11 tag + SOF9, but its frames accumulate, not stand alone
        from .jpeg_hier import decode_jpeg_hier, is_hierarchical
        try:
            hier = is_hierarchical(payload)
        except (IndexError, struct.error):
            hier = False
        if hier:
            return decode_jpeg_hier(payload)
    if payload[:2] == b"\xff\xd8" and payload.find(b"\xff\xc9") > 0:
        from .jpeg_arith import decode_jpeg_arith, is_profile_arith
        if is_profile_arith(payload):
            return decode_jpeg_arith(payload)
    planes, _, _, prec, lossless = _planes_checked(payload)
    if len(planes) == 1:
        return _to_clip(planes[0], prec)
    if lossless:
        return _to_clip(np.stack(planes, axis=2), prec)
    half = float(1 << (prec - 1))
    y, cb, cr = planes
    cb = cb - half
    cr = cr - half
    rgb = np.stack([y + 1.402 * cr,
                    y - 0.344136 * cb - 0.714136 * cr,
                    y + 1.772 * cb], axis=2)
    return _to_clip(rgb, prec)


def decode_jpeg_gray(payload: bytes) -> np.ndarray:
    """Decode a JPEG to its (h, w) first-component plane (the decoded
    image for greyscale streams; the exact Y component, no colour
    round-trip, for colour streams). uint8 for 8-bit precision,
    uint16 above."""
    planes, _, _, prec, _ = _planes_checked(payload)
    return _to_clip(planes[0], prec)


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nacc = 0

    def put(self, code: int, length: int):
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nacc += length
        while self.nacc >= 8:
            b = (self.acc >> (self.nacc - 8)) & 0xFF
            self.buf.append(b)
            if b == 0xFF:
                self.buf.append(0x00)           # byte stuffing
            self.nacc -= 8
        self.acc &= (1 << self.nacc) - 1

    def flush(self):
        if self.nacc:
            pad = 8 - self.nacc
            self.put((1 << pad) - 1, pad)       # 1-fill per spec


def _quality_table(base: np.ndarray, quality: int) -> np.ndarray:
    """libjpeg-style quality scaling of an Annex K table."""
    quality = min(max(int(quality), 1), 100)
    scale = 5000 // quality if quality < 50 else 200 - quality * 2
    t = (base * scale + 50) // 100
    return np.clip(t, 1, 255)


def _codes(bits: list[int], vals: list[int]) -> dict:
    return {v: (c, ln) for c, ln, v in _canonical_codes(bits, vals)}


def _tile_blocks(plane: np.ndarray) -> np.ndarray:
    """(H, W) float plane (H, W multiples of 8) -> (n, 8, 8) row-major
    block tiles."""
    bh, bw = plane.shape[0] // 8, plane.shape[1] // 8
    return plane.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3).reshape(
        -1, 8, 8)


def _quantize(tiles: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Centered tiles -> zigzag-ordered quantized coefficient rows."""
    coefs = np.einsum("ik,nkl,jl->nij", _A, tiles, _A)
    qz = np.round(coefs / q.reshape(8, 8)).astype(np.int64).reshape(-1, 64)
    return qz[:, ZIGZAG]


def _encode_block(bwr: _BitWriter, row: np.ndarray, pred: int,
                  dc_codes: dict, ac_codes: dict) -> int:
    """Emit one zigzag-ordered quantized block; returns the new DC
    predictor."""
    diff = int(row[0]) - pred
    pred = int(row[0])
    t = abs(diff).bit_length()
    c, ln = dc_codes[t]
    bwr.put(c, ln)
    if t:
        v = diff if diff >= 0 else diff + (1 << t) - 1
        bwr.put(v, t)
    run = 0
    nz = np.nonzero(row[1:])[0]
    last = nz[-1] + 1 if len(nz) else 0
    for k in range(1, last + 1):
        v = int(row[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            c, ln = ac_codes[0xF0]          # ZRL
            bwr.put(c, ln)
            run -= 16
        s = abs(v).bit_length()
        c, ln = ac_codes[(run << 4) | s]
        bwr.put(c, ln)
        vv = v if v >= 0 else v + (1 << s) - 1
        bwr.put(vv, s)
        run = 0
    if last < 63:
        c, ln = ac_codes[0x00]              # EOB
        bwr.put(c, ln)
    return pred


def _seg(marker: int, body: bytes) -> bytes:
    return bytes([0xFF, marker]) + struct.pack(">H", len(body) + 2) + body


def _pad_edge(img: np.ndarray, mh: int, mw: int) -> np.ndarray:
    """Edge-replicate pad a (h, w) float plane to multiples of
    (mh, mw)."""
    h, w = img.shape
    ph, pw = -h % mh, -w % mw
    return np.pad(img, ((0, ph), (0, pw)), mode="edge")


def _emit_restart(bwr: _BitWriter, n: int) -> None:
    """Pad to a byte boundary and emit RSTn (n cycles 0-7, E.1.4);
    marker bytes are appended raw — never byte-stuffed."""
    bwr.flush()
    bwr.buf += bytes([0xFF, 0xD0 + (n & 7)])


def encode_jpeg_gray(img: np.ndarray, quality: int = 90,
                     restart_mcus: int = 0) -> bytes:
    """Encode an (h, w) uint8 image as baseline greyscale JPEG.
    ``restart_mcus > 0`` emits DRI + an RSTn marker every that many
    MCUs (= 8x8 blocks here), making the entropy segments independently
    decodable (the lockstep `_decode_seq_vec` fast path)."""
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError("expected (h, w) uint8")
    h, w = img.shape
    q = _quality_table(_QUANT_LUMA, quality)
    dc_codes = _codes(_DC_LUMA_BITS, _DC_LUMA_VALS)
    ac_codes = _codes(_AC_LUMA_BITS, _AC_LUMA_VALS)
    padded = _pad_edge(img.astype(np.float64), 8, 8)
    zz = _quantize(_tile_blocks(padded - 128.0), q)
    bwr = _BitWriter()
    pred = 0
    for bi, row in enumerate(zz):
        if restart_mcus and bi and bi % restart_mcus == 0:
            _emit_restart(bwr, bi // restart_mcus - 1)
            pred = 0
        pred = _encode_block(bwr, row, pred, dc_codes, ac_codes)
    bwr.flush()
    zz_q = np.empty(64, dtype=np.uint8)
    zz_q[:] = q[ZIGZAG]
    out = bytearray(b"\xff\xd8")
    out += _seg(0xDB, bytes([0x00]) + zz_q.tobytes())
    out += _seg(0xC0, struct.pack(">BHHB", 8, h, w, 1)
                + bytes([1, 0x11, 0]))
    out += _seg(0xC4, bytes([0x00]) + bytes(_DC_LUMA_BITS)
                + bytes(_DC_LUMA_VALS))
    out += _seg(0xC4, bytes([0x10]) + bytes(_AC_LUMA_BITS)
                + bytes(_AC_LUMA_VALS))
    if restart_mcus:
        out += _seg(0xDD, struct.pack(">H", restart_mcus))
    out += _seg(0xDA, bytes([1, 1, 0x00, 0, 63, 0]))
    out += bwr.buf
    out += b"\xff\xd9"
    return bytes(out)


def encode_jpeg_color(img: np.ndarray, quality: int = 90,
                      subsampling: str = "420",
                      restart_mcus: int = 0) -> bytes:
    """Encode an (h, w, 3) uint8 RGB image as baseline interleaved
    YCbCr JPEG at 4:4:4 (``subsampling="444"``) or 4:2:0 (default;
    box-filter chroma downsample). ``restart_mcus > 0`` emits DRI +
    RSTn every that many MCUs (independent entropy segments)."""
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError("expected (h, w, 3) uint8 RGB")
    if subsampling not in ("444", "420"):
        raise NotImplementedError(f"subsampling {subsampling!r}")
    h, w = img.shape[:2]
    r = img[:, :, 0].astype(np.float64)
    g = img[:, :, 1].astype(np.float64)
    b = img[:, :, 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    sub = subsampling == "420"
    lh = lv = 2 if sub else 1
    mcu_h, mcu_w = 8 * lv, 8 * lh
    y = _pad_edge(y, mcu_h, mcu_w)
    cb = _pad_edge(cb, mcu_h, mcu_w)
    cr = _pad_edge(cr, mcu_h, mcu_w)
    if sub:
        # 2x2 box-filter downsample of the (already even-sized) chroma
        cb = cb.reshape(cb.shape[0] // 2, 2, cb.shape[1] // 2, 2
                        ).mean(axis=(1, 3))
        cr = cr.reshape(cr.shape[0] // 2, 2, cr.shape[1] // 2, 2
                        ).mean(axis=(1, 3))
    ql = _quality_table(_QUANT_LUMA, quality)
    qc = _quality_table(_QUANT_CHROMA, quality)
    zz_y = _quantize(_tile_blocks(y - 128.0), ql)
    zz_cb = _quantize(_tile_blocks(cb - 128.0), qc)
    zz_cr = _quantize(_tile_blocks(cr - 128.0), qc)
    dc_l = _codes(_DC_LUMA_BITS, _DC_LUMA_VALS)
    ac_l = _codes(_AC_LUMA_BITS, _AC_LUMA_VALS)
    dc_c = _codes(_DC_CHROMA_BITS, _DC_CHROMA_VALS)
    ac_c = _codes(_AC_CHROMA_BITS, _AC_CHROMA_VALS)
    y_nbx = y.shape[1] // 8
    c_nbx = cb.shape[1] // 8
    mcux = y.shape[1] // mcu_w
    mcuy = y.shape[0] // mcu_h
    bwr = _BitWriter()
    preds = [0, 0, 0]
    for my in range(mcuy):
        for mx in range(mcux):
            mcu_i = my * mcux + mx
            if restart_mcus and mcu_i and mcu_i % restart_mcus == 0:
                _emit_restart(bwr, mcu_i // restart_mcus - 1)
                preds = [0, 0, 0]
            for by in range(lv):               # luma data units
                row0 = (my * lv + by) * y_nbx + mx * lh
                for bx in range(lh):
                    preds[0] = _encode_block(bwr, zz_y[row0 + bx],
                                             preds[0], dc_l, ac_l)
            ci = my * c_nbx + mx
            preds[1] = _encode_block(bwr, zz_cb[ci], preds[1], dc_c, ac_c)
            preds[2] = _encode_block(bwr, zz_cr[ci], preds[2], dc_c, ac_c)
    bwr.flush()
    zq_l = np.empty(64, dtype=np.uint8)
    zq_l[:] = ql[ZIGZAG]
    zq_c = np.empty(64, dtype=np.uint8)
    zq_c[:] = qc[ZIGZAG]
    hv_l = (lh << 4) | lv
    out = bytearray(b"\xff\xd8")
    out += _seg(0xDB, bytes([0x00]) + zq_l.tobytes())
    out += _seg(0xDB, bytes([0x01]) + zq_c.tobytes())
    out += _seg(0xC0, struct.pack(">BHHB", 8, h, w, 3)
                + bytes([1, hv_l, 0, 2, 0x11, 1, 3, 0x11, 1]))
    out += _seg(0xC4, bytes([0x00]) + bytes(_DC_LUMA_BITS)
                + bytes(_DC_LUMA_VALS))
    out += _seg(0xC4, bytes([0x10]) + bytes(_AC_LUMA_BITS)
                + bytes(_AC_LUMA_VALS))
    out += _seg(0xC4, bytes([0x01]) + bytes(_DC_CHROMA_BITS)
                + bytes(_DC_CHROMA_VALS))
    out += _seg(0xC4, bytes([0x11]) + bytes(_AC_CHROMA_BITS)
                + bytes(_AC_CHROMA_VALS))
    if restart_mcus:
        out += _seg(0xDD, struct.pack(">H", restart_mcus))
    out += _seg(0xDA, bytes([3, 1, 0x00, 2, 0x11, 3, 0x11, 0, 63, 0]))
    out += bwr.buf
    out += b"\xff\xd9"
    return bytes(out)


def encode_jpeg(img: np.ndarray, quality: int = 90,
                subsampling: str = "420") -> bytes:
    """Encode uint8 greyscale (h, w) or RGB (h, w, 3) as baseline
    JPEG."""
    if img.ndim == 2:
        return encode_jpeg_gray(img, quality=quality)
    return encode_jpeg_color(img, quality=quality,
                             subsampling=subsampling)


# lossless difference-category table: the 17 categories 0..16 as a flat
# canonical code (all length 5; 17 of 32 codewords used, all-ones free
# as T.81 C.2 requires) — universal, not tuned, exactness is the point
_LL_BITS = [0, 0, 0, 0, 17, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
_LL_VALS = list(range(17))


def encode_jpeg_lossless(img: np.ndarray, *, predictor: int = 1,
                         point_transform: int = 0,
                         precision: int | None = None) -> bytes:
    """Encode (h, w) or (h, w, n<=4) integer samples as a lossless
    JPEG (SOF3, one interleaved scan, 1x1 sampling, T.81 Annex H).
    Exact round-trip: ``decode_jpeg(encode_jpeg_lossless(a)) == a``
    for any predictor when ``point_transform`` is 0 (a nonzero Pt
    drops the Pt low bits by design). ``precision`` defaults to 8 for
    uint8 input, else the smallest width that holds the data."""
    a = np.asarray(img)
    if a.ndim == 2:
        a = a[:, :, None]
    if a.ndim != 3 or not 1 <= a.shape[2] <= 4:
        raise ValueError("expected (h, w) or (h, w, n<=4) samples")
    if not 1 <= predictor <= 7:
        raise ValueError(f"predictor {predictor}")
    h, w, nc = a.shape
    if precision is None:
        precision = 8 if a.dtype == np.uint8 else max(
            2, int(a.max()).bit_length())
    if not 2 <= precision <= 16:
        raise ValueError(f"precision {precision}")
    pt = int(point_transform)
    if not 0 <= pt < precision:
        raise ValueError("point transform must be in [0, precision)")
    if a.min() < 0 or a.max() >= (1 << precision):
        raise ValueError("samples out of range for the precision")
    x = a.astype(np.int64) >> pt
    # predicted value per sample, vectorized per component (Annex H.1:
    # interior = selected predictor over Ra/Rb/Rc; first line = Ra,
    # first column = Rb, very first sample = 2^(P-Pt-1))
    ra = np.zeros_like(x)
    ra[:, 1:] = x[:, :-1]
    rb = np.zeros_like(x)
    rb[1:, :] = x[:-1, :]
    rc = np.zeros_like(x)
    rc[1:, 1:] = x[:-1, :-1]
    px = [ra, rb, rc, ra + rb - rc, ra + ((rb - rc) >> 1),
          rb + ((ra - rc) >> 1), (ra + rb) >> 1][predictor - 1].copy()
    px[0, 1:] = x[0, :-1]
    px[1:, 0] = x[:-1, 0]
    px[0, 0] = 1 << (precision - pt - 1)
    signed = (x - px) & 0xFFFF
    signed[signed >= 32768] -= 65536        # mod-2^16 diff, signed
    mag = np.abs(signed)
    with np.errstate(divide="ignore"):
        cat = np.where(mag == 0, 0,
                       np.floor(np.log2(np.maximum(mag, 1))) + 1
                       ).astype(np.int64)
    cat[signed == -32768] = 16              # category 16: no extra bits
    extra = np.where(signed < 0, signed + (1 << cat) - 1, signed)
    # MCU order: raster-major, components minor (one interleaved scan)
    cat_f = cat.reshape(h * w * nc)
    ext_f = extra.reshape(h * w * nc)
    codes = _codes(_LL_BITS, _LL_VALS)
    bwr = _BitWriter()
    for i in range(h * w * nc):
        t = int(cat_f[i])
        bwr.put(*codes[t])
        if 0 < t < 16:
            bwr.put(int(ext_f[i]), t)
    bwr.flush()
    sof = struct.pack(">BHHB", precision, h, w, nc)
    sos = bytes([nc])
    for ci in range(nc):
        sof += bytes([ci + 1, 0x11, 0])
        sos += bytes([ci + 1, 0x00])
    sos += bytes([predictor, 0, pt])
    out = bytearray(b"\xff\xd8")
    out += _seg(0xC4, bytes([0x00]) + bytes(_LL_BITS) + bytes(_LL_VALS))
    out += _seg(0xC3, sof)
    out += _seg(0xDA, sos)
    out += bwr.buf
    out += b"\xff\xd9"
    return bytes(out)
