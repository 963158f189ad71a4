"""Arithmetic-coded sequential JPEG (SOF9) — profile-slotted QM-family
coder, same pattern as ``mp3dec.Mp3Profile``.

T.81's arithmetic option replaces the Huffman entropy layer with the
QM binary arithmetic coder (Annex D) driven by the Annex F conditioning
model. Two pieces split cleanly:

- **Structural layer — real, per spec**: SOI/DQT/SOF9/DAC/DRI/SOS/EOI
  marker syntax incl. the DAC (0xFFCC) conditioning segment (DC ``L/U``
  nibbles, AC ``Kx``), MCU traversal, restart intervals resetting the
  coder + statistics + DC predictors, dequantization + IDCT shared with
  ``jpeg.py``, and the Annex-F decision STRUCTURE: DC = zero/sign/
  magnitude decisions conditioned on the classified previous diff, AC =
  per-index EOB/zero/sign decisions with magnitude contexts banked by
  ``k ≤ Kx``, log2 category tree + magnitude bits.
- **Profile slot — the spec's data blobs**: the 113-row Table D.3
  state-transition table (Qe/NMPS/NLPS/SWITCH) and the QM fine print
  that cannot be verified in this sandbox without external fixtures.
  ``default_profile()`` ships a first-principles estimator (geometric
  Qe ladder, renormalization-driven adaptation) behind the ITU-T T.88
  MQ-coder control flow — the QM family member that is fully public
  and self-consistency-testable; anyone holding Table D.3 can load it
  into a :class:`QmProfile`. Foreign SOF9 files (no profile tag) raise
  ``NotImplementedError``, exactly like foreign MP3.

Our encoder tags streams with an APP11 ``HBIQM1`` marker naming the
profile; the encode→decode round trip is EXACT (bit-identical
coefficients, pixel-identical output vs the Huffman baseline at the
same quantization), pinned in ``tests/test_jpeg_arith.py`` together
with a raw-coder property test and a corrupt-stream fuzz pass.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import codecs
from .jpeg import (ZIGZAG, _A, _pad_edge, _quality_table, _quantize,
                   _QUANT_LUMA, _seg, _tile_blocks)

PROFILE_TAG = b"HBIQM1\x00"


# ---------------------------------------------------------------------------
# QM-family profile + coder (MQ control flow, slotted state table)
# ---------------------------------------------------------------------------

@dataclass
class QmProfile:
    """The probability-estimation state machine: ``qe`` (LPS interval
    width per state), ``nmps``/``nlps`` (next state after MPS/LPS
    renormalization), ``switch`` (flip MPS sense). Table D.3 is one
    valid instance; ``default_profile()`` is another."""
    qe: np.ndarray
    nmps: np.ndarray
    nlps: np.ndarray
    switch: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.qe)


def default_profile(n_states: int = 40) -> QmProfile:
    """First-principles estimator: a geometric Qe ladder from ~0.46
    down to ~1e-4 of the interval; MPS renorm walks one state toward
    skewed, LPS renorm jumps two back (fast attack), MPS sense flips at
    the most-uniform state. Any such table is a valid QM-family coder;
    conformance to foreign streams needs the ISO values loaded here."""
    k = np.arange(n_states)
    qe = np.maximum((0x5601 * 0.82 ** k).astype(np.int64), 0x0025)
    nmps = np.minimum(k + 1, n_states - 1)
    nlps = np.maximum(k - 2, 0)
    switch = (k == 0).astype(np.int64)
    return QmProfile(qe=qe, nmps=nmps, nlps=nlps, switch=switch)


class QmEncoder:
    """MQ control flow (ITU-T T.88 §E, public): CODEMPS/CODELPS with
    conditional exchange, carry-safe BYTEOUT with 7-bit stuffing after
    0xFF (so entropy data never forms a JPEG marker), FLUSH."""

    def __init__(self, profile: QmProfile, n_contexts: int):
        self.p = profile
        self.st = np.zeros(n_contexts, dtype=np.int64)
        self.mps = np.zeros(n_contexts, dtype=np.int64)
        self.a = 0x8000
        self.c = 0
        self.ct = 12
        # scratch leading byte (T.88's BPST-1 slot) kept IN the stream:
        # a first-byteout carry lands here instead of vanishing, and
        # the decoder consumes it symmetrically
        self.b: int = 0
        self.out = bytearray()

    def reset_stats(self) -> None:
        self.st[:] = 0
        self.mps[:] = 0

    # -- byte machinery -------------------------------------------------
    def _byteout(self) -> None:
        if self.b == 0xFF:
            self.out.append(self.b)
            self.b = (self.c >> 20) & 0xFF
            self.c &= 0xFFFFF
            self.ct = 7
        else:
            if self.c > 0x7FFFFFF:
                self.b += 1
                if self.b == 0xFF:
                    self.c &= 0x7FFFFFF
                    self.out.append(self.b)
                    self.b = (self.c >> 20) & 0xFF
                    self.c &= 0xFFFFF
                    self.ct = 7
                    return
            self.out.append(self.b)
            self.b = (self.c >> 19) & 0xFF
            self.c &= 0x7FFFF
            self.ct = 8

    def _renorm(self) -> None:
        while True:
            self.a = (self.a << 1) & 0xFFFF
            self.c <<= 1
            self.ct -= 1
            if self.ct == 0:
                self._byteout()
            if self.a & 0x8000:
                break

    # -- coding ----------------------------------------------------------
    def encode(self, d: int, cx: int) -> None:
        p = self.p
        s = self.st[cx]
        qe = int(p.qe[s])
        if d == self.mps[cx]:
            self.a -= qe
            if self.a & 0x8000:
                self.c += qe
            else:
                if self.a < qe:
                    self.a = qe
                else:
                    self.c += qe
                self.st[cx] = p.nmps[s]
                self._renorm()
        else:
            self.a -= qe
            if self.a < qe:           # conditional exchange: LPS = top
                self.c += qe
            else:                     # LPS = bottom [0, qe)
                self.a = qe
            if p.switch[s]:
                self.mps[cx] ^= 1
            self.st[cx] = p.nlps[s]
            self._renorm()

    def encode_fixed(self, d: int) -> None:
        """Non-adaptive near-uniform decision (the AC sign bit)."""
        qe = int(self.p.qe[0])
        if d == 0:
            self.a -= qe
            if self.a & 0x8000:
                self.c += qe
            else:
                if self.a < qe:
                    self.a = qe
                else:
                    self.c += qe
                self._renorm()
        else:
            self.a -= qe
            if self.a < qe:           # conditional exchange: LPS = top
                self.c += qe
            else:
                self.a = qe
            self._renorm()

    def flush(self) -> bytes:
        # SETBITS + two byteouts (T.88 §E.3.8). SETBITS sets the low
        # 16 bits to ONES — the decoder fills 1-bits past the stream
        # end, so the final value must carry a 1-fill tail; back off
        # 0x8000 if that overshoots the interval [C, C+A).
        tempc = self.c + self.a
        self.c |= 0xFFFF
        if self.c >= tempc:
            self.c -= 0x8000
        self.c <<= self.ct
        self._byteout()
        self.c <<= self.ct
        self._byteout()
        self.out.append(self.b)
        # A trailing 0xFF would read as a stuffed pair against whatever
        # follows in the file; strip it — the decoder's past-end fill
        # is 0xFF (marker → 1-bits), identical to leaving it in place.
        while self.out and self.out[-1] == 0xFF:
            self.out.pop()
        # Drop the scratch leading byte: INITENC's CT=12 pairs with
        # INITDEC reading the scratch-free stream, and the initial
        # interval [0, 0x8000) keeps C < 2^27 at the first byteout, so
        # a carry into the scratch cannot occur.
        if self.out[0] != 0x00:
            raise AssertionError("carry reached the scratch byte")
        data = bytes(self.out[1:])
        self.out = bytearray()
        self.b = 0
        self.a, self.c, self.ct = 0x8000, 0, 12
        return data


class QmDecoder:
    """Mirror of :class:`QmEncoder`; BYTEIN treats 0xFF+(>0x8F) as a
    marker (feeds 1-bits), so the decoder stops cleanly at RST/EOI."""

    def __init__(self, data: bytes, profile: QmProfile,
                 n_contexts: int):
        self.data = data
        self.p = profile
        self.st = np.zeros(n_contexts, dtype=np.int64)
        self.mps = np.zeros(n_contexts, dtype=np.int64)
        self.bp = 0
        b0 = data[0] if data else 0xFF
        self.c = b0 << 16
        self._bytein()
        self.c <<= 7
        self.ct -= 7
        self.a = 0x8000

    def _byte(self, i: int) -> int:
        return self.data[i] if i < len(self.data) else 0xFF

    def _bytein(self) -> None:
        if self._byte(self.bp) == 0xFF:
            if self._byte(self.bp + 1) > 0x8F:
                self.c += 0xFF00
                self.ct = 8
            else:
                self.bp += 1
                self.c += self._byte(self.bp) << 9
                self.ct = 7
        else:
            self.bp += 1
            self.c += self._byte(self.bp) << 8
            self.ct = 8

    def _renorm(self) -> None:
        while True:
            if self.ct == 0:
                self._bytein()
            self.a = (self.a << 1) & 0xFFFF
            self.c = (self.c << 1) & 0xFFFFFFFF
            self.ct -= 1
            if self.a & 0x8000:
                break

    def decode(self, cx: int) -> int:
        p = self.p
        s = self.st[cx]
        qe = int(p.qe[s])
        self.a -= qe
        chigh = (self.c >> 16) & 0xFFFF
        if chigh < qe:
            if self.a < qe:
                d = int(self.mps[cx])
                self.st[cx] = p.nmps[s]
            else:
                d = int(self.mps[cx]) ^ 1
                if p.switch[s]:
                    self.mps[cx] ^= 1
                self.st[cx] = p.nlps[s]
            self.a = qe
            self._renorm()
        else:
            self.c -= qe << 16
            if self.a & 0x8000 == 0:
                if self.a < qe:
                    d = int(self.mps[cx]) ^ 1
                    if p.switch[s]:
                        self.mps[cx] ^= 1
                    self.st[cx] = p.nlps[s]
                else:
                    d = int(self.mps[cx])
                    self.st[cx] = p.nmps[s]
                self._renorm()
            else:
                d = int(self.mps[cx])
        return d

    def decode_fixed(self) -> int:
        qe = int(self.p.qe[0])
        self.a -= qe
        chigh = (self.c >> 16) & 0xFFFF
        if chigh < qe:
            d = 0 if self.a < qe else 1
            self.a = qe
            self._renorm()
        else:
            self.c -= qe << 16
            if self.a & 0x8000 == 0:
                d = 1 if self.a < qe else 0
                self._renorm()
            else:
                d = 0
        return d

    def reset_stats(self) -> None:
        self.st[:] = 0
        self.mps[:] = 0


# ---------------------------------------------------------------------------
# Annex-F-shaped statistical model (sequential, one component bank)
# ---------------------------------------------------------------------------

# DC bank: 5 classes x 4 decisions (S0/SS/SP/SN) + 16 X + 15 M = 51
_DC_X = 20
_DC_M = 36
_DC_BANK = 51
# AC bank: 63 x (SE, S0) + 2 bands x (16 X + 15 M) = 188
_AC_SE = 0
_AC_S0 = 63
_AC_LO = 126
_AC_HI = 126 + 31
_AC_BANK = 126 + 62


def _dc_class(prev_diff: int, lo: int, hi: int) -> int:
    """Conditioning classification of the previous DC diff driven by
    the DAC (L, U) parameters (F.1.4.4.1.1 structure)."""
    if prev_diff == 0:
        return 0
    mag = abs(prev_diff)
    if mag <= hi:
        return 1 if prev_diff > 0 else 2
    return 3 if prev_diff > 0 else 4


def _code_mag(enc: QmEncoder, t: int, xbase: int, mbase: int,
              nmax: int = 15) -> None:
    """Code nonneg ``t`` as log2-category decisions + magnitude bits
    (the Annex F.1.4.3.1 tree shape)."""
    e = 0
    while t >= (1 << e):
        enc.encode(1, xbase + min(e, nmax))
        e += 1
    enc.encode(0, xbase + min(e, nmax))
    for j in range(e - 2, -1, -1):
        enc.encode((t >> j) & 1, mbase + min(e - 1, nmax - 1))


def _decode_mag(dec: QmDecoder, xbase: int, mbase: int,
                nmax: int = 15) -> int:
    e = 0
    while dec.decode(xbase + min(e, nmax)):
        e += 1
        if e > 24:
            raise ValueError("runaway magnitude category (corrupt)")
    if e == 0:
        return 0
    t = 1 << (e - 1)
    for j in range(e - 2, -1, -1):
        t |= dec.decode(mbase + min(e - 1, nmax - 1)) << j
    return t


def _encode_block(enc: QmEncoder, zz: np.ndarray, pred: int,
                  dc_base: int, ac_base: int, lo: int, hi: int,
                  kx: int) -> int:
    """One 8x8 block in zigzag order; returns the new DC predictor."""
    dc = int(zz[0])
    diff = dc - pred
    cls = _dc_class(getattr(enc, "_prev_diff", 0), lo, hi)
    base = dc_base + cls * 4
    if diff == 0:
        enc.encode(0, base + 0)
    else:
        enc.encode(1, base + 0)
        s = 1 if diff < 0 else 0
        enc.encode(s, base + 1)
        t = abs(diff) - 1
        sp = base + 3 if s else base + 2
        if t == 0:
            enc.encode(0, sp)
        else:
            enc.encode(1, sp)
            _code_mag(enc, t - 1, dc_base + _DC_X, dc_base + _DC_M)
    enc._prev_diff = diff
    k = 1
    while k <= 63:
        # find next nonzero from k
        nz = np.nonzero(zz[k:])[0]
        if not len(nz):
            enc.encode(1, ac_base + _AC_SE + (k - 1))   # EOB
            return dc
        enc.encode(0, ac_base + _AC_SE + (k - 1))
        end = k + int(nz[0])
        while k < end:
            enc.encode(0, ac_base + _AC_S0 + (k - 1))
            k += 1
        enc.encode(1, ac_base + _AC_S0 + (k - 1))
        v = int(zz[k])
        enc.encode_fixed(1 if v < 0 else 0)
        band = ac_base + (_AC_LO if k <= kx else _AC_HI)
        _code_mag(enc, abs(v) - 1, band, band + 16)
        k += 1
    return dc


def _decode_block(dec: QmDecoder, zz: np.ndarray, pred: int,
                  dc_base: int, ac_base: int, lo: int, hi: int,
                  kx: int) -> int:
    cls = _dc_class(getattr(dec, "_prev_diff", 0), lo, hi)
    base = dc_base + cls * 4
    if dec.decode(base + 0):
        s = dec.decode(base + 1)
        sp = base + 3 if s else base + 2
        if dec.decode(sp):
            t = _decode_mag(dec, dc_base + _DC_X, dc_base + _DC_M) + 1
        else:
            t = 0
        diff = -(t + 1) if s else (t + 1)
    else:
        diff = 0
    dec._prev_diff = diff
    dc = pred + diff
    zz[0] = dc
    k = 1
    while k <= 63:
        if dec.decode(ac_base + _AC_SE + (k - 1)):
            break                                        # EOB
        while not dec.decode(ac_base + _AC_S0 + (k - 1)):
            k += 1
            if k > 63:
                raise ValueError("AC run overruns block (corrupt)")
        s = dec.decode_fixed()
        band = ac_base + (_AC_LO if k <= kx else _AC_HI)
        m = _decode_mag(dec, band, band + 16) + 1
        zz[k] = -m if s else m
        k += 1
    return dc


# ---------------------------------------------------------------------------
# stream encode / decode (greyscale sequential SOF9)
# ---------------------------------------------------------------------------

def encode_jpeg_arith(img: np.ndarray, quality: int = 90, *,
                      restart_mcus: int = 0,
                      dc_lu: tuple[int, int] = (0, 1),
                      kx: int = 5) -> bytes:
    """Encode an (h, w) uint8 image as arithmetic-coded sequential
    greyscale JPEG (SOF9) under the default profile; tagged with APP11
    ``HBIQM1`` so :func:`decode_jpeg_arith` (and ``jpeg.decode_jpeg``)
    recognize the profile."""
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError("expected (h, w) uint8")
    h, w = img.shape
    q = _quality_table(_QUANT_LUMA, quality)
    padded = _pad_edge(img.astype(np.float64), 8, 8)
    zz = _quantize(_tile_blocks(padded - 128.0), q)
    l_, u_ = dc_lu
    lo, hi = (1 << l_) >> 1, 1 << u_
    prof = default_profile()
    enc = QmEncoder(prof, _DC_BANK + _AC_BANK)
    enc._prev_diff = 0
    chunks = []
    pred = 0
    for bi, row in enumerate(zz):
        if restart_mcus and bi and bi % restart_mcus == 0:
            chunks.append(enc.flush())
            chunks.append(bytes([0xFF, 0xD0 + (bi // restart_mcus - 1)
                                 % 8]))
            enc.reset_stats()
            enc._prev_diff = 0
            pred = 0
        pred = _encode_block(enc, row, pred, 0, _DC_BANK, lo, hi, kx)
    chunks.append(enc.flush())
    zz_q = np.empty(64, dtype=np.uint8)
    zz_q[:] = q[ZIGZAG]
    out = bytearray(b"\xff\xd8")
    out += _seg(0xEB, PROFILE_TAG + b"default")        # APP11 profile
    out += _seg(0xDB, bytes([0x00]) + zz_q.tobytes())
    out += _seg(0xC9, struct.pack(">BHHB", 8, h, w, 1)
                + bytes([1, 0x11, 0]))
    # DAC: DC conditioning table 0 (U<<4 | L), AC table 0 (Kx)
    out += _seg(0xCC, bytes([0x00, (u_ << 4) | l_, 0x10, kx]))
    if restart_mcus:
        out += _seg(0xDD, struct.pack(">H", restart_mcus))
    out += _seg(0xDA, bytes([1, 1, 0x00, 0, 63, 0]))
    out += b"".join(chunks)
    out += b"\xff\xd9"
    return bytes(out)


def is_profile_arith(payload: bytes) -> bool:
    """SOF9 stream carrying our APP11 profile tag."""
    return (payload[:2] == b"\xff\xd8"
            and payload.find(b"\xff\xc9") > 0
            and payload.find(PROFILE_TAG) > 0)


def _entropy_end(payload: bytes, start: int) -> int:
    """Arithmetic scans have no 0xFF00 stuffing: the 7-bit rule keeps
    every post-0xFF data byte ≤ 0x8F, so the first 0xFF followed by a
    byte > 0x8F (and not another fill 0xFF) ends the scan."""
    i = start
    n = len(payload)
    while i + 1 < n:
        if payload[i] == 0xFF and payload[i + 1] > 0x8F \
                and payload[i + 1] != 0xFF:
            return i
        i += 1
    return n


def decode_jpeg_arith(payload: bytes) -> np.ndarray:
    """Decode a profile-tagged SOF9 greyscale stream; foreign SOF9
    (no tag) raises NotImplementedError — the declared Table D.3 seam.
    Malformed streams raise ValueError (fuzz contract of the media
    actor pool: never struct.error/IndexError)."""
    try:
        plane, height, width = _decode_arith_planes(payload)
    except (IndexError, struct.error) as ex:
        raise ValueError(f"malformed arithmetic JPEG: {ex}") from ex
    return np.clip(np.round(plane), 0, 255).astype(np.uint8)


def _decode_arith_planes(payload: bytes, *, allow_differential:
                         bool = False
                         ) -> tuple[np.ndarray, int, int]:
    """Parse + entropy-decode one arithmetic frame into a float64
    plane with the +2^(P-1) level shift applied (mirroring
    ``jpeg._decode_planes``; the hierarchical accumulator subtracts it
    back for differential frames). ``allow_differential`` additionally
    accepts the SOF13 (0xCD) differential-sequential marker — only the
    hierarchical decoder passes it; a standalone differential frame is
    malformed (T.81 B.2/J.1)."""
    if payload[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (missing SOI)")
    if PROFILE_TAG not in payload:
        raise NotImplementedError(
            "arithmetic JPEG for foreign streams needs ISO Table D.3 "
            "loaded into a QmProfile — the full structural chain "
            "(SOF9/DAC/QM coder/Annex-F model) is implemented")
    differential = False
    qtab = None
    width = height = 0
    dc_lu = (0, 1)
    kx = 5
    restart = 0
    scan_data = None
    i = 2
    n = len(payload)
    while i < n:
        if payload[i] != 0xFF:
            raise ValueError("marker expected")
        m = payload[i + 1]
        if m in (0xD8, 0x01) or 0xD0 <= m <= 0xD7:
            i += 2
            continue
        if m == 0xD9:
            break
        if i + 4 > n:
            raise ValueError("truncated marker segment")
        seg_len = struct.unpack(">H", payload[i + 2:i + 4])[0]
        seg = payload[i + 4:i + 2 + seg_len]
        if m == 0xDB:
            if seg[0] != 0:
                raise ValueError("only 8-bit DQT here")
            z = np.frombuffer(seg[1:65], dtype=np.uint8)
            qtab = np.zeros(64, dtype=np.int64)
            qtab[ZIGZAG] = z
        elif m in (0xC9, 0xCD):
            differential = m == 0xCD
            if differential and not allow_differential:
                raise ValueError(
                    "differential frame (SOF13) outside a "
                    "hierarchical stream")
            prec, height, width, ncomp = struct.unpack(">BHHB", seg[:6])
            if prec != 8 or ncomp != 1:
                raise NotImplementedError(
                    "profile arithmetic decode is 8-bit greyscale")
        elif m == 0xCC:
            j = 0
            while j + 1 < len(seg):
                tc, tb = seg[j] >> 4, seg[j] & 0xF
                if tc == 0 and tb == 0:
                    dc_lu = (seg[j + 1] & 0xF, seg[j + 1] >> 4)
                elif tc == 1 and tb == 0:
                    kx = seg[j + 1]
                j += 2
        elif m == 0xDD:
            restart = struct.unpack(">H", seg[:2])[0]
        elif m == 0xDA:
            s0 = i + 2 + seg_len
            e0 = _entropy_end(payload, s0)
            scan_data = (s0, e0)
            # skip the whole scan, hopping over RSTn-separated segments
            i = e0
            while (i + 1 < n and payload[i] == 0xFF
                   and 0xD0 <= payload[i + 1] <= 0xD7):
                i = _entropy_end(payload, i + 2)
            continue
        i += 2 + seg_len
    if qtab is None or scan_data is None or not width or not height:
        raise ValueError("missing DQT/SOF9/SOS")
    if width * height > codecs.MAX_PIXELS:
        raise ValueError(
            f"image {width}x{height} exceeds the "
            f"MAX_PIXELS cap ({codecs.MAX_PIXELS})")
    nbx = (width + 7) // 8
    nby = (height + 7) // 8
    nblocks = nbx * nby
    lo, hi = (1 << dc_lu[0]) >> 1, 1 << dc_lu[1]
    prof = default_profile()
    zz = np.zeros((nblocks, 64), dtype=np.int64)
    pos, seg_end = scan_data
    dec = None
    pred = 0
    for bi in range(nblocks):
        if dec is None or (restart and bi and bi % restart == 0):
            if dec is not None:
                # seg_end sits on the 0xFF of the RSTn marker
                if not (seg_end + 1 < n
                        and 0xD0 <= payload[seg_end + 1] <= 0xD7):
                    raise ValueError("missing restart marker")
                pos = seg_end + 2
                seg_end = _entropy_end(payload, pos)
            dec = QmDecoder(payload[pos:seg_end], prof,
                            _DC_BANK + _AC_BANK)
            dec._prev_diff = 0
            pred = 0
        if differential:
            # differential frames carry the DC value directly (no
            # prediction chain, T.81 F.1.4 / J.1.5 shape)
            _decode_block(dec, zz[bi], 0, 0, _DC_BANK, lo, hi, kx)
        else:
            pred = _decode_block(dec, zz[bi], pred, 0, _DC_BANK,
                                 lo, hi, kx)
    # zz rows are zigzag-ordered: natural[ZIGZAG[k]] = zz[k]
    nat = np.zeros((nblocks, 64), dtype=np.int64)
    nat[:, ZIGZAG] = zz
    blocks = (nat * qtab).reshape(nblocks, 8, 8).astype(np.float64)
    pix = np.einsum("ki,nkl,lj->nij", _A, blocks, _A) + 128.0
    plane = pix.reshape(nby, nbx, 8, 8).transpose(0, 2, 1, 3) \
        .reshape(nby * 8, nbx * 8)[:height, :width]
    return plane, height, width
