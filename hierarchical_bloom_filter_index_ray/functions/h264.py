"""H.264/AVC structural layer — Annex B byte-stream NAL demux,
emulation-prevention removal, Exp-Golomb SPS parsing (profile, level,
chroma format, bit depth, and exact cropped dimensions), IDR keyframe
cut points, and avcC (ISO/IEC 14496-15 AVCDecoderConfigurationRecord)
parameter-set extraction with length-prefixed → Annex B conversion.

H.264 is the dominant crawled video codec. Mirrors the repo's codec
posture: the *structural* layer — stream parameters, keyframe
locations, safe split points, MP4-sample → byte-stream conversion —
is fully implemented and verified against hand-assembled bitstreams
built by an independent test-side Exp-Golomb writer; *slice/sample*
decode (CAVLC/CABAC entropy, inter prediction, deblocking) is the
declared codec seam (README media matrix).

Everything here derives from the public spec: NAL syntax and start
codes are ITU-T H.264 §7.3.1 / Annex B; ``seq_parameter_set_data``
field order is §7.3.2.1.1 with the scaling-list skip of §7.3.2.1.1.1;
the cropped-dimension formula (CropUnitX/Y by ChromaArrayType) is
§7.4.2.1.1; the avcC record layout is ISO/IEC 14496-15 §5.3.3.1.

Reference parity: the reference repo has no media layer at all; this
module extends the engine's multimodal surface (SURVEY.md LLM-pipeline
operators) so video payloads can be filtered by resolution/profile and
carved at keyframes inside actor-pool ``map_batches`` stages without
decoding samples.
"""

from __future__ import annotations

import struct

import numpy as np

from . import codecs

# §7.3.2.1.1: profiles whose SPS carries the chroma/bit-depth block
_HIGH_PROFILES = frozenset(
    (100, 110, 122, 244, 44, 83, 86, 118, 128, 138, 139, 134, 135))

NAL_NAMES = {1: "slice", 5: "idr", 6: "sei", 7: "sps", 8: "pps",
             9: "aud", 10: "end_seq", 11: "end_stream", 12: "filler"}


def ebsp_to_rbsp(data: bytes) -> bytes:
    """Strip emulation-prevention bytes: 00 00 03 → 00 00 (§7.4.1.1).
    Uses ``bytes.find`` so the common no-EPB case is one C scan."""
    i = data.find(b"\x00\x00\x03")
    if i < 0:
        return data
    out = bytearray()
    pos = 0
    while i >= 0:
        out += data[pos:i + 2]
        pos = i + 3                         # drop the 03
        i = data.find(b"\x00\x00\x03", pos)
    out += data[pos:]
    return bytes(out)


class _Bits:
    """MSB-first bit reader with the Exp-Golomb codes of §9.1."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0                        # bit position

    def u(self, n: int) -> int:
        end = self.pos + n
        if end > len(self.data) * 8:
            raise ValueError("H.264 bitstream truncated")
        v = 0
        pos = self.pos
        while n:
            byte = self.data[pos >> 3]
            avail = 8 - (pos & 7)
            take = min(n, avail)
            v = (v << take) | ((byte >> (avail - take))
                               & ((1 << take) - 1))
            pos += take
            n -= take
        self.pos = pos
        return v

    def ue(self) -> int:
        lz = 0
        while self.u(1) == 0:
            lz += 1
            if lz > 31:
                raise ValueError("Exp-Golomb code exceeds 32 bits")
        return (1 << lz) - 1 + (self.u(lz) if lz else 0)

    def se(self) -> int:
        k = self.ue()
        return (k + 1) >> 1 if k & 1 else -(k >> 1)


def split_nals(payload: bytes) -> list[dict]:
    """Annex B demux: every NAL unit as ``{"offset"`` (of its start
    code, including a leading zero when the 4-byte form is used),
    ``"data_off"``, ``"size"`` (EBSP bytes, trailing start-code zeros
    excluded), ``"type"``, ``"ref_idc"}``. Raises ValueError when the
    payload contains no start code."""
    starts: list[tuple[int, int]] = []      # (start-code off, data off)
    i = payload.find(b"\x00\x00\x01")
    while i >= 0:
        sc = i - 1 if i > 0 and payload[i - 1] == 0 else i
        starts.append((sc, i + 3))
        i = payload.find(b"\x00\x00\x01", i + 3)
    if not starts:
        raise ValueError("payload contains no Annex B start code")
    out = []
    for k, (sc, do) in enumerate(starts):
        end = starts[k + 1][0] if k + 1 < len(starts) else len(payload)
        ebsp = payload[do:end].rstrip(b"\x00") or payload[do:end]
        if not ebsp:
            continue
        hdr = ebsp[0]
        if hdr & 0x80:
            continue                        # forbidden_zero_bit set
        out.append({"offset": sc, "data_off": do, "size": len(ebsp),
                    "type": hdr & 0x1F, "ref_idc": (hdr >> 5) & 0x3})
    if not out:
        raise ValueError("no valid NAL units after start codes")
    return out


def _skip_scaling_list(br: _Bits, size: int) -> None:
    """§7.3.2.1.1.1 — consume one scaling list (values discarded)."""
    last, nxt = 8, 8
    for _ in range(size):
        if nxt != 0:
            nxt = (last + br.se() + 256) % 256
        last = nxt if nxt else last


def parse_sps(ebsp: bytes) -> dict:
    """Decode ``seq_parameter_set_data`` (§7.3.2.1.1) from a SPS NAL's
    EBSP payload (header byte included or not — both accepted).
    Returns profile/level/chroma/bit-depth fields plus the exact
    display ``width``/``height`` after frame cropping (§7.4.2.1.1)."""
    if ebsp and ebsp[0] & 0x1F == 7:        # NAL header present
        ebsp = ebsp[1:]
    br = _Bits(ebsp_to_rbsp(ebsp))
    profile = br.u(8)
    constraints = br.u(8)
    level = br.u(8)
    sps_id = br.ue()
    chroma, sep_planes = 1, 0
    bd_luma = bd_chroma = 8
    if profile in _HIGH_PROFILES:
        chroma = br.ue()
        if chroma > 3:
            raise ValueError("invalid chroma_format_idc")
        if chroma == 3:
            sep_planes = br.u(1)
        bd_luma = br.ue() + 8
        bd_chroma = br.ue() + 8
        br.u(1)                             # qpprime bypass
        if br.u(1):                         # seq_scaling_matrix_present
            for i in range(8 if chroma != 3 else 12):
                if br.u(1):
                    _skip_scaling_list(br, 16 if i < 6 else 64)
    log2_max_frame_num = br.ue() + 4
    poc_type = br.ue()
    log2_max_poc_lsb = 0
    delta_poc_always_zero = True
    if poc_type == 0:
        log2_max_poc_lsb = br.ue() + 4
    elif poc_type == 1:
        delta_poc_always_zero = bool(br.u(1))
        br.se()
        br.se()
        for _ in range(br.ue()):
            br.se()
    max_ref_frames = br.ue()
    br.u(1)                                 # gaps_in_frame_num allowed
    pw_mbs = br.ue() + 1
    ph_units = br.ue() + 1
    fmof = br.u(1)                          # frame_mbs_only_flag
    if not fmof:
        br.u(1)                             # mb_adaptive_frame_field
    br.u(1)                                 # direct_8x8_inference
    width = pw_mbs * 16
    height = (2 - fmof) * ph_units * 16
    crop = (0, 0, 0, 0)
    if br.u(1):                             # frame_cropping_flag
        crop = (br.ue(), br.ue(), br.ue(), br.ue())
        chroma_array = 0 if sep_planes else chroma
        if chroma_array == 0:
            cux, cuy = 1, 2 - fmof
        else:
            sub_w = 2 if chroma_array in (1, 2) else 1
            sub_h = 2 if chroma_array == 1 else 1
            cux, cuy = sub_w, sub_h * (2 - fmof)
        width -= cux * (crop[0] + crop[1])
        height -= cuy * (crop[2] + crop[3])
    if width <= 0 or height <= 0:
        raise ValueError("SPS cropping exceeds coded size")
    return {
        "profile_idc": profile, "constraint_flags": constraints >> 2,
        "level_idc": level, "sps_id": sps_id,
        "chroma_format_idc": chroma,
        "separate_colour_plane": bool(sep_planes),
        "bit_depth_luma": bd_luma, "bit_depth_chroma": bd_chroma,
        "log2_max_frame_num": log2_max_frame_num,
        "pic_order_cnt_type": poc_type,
        "log2_max_pic_order_cnt_lsb": log2_max_poc_lsb,
        "delta_pic_order_always_zero": delta_poc_always_zero,
        "max_num_ref_frames": max_ref_frames,
        "frame_mbs_only": bool(fmof), "frame_crop": crop,
        "width": width, "height": height,
    }


def h264_info(payload: bytes) -> dict:
    """One-call Annex B stream summary: dimensions/profile/level from
    the first SPS, NAL-type census, keyframe count — the structural
    analogue of ``mp3_info`` / ``ogg_info`` for video."""
    nals = split_nals(payload)
    counts: dict[str, int] = {}
    sps = None
    for n in nals:
        name = NAL_NAMES.get(n["type"], f"nal{n['type']}")
        counts[name] = counts.get(name, 0) + 1
        if n["type"] == 7 and sps is None:
            sps = parse_sps(
                payload[n["data_off"]:n["data_off"] + n["size"]])
    if sps is None:
        raise ValueError("Annex B stream carries no SPS")
    return {
        "width": sps["width"], "height": sps["height"],
        "profile_idc": sps["profile_idc"],
        "level_idc": sps["level_idc"],
        "chroma_format_idc": sps["chroma_format_idc"],
        "bit_depth_luma": sps["bit_depth_luma"],
        "n_nals": len(nals), "n_idr": counts.get("idr", 0),
        "n_slices": counts.get("idr", 0) + counts.get("slice", 0),
        "nal_counts": counts,
    }


def cut_points(payload: bytes) -> np.ndarray:
    """Byte offsets where decode can restart: the start of each IDR
    access unit, extended backwards over the immediately preceding
    contiguous run of SPS/PPS/SEI/AUD NALs (types 7/8/6/9) so a carve
    beginning there carries its own parameter sets — the video
    analogue of ``mp3.cut_points``'s reservoir-safe frames."""
    nals = split_nals(payload)
    cuts = []
    for i, n in enumerate(nals):
        if n["type"] != 5:
            continue
        j = i
        # runs never overlap: they are bounded by the previous VCL NAL
        while j > 0 and nals[j - 1]["type"] in (6, 7, 8, 9):
            j -= 1
        cuts.append(nals[j]["offset"])
    return np.asarray(sorted(set(cuts)), dtype=np.int64)


def parse_avcc(record: bytes) -> dict:
    """ISO/IEC 14496-15 §5.3.3.1 AVCDecoderConfigurationRecord: the
    ``avcC`` box body MP4 ``avc1`` sample entries carry. Returns the
    NAL length-prefix size plus raw and parsed parameter sets."""
    if len(record) < 7 or record[0] != 1:
        raise ValueError("not an avcC record (configurationVersion)")
    nal_len = (record[4] & 0x3) + 1
    n_sps = record[5] & 0x1F
    pos = 6
    sps_list: list[bytes] = []
    for _ in range(n_sps):
        if pos + 2 > len(record):
            raise ValueError("avcC truncated in SPS table")
        ln = struct.unpack_from(">H", record, pos)[0]
        pos += 2
        if pos + ln > len(record):
            raise ValueError("avcC SPS length exceeds record")
        sps_list.append(record[pos:pos + ln])
        pos += ln
    if pos >= len(record):
        raise ValueError("avcC truncated before PPS count")
    n_pps = record[pos]
    pos += 1
    pps_list: list[bytes] = []
    for _ in range(n_pps):
        if pos + 2 > len(record):
            raise ValueError("avcC truncated in PPS table")
        ln = struct.unpack_from(">H", record, pos)[0]
        pos += 2
        if pos + ln > len(record):
            raise ValueError("avcC PPS length exceeds record")
        pps_list.append(record[pos:pos + ln])
        pos += ln
    out = {"nal_length_size": nal_len, "sps": sps_list,
           "pps": pps_list, "profile_idc": record[1],
           "level_idc": record[3]}
    if sps_list:
        out.update(parse_sps(sps_list[0]))
    return out


def avcc_sample_to_annexb(sample: bytes, nal_length_size: int,
                          prepend: list[bytes] | None = None) -> bytes:
    """Convert one length-prefixed MP4 sample to an Annex B byte
    stream, optionally prepending parameter-set NALs (from
    ``parse_avcc``) so the result is a self-contained decode unit."""
    if nal_length_size not in (1, 2, 4):
        raise ValueError("NAL length prefix must be 1, 2 or 4 bytes")
    out = bytearray()
    for nal in prepend or []:
        out += b"\x00\x00\x00\x01" + nal
    pos = 0
    while pos < len(sample):
        if pos + nal_length_size > len(sample):
            raise ValueError("sample truncated in NAL length prefix")
        ln = int.from_bytes(sample[pos:pos + nal_length_size], "big")
        pos += nal_length_size
        if ln == 0 or pos + ln > len(sample):
            raise ValueError("NAL length exceeds sample")
        out += b"\x00\x00\x00\x01" + sample[pos:pos + ln]
        pos += ln
    return bytes(out)


def mp4_h264_info(payload: bytes) -> dict:
    """Structural info for an MP4's H.264 track without sample decode:
    exact SPS dimensions/profile (from the ``avcC`` record inside the
    ``avc1``/``avc3`` sample entry, ISO/IEC 14496-15), sample and
    keyframe counts, and track duration. Raises ValueError when the
    file carries no AVC video track."""
    from .mp4 import parse_mp4, visual_config_box
    for trk in parse_mp4(payload):
        if trk.handler != "vide" or trk.codec not in ("avc1", "avc3"):
            continue
        rec = visual_config_box(trk.sample_entry, b"avcC")
        if rec is None:
            raise ValueError("AVC sample entry lacks an avcC box")
        a = parse_avcc(rec)
        return {
            "width": a.get("width", trk.width),
            "height": a.get("height", trk.height),
            "profile_idc": a["profile_idc"],
            "level_idc": a["level_idc"],
            "nal_length_size": a["nal_length_size"],
            "n_samples": trk.n_samples,
            "n_keyframes": (trk.n_samples if trk.sync_samples is None
                            else int(len(trk.sync_samples))),
            "duration_sec": (round(trk.duration / trk.timescale, 6)
                             if trk.timescale else None),
        }
    raise ValueError("no avc1/avc3 video track in mp4 payload")


def mp4_h264_sample_annexb(payload: bytes, i: int) -> bytes:
    """Extract sample ``i`` of the MP4's AVC track as a self-contained
    Annex B byte stream (parameter sets from the avcC prepended) —
    the carve primitive for H.264-in-MP4 keyframes."""
    from .mp4 import extract_sample, video_track, visual_config_box
    trk = video_track(payload)
    if trk.codec not in ("avc1", "avc3"):
        raise ValueError(f"video track codec is {trk.codec!r}, not AVC")
    rec = visual_config_box(trk.sample_entry, b"avcC")
    if rec is None:
        raise ValueError("AVC sample entry lacks an avcC box")
    a = parse_avcc(rec)
    return avcc_sample_to_annexb(
        extract_sample(payload, trk, i), a["nal_length_size"],
        prepend=a["sps"] + a["pps"])


def is_annexb(payload: bytes) -> bool:
    """True when the payload starts with an Annex B start code whose
    first NAL header is legal (forbidden bit clear)."""
    if payload[:3] == b"\x00\x00\x01":
        off = 3
    elif payload[:4] == b"\x00\x00\x00\x01":
        off = 4
    else:
        return False
    return len(payload) > off and not payload[off] & 0x80


# ---------------------------------------------------------------------------
# I_PCM sample lane (§7.3.5 mb_type 25): spec-valid encode + decode
# ---------------------------------------------------------------------------
# I_PCM macroblocks carry raw byte-aligned samples — the one H.264
# coding mode with no entropy tables, no prediction and no transform,
# so a from-scratch implementation is exact and conformant: streams we
# emit decode in any H.264 decoder, and foreign all-I_PCM streams
# decode here. Slices containing predicted/transformed macroblocks
# (CAVLC residual tables / CABAC) remain the declared codec seam.


class _BitsW:
    """MSB-first RBSP writer with the Exp-Golomb codes of §9.1."""

    def __init__(self) -> None:
        self.buf = bytearray()
        self.acc = 0
        self.n = 0

    def u(self, v: int, n: int) -> None:
        self.acc = (self.acc << n) | (v & ((1 << n) - 1))
        self.n += n
        while self.n >= 8:
            self.n -= 8
            self.buf.append((self.acc >> self.n) & 0xFF)
        self.acc &= (1 << self.n) - 1

    def ue(self, v: int) -> None:
        k = v + 1
        nbits = k.bit_length()
        self.u(0, nbits - 1)
        self.u(k, nbits)

    def se(self, v: int) -> None:
        self.ue(2 * v - 1 if v > 0 else -2 * v)

    def align_zero(self) -> None:
        if self.n:
            self.u(0, 8 - self.n)

    def trailing(self) -> None:
        self.u(1, 1)
        self.align_zero()


def _escape_rbsp(rbsp: bytes) -> bytes:
    """RBSP → EBSP: insert an emulation-prevention 0x03 before any
    byte ≤ 3 that follows two zero bytes (§7.4.1.1)."""
    out = bytearray()
    pos = 0
    zeros = 0
    # candidate scan via find keeps the common case one C pass
    i = rbsp.find(b"\x00\x00", 0)
    while i >= 0:
        nxt = rbsp[i + 2] if i + 2 < len(rbsp) else None
        if nxt is not None and nxt <= 3:
            out += rbsp[pos:i + 2]
            out.append(3)
            pos = i + 2
            i = rbsp.find(b"\x00\x00", pos)
        else:
            i = rbsp.find(b"\x00\x00", i + 1)
    out += rbsp[pos:]
    del zeros
    return bytes(out)


def _write_sps_ipcm(width: int, height: int) -> bytes:
    """Baseline-profile SPS (§7.3.2.1.1) for a frame-coded 4:2:0
    stream, poc_type 2 (no per-slice POC fields), cropping for
    non-multiple-of-16 even dimensions. Returns the full NAL (header
    0x67) as RBSP→EBSP bytes."""
    mbw = (width + 15) // 16
    mbh = (height + 15) // 16
    w = _BitsW()
    w.u(66, 8)                          # profile_idc: Baseline
    w.u(0, 8)                           # constraint flags + reserved
    w.u(30, 8)                          # level_idc 3.0
    w.ue(0)                             # sps_id
    w.ue(0)                             # log2_max_frame_num_minus4
    w.ue(2)                             # pic_order_cnt_type
    w.ue(0)                             # max_num_ref_frames
    w.u(0, 1)                           # gaps_in_frame_num allowed
    w.ue(mbw - 1)
    w.ue(mbh - 1)
    w.u(1, 1)                           # frame_mbs_only_flag
    w.u(1, 1)                           # direct_8x8_inference
    crop_r = (mbw * 16 - width) // 2    # CropUnitX = 2 (4:2:0)
    crop_b = (mbh * 16 - height) // 2   # CropUnitY = 2 (frame)
    if crop_r or crop_b:
        w.u(1, 1)
        w.ue(0)
        w.ue(crop_r)
        w.ue(0)
        w.ue(crop_b)
    else:
        w.u(0, 1)
    w.u(0, 1)                           # vui_parameters_present
    w.trailing()
    return b"\x67" + _escape_rbsp(bytes(w.buf))


def _write_pps_ipcm() -> bytes:
    """CAVLC PPS (§7.3.2.2) with deblocking control present so slices
    can disable the loop filter (PCM samples pass through exactly)."""
    w = _BitsW()
    w.ue(0)                             # pps_id
    w.ue(0)                             # sps_id
    w.u(0, 1)                           # entropy_coding_mode: CAVLC
    w.u(0, 1)                           # bottom_field_poc_present
    w.ue(0)                             # num_slice_groups_minus1
    w.ue(0)                             # num_ref_idx_l0_default
    w.ue(0)                             # num_ref_idx_l1_default
    w.u(0, 1)                           # weighted_pred
    w.u(0, 2)                           # weighted_bipred_idc
    w.se(0)                             # pic_init_qp_minus26
    w.se(0)                             # pic_init_qs_minus26
    w.se(0)                             # chroma_qp_index_offset
    w.u(1, 1)                           # deblocking_filter_control
    w.u(0, 1)                           # constrained_intra_pred
    w.u(0, 1)                           # redundant_pic_cnt_present
    w.trailing()
    return b"\x68" + _escape_rbsp(bytes(w.buf))


def encode_h264_ipcm(frames: np.ndarray) -> bytes:
    """Encode greyscale frames ((n, h, w) or (h, w) uint8, even
    dimensions) as a spec-valid Annex B H.264 stream of all-IDR
    pictures whose macroblocks are all I_PCM (luma = samples, chroma
    flat 128): exact round trip, decodable by any conformant decoder.
    ~1.007x the raw YUV size — PCM is a carriage, not a compressor;
    its value here is a real, verifiable sample lane through the
    otherwise-declared H.264 entropy seam."""
    a = np.asarray(frames)
    if a.ndim == 2:
        a = a[None]
    if a.ndim != 3 or a.dtype != np.uint8:
        raise ValueError("expected (n, h, w) or (h, w) uint8 frames")
    n, h, w = a.shape
    if not n or not h or not w:
        raise ValueError("empty frame stack")
    if h % 2 or w % 2:
        raise ValueError("4:2:0 frame cropping needs even dimensions")
    mbw = (w + 15) // 16
    mbh = (h + 15) // 16
    pad = np.empty((n, mbh * 16, mbw * 16), dtype=np.uint8)
    pad[:, :h, :w] = a
    pad[:, h:, :w] = a[:, -1:, :]
    pad[:, :, w:] = pad[:, :, w - 1:w]
    chroma = np.full(64, 128, dtype=np.uint8).tobytes() * 2
    out = bytearray()
    out += b"\x00\x00\x00\x01" + _write_sps_ipcm(w, h)
    out += b"\x00\x00\x00\x01" + _write_pps_ipcm()
    # per-MB payload after the first MB is byte-aligned and constant-
    # shaped: ue(25) = 9 bits '000011010' + 7 alignment zeros = 0x0D
    # 0x00, then 256 luma + 128 chroma PCM bytes
    mb_hdr = b"\x0d\x00"
    for fi in range(n):
        wtr = _BitsW()
        wtr.ue(0)                       # first_mb_in_slice
        wtr.ue(7)                       # slice_type: I (all slices I)
        wtr.ue(0)                       # pps_id
        wtr.u(0, 4)                     # frame_num (log2_max = 4)
        wtr.ue(fi & 1)                  # idr_pic_id (alternates)
        wtr.u(0, 1)                     # no_output_of_prior_pics
        wtr.u(0, 1)                     # long_term_reference
        wtr.se(0)                       # slice_qp_delta
        wtr.ue(1)                       # disable_deblocking_filter
        mbs = []
        first = True
        for my in range(mbh):
            for mx in range(mbw):
                luma = pad[fi, my * 16:my * 16 + 16,
                           mx * 16:mx * 16 + 16].tobytes()
                if first:
                    wtr.ue(25)          # mb_type I_PCM
                    wtr.align_zero()    # pcm_alignment_zero_bit(s)
                    mbs.append(bytes(wtr.buf))
                    first = False
                else:
                    mbs.append(mb_hdr)
                mbs.append(luma)
                mbs.append(chroma)
        rbsp = b"".join(mbs) + b"\x80"  # rbsp_trailing_bits
        out += b"\x00\x00\x00\x01\x65" + _escape_rbsp(rbsp)
    return bytes(out)


def _build_avcc(sps_list: list[bytes], pps_list: list[bytes]) -> bytes:
    """AVCDecoderConfigurationRecord (ISO/IEC 14496-15 §5.3.3.1) with
    4-byte NAL length prefixes; profile/compat/level mirror the first
    SPS's own bytes."""
    if not sps_list or not pps_list:
        raise ValueError("avcC needs at least one SPS and one PPS")
    s0 = sps_list[0]
    body = s0[1:] if s0 and s0[0] & 0x1F == 7 else s0
    if len(body) < 3:
        raise ValueError("SPS too short for profile/level bytes")
    rec = bytearray([1, body[0], body[1], body[2], 0xFC | 3,
                     0xE0 | len(sps_list)])
    for s in sps_list:
        rec += struct.pack(">H", len(s)) + s
    rec.append(len(pps_list))
    for p in pps_list:
        rec += struct.pack(">H", len(p)) + p
    return bytes(rec)


def encode_mp4_h264_ipcm(frames: np.ndarray, *, timescale: int = 30,
                         frame_duration: int = 1) -> bytes:
    """Mux I_PCM-coded frames as a proper ``avc1`` MP4 track:
    length-prefixed slice NALs as samples, parameter sets in an
    ``avcC`` record (ISO/IEC 14496-15 §5.3.3.1) — the inverse of
    ``mp4_h264_sample_annexb``, closing the H.264-in-MP4 loop for the
    PCM lane."""
    a = np.asarray(frames)
    if a.ndim == 2:
        a = a[None]
    return h264_remux_mp4(encode_h264_ipcm(a), timescale=timescale,
                          frame_duration=frame_duration)


def _first_mb_in_slice(ebsp: bytes) -> int:
    """First ue(v) of the slice header; only the leading bytes matter
    so the EPB strip is bounded."""
    if ebsp and ebsp[0] & 0x1F in (1, 2, 5):
        ebsp = ebsp[1:]
    return _Bits(ebsp_to_rbsp(ebsp[:16])).ue()


def h264_remux_mp4(payload: bytes, *, timescale: int = 30,
                   frame_duration: int = 1) -> bytes:
    """Package ANY Annex B H.264 elementary stream (not just the PCM
    lane — no sample decode happens) as an ``avc1`` MP4: access units
    detected structurally (a VCL NAL with ``first_mb_in_slice == 0``
    starts a picture, §7.4.1.2.4), parameter sets lifted into the
    ``avcC`` record, keyframe flags (``stss``) from IDR membership.
    The inverse, ``mp4_h264_sample_annexb``, converts samples back —
    together they are the carve/repackage primitives a crawl pipeline
    needs for raw ``.h264`` payloads. Data-partitioned slices (NAL
    types 2-4) raise NotImplementedError."""
    from .mp4 import encode_mp4_video
    nals = split_nals(payload)
    sps_list: list[bytes] = []
    pps_list: list[bytes] = []
    samples: list[bytes] = []
    sync: list[int] = []
    cur: list[bytes] = []
    cur_vcl = cur_idr = False

    def flush() -> None:
        nonlocal cur, cur_vcl, cur_idr
        if cur_vcl:
            if cur_idr:
                sync.append(len(samples))
            samples.append(b"".join(
                struct.pack(">I", len(n)) + n for n in cur))
        cur, cur_vcl, cur_idr = [], False, False

    for nal in nals:
        raw = payload[nal["data_off"]:nal["data_off"] + nal["size"]]
        t = nal["type"]
        if t == 7:
            flush()
            if raw not in sps_list:
                sps_list.append(raw)
        elif t == 8:
            flush()
            if raw not in pps_list:
                pps_list.append(raw)
        elif t in (2, 3, 4):
            raise NotImplementedError(
                "data-partitioned slices (NAL types 2-4)")
        elif t in (1, 5):
            if _first_mb_in_slice(raw) == 0 and cur_vcl:
                flush()
            cur.append(raw)
            cur_vcl = True
            cur_idr = cur_idr or t == 5
        else:                           # SEI/AUD/filler ride along
            if cur_vcl:
                flush()
            cur.append(raw)
    if cur_vcl:
        flush()
    elif cur and samples:               # trailing non-VCL NALs: append
        samples[-1] += b"".join(struct.pack(">I", len(n)) + n for n in cur)
    if not samples:
        raise ValueError("Annex B stream carries no coded pictures")
    sps = parse_sps(sps_list[0] if sps_list else b"")
    return encode_mp4_video(
        samples, codec=b"avc1", width=sps["width"],
        height=sps["height"], timescale=timescale,
        frame_duration=frame_duration, sync_every=1,
        codec_config=(b"avcC", _build_avcc(sps_list, pps_list)),
        sync_samples=sync)


def _parse_pps_min(ebsp: bytes) -> dict:
    """The PPS fields slice-header parsing needs (§7.3.2.2)."""
    if ebsp and ebsp[0] & 0x1F == 8:
        ebsp = ebsp[1:]
    br = _Bits(ebsp_to_rbsp(ebsp))
    pps_id = br.ue()
    sps_id = br.ue()
    cabac = br.u(1)
    bottom_poc = br.u(1)
    if br.ue():                         # num_slice_groups_minus1
        raise NotImplementedError("slice groups (FMO)")
    br.ue()
    br.ue()
    br.u(1)
    br.u(2)
    br.se()
    br.se()
    br.se()
    deblock_ctl = br.u(1)
    br.u(1)
    redundant = br.u(1)
    return {"pps_id": pps_id, "sps_id": sps_id, "cabac": bool(cabac),
            "bottom_poc": bool(bottom_poc),
            "deblock_ctl": bool(deblock_ctl),
            "redundant": bool(redundant)}


def decode_h264_ipcm(payload: bytes) -> dict:
    """Decode an Annex B stream whose coded pictures are IDR slices of
    I_PCM macroblocks: returns ``{"y": (n, h, w) uint8, "cb"/"cr":
    (n, h/2, w/2) uint8, "width", "height"}``. Any predicted or
    transform-coded macroblock (mb_type != 25), CABAC slice data,
    non-IDR picture, field coding or non-4:2:0 sampling raises
    NotImplementedError — the declared entropy/prediction seam.
    Malformed streams raise ValueError."""
    try:
        return _decode_ipcm_checked(payload)
    except (IndexError, struct.error) as ex:
        raise ValueError(f"malformed H.264 stream: {ex}") from ex


def _decode_ipcm_checked(payload: bytes) -> dict:
    nals = split_nals(payload)
    sps = pps = None
    frames_y: list[np.ndarray] = []
    frames_cb: list[np.ndarray] = []
    frames_cr: list[np.ndarray] = []
    cur = None                         # (y, cb, cr, filled mb flags)
    for nal in nals:
        ebsp = payload[nal["data_off"]:nal["data_off"] + nal["size"]]
        t = nal["type"]
        if t == 7:
            sps = parse_sps(ebsp)
            if sps["chroma_format_idc"] != 1 \
                    or sps["bit_depth_luma"] != 8 \
                    or sps["bit_depth_chroma"] != 8:
                raise NotImplementedError(
                    "I_PCM lane is 8-bit 4:2:0; other sampling is the "
                    "declared seam")
            if not sps["frame_mbs_only"]:
                raise NotImplementedError("field/MBAFF coding")
            if sps["width"] * sps["height"] > codecs.MAX_PIXELS:
                raise ValueError(
                    f"frame {sps['width']}x{sps['height']} exceeds "
                    f"the MAX_PIXELS cap ({codecs.MAX_PIXELS})")
        elif t == 8:
            pps = _parse_pps_min(ebsp)
            if pps["cabac"]:
                raise NotImplementedError(
                    "CABAC slice data is the declared seam")
        elif t == 1:
            raise NotImplementedError(
                "non-IDR picture (inter prediction) is the declared "
                "seam")
        elif t == 5:
            if sps is None or pps is None:
                raise ValueError("IDR slice before SPS/PPS")
            cur = _decode_ipcm_slice(ebsp, sps, pps, cur)
            if cur[3].all():           # picture complete
                frames_y.append(cur[0])
                frames_cb.append(cur[1])
                frames_cr.append(cur[2])
                cur = None
    if cur is not None:
        raise ValueError("stream ends mid-picture (missing slices)")
    if not frames_y:
        raise ValueError("no coded pictures in stream")
    h, w = sps["height"], sps["width"]
    ch, cw = (h + 1) // 2, (w + 1) // 2
    return {
        "y": np.stack(frames_y)[:, :h, :w],
        "cb": np.stack(frames_cb)[:, :ch, :cw],
        "cr": np.stack(frames_cr)[:, :ch, :cw],
        "width": w, "height": h,
    }


def _decode_ipcm_slice(ebsp: bytes, sps: dict, pps: dict, cur):
    """Parse one IDR slice header (§7.3.3) + all-I_PCM slice data
    (§7.3.4/7.3.5) into the current picture buffers."""
    if ebsp and ebsp[0] & 0x1F == 5:
        ebsp = ebsp[1:]
    rbsp = ebsp_to_rbsp(ebsp)
    br = _Bits(rbsp)
    first_mb = br.ue()
    slice_type = br.ue()
    if slice_type % 5 != 2:            # 2/7 = I
        raise NotImplementedError(
            "non-I slice in IDR (SP/SI) is the declared seam")
    br.ue()                            # pps_id (single-PPS streams)
    br.u(sps["log2_max_frame_num"])    # frame_num
    br.ue()                            # idr_pic_id
    if sps["pic_order_cnt_type"] == 0:
        br.u(sps["log2_max_pic_order_cnt_lsb"])
        if pps["bottom_poc"]:
            br.se()
    elif sps["pic_order_cnt_type"] == 1 \
            and not sps["delta_pic_order_always_zero"]:
        br.se()
        if pps["bottom_poc"]:
            br.se()
    if pps["redundant"]:
        br.ue()
    br.u(1)                            # no_output_of_prior_pics
    br.u(1)                            # long_term_reference
    br.se()                            # slice_qp_delta
    if pps["deblock_ctl"]:
        if br.ue() != 1:               # disable_deblocking_filter_idc
            br.se()
            br.se()
    mbw = (sps["width"] + 15) // 16
    mbh = (sps["height"] + 15) // 16
    total = mbw * mbh
    if first_mb >= total:
        raise ValueError("first_mb_in_slice beyond picture")
    if cur is None:
        y = np.zeros((mbh * 16, mbw * 16), dtype=np.uint8)
        cb = np.zeros((mbh * 8, mbw * 8), dtype=np.uint8)
        cr = np.zeros((mbh * 8, mbw * 8), dtype=np.uint8)
        filled = np.zeros(total, dtype=bool)
    else:
        y, cb, cr, filled = cur
    # locate the final 1 bit (the rbsp stop bit): more_rbsp_data()
    last = len(rbsp) - 1
    while last >= 0 and rbsp[last] == 0:
        last -= 1
    if last < 0:
        raise ValueError("slice RBSP carries no stop bit")
    stop_bit = last * 8 + 7 - ((rbsp[last] & -rbsp[last]).bit_length()
                               - 1)
    mb = first_mb
    while br.pos < stop_bit:
        if mb >= total:
            raise ValueError("slice data overruns the picture")
        if br.ue() != 25:
            raise NotImplementedError(
                "predicted/transform-coded macroblock: CAVLC residual "
                "decode is the declared seam (only I_PCM decodes)")
        if br.pos & 7:                 # pcm_alignment_zero_bit(s)
            if br.u(8 - (br.pos & 7)):
                raise ValueError("nonzero PCM alignment bits")
        off = br.pos >> 3
        if off + 384 > len(rbsp):
            raise ValueError("PCM macroblock truncated")
        my, mx = divmod(mb, mbw)
        block = np.frombuffer(rbsp, dtype=np.uint8,
                              count=384, offset=off)
        y[my * 16:my * 16 + 16, mx * 16:mx * 16 + 16] = \
            block[:256].reshape(16, 16)
        cb[my * 8:my * 8 + 8, mx * 8:mx * 8 + 8] = \
            block[256:320].reshape(8, 8)
        cr[my * 8:my * 8 + 8, mx * 8:mx * 8 + 8] = \
            block[320:].reshape(8, 8)
        filled[mb] = True
        br.pos = (off + 384) * 8
        mb += 1
    return y, cb, cr, filled


def decode_h264(payload: bytes) -> np.ndarray:
    """Decode an Annex B H.264 stream through the I_PCM lane: returns
    (n, h, w, 3) uint8 RGB frames (full-range BT.601, the same
    transform the JPEG path uses — exact for our flat-chroma grey
    encodes). Streams using predicted/transform-coded macroblocks
    (CAVLC residuals / CABAC — i.e. virtually all crawled video)
    raise NotImplementedError: that entropy/prediction layer is the
    declared codec seam. The structural layer (NAL demux, SPS
    parameters, keyframe cut points, avcC conversion) is real either
    way."""
    d = decode_h264_ipcm(payload)
    y = d["y"].astype(np.float64)
    cb = d["cb"].astype(np.float64).repeat(2, axis=1).repeat(2, axis=2)
    cr = d["cr"].astype(np.float64).repeat(2, axis=1).repeat(2, axis=2)
    cb = cb[:, :y.shape[1], :y.shape[2]] - 128.0
    cr = cr[:, :y.shape[1], :y.shape[2]] - 128.0
    rgb = np.stack([y + 1.402 * cr,
                    y - 0.344136 * cb - 0.714136 * cr,
                    y + 1.772 * cb], axis=3)
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)
