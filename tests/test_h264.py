"""H.264 structural-layer tests. SPS fixtures are hand-assembled
bit-by-bit from the ITU-T H.264 §7.3.2.1.1 field order by an
independent test-side Exp-Golomb writer (including test-side
emulation-prevention insertion) — the parser is never checked against
its own output conventions, mirroring the JPEG/FLAC/MP3/Ogg test
strategy."""

import struct

import numpy as np
import pytest

from hierarchical_bloom_filter_index_ray.functions import h264


class BitW:
    """Independent MSB-first bit writer with §9.1 Exp-Golomb codes."""

    def __init__(self):
        self.bits: list[int] = []

    def u(self, n, v):
        for i in range(n - 1, -1, -1):
            self.bits.append((v >> i) & 1)
        return self

    def ue(self, v):
        lz = (v + 1).bit_length() - 1
        return self.u(2 * lz + 1, v + 1)

    def se(self, v):
        return self.ue(2 * v - 1 if v > 0 else -2 * v)

    def rbsp(self) -> bytes:
        bits = self.bits + [1]                       # stop bit
        while len(bits) % 8:
            bits.append(0)
        return bytes(
            int("".join(map(str, bits[i:i + 8])), 2)
            for i in range(0, len(bits), 8))


def insert_epb(rbsp: bytes) -> bytes:
    """Test-side emulation prevention: 00 00 {00,01,02,03} gets a 03
    interposed (§7.4.1.1)."""
    out = bytearray()
    zeros = 0
    for b in rbsp:
        if zeros >= 2 and b <= 3:
            out.append(3)
            zeros = 0
        out.append(b)
        zeros = zeros + 1 if b == 0 else 0
    return bytes(out)


def sps_rbsp(profile=66, level=31, pw_mbs=80, ph_units=45, fmof=1,
             crop=None, chroma=1, poc_type=0, scaling=False,
             sep_planes=0):
    """seq_parameter_set_data per §7.3.2.1.1 field order."""
    w = BitW()
    w.u(8, profile).u(8, 0).u(8, level)
    w.ue(0)                                          # sps_id
    if profile in (100, 110, 122, 244, 44, 83, 86, 118, 128, 138,
                   139, 134, 135):
        w.ue(chroma)
        if chroma == 3:
            w.u(1, sep_planes)
        w.ue(0).ue(0)                                # bit depths 8
        w.u(1, 0)                                    # qpprime bypass
        w.u(1, 1 if scaling else 0)
        if scaling:
            n = 8 if chroma != 3 else 12
            for i in range(n):
                present = i in (0, 6)                # spot-check skip
                w.u(1, 1 if present else 0)
                if present:
                    size = 16 if i < 6 else 64
                    # delta_scale walk that hits the nextScale==0 stop
                    for j in range(size // 2):
                        w.se(1)
                    w.se(-(8 + size // 2))           # nextScale -> 0
    w.ue(0)                                          # log2_max_frame_num-4
    w.ue(poc_type)
    if poc_type == 0:
        w.ue(0)
    elif poc_type == 1:
        w.u(1, 0)
        w.se(-3).se(2)
        w.ue(2)
        w.se(1).se(-1)
    w.ue(3)                                          # max_num_ref_frames
    w.u(1, 0)                                        # gaps allowed
    w.ue(pw_mbs - 1)
    w.ue(ph_units - 1)
    w.u(1, fmof)
    if not fmof:
        w.u(1, 0)                                    # mb_adaptive
    w.u(1, 1)                                        # direct_8x8
    if crop:
        w.u(1, 1)
        for c in crop:
            w.ue(c)
    else:
        w.u(1, 0)
    w.u(1, 0)                                        # vui present
    return w.rbsp()


def nal(nal_type, ebsp=b"", ref_idc=3, four=False):
    sc = b"\x00\x00\x00\x01" if four else b"\x00\x00\x01"
    return sc + bytes([(ref_idc << 5) | nal_type]) + ebsp


class TestSps:
    def test_baseline_1080p(self):
        # 1920x1080: 120x68 MBs, bottom crop 4 (CropUnitY=2 for 4:2:0)
        ebsp = insert_epb(sps_rbsp(profile=66, pw_mbs=120, ph_units=68,
                                   crop=(0, 0, 0, 4)))
        s = h264.parse_sps(ebsp)
        assert (s["width"], s["height"]) == (1920, 1080)
        assert s["profile_idc"] == 66 and s["level_idc"] == 31
        assert s["chroma_format_idc"] == 1
        assert s["max_num_ref_frames"] == 3

    def test_high_720p_no_crop(self):
        ebsp = insert_epb(sps_rbsp(profile=100, pw_mbs=80, ph_units=45))
        s = h264.parse_sps(ebsp)
        assert (s["width"], s["height"]) == (1280, 720)
        assert s["bit_depth_luma"] == 8

    def test_high_with_scaling_lists(self):
        ebsp = insert_epb(sps_rbsp(profile=100, pw_mbs=40, ph_units=30,
                                   scaling=True, crop=(1, 1, 0, 0)))
        s = h264.parse_sps(ebsp)
        # 640 - 2*(1+1) crop_x (SubWidthC=2), 480
        assert (s["width"], s["height"]) == (636, 480)

    def test_interlaced_doubles_height(self):
        ebsp = insert_epb(sps_rbsp(profile=77, pw_mbs=45, ph_units=18,
                                   fmof=0, crop=(0, 0, 0, 1)))
        s = h264.parse_sps(ebsp)
        # 720x576 map units*2=576, CropUnitY = 2*(2-0)=4 -> 572
        assert (s["width"], s["height"]) == (720, 572)
        assert not s["frame_mbs_only"]

    def test_chroma_444_crop_units(self):
        ebsp = insert_epb(sps_rbsp(profile=244, chroma=3, pw_mbs=10,
                                   ph_units=10, crop=(2, 2, 3, 3)))
        s = h264.parse_sps(ebsp)
        # SubWidthC = SubHeightC = 1 at 4:4:4
        assert (s["width"], s["height"]) == (156, 154)
        assert s["chroma_format_idc"] == 3

    def test_poc_type_1_cycle(self):
        ebsp = insert_epb(sps_rbsp(profile=66, poc_type=1, pw_mbs=20,
                                   ph_units=15))
        s = h264.parse_sps(ebsp)
        assert (s["width"], s["height"]) == (320, 240)
        assert s["pic_order_cnt_type"] == 1

    def test_nal_header_byte_accepted(self):
        ebsp = insert_epb(sps_rbsp(pw_mbs=20, ph_units=15))
        with_hdr = bytes([0x67]) + ebsp
        assert h264.parse_sps(with_hdr)["width"] == 320

    def test_emulation_prevention_roundtrip(self):
        # ue(0) runs force long zero runs in the rbsp -> EPBs inserted
        rbsp = sps_rbsp(profile=66, pw_mbs=1, ph_units=1)
        ebsp = insert_epb(rbsp)
        assert h264.ebsp_to_rbsp(ebsp) == rbsp
        s = h264.parse_sps(ebsp)
        assert (s["width"], s["height"]) == (16, 16)

    def test_overcrop_rejected(self):
        ebsp = insert_epb(sps_rbsp(pw_mbs=2, ph_units=2,
                                   crop=(20, 20, 0, 0)))
        with pytest.raises(ValueError):
            h264.parse_sps(ebsp)


class TestNals:
    def _stream(self):
        sps = insert_epb(sps_rbsp(pw_mbs=20, ph_units=15))
        return (nal(9, b"\xf0", ref_idc=0, four=True)      # AUD
                + nal(7, sps)                              # SPS
                + nal(8, b"\xce\x38\x80")                  # PPS
                + nal(5, b"\x88\x84\x21\xa0")              # IDR
                + nal(1, b"\x9a\x21\x0f", four=True)       # slice
                + nal(6, b"\x05\x01\x00\x80", ref_idc=0)   # SEI
                + nal(5, b"\x88\x84\x43\x40"))             # IDR 2

    def test_split_types_and_offsets(self):
        p = self._stream()
        nals = h264.split_nals(p)
        assert [n["type"] for n in nals] == [9, 7, 8, 5, 1, 6, 5]
        assert nals[0]["offset"] == 0
        # every data_off points just past a start code
        for n in nals:
            assert p[n["data_off"] - 3:n["data_off"]] == b"\x00\x00\x01"

    def test_info(self):
        info = h264.h264_info(self._stream())
        assert (info["width"], info["height"]) == (320, 240)
        assert info["n_idr"] == 2 and info["n_slices"] == 3
        assert info["nal_counts"]["sps"] == 1

    def test_cut_points_include_parameter_run(self):
        p = self._stream()
        nals = h264.split_nals(p)
        cuts = h264.cut_points(p)
        # first cut = the SPS before IDR 1 (AUD also joins the run);
        # second cut = the SEI before IDR 2
        assert cuts.tolist() == [nals[0]["offset"], nals[5]["offset"]]

    def test_no_start_code_raises(self):
        with pytest.raises(ValueError):
            h264.split_nals(b"\xffnothing here")

    def test_no_sps_raises(self):
        with pytest.raises(ValueError):
            h264.h264_info(nal(1, b"\x9a\x21"))

    def test_is_annexb(self):
        assert h264.is_annexb(nal(7, b"\x42"))
        assert h264.is_annexb(nal(7, b"\x42", four=True))
        assert not h264.is_annexb(b"\x00\x00\x01\x80bad")  # forbidden
        assert not h264.is_annexb(b"OggS")


class TestAvcc:
    def _record(self, nal_len=4):
        sps = bytes([0x67]) + insert_epb(sps_rbsp(profile=100,
                                                  pw_mbs=80,
                                                  ph_units=45))
        pps = bytes([0x68, 0xce, 0x38, 0x80])
        return (bytes([1, 100, 0, 41, 0xFC | (nal_len - 1),
                       0xE0 | 1])
                + struct.pack(">H", len(sps)) + sps
                + bytes([1]) + struct.pack(">H", len(pps)) + pps), sps, pps

    def test_parse(self):
        rec, sps, pps = self._record()
        a = h264.parse_avcc(rec)
        assert a["nal_length_size"] == 4
        assert a["sps"] == [sps] and a["pps"] == [pps]
        assert (a["width"], a["height"]) == (1280, 720)
        assert a["profile_idc"] == 100

    def test_sample_to_annexb(self):
        rec, sps, pps = self._record(nal_len=2)
        a = h264.parse_avcc(rec)
        idr = bytes([0x65, 0x88, 0x84, 0x21])
        sample = struct.pack(">H", len(idr)) + idr
        out = h264.avcc_sample_to_annexb(sample, a["nal_length_size"],
                                         prepend=a["sps"] + a["pps"])
        nals = h264.split_nals(out)
        assert [n["type"] for n in nals] == [7, 8, 5]
        assert h264.h264_info(out)["width"] == 1280
        assert h264.cut_points(out).tolist() == [0]

    def test_malformed_rejected(self):
        rec, _, _ = self._record()
        with pytest.raises(ValueError):
            h264.parse_avcc(b"\x02" + rec[1:])        # bad version
        with pytest.raises(ValueError):
            h264.parse_avcc(rec[:9])                  # truncated
        with pytest.raises(ValueError):
            h264.avcc_sample_to_annexb(b"\x00\x09abc", 2)
        with pytest.raises(ValueError):
            h264.avcc_sample_to_annexb(b"abc", 3)     # bad prefix size


def _b(fourcc, payload):
    return struct.pack(">I", 8 + len(payload)) + fourcc + payload


def _fb(fourcc, version, payload):
    return _b(fourcc, struct.pack(">I", version << 24) + payload)


def _avc_mp4(samples, avcc):
    """Minimal hand-built MP4 with an avc1 sample entry carrying the
    given avcC record and one chunk of length-prefixed samples."""
    ftyp = _b(b"ftyp", b"isom" + struct.pack(">I", 0) + b"isom")
    mdat = _b(b"mdat", b"".join(samples))
    data_start = len(ftyp) + 8
    entry_body = (b"\x00" * 6 + struct.pack(">H", 1) + b"\x00" * 16
                  + struct.pack(">HH", 1280, 720)
                  + b"\x00" * 14 + b"\x00" * 32
                  + struct.pack(">Hh", 24, -1) + _b(b"avcC", avcc))
    stsd = _fb(b"stsd", 0, struct.pack(">I", 1)
               + _b(b"avc1", entry_body))
    n = len(samples)
    stts = _fb(b"stts", 0, struct.pack(">III", 1, n, 10))
    stsc = _fb(b"stsc", 0, struct.pack(">I", 1)
               + struct.pack(">III", 1, n, 1))
    stsz = _fb(b"stsz", 0, struct.pack(">II", 0, n)
               + b"".join(struct.pack(">I", len(s)) for s in samples))
    stco = _fb(b"stco", 0, struct.pack(">II", 1, data_start))
    stss = _fb(b"stss", 0, struct.pack(">II", 1, 1))
    stbl = _b(b"stbl", stsd + stts + stsc + stsz + stco + stss)
    minf = _b(b"minf", stbl)
    hdlr = _fb(b"hdlr", 0, struct.pack(">I", 0) + b"vide"
               + b"\x00" * 12 + b"h\x00")
    mdhd = _fb(b"mdhd", 0, struct.pack(">IIII", 0, 0, 30, n * 10)
               + struct.pack(">HH", 0x55C4, 0))
    mdia = _b(b"mdia", mdhd + hdlr + minf)
    tkhd = _fb(b"tkhd", 0, struct.pack(">IIIII", 0, 0, 1, 0, n * 10)
               + b"\x00" * 8 + struct.pack(">HHHH", 0, 0, 0, 0)
               + struct.pack(">9i", 0x10000, 0, 0, 0, 0x10000, 0, 0, 0,
                             0x40000000)
               + struct.pack(">II", 1280 << 16, 720 << 16))
    trak = _b(b"trak", tkhd + mdia)
    mvhd = _fb(b"mvhd", 0, struct.pack(">IIII", 0, 0, 30, n * 10)
               + struct.pack(">I", 0x10000) + struct.pack(">H", 0x100)
               + b"\x00" * 10
               + struct.pack(">9i", 0x10000, 0, 0, 0, 0x10000, 0, 0, 0,
                             0x40000000)
               + b"\x00" * 24 + struct.pack(">I", 2))
    return ftyp + mdat + _b(b"moov", mvhd + trak)


class TestMp4Avc:
    def _fixture(self):
        sps = bytes([0x67]) + insert_epb(sps_rbsp(profile=100,
                                                  pw_mbs=80,
                                                  ph_units=45))
        pps = bytes([0x68, 0xce, 0x38, 0x80])
        avcc = (bytes([1, 100, 0, 41, 0xFC | 3, 0xE0 | 1])
                + struct.pack(">H", len(sps)) + sps
                + bytes([1]) + struct.pack(">H", len(pps)) + pps)
        idr = bytes([0x65, 0x88, 0x84, 0x21, 0xa0])
        p = bytes([0x41, 0x9a, 0x21, 0x0f])
        samples = [struct.pack(">I", len(idr)) + idr,
                   struct.pack(">I", len(p)) + p]
        return _avc_mp4(samples, avcc)

    def test_info(self):
        info = h264.mp4_h264_info(self._fixture())
        assert (info["width"], info["height"]) == (1280, 720)
        assert info["profile_idc"] == 100
        assert info["nal_length_size"] == 4
        assert info["n_samples"] == 2 and info["n_keyframes"] == 1
        assert info["duration_sec"] == pytest.approx(20 / 30)

    def test_sample_to_annexb(self):
        buf = self._fixture()
        out = h264.mp4_h264_sample_annexb(buf, 0)
        nals = h264.split_nals(out)
        assert [n["type"] for n in nals] == [7, 8, 5]
        assert h264.h264_info(out)["width"] == 1280

    def test_non_avc_track_rejected(self):
        from hierarchical_bloom_filter_index_ray.functions.mp4 import \
            encode_mp4_video
        buf = encode_mp4_video([b"frame"], codec=b"jpeg", width=4,
                               height=4)
        with pytest.raises(ValueError):
            h264.mp4_h264_info(buf)
        with pytest.raises(ValueError):
            h264.mp4_h264_sample_annexb(buf, 0)


class TestFuzz:
    def test_random_bytes_never_crash(self):
        rng = np.random.default_rng(13)
        for n in (0, 1, 5, 64, 1024):
            for _ in range(20):
                data = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
                for fn in (h264.split_nals, h264.h264_info,
                           h264.parse_sps, h264.parse_avcc):
                    try:
                        fn(data)
                    except ValueError:
                        pass

    def test_truncated_sps_never_crashes(self):
        ebsp = insert_epb(sps_rbsp(profile=100, scaling=True,
                                   crop=(1, 1, 1, 1)))
        for cut in range(len(ebsp)):
            try:
                h264.parse_sps(ebsp[:cut])
            except ValueError:
                pass

    def test_decode_seam_declared(self):
        # truncated junk is malformed, not a seam (the lane decodes
        # I_PCM for real now; see TestIpcmLane for the seam cases)
        with pytest.raises(ValueError):
            h264.decode_h264(b"\x00\x00\x01\x67")


class TestIpcmLane:
    """I_PCM sample lane (§7.3.5 mb_type 25): spec-valid all-IDR
    streams round-trip exactly; everything entropy-coded stays the
    declared seam."""

    def test_round_trip_exact(self):
        rng = np.random.default_rng(21)
        for shape in [(1, 16, 16), (2, 32, 32), (3, 20, 36),
                      (1, 34, 50)]:
            frames = rng.integers(0, 256, shape).astype(np.uint8)
            enc = h264.encode_h264_ipcm(frames)
            d = h264.decode_h264_ipcm(enc)
            assert np.array_equal(d["y"], frames)
            assert (d["cb"] == 128).all() and (d["cr"] == 128).all()
            rgb = h264.decode_h264(enc)
            assert np.array_equal(rgb[..., 0], frames)
            assert np.array_equal(rgb[..., 1], frames)

    def test_structural_layer_agrees(self):
        frames = np.zeros((3, 48, 64), np.uint8)
        enc = h264.encode_h264_ipcm(frames)
        info = h264.h264_info(enc)
        assert (info["width"], info["height"]) == (64, 48)
        assert info["profile_idc"] == 66
        assert info["n_idr"] == 3
        assert len(h264.cut_points(enc)) == 3

    def test_odd_dimensions_rejected(self):
        with pytest.raises(ValueError):
            h264.encode_h264_ipcm(np.zeros((17, 16), np.uint8))

    def test_predicted_mb_is_declared_seam(self):
        enc = bytearray(h264.encode_h264_ipcm(
            np.full((16, 16), 7, np.uint8)))
        # the slice payload begins with the header bits then ue(25);
        # zero the whole first slice-data byte run so mb_type decodes
        # as something else
        nals = h264.split_nals(bytes(enc))
        idr = next(n for n in nals if n["type"] == 5)
        off = idr["data_off"] + 3              # into slice header bits
        enc[off] = 0xFF                        # mb_type != 25
        with pytest.raises((NotImplementedError, ValueError)):
            h264.decode_h264(bytes(enc))

    def test_mp4_avc1_loop(self):
        rng = np.random.default_rng(22)
        frames = rng.integers(0, 256, (4, 32, 48)).astype(np.uint8)
        m = h264.encode_mp4_h264_ipcm(frames)
        info = h264.mp4_h264_info(m)
        assert (info["width"], info["height"]) == (48, 32)
        assert info["n_samples"] == 4 and info["n_keyframes"] == 4
        for i in range(4):
            d = h264.decode_h264_ipcm(h264.mp4_h264_sample_annexb(m, i))
            assert np.array_equal(d["y"][0], frames[i])

    def test_frame_sampler_avc1(self, ray_session):
        import ray
        from hierarchical_bloom_filter_index_ray.pipelines.multimodal \
            import FrameSampler
        rng = np.random.default_rng(24)
        frames = rng.integers(0, 256, (6, 16, 16)).astype(np.uint8)
        m = h264.encode_mp4_h264_ipcm(frames)
        out = (ray.data.from_items([{"media_id": 0, "payload": m}])
               .map_batches(FrameSampler, batch_format="pyarrow",
                            concurrency=1,
                            fn_constructor_kwargs={
                                "n_frames": 3, "decoder": "real"})
               .to_pandas())
        assert len(out) == 3
        for _, row in out.iterrows():
            # each emitted payload is a self-contained Annex B unit
            d = h264.decode_h264_ipcm(bytes(row["payload"]))
            assert np.array_equal(d["y"][0],
                                  frames[int(row["frame_no"])])

    def test_remux_annexb_to_mp4(self):
        rng = np.random.default_rng(25)
        frames = rng.integers(0, 256, (5, 32, 32)).astype(np.uint8)
        ab = h264.encode_h264_ipcm(frames)
        m = h264.h264_remux_mp4(ab)
        info = h264.mp4_h264_info(m)
        assert info["n_samples"] == 5 and info["n_keyframes"] == 5
        for i in range(5):
            d = h264.decode_h264_ipcm(h264.mp4_h264_sample_annexb(m, i))
            assert np.array_equal(d["y"][0], frames[i])

    def test_remux_mixed_nals(self):
        # interleave SEI NALs and a fabricated non-IDR picture: AU
        # detection is structural (first_mb ue + NAL types), so the
        # remux needs no sample decode; only IDR AUs land in stss
        frames = np.zeros((2, 16, 16), np.uint8)
        ab = h264.encode_h264_ipcm(frames)
        nals = h264.split_nals(ab)
        idr = next(n for n in nals if n["type"] == 5)
        idr_raw = ab[idr["data_off"]:idr["data_off"] + idr["size"]]
        non_idr = bytes([0x41]) + idr_raw[1:]   # type 1, same payload
        sei = bytes([0x06, 5, 1, 0xAA, 0x80])
        tail_sei = bytes([0x06, 5, 1, 0xBB, 0x80])
        stream = (ab + b"\x00\x00\x00\x01" + sei
                  + b"\x00\x00\x00\x01" + non_idr
                  + b"\x00\x00\x00\x01" + tail_sei)
        m = h264.h264_remux_mp4(stream)
        info = h264.mp4_h264_info(m)
        assert info["n_samples"] == 3                # 2 IDR + 1 non-IDR
        assert info["n_keyframes"] == 2
        # a trailing SEI rides on the last picture's sample
        assert h264.mp4_h264_sample_annexb(m, 2).endswith(
            b"\x00\x00\x00\x01" + tail_sei)

    def test_remux_no_pictures_rejected(self):
        nals = h264.split_nals(h264.encode_h264_ipcm(
            np.zeros((16, 16), np.uint8)))
        # SPS+PPS only
        with pytest.raises(ValueError):
            h264.h264_remux_mp4(b"\x00\x00\x00\x01\x67\x42\x00\x1e")

    def test_fuzz_ipcm_stream(self, monkeypatch):
        from hierarchical_bloom_filter_index_ray.functions import codecs
        monkeypatch.setattr(codecs, "MAX_PIXELS", 1 << 16)
        rng = np.random.default_rng(23)
        enc = h264.encode_h264_ipcm(
            rng.integers(0, 256, (2, 32, 32)).astype(np.uint8))
        for _ in range(300):
            mut = bytearray(enc)
            for _ in range(int(rng.integers(1, 6))):
                mut[int(rng.integers(0, len(mut)))] = int(
                    rng.integers(0, 256))
            try:
                h264.decode_h264(bytes(mut))
            except (ValueError, NotImplementedError):
                pass
        for cut in range(4, len(enc), 53):
            try:
                h264.decode_h264(enc[:cut])
            except (ValueError, NotImplementedError):
                pass
