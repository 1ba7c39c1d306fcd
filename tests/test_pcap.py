"""Tests for pcap export/import."""

from __future__ import annotations

import bisect
import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pcap import (
    MAX_CAPLEN,
    PCAP_MAGIC,
    READ_BUFFER,
    PcapWriter,
    iter_pcap,
    iter_pcap_frames,
)
from repro.attacks.mitm import MitmAttack
from repro.errors import CodecError, PcapError
from repro.l2.topology import Lan
from repro.replay.analyze import analyze
from repro.sim.trace import Direction, TraceRecord, TraceRecorder
from repro.stack.os_profiles import WINDOWS_XP


def make_records():
    return [
        TraceRecord(time=1.5, location="a", direction=Direction.RX, frame=b"\xaa" * 60),
        TraceRecord(time=0.25, location="b", direction=Direction.TX, frame=b"\xbb" * 80),
        TraceRecord(time=2.000001, location="c", direction=Direction.RX, frame=b"\xcc" * 64),
    ]


def write_records(records, path, snaplen=65535) -> int:
    """Write ``records`` in the order given; returns the record count."""
    with PcapWriter(path, snaplen=snaplen) as writer:
        for record in records:
            writer.append(record)
        return writer.count


def read_records(path):
    return list(iter_pcap(path))


class TestRoundTrip:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "capture.pcap"
        count = write_records(sorted(make_records(), key=lambda r: r.time), path)
        assert count == 3
        back = read_records(path)
        assert len(back) == 3
        assert [round(r.time, 6) for r in back] == [0.25, 1.5, 2.000001]
        assert back[0].frame == b"\xbb" * 80

    def test_global_header_fields(self, tmp_path):
        path = tmp_path / "capture.pcap"
        write_records(make_records(), path)
        raw = path.read_bytes()
        magic, major, minor, _, _, snaplen, linktype = struct.unpack(
            "<IHHiIII", raw[:24]
        )
        assert magic == PCAP_MAGIC
        assert (major, minor) == (2, 4)
        assert linktype == 1  # Ethernet

    def test_snaplen_truncation(self, tmp_path):
        path = tmp_path / "capture.pcap"
        write_records(make_records(), path, snaplen=32)
        back = read_records(path)
        assert all(len(r.frame) == 32 for r in back)

    def test_empty_capture(self, tmp_path):
        path = tmp_path / "empty.pcap"
        assert write_records([], path) == 0
        assert read_records(path) == []

    def test_big_endian_read(self, tmp_path):
        path = tmp_path / "be.pcap"
        header = struct.pack(">IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 1)
        body = struct.pack(">IIII", 3, 500000, 4, 4) + b"abcd"
        path.write_bytes(header + body)
        back = read_records(path)
        assert len(back) == 1
        assert back[0].time == pytest.approx(3.5)


class TestStreamingPrimitives:
    def test_iter_pcap_is_a_generator(self, tmp_path):
        path = tmp_path / "capture.pcap"
        with PcapWriter(path) as writer:
            for record in sorted(make_records(), key=lambda r: r.time):
                writer.append(record)
        stream = iter_pcap(path)
        assert iter(stream) is stream  # generator, not a list
        first = next(stream)
        assert first.frame == b"\xbb" * 80
        assert first.location == "pcap[0]"
        assert [r.location for r in stream] == ["pcap[1]", "pcap[2]"]

    def test_writer_append_frame_and_count(self, tmp_path):
        path = tmp_path / "raw.pcap"
        with PcapWriter(path) as writer:
            writer.append_frame(0.5, b"\x01" * 60)
            writer.append_frame(1.25, b"\x02" * 64)
            assert writer.count == 2
        back = list(iter_pcap(path))
        assert [r.time for r in back] == [pytest.approx(0.5), pytest.approx(1.25)]

    def test_writer_wraps_open_file_without_closing_it(self, tmp_path):
        buf = io.BytesIO()
        with PcapWriter(buf) as writer:
            writer.append_frame(0.0, b"\x03" * 60)
        assert not buf.closed  # caller-owned handle stays open
        buf.seek(0)
        assert len(list(iter_pcap(buf))) == 1
        assert not buf.closed  # same for the reader

    def test_microsecond_rounding_carry(self, tmp_path):
        path = tmp_path / "carry.pcap"
        with PcapWriter(path) as writer:
            writer.append_frame(1.9999999, b"\x04" * 60)  # rounds to 2.0s
        (record,) = iter_pcap(path)
        assert record.time == pytest.approx(2.0)


class TestHypothesisRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(
        frames=st.lists(
            st.tuples(
                st.floats(
                    min_value=0.0, max_value=2**31 - 1,
                    allow_nan=False, allow_infinity=False,
                ),
                st.binary(min_size=1, max_size=256),
            ),
            max_size=20,
        )
    )
    def test_writer_reader_frames_byte_identical(self, frames):
        """frames -> PcapWriter -> iter_pcap -> byte-identical payloads."""
        buf = io.BytesIO()
        with PcapWriter(buf) as writer:
            for ts, raw in frames:
                writer.append_frame(ts, raw)
        buf.seek(0)
        back = list(iter_pcap(buf))
        assert [r.frame for r in back] == [raw for _, raw in frames]
        # Timestamps survive to pcap's microsecond quantization.
        for (ts, _), record in zip(frames, back):
            assert record.time == pytest.approx(ts, abs=1e-6)


def walk_capture(data: bytes):
    """``(seconds, micros, caplen, origlen, body)`` per record of a
    little-endian capture, by plain offset arithmetic."""
    records = []
    pos = 24
    while pos < len(data):
        seconds, micros, caplen, origlen = struct.unpack_from("<IIII", data, pos)
        records.append((seconds, micros, caplen, origlen, data[pos + 16 : pos + 16 + caplen]))
        pos += 16 + caplen
    return records


def to_big_endian(data: bytes) -> bytes:
    """The same capture written in big-endian byte order."""
    parts = [struct.pack(">IHHiIII", *struct.unpack_from("<IHHiIII", data))]
    for seconds, micros, caplen, origlen, body in walk_capture(data):
        parts.append(struct.pack(">IIII", seconds, micros, caplen, origlen) + body)
    return b"".join(parts)


class CountingReader(io.BytesIO):
    """An in-memory capture that counts the bytes handed to the parser."""

    def __init__(self, data: bytes) -> None:
        super().__init__(data)
        self.bytes_read = 0

    def read(self, size=-1):
        chunk = super().read(size)
        self.bytes_read += len(chunk)
        return chunk


#: Block sizes for the parser tests: smaller than a record header, than
#: a record, and the default.
BUFFER_SIZES = (1, 7, 16, 17, 100, READ_BUFFER)


class TestBlockParser:
    @settings(max_examples=60, deadline=None)
    @given(
        frames=st.lists(
            st.tuples(
                st.floats(
                    min_value=0.0, max_value=2**31 - 1,
                    allow_nan=False, allow_infinity=False,
                ),
                st.binary(max_size=300),
            ),
            max_size=20,
        ),
        snaplen=st.sampled_from((16, 64, 65535)),
        big_endian=st.booleans(),
    )
    def test_returns_exactly_what_the_writer_wrote(self, frames, snaplen, big_endian):
        buf = io.BytesIO()
        with PcapWriter(buf, snaplen=snaplen) as writer:
            for ts, raw in frames:
                writer.append_frame(ts, raw)
        data = buf.getvalue()
        written = walk_capture(data)
        # The writer truncates to snaplen and keeps the original length.
        assert [(origlen, body) for _, _, _, origlen, body in written] == [
            (len(raw), raw[:snaplen]) for _, raw in frames
        ]
        expected = [(seconds + micros / 1_000_000, body) for seconds, micros, _, _, body in written]
        if big_endian:
            data = to_big_endian(data)
        for size in BUFFER_SIZES:
            assert list(iter_pcap_frames(io.BytesIO(data), buffer_size=size)) == expected

    @pytest.mark.parametrize("buffer_size", (1, 5, 40, READ_BUFFER))
    def test_every_cut_names_offset_and_record(self, buffer_size):
        """Cut a capture at every byte: a cut on a record boundary is a
        shorter valid capture, any other cut a PcapError naming where the
        short header or body starts and which record it is."""
        frames = [b"\x01" * 60, b"", b"\x02" * 20, b"\x03" * 90]
        buf = io.BytesIO()
        with PcapWriter(buf) as writer:
            for i, raw in enumerate(frames):
                writer.append_frame(float(i), raw)
        data = buf.getvalue()
        starts = [24]  # byte offset of each record, then of the end
        for raw in frames:
            starts.append(starts[-1] + 16 + len(raw))
        assert starts[-1] == len(data)
        for cut in range(len(data) + 1):
            stream = io.BytesIO(data[:cut])
            if cut < 24:
                pattern = "shorter than the global header"
            elif cut in starts:
                assert len(list(iter_pcap_frames(stream, buffer_size))) == starts.index(cut)
                continue
            else:
                k = bisect.bisect_right(starts, cut) - 1
                got = cut - starts[k]
                if got < 16:
                    pattern = (
                        rf"truncated record header at byte offset {starts[k]} "
                        rf"\(record {k}: got {got} of 16 header bytes\)"
                    )
                else:
                    pattern = (
                        rf"truncated record body at byte offset {starts[k] + 16} "
                        rf"\(record {k}: got {got - 16} of {len(frames[k])} bytes\)"
                    )
            with pytest.raises(PcapError, match=pattern):
                list(iter_pcap_frames(stream, buffer_size))

    def test_iter_pcap_views_the_same_records(self, tmp_path):
        path = tmp_path / "capture.pcap"
        write_records(sorted(make_records(), key=lambda r: r.time), path)
        records = list(iter_pcap(path, buffer_size=7))
        assert [(r.time, r.frame) for r in records] == list(iter_pcap_frames(path))
        assert [r.location for r in records] == ["pcap[0]", "pcap[1]", "pcap[2]"]
        assert {r.direction for r in records} == {Direction.RX}

    def test_rejects_empty_buffer(self, tmp_path):
        path = tmp_path / "capture.pcap"
        write_records(make_records(), path)
        with pytest.raises(ValueError, match="buffer_size"):
            list(iter_pcap_frames(path, buffer_size=0))


class TestCaplenBound:
    def test_corrupt_caplen_past_first_block_rejected_before_buffering(self):
        """A bit-flipped caplen is refused at its header; the parser does
        not keep reading blocks looking for the promised body."""
        frame = b"\x05" * 100
        buf = io.BytesIO()
        with PcapWriter(buf) as writer:
            for i in range(3000):
                writer.append_frame(i * 0.001, frame)
        data = bytearray(buf.getvalue())
        index = READ_BUFFER // 116 + 5
        offset = 24 + index * 116
        assert offset > READ_BUFFER
        struct.pack_into("<I", data, offset + 8, 0x7FFF_FFFF)  # caplen
        stream = CountingReader(bytes(data))
        pattern = rf"record length {0x7FFF_FFFF} exceeds .* byte offset {offset} \(record {index}\)"
        with pytest.raises(PcapError, match=pattern):
            list(iter_pcap_frames(stream))
        assert stream.bytes_read < offset + 2 * READ_BUFFER < len(data)

    def test_maximum_snaplen_is_the_limit(self):
        buf = io.BytesIO()
        with PcapWriter(buf, snaplen=MAX_CAPLEN + 1) as writer:
            writer.append_frame(0.0, b"\x06" * MAX_CAPLEN)
            writer.append_frame(1.0, b"\x07" * (MAX_CAPLEN + 1))
        stream = iter_pcap_frames(io.BytesIO(buf.getvalue()))
        assert next(stream) == (0.0, b"\x06" * MAX_CAPLEN)
        offset = 24 + 16 + MAX_CAPLEN
        with pytest.raises(PcapError, match=rf"byte offset {offset} \(record 1\)"):
            next(stream)


class TestErrors:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.pcap"
        path.write_bytes(b"\x00" * 40)
        with pytest.raises(CodecError):
            read_records(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(b"\xd4\xc3\xb2\xa1")
        with pytest.raises(CodecError):
            read_records(path)

    def test_non_ethernet_rejected(self, tmp_path):
        path = tmp_path / "wifi.pcap"
        path.write_bytes(struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 105))
        with pytest.raises(CodecError):
            read_records(path)

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "trunc.pcap"
        header = struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 1)
        path.write_bytes(header + struct.pack("<IIII", 0, 0, 100, 100) + b"xy")
        with pytest.raises(CodecError):
            read_records(path)

    def test_truncated_body_names_byte_offset(self, tmp_path):
        """A capture ending mid-frame is an error naming where — never a
        silently short read."""
        path = tmp_path / "trunc_body.pcap"
        header = struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 1)
        # One good 4-byte record, then a record promising 100 bytes but
        # delivering 2: the body starts at offset 24 + 16 + 4 + 16 = 60.
        good = struct.pack("<IIII", 0, 0, 4, 4) + b"abcd"
        bad = struct.pack("<IIII", 1, 0, 100, 100) + b"xy"
        path.write_bytes(header + good + bad)
        with pytest.raises(PcapError, match=r"byte offset 60.*record 1"):
            list(iter_pcap(path))

    def test_truncated_header_names_byte_offset(self, tmp_path):
        path = tmp_path / "trunc_header.pcap"
        header = struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 1)
        good = struct.pack("<IIII", 0, 0, 4, 4) + b"abcd"
        path.write_bytes(header + good + b"\x00" * 7)  # 7 of 16 header bytes
        with pytest.raises(PcapError, match=r"byte offset 44.*record 1"):
            list(iter_pcap(path))

    def test_pcap_error_is_a_codec_error(self):
        assert issubclass(PcapError, CodecError)


class TestEndToEnd:
    def test_capture_export_analyze(self, sim, tmp_path):
        """Simulate an attack, export the mirror capture to pcap, read it
        back, and find the attack offline — the full forensics loop."""
        lan = Lan(sim)
        monitor = lan.add_monitor()
        monitor.recorder = TraceRecorder()
        victim = lan.add_host("victim", profile=WINDOWS_XP)
        mallory = lan.add_host("mallory")
        victim.ping(lan.gateway.ip)
        sim.run(until=3.0)
        mitm = MitmAttack(mallory, victim, lan.gateway)
        mitm.start()
        sim.run(until=12.0)
        mitm.stop()

        path = tmp_path / "incident.pcap"
        count = write_records(monitor.recorder.records, path)
        assert count == len(monitor.recorder.records)
        report = analyze(f"pcap:{path}", inventory=lan.true_bindings())
        violations = report.of("arpspoof-mapping-violation")
        assert violations and all(f.mac == mallory.mac for f in violations)
