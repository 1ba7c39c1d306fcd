"""The capture filter inside the pcap record walk, and the window protocol.

``iter_pcap_windows`` runs arpwatch's ``arp or udp port 67 or 68`` filter
while it walks the records of a capture.  These tests hold it to the
generic window path (``FrameSource.windows`` over ``iter_pcap_frames``)
field for field, its kept frames to the slice-based filter the replay
engine used to run over every frame, and their timestamps to the
running maximum of the stream.
"""

from __future__ import annotations

import io
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.pcap import (
    MAX_CAPLEN,
    PcapWriter,
    capture_filter,
    iter_pcap_frames,
    iter_pcap_windows,
)
from repro.cli import main
from repro.errors import PcapError
from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.packets.arp import ArpPacket
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.replay import MemorySource, PcapSource, ReplayEngine, SyntheticSource
from repro.schemes import make_defense
from repro.sim import Simulator

BLOCK_SIZES = (7, 100, 65536)
WINDOWS = (1, 7, 1024)


def reference_filter(data: bytes) -> bool:
    """The slice-based ``arp or udp port 67 or 68`` test, as the batched
    replay engine ran it on every frame before the filter moved into
    the sources."""
    dhcp_ports = (b"\x00\x43", b"\x00\x44")
    if data[12:14] == b"\x08\x06":
        return True
    if data[23:24] != b"\x11":
        return False
    if data[12:14] != b"\x08\x00" or len(data) < 38 or (data[14] >> 4) != 4:
        return False
    ihl = (data[14] & 0x0F) * 4
    ports = data[14 + ihl : 14 + ihl + 4]
    return ports[0:2] in dhcp_ports or ports[2:4] in dhcp_ports


PORTS = st.sampled_from((67, 68, 53, 40_000, 0x4300, 0x0043))


@st.composite
def frames(draw):
    """One Ethernet frame: ARP, IPv4 UDP/TCP with any IHL, another
    ethertype or raw bytes; then maybe bit-flipped and cut short."""
    macs = draw(st.binary(min_size=12, max_size=12))
    kind = draw(st.sampled_from(("arp", "udp", "tcp", "other", "raw")))
    if kind == "arp":
        frame = macs + b"\x08\x06" + draw(st.binary(min_size=28, max_size=28))
    elif kind in ("udp", "tcp"):
        ihl = draw(st.integers(0, 15))
        options = bytes(max(0, ihl * 4 - 20))
        payload = draw(st.binary(max_size=24))
        transport = struct.pack(">HHHH", draw(PORTS), draw(PORTS), 8 + len(payload), 0)
        ip = struct.pack(
            ">BBHHHBBH4s4s",
            draw(st.sampled_from((0x40, 0x60))) | ihl, 0,
            20 + len(options) + len(transport) + len(payload), 0, 0, 64,
            17 if kind == "udp" else 6, 0, bytes(4), bytes(4),
        )
        frame = macs + b"\x08\x00" + ip + options + transport + payload
    elif kind == "other":
        frame = macs + draw(st.binary(min_size=2, max_size=2)) + draw(st.binary(max_size=60))
    else:
        frame = draw(st.binary(max_size=60))
    flipped = bytearray(frame)
    flips = st.lists(st.tuples(st.integers(0, 200), st.integers(0, 7)), max_size=3)
    for position, bit in draw(flips):
        if flipped:
            flipped[position % len(flipped)] ^= 1 << bit
    cut = draw(st.one_of(st.none(), st.integers(0, len(flipped))))
    return bytes(flipped[:cut])


captures = st.lists(
    st.tuples(st.integers(0, 5_000_000), frames()), max_size=40
)


def write_capture(records, snaplen=65535, big_endian=False) -> bytes:
    buf = io.BytesIO()
    with PcapWriter(buf, snaplen=snaplen) as writer:
        for micros, raw in records:
            writer.append_frame(micros / 1_000_000, raw)
    data = buf.getvalue()
    if not big_endian:
        return data
    parts = [struct.pack(">IHHiIII", *struct.unpack_from("<IHHiIII", data))]
    pos = 24
    while pos < len(data):
        header = struct.unpack_from("<IIII", data, pos)
        parts.append(struct.pack(">IIII", *header) + data[pos + 16 : pos + 16 + header[2]])
        pos += 16 + header[2]
    return b"".join(parts)


def pick_floor(choice, stamps):
    if choice is None:
        return 0.0
    if isinstance(choice, int):
        return stamps[choice % len(stamps)] if stamps else 0.0
    return choice


def error_text(run):
    try:
        run()
    except PcapError as exc:
        return str(exc)
    return None


class TestParserFilterEquivalence:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        records=captures,
        snaplen=st.sampled_from((20, 40, 65535)),
        big_endian=st.booleans(),
        floor_choice=st.one_of(
            st.none(), st.integers(0, 100), st.floats(0.0, 6.0, allow_nan=False)
        ),
    )
    def test_windows_match_the_generic_path(self, records, snaplen, big_endian, floor_choice):
        data = write_capture(records, snaplen, big_endian)
        pairs = list(iter_pcap_frames(io.BytesIO(data)))
        floor = pick_floor(floor_choice, [ts for ts, _ in pairs])
        clamped = [max([floor] + [ts for ts, _ in pairs[: i + 1]]) for i in range(len(pairs))]
        everything = list(zip(clamped, (raw for _, raw in pairs)))
        selected = [pair for pair in everything if reference_filter(pair[1])]
        for window in WINDOWS:
            generic = list(MemorySource(pairs).windows(window, floor))
            assert [pair for win in generic for pair in win.kept] == selected
            unfiltered = list(MemorySource(pairs).windows(window, floor, False))
            assert [pair for win in unfiltered for pair in win.kept] == everything
            for size in BLOCK_SIZES:
                windows = list(iter_pcap_windows(io.BytesIO(data), window, floor, size))
                assert windows == generic, (window, size)
                windows = list(iter_pcap_windows(io.BytesIO(data), window, floor, size, False))
                assert windows == unfiltered, (window, size)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "capture.pcap"
            path.write_bytes(data)
            source = PcapSource(path)
            assert list(source.windows(7, floor)) == list(MemorySource(pairs).windows(7, floor))
            assert (source.frames_read, source.bytes_read) == (
                len(pairs), sum(len(raw) for _, raw in pairs)
            )

    @pytest.mark.parametrize("micros", (75, 123, 246, 1_000_123, 2_500_000))
    def test_floor_on_a_frame_timestamp(self, micros):
        """A floor equal to a frame's timestamp does not make that frame
        skew, even where ``floor * 10**6`` rounds up past its key (as at
        123 microseconds); a floor just above it does, even where that
        product rounds down onto the key (as at 75)."""
        data = write_capture([(micros - 1, arp_frame(0)), (micros, arp_frame(1)),
                              (micros + 1, arp_frame(2))])
        pairs = list(iter_pcap_frames(io.BytesIO(data)))
        stamp = pairs[1][0]
        for floor in (stamp, math.nextafter(stamp, 0.0), math.nextafter(stamp, 9.0)):
            generic = list(MemorySource(pairs).windows(2, floor))
            assert list(iter_pcap_windows(io.BytesIO(data), 2, floor)) == generic
        assert sum(win.skew for win in MemorySource(pairs).windows(2, stamp)) == 1

    @settings(max_examples=60, deadline=None)
    @given(records=captures, cut=st.integers(0, 10_000), big_endian=st.booleans())
    def test_truncated_capture_raises_the_same_error(self, records, cut, big_endian):
        data = write_capture(records, big_endian=big_endian)
        data = data[: cut % (len(data) + 1)]
        expected = error_text(lambda: list(iter_pcap_frames(io.BytesIO(data))))
        for window in WINDOWS:
            for size in BLOCK_SIZES:
                got = error_text(
                    lambda: list(iter_pcap_windows(io.BytesIO(data), window, 0.0, size))
                )
                assert got == expected, (window, size)

    @settings(max_examples=200, deadline=None)
    @given(frame=frames())
    def test_capture_filter_is_the_reference_filter(self, frame):
        assert capture_filter(frame, 0, len(frame)) == reference_filter(frame)
        # The same frame inside a larger buffer: bounds come from stop.
        padded = b"\x08\x06" * 7 + frame + b"\x00\x43" * 40
        assert capture_filter(padded, 14, 14 + len(frame)) == reference_filter(frame)

    @pytest.mark.parametrize("ihl", (0, 5, 6, 15))
    @pytest.mark.parametrize("ports", ((67, 40_000), (40_000, 68)))
    def test_every_cut_of_a_dhcp_frame(self, ihl, ports):
        """Cut a DHCP frame at every length: the filter reads no byte
        past the cut and agrees with the reference at each boundary."""
        options = bytes(max(0, ihl * 4 - 20))
        ip = struct.pack(">BBHHHBBH4s4s", 0x40 | ihl, 0, 0, 0, 0, 64, 17, 0, bytes(4), bytes(4))
        frame = bytes(12) + b"\x08\x00" + ip + options + struct.pack(">HHHH", *ports, 8, 0)
        for cut in range(len(frame) + 1):
            assert capture_filter(frame[:cut], 0, cut) == reference_filter(frame[:cut]), cut

    @pytest.mark.parametrize("big_endian", (False, True))
    @pytest.mark.parametrize("ihl", (5, 6))
    def test_the_walk_keeps_what_the_filter_keeps_at_every_cut(self, big_endian, ihl):
        """The walk decides ARP and option-less IPv4/UDP from its peek,
        which reads past a short record into the next one.  Each cut of
        an ARP and a DHCP frame is followed by a record whose header and
        body continue the uncut frame (all but the ``caplen`` bytes), so
        a field read past the cut looks like the real one.  The walk
        must keep exactly the records ``capture_filter`` keeps."""
        endian = ">" if big_endian else "<"
        options = bytes(ihl * 4 - 20)
        ip = struct.pack(">BBHHHBBH4s4s", 0x40 | ihl, 0, 0, 0, 0, 64, 17, 0, bytes(4), bytes(4))
        frames = [arp_frame(1)] + [
            bytes(12) + b"\x08\x00" + ip + options + struct.pack(">HHHH", *ports, 8, 0)
            for ports in ((68, 67), (40_000, 67), (68, 40_000), (40_000, 40_000))
        ]
        parts = [struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)]
        records = []
        for frame in frames:
            for cut in range(len(frame) + 1):
                rest = frame[cut:] + bytes(16)
                tail = frame[cut + 16 :]
                seconds, micros, _, origlen = struct.unpack(endian + "IIII", rest[:16])
                for header, body in (
                    ((0, 0, cut, len(frame)), frame[:cut]),
                    ((seconds, micros, len(tail), origlen), tail),
                ):
                    parts.append(struct.pack(endian + "IIII", *header) + body)
                    records.append(body)
        data = b"".join(parts)
        expected = [raw for raw in records if capture_filter(raw, 0, len(raw))]
        assert len(expected) > len(frames)
        for window in WINDOWS:
            for size in BLOCK_SIZES:
                kept = [
                    raw for win in iter_pcap_windows(io.BytesIO(data), window, 0.0, size)
                    for _, raw in win.kept
                ]
                assert kept == expected, (window, size)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            iter_pcap_windows(io.BytesIO(write_capture([])), 0)


def arp_frame(index: int) -> bytes:
    return bytes(6) + bytes([2, 0, 0, 0, 0, index]) + b"\x08\x06" + bytes(28)


#: Timestamps that run backwards three times: at 0.5, 1.5 and 1.75.
SKEWED = [(1.0, arp_frame(1)), (0.5, arp_frame(2)), (2.0, arp_frame(3)),
          (1.5, arp_frame(4)), (1.75, arp_frame(5)), (3.0, arp_frame(6))]


class TestSkewPerFrame:
    def replay(self, source, window, engine=None):
        engine = engine or ReplayEngine(Simulator(seed=1), window=window)
        stats = engine.run(source)
        return stats["skew"], stats["last_ts"], stats["frames"], engine

    @pytest.mark.parametrize("window", (1, 2, 4, 1024))
    def test_memory_source(self, window):
        skew, last_ts, frames, _ = self.replay(MemorySource(SKEWED), window)
        assert (skew, last_ts, frames) == (3, 3.0, 6)

    @pytest.mark.parametrize("window", (1, 2, 4, 1024))
    def test_pcap_source(self, window, tmp_path):
        path = tmp_path / "skewed.pcap"
        with PcapWriter(path) as writer:
            for ts, raw in SKEWED:
                writer.append_frame(ts, raw)
        skew, last_ts, frames, _ = self.replay(PcapSource(path), window)
        assert (skew, last_ts, frames) == (3, 3.0, 6)

    @pytest.mark.parametrize("window", (1, 2, 4, 1024))
    def test_second_run_counts_frames_behind_the_clock(self, window, tmp_path):
        """A second run on the same engine starts at the clock the first
        left: every frame behind it is skew, at every window."""
        path = tmp_path / "skewed.pcap"
        with PcapWriter(path) as writer:
            for ts, raw in SKEWED:
                writer.append_frame(ts + 0.25, raw)
        _, _, _, engine = self.replay(MemorySource(SKEWED), window)
        skew, last_ts, _, _ = self.replay(PcapSource(path), window, engine)
        # Clock at 3.0: only the last frame (3.25) is not behind it.
        assert (skew, last_ts) == (5, 3.25)
        skew, last_ts, _, _ = self.replay(MemorySource(SKEWED), window, engine)
        assert (skew, last_ts) == (6, 3.25)

    def test_batched_alerts_match_per_frame_on_a_pcap(self, tmp_path):
        path = tmp_path / "churn.pcap"
        with PcapWriter(path) as writer:
            for ts, raw in SyntheticSource(frames=20_000, churn=0.4, seed=5):
                writer.append_frame(ts, raw)

        def alerts(window):
            engine = ReplayEngine(Simulator(seed=1), window=window)
            scheme = engine.install(make_defense("arpwatch"))
            stats = engine.run(PcapSource(path))
            return [(a.time, a.kind, a.ip, a.mac) for a in scheme.alerts], stats["delivered"]

        batched = alerts(1024)
        assert batched == alerts(1) == alerts(2)
        assert batched[0]


def announce(station: int, mac_low: int, ts: float):
    mac = MacAddress(bytes((2, 0, 0, 0, 0, mac_low)))
    arp = ArpPacket.gratuitous(sha=mac, spa=Ipv4Address(bytes((10, 0, 0, station))))
    frame = EthernetFrame(dst=BROADCAST_MAC, src=mac, ethertype=EtherType.ARP, payload=arp.encode())
    return ts, frame.encode()


class TestDeliveryTimestamp:
    def test_window_starting_behind_the_clock_lands_at_the_clock(self):
        """Every frame lands at its own timestamp, whatever the window.
        The rebinding at 2.0 is behind the 3.0 the stream reached: it
        lands at 3.0, clamped to the clock."""
        trace = [announce(1, 1, 1.0), announce(2, 2, 3.0),
                 announce(1, 3, 2.0), announce(3, 4, 3.5)]

        def alerts(window):
            engine = ReplayEngine(Simulator(seed=1), window=window)
            scheme = engine.install(make_defense("arpwatch"))
            engine.run(MemorySource(trace))
            return [(a.time, a.kind, str(a.ip)) for a in scheme.alerts]

        for window in (1, 2, 3, 1024):
            assert alerts(window) == [
                (1.0, "new-station", "10.0.0.1"), (3.0, "new-station", "10.0.0.2"),
                (3.0, "changed-ethernet-address", "10.0.0.1"),
                (3.5, "new-station", "10.0.0.3"),
            ], window


def truncated_capture(tmp_path) -> Path:
    path = tmp_path / "truncated.pcap"
    with PcapWriter(path) as writer:
        for i in range(5):
            writer.append_frame(i * 0.1, arp_frame(i))
    path.write_bytes(path.read_bytes()[:-10])
    return path


def oversized_capture(tmp_path) -> Path:
    path = tmp_path / "oversized.pcap"
    with PcapWriter(path) as writer:
        for i in range(3):
            writer.append_frame(i * 0.1, arp_frame(i))
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 24 + 16 + 42 + 8, MAX_CAPLEN + 1)  # record 1 caplen
    path.write_bytes(bytes(data))
    return path


class TestCliMalformedCapture:
    @pytest.mark.parametrize("make", (truncated_capture, oversized_capture))
    @pytest.mark.parametrize("window", ("1024", "1"))
    def test_replay_is_a_one_line_error(self, make, window, tmp_path):
        path = make(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["replay", "--pcap", str(path), "--window", window], out=io.StringIO())
        message = str(exc.value.code)
        assert message.startswith("replay: pcap: ") and "\n" not in message

    @pytest.mark.parametrize("make", (truncated_capture, oversized_capture))
    def test_analyze_is_a_one_line_error(self, make, tmp_path):
        path = make(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(path)], out=io.StringIO())
        message = str(exc.value.code)
        assert message.startswith("analyze: pcap: ") and "\n" not in message

    def test_exit_status_and_no_traceback(self, tmp_path):
        path = truncated_capture(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "analyze", str(path)],
            capture_output=True, text=True, timeout=120, check=False,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("analyze: pcap: truncated record body")
        assert proc.stderr.count("\n") == 1
