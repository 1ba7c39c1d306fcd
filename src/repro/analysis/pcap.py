"""pcap import/export for trace captures — streaming-first.

Writes classic libpcap format (magic ``0xa1b2c3d4``, microsecond
timestamps, LINKTYPE_ETHERNET), so a simulated capture opens directly in
Wireshark/tcpdump — and real captures of Ethernet traffic can be pulled
back in and fed to the replay engine (``repro replay``/``repro analyze``).

Both directions stream.  One record walk parses the capture in
fixed-size blocks (a multi-GB capture is never materialized) and serves
three views: :func:`iter_pcap_frames` yields ``(timestamp, frame)``
pairs, :func:`iter_pcap` views those as :class:`TraceRecord` objects,
and :func:`iter_pcap_windows` runs arpwatch's capture filter inside the
walk and yields :class:`FrameWindow` records for the replay engine.
:class:`PcapWriter` is a context manager with incremental ``append()``.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import BinaryIO, Iterator, List, NamedTuple, Tuple, Union

from repro.errors import PcapError
from repro.sim.trace import Direction, TraceRecord

__all__ = [
    "MAX_CAPLEN",
    "PCAP_MAGIC",
    "FrameWindow",
    "PcapWriter",
    "capture_filter",
    "iter_pcap",
    "iter_pcap_frames",
    "iter_pcap_windows",
]

PCAP_MAGIC = 0xA1B2C3D4
_LINKTYPE_ETHERNET = 1
_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")

#: Block size :func:`iter_pcap_frames` reads (bytes).  The reader never
#: holds more than roughly this much file data plus one frame in memory.
READ_BUFFER = 1 << 16

#: Largest record ``caplen`` accepted: libpcap's maximum snaplen.  A
#: larger value is a corrupt header, rejected before anything is
#: buffered for it.
MAX_CAPLEN = 262_144


class PcapWriter:
    """Incremental classic-pcap writer.

    Context manager: opens ``destination`` (or wraps an already-open
    binary file object), writes the global header immediately, and
    appends one record per :meth:`append` call — nothing is buffered
    beyond the OS file buffer, so arbitrarily long captures stream out
    in O(1) memory.

    Records are written in call order; pcap readers expect monotonic
    captures, so callers append in timestamp order.
    """

    def __init__(
        self,
        destination: Union[str, Path, BinaryIO],
        snaplen: int = 65535,
    ) -> None:
        self.snaplen = snaplen
        self.count = 0
        self._owns_file = not hasattr(destination, "write")
        if self._owns_file:
            self._fh: BinaryIO = Path(destination).open("wb")
        else:
            self._fh = destination  # type: ignore[assignment]
        self._fh.write(
            _GLOBAL_HEADER.pack(
                PCAP_MAGIC,
                2,  # version major
                4,  # version minor
                0,  # thiszone
                0,  # sigfigs
                snaplen,
                _LINKTYPE_ETHERNET,
            )
        )

    def append(self, record: TraceRecord) -> None:
        """Write one record; frames longer than ``snaplen`` are truncated
        with the original length preserved in the header, like a real
        capture."""
        self.append_frame(record.time, record.frame)

    def append_frame(self, timestamp: float, frame: bytes) -> None:
        """Write one raw ``(timestamp, frame)`` pair (replay-source shape)."""
        seconds = int(timestamp)
        micros = int(round((timestamp - seconds) * 1_000_000))
        if micros >= 1_000_000:  # carry from rounding
            seconds += 1
            micros -= 1_000_000
        captured = frame[: self.snaplen]
        self._fh.write(_RECORD_HEADER.pack(seconds, micros, len(captured), len(frame)))
        self._fh.write(captured)
        self.count += 1

    def close(self) -> None:
        if self._owns_file and not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _open_reader(source: Union[str, Path, BinaryIO]) -> tuple:
    """Return ``(fh, owns)`` for a path or already-open binary stream.

    Paths open unbuffered: the parser reads whole blocks itself, so a
    second buffer would only add a copy.
    """
    if hasattr(source, "read"):
        return source, False
    return Path(source).open("rb", buffering=0), True


class FrameWindow(NamedTuple):
    """One window of a frame stream, as a replay source hands it over.

    ``frames`` consecutive frames of the stream, of which ``kept`` holds
    the ones the consumer asked for, in order, as ``(timestamp, frame)``
    pairs.  Each timestamp is clamped to the running maximum of the
    stream's timestamps, dropped frames included; ``skew`` counts the
    window's frames that ran below it, and ``max_ts`` is the maximum
    once the window is through.  The maximum starts from the stream's
    ``floor``, so it carries over from window to window.
    """

    first_ts: float
    max_ts: float
    frames: int
    bytes: int
    skew: int
    kept: List


def capture_filter(buf: bytes, start: int, stop: int) -> bool:
    """arpwatch's capture filter, ``arp or udp port 67 or 68``.

    Tests the frame ``buf[start:stop]`` by indexing, with no copy and
    no decode: ARP by ethertype, DHCP as IPv4/UDP with either port 67
    or 68 at the IHL-derived offset (so IP options are skipped).  A
    frame too short for a field fails the test.  Every kept frame has
    ethertype low byte ``0x06`` (byte 13) or IP protocol ``17`` (byte
    23), so a caller holding those two bytes may skip the call when
    neither matches.
    """
    if stop - start < 14 or buf[start + 12] != 0x08:
        return False
    kind = buf[start + 13]
    if kind == 0x06:
        return True
    if kind or stop - start < 38 or buf[start + 23] != 17:
        return False
    version_ihl = buf[start + 14]
    if version_ihl >> 4 != 4:
        return False
    ports = start + 14 + (version_ihl & 0x0F) * 4
    return (
        ports + 2 <= stop and buf[ports] == 0 and buf[ports + 1] in (67, 68)
    ) or (
        ports + 4 <= stop and buf[ports + 2] == 0 and buf[ports + 3] in (67, 68)
    )


def _stamp(key: int) -> float:
    """The float timestamp of a ``seconds * 10**6 + micros`` key."""
    seconds, micros = divmod(key, 1_000_000)
    return seconds + micros / 1_000_000


def _floor_key(floor: float) -> int:
    """The smallest timestamp key whose float timestamp is >= ``floor``."""
    key = max(0, math.ceil(floor * 1_000_000))
    while key and _stamp(key - 1) >= floor:
        key -= 1
    while _stamp(key) < floor:
        key += 1
    return key


def _walk(
    source: Union[str, Path, BinaryIO],
    buffer_size: int,
    window: int,
    floor: float,
    filtered: bool,
) -> Iterator[FrameWindow]:
    """The one record walk behind every pcap reader.

    Reads ``buffer_size``-byte blocks and walks the records in each
    block with one ``Struct.unpack_from`` per record, so the file is
    never materialized and multi-GB captures stream in
    O(``buffer_size`` + one window) memory.  A record that straddles a
    block boundary is completed from the next read.  The unpack also
    peeks at the frame's ethertype, IPv4 version/IHL and protocol and
    the UDP ports of an option-less IPv4 header, so the filter decides
    ARP and option-less IPv4/UDP inline and calls
    :func:`capture_filter` only for IPv4 with options.  Peeked fields
    past a record's ``caplen`` belong to the next record and are never
    trusted; the buffer ends in one unpack's worth of zero padding, so
    an unpack at a partial header never runs off its end.

    Timestamps are compared as integer ``seconds * 10**6 + micros``
    keys, so a record becomes a float only when it is a window's first
    or is kept.  For micros below 10**6 (every well-formed capture) the
    keys order exactly as the float timestamps do.

    A window is yielded every ``window`` records and at the end of the
    capture; the records of a window cut short by an error are dropped
    with it.  A kept record's timestamp is clamped to the running
    maximum.  ``filtered`` keeps only the frames :func:`capture_filter`
    passes, and a dropped record is never copied out of the buffer.
    A ``window`` below 1 is the raw view: every record, at its own
    unclamped timestamp, yielded at the end of each block so every
    record before an error reaches the caller.
    """
    if buffer_size < 1:
        raise ValueError(f"buffer_size must be positive, got {buffer_size!r}")
    reader, owns = _open_reader(source)
    try:
        head = reader.read(_GLOBAL_HEADER.size)
        if len(head) < _GLOBAL_HEADER.size:
            raise PcapError("pcap: file shorter than the global header")
        magic_le = struct.unpack("<I", head[:4])[0]
        if magic_le == PCAP_MAGIC:
            endian = "<"
        elif struct.unpack(">I", head[:4])[0] == PCAP_MAGIC:
            endian = ">"
        else:
            raise PcapError(f"pcap: unrecognized magic 0x{magic_le:08x}")
        linktype = struct.unpack(endian + "IHHiIII", head)[6]
        if linktype != _LINKTYPE_ETHERNET:
            raise PcapError(f"pcap: linktype {linktype} is not Ethernet")
        # Record header (origlen skipped), then the frame's ethertype,
        # version/IHL, protocol and option-less UDP ports.  The frame's
        # fields are big-endian; the peek reads them in the file's byte
        # order, so the constants are converted once instead.
        peek = struct.Struct(endian + "III4x12xHB8xB10xHH")
        unpack_from = peek.unpack_from

        def field(value: int) -> int:
            return struct.unpack(endian + "H", value.to_bytes(2, "big"))[0]

        arp, ipv4, dhcp = field(0x0806), field(0x0800), (field(67), field(68))
        pad = bytes(peek.size)
        hsize = _RECORD_HEADER.size
        read = reader.read
        keep = capture_filter
        raw = window < 1
        top = _floor_key(floor)
        reached = False  # has any record reached the floor yet?
        buf = pad
        end = 0  # buf[end:] is padding
        base = _GLOBAL_HEADER.size  # file offset of buf[0]
        pos = 0  # start of the next record within buf
        start = base  # file offset of the current window's first record
        done = 0  # records in windows already yielded
        n = skew = caplen = stop = 0
        first_ts = 0.0
        kept: list = []
        eof = False
        while True:
            while n != window:
                seconds, micros, caplen, ether, vihl, proto, sport, dport = unpack_from(
                    buf, pos
                )
                stop = pos + hsize + caplen
                if stop > end or caplen > MAX_CAPLEN:
                    break
                key = seconds * 1_000_000 + micros
                if not n:
                    first_ts = seconds + micros / 1_000_000
                if key < top:
                    skew += 1
                else:
                    top = key
                if not filtered or (
                    caplen >= 14
                    if ether == arp
                    else ether == ipv4 and proto == 17 and caplen >= 38 and (
                        sport in dhcp or dport in dhcp
                        if vihl == 0x45
                        else keep(buf, pos + hsize, stop)
                    )
                ):
                    if key == top or raw:
                        ts = seconds + micros / 1_000_000
                    elif reached or n >= skew:  # an earlier record reached the floor
                        ts = _stamp(top)
                    else:
                        ts = floor
                    kept.append((ts, buf[pos + hsize : stop]))
                pos = stop
                n += 1
            if n and (n == window or raw or eof):
                reached = reached or n > skew
                yield FrameWindow(
                    first_ts, _stamp(top) if reached else floor,
                    n, base + pos - start - hsize * n, skew, kept,
                )
                start = base + pos
                done += n
                n = skew = 0
                kept = []
            if eof:
                return
            if stop == pos:
                continue  # the window filled: walk on through the buffer
            # The record at pos is not wholly in the buffer, or its
            # header is corrupt.
            header = pos + hsize <= end
            if header and caplen > MAX_CAPLEN:
                raise PcapError(
                    f"pcap: record length {caplen} exceeds the "
                    f"{MAX_CAPLEN}-byte maximum at byte offset "
                    f"{base + pos} (record {done + n})"
                )
            # Read at least the rest of this record.
            block = read(max(buffer_size, stop - end) if header else buffer_size)
            if block:
                buf = b"".join((buf[pos:end], block, pad))
                base += pos
                end += len(block) - pos
                pos = 0
                continue
            left = end - pos
            if left >= hsize:
                raise PcapError(
                    f"pcap: truncated record body at byte offset "
                    f"{base + pos + hsize} (record {done + n}: got "
                    f"{left - hsize} of {caplen} bytes)"
                )
            if left:
                raise PcapError(
                    f"pcap: truncated record header at byte offset {base + pos} "
                    f"(record {done + n}: got {left} of {hsize} header bytes)"
                )
            eof = True
    finally:
        if owns:
            reader.close()


def iter_pcap_frames(
    source: Union[str, Path, BinaryIO],
    buffer_size: int = READ_BUFFER,
) -> Iterator[Tuple[float, bytes]]:
    """Stream an Ethernet pcap as ``(timestamp, frame)`` pairs.

    A view over the one record walk: it reads ``buffer_size``-byte
    blocks, so multi-GB captures stream in O(``buffer_size`` + one
    record) memory, and hands out each block's records as soon as the
    block is walked.

    Handles both byte orders; rejects nanosecond-format and non-Ethernet
    captures.  A capture that ends mid-record, or a record header whose
    ``caplen`` exceeds :data:`MAX_CAPLEN`, raises
    :class:`~repro.errors.PcapError` naming the byte offset and record
    index instead of silently truncating; every record before it is
    yielded first.
    """
    for block in _walk(source, buffer_size, -1, 0.0, filtered=False):
        yield from block.kept


def iter_pcap_windows(
    source: Union[str, Path, BinaryIO],
    window: int,
    floor: float = 0.0,
    buffer_size: int = READ_BUFFER,
    filtered: bool = True,
) -> Iterator[FrameWindow]:
    """Stream an Ethernet pcap as :class:`FrameWindow` records.

    A view over the one record walk: each window covers ``window``
    records and keeps them as ``(timestamp, frame)`` pairs, timestamps
    clamped to the running maximum, which starts at ``floor``.
    ``filtered`` runs arpwatch's capture filter (:func:`capture_filter`)
    inside the walk and keeps only the ARP and DHCP frames, so a
    dropped record costs one header unpack and a few integer compares.
    Same checks and same :class:`~repro.errors.PcapError` text as
    :func:`iter_pcap_frames`; the records of a window cut short by an
    error are not yielded.
    """
    if window < 1:
        raise ValueError(f"window must be positive, got {window!r}")
    return _walk(source, buffer_size, window, floor, filtered)


def iter_pcap(
    source: Union[str, Path, BinaryIO],
    buffer_size: int = READ_BUFFER,
) -> Iterator[TraceRecord]:
    """Stream an Ethernet pcap as :class:`TraceRecord` objects.

    A view over :func:`iter_pcap_frames` (same checks, same errors) for
    offline analysis: each record is received (``RX``) at location
    ``pcap[i]``, ``i`` being its index in the capture.
    """
    for index, (timestamp, frame) in enumerate(iter_pcap_frames(source, buffer_size)):
        yield TraceRecord(
            time=timestamp,
            location=f"pcap[{index}]",
            direction=Direction.RX,
            frame=frame,
        )
