"""pcap import/export for trace captures — streaming-first.

Writes classic libpcap format (magic ``0xa1b2c3d4``, microsecond
timestamps, LINKTYPE_ETHERNET), so a simulated capture opens directly in
Wireshark/tcpdump — and real captures of Ethernet traffic can be pulled
back in and fed to the offline analyzer or the replay engine.

Both directions stream: :func:`iter_pcap_frames` parses the capture in
fixed-size blocks (a multi-GB capture is never materialized),
:func:`iter_pcap` views its output as :class:`TraceRecord` objects, and
:class:`PcapWriter` is a context manager with incremental ``append()``.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterator, Tuple, Union

from repro.errors import PcapError
from repro.sim.trace import Direction, TraceRecord

__all__ = [
    "MAX_CAPLEN",
    "PCAP_MAGIC",
    "PcapWriter",
    "iter_pcap",
    "iter_pcap_frames",
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


def iter_pcap_frames(
    source: Union[str, Path, BinaryIO],
    buffer_size: int = READ_BUFFER,
) -> Iterator[Tuple[float, bytes]]:
    """Stream an Ethernet pcap as ``(timestamp, frame)`` pairs.

    The one record parser: it reads ``buffer_size``-byte blocks and
    walks the records in each block with ``Struct.unpack_from``, so the
    file is never materialized and multi-GB captures replay in
    O(``buffer_size`` + one record) memory.  A record that straddles a
    block boundary is completed from the next read.

    Handles both byte orders; rejects nanosecond-format and non-Ethernet
    captures.  A capture that ends mid-record, or a record header whose
    ``caplen`` exceeds :data:`MAX_CAPLEN`, raises
    :class:`~repro.errors.PcapError` naming the byte offset and record
    index instead of silently truncating.
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
        unpack_from = struct.Struct(endian + "IIII").unpack_from
        hsize = _RECORD_HEADER.size
        read = reader.read
        buf = b""
        base = _GLOBAL_HEADER.size  # file offset of buf[0]
        pos = 0  # start of the next record within buf
        index = 0
        want = buffer_size
        while True:
            end = len(buf)
            while pos + hsize <= end:
                seconds, micros, caplen, _origlen = unpack_from(buf, pos)
                if caplen > MAX_CAPLEN:
                    raise PcapError(
                        f"pcap: record length {caplen} exceeds the "
                        f"{MAX_CAPLEN}-byte maximum at byte offset "
                        f"{base + pos} (record {index})"
                    )
                stop = pos + hsize + caplen
                if stop > end:
                    # Read at least the rest of this record next time.
                    want = max(buffer_size, stop - end)
                    break
                yield seconds + micros / 1_000_000, buf[pos + hsize : stop]
                pos = stop
                index += 1
            block = read(want)
            want = buffer_size
            if not block:
                break
            buf = buf[pos:] + block
            base += pos
            pos = 0
        left = len(buf) - pos
        if left >= hsize:
            caplen = unpack_from(buf, pos)[2]
            raise PcapError(
                f"pcap: truncated record body at byte offset "
                f"{base + pos + hsize} (record {index}: got "
                f"{left - hsize} of {caplen} bytes)"
            )
        if left:
            raise PcapError(
                f"pcap: truncated record header at byte offset {base + pos} "
                f"(record {index}: got {left} of {hsize} header bytes)"
            )
    finally:
        if owns:
            reader.close()


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
