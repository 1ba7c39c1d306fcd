"""Frame sources: the streaming input side of the replay engine.

A :class:`FrameSource` is an iterable of ``(timestamp, raw_bytes)``
pairs with ``close()`` and progress accounting (``frames_read`` /
``bytes_read``).  Its :meth:`~FrameSource.windows` method hands the
same stream over a window at a time, as
:class:`~repro.analysis.pcap.FrameWindow` records that carry the
window's counts and its kept frames, each at its clamped timestamp;
the replay engine consumes nothing else.  Sources are
*pull-based*: nothing is read until the consumer asks, so the engine's
bounded in-flight window is the only buffering anywhere in the
pipeline and multi-GB traces replay in O(window) memory.

Three implementations:

* :class:`PcapSource` — streams a classic libpcap capture through the
  block record walk of :mod:`repro.analysis.pcap` (never materializes
  the file), and runs the capture filter inside that walk, which for
  windows runs in a reader process forked for the stream;
* :class:`SyntheticSource` — a seeded, re-iterable generator of ARP
  churn plus a benign TCP/UDP mix at a configurable rate, following the
  ``repro.faults`` rng-stream discipline (`random.Random(f"{seed}/…")`);
* :class:`MemorySource` — an in-memory list for tests (exact float
  timestamps, no pcap microsecond quantization).

Construction is unified behind :func:`open_source` and a compact spec
grammar (``pcap:path/to/file.pcap``, ``synthetic:rate=50k,churn=0.2``)
whose canonical ``spec_string`` round-trips through ``to_dict`` /
``from_dict`` — which is what campaign cache keys hash.
"""

from __future__ import annotations

import marshal
import os
import random
import struct
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.pcap import (
    FrameWindow,
    capture_filter,
    iter_pcap_frames,
    iter_pcap_windows,
)
from repro.errors import PcapError, ReplayError
from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.packets.arp import ArpPacket
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.packets.ipv4 import IpProto, Ipv4Packet
from repro.packets.tcp import TcpFlags, TcpSegment
from repro.packets.udp import UdpDatagram

__all__ = [
    "FrameSource",
    "MemorySource",
    "PcapSource",
    "SyntheticSource",
    "open_source",
    "parse_rate",
]


def parse_rate(value: Union[str, int, float]) -> float:
    """Parse a frame rate with ``k``/``m`` suffixes (``"500k"`` → 500000)."""
    if isinstance(value, (int, float)):
        rate = float(value)
    else:
        text = str(value).strip().lower()
        scale = 1.0
        if text.endswith("k"):
            scale, text = 1e3, text[:-1]
        elif text.endswith("m"):
            scale, text = 1e6, text[:-1]
        try:
            rate = float(text) * scale
        except ValueError:
            raise ReplayError(
                f"invalid rate {value!r} (expected a number, optionally "
                "suffixed k or m)"
            ) from None
    if rate <= 0:
        raise ReplayError(f"rate must be positive, got {value!r}")
    return rate


def _fmt_num(value: float) -> str:
    """Canonical number formatting for spec strings (ints stay ints)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class FrameSource:
    """Protocol base: an iterator of ``(timestamp, raw_bytes)`` pairs.

    Subclasses implement :meth:`__iter__` (re-iterable: each call starts
    the stream over, deterministically) and set :attr:`frames_read` /
    :attr:`bytes_read` to what the stream yielded, at the latest when it
    ends or is closed.  ``close()`` releases any underlying handle;
    sources are also context managers.
    """

    #: Spec-grammar kind tag (``pcap`` / ``synthetic`` / ``memory``).
    kind: str = "?"

    def __init__(self) -> None:
        self.frames_read = 0
        self.bytes_read = 0

    def __iter__(self) -> Iterator[Tuple[float, bytes]]:
        raise NotImplementedError

    def windows(
        self, window: int, floor: float = 0.0, filtered: bool = True
    ) -> Iterator[FrameWindow]:
        """The stream, ``window`` frames at a time.

        Each :class:`~repro.analysis.pcap.FrameWindow` carries the
        window's first timestamp, frame and byte counts, and the frames
        :func:`~repro.analysis.pcap.capture_filter` keeps (every frame
        when ``filtered`` is false) as ``(timestamp, frame)`` pairs.
        Timestamps are clamped to the running maximum, which starts at
        ``floor`` and counts the dropped frames too; ``skew`` counts
        the frames below it and ``max_ts`` is the maximum after the
        window.

        A generator: the replay engine closes it when a run ends or
        fails, which releases whatever the source holds for the stream.
        This default is built on :meth:`__iter__`; a source that can
        filter more cheaply overrides it.
        """
        stream = iter(self)
        top = floor
        while True:
            pairs = list(islice(stream, window))
            if not pairs:
                return
            skew = nbytes = 0
            kept = []
            for ts, frame in pairs:
                nbytes += len(frame)
                if ts < top:
                    skew += 1
                    ts = top
                else:
                    top = ts
                if not filtered or capture_filter(frame, 0, len(frame)):
                    kept.append((ts, frame))
            yield FrameWindow(pairs[0][0], top, len(pairs), nbytes, skew, kept)

    def close(self) -> None:
        """Release underlying resources (idempotent)."""

    def __enter__(self) -> "FrameSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- progress accounting ------------------------------------------
    @property
    def total_frames(self) -> Optional[int]:
        """Expected frame count, when known up front (progress bars)."""
        return None

    # -- spec round-trip ----------------------------------------------
    @property
    def spec_string(self) -> str:
        """Canonical ``kind:params`` spec; feeds campaign cache keys."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "spec": self.spec_string}

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "FrameSource":
        spec = data.get("spec")
        if not isinstance(spec, str):
            raise ReplayError(f"source payload has no spec string: {dict(data)!r}")
        return open_source(spec)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec_string!r})"


#: Length prefix of one message on a reader pipe.
_MESSAGE_LENGTH = struct.Struct("<I")

#: Capacity the reader asks for its pipe: Linux's default ceiling for
#: an unprivileged process.  It holds whole windows even when every
#: frame is kept, so the consumer never waits on the reader mid-window.
_PIPE_SIZE = 1 << 20


def _send(fd: int, message) -> None:
    """Write one length-prefixed marshal message to pipe ``fd``."""
    data = marshal.dumps(message)
    view = memoryview(_MESSAGE_LENGTH.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def _receive(pipe: BinaryIO):
    """Read one message :func:`_send` wrote."""
    head = pipe.read(_MESSAGE_LENGTH.size)
    if len(head) == _MESSAGE_LENGTH.size:
        size = _MESSAGE_LENGTH.unpack(head)[0]
        body = pipe.read(size)
        if len(body) == size:
            return marshal.loads(body)
    raise ReplayError("pcap reader exited before the end of the stream")


def _reader(windows: Iterator[FrameWindow], fd: int) -> None:
    """Body of the forked reader: walk ``windows`` into pipe ``fd``.

    Sends each window as a plain tuple, then ``None`` at the end of the
    stream, or an ``(exception type name, text)`` pair if the walk
    fails.  Leaves by ``os._exit`` on every path, so nothing of the
    parent's (``finally`` blocks, ``atexit`` hooks, stdio buffers) runs
    here.  A parent that stops reading closes the pipe; the next write
    then fails and the reader exits.

    The reader runs behind its consumer.  The consumer's reads wake it
    onto the consumer's CPU, where a batch-policy task waits for a free
    CPU instead of preempting the consumer, and its pipe grows to hold
    whole windows.  Either step is skipped where the platform or the
    pipe quota refuses it; the stream is the same.
    """
    status = 1
    try:
        try:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        except (AttributeError, OSError):
            pass
        try:
            import fcntl

            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_SIZE)
        except (AttributeError, ImportError, OSError):
            pass
        try:
            for win in windows:
                _send(fd, tuple(win))
            message = None
        except Exception as exc:  # noqa: BLE001 - ship the failure home
            message = (type(exc).__name__, str(exc))
        _send(fd, message)
        status = 0
    finally:
        os._exit(status)


def _read_ahead(windows: Iterator[FrameWindow]) -> Iterator[FrameWindow]:
    """``windows``, walked in a reader process forked for the stream.

    The reader walks window k+1 while the consumer handles window k.
    Windows cross a pipe as marshal-encoded tuples, so the stream
    arrives unchanged, floats bit for bit.  The pipe's back-pressure
    stops the reader once the pipe buffer is full, so each process holds
    at most one read block and one window.  A
    :class:`~repro.errors.PcapError` is raised here after the same
    windows, with the same text; any other failure of the reader is a
    :class:`~repro.errors.ReplayError`.  The reader is reaped when the
    stream ends, fails or is closed, and killed first if it may still be
    running.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if not pid:
        os.close(read_end)
        _reader(windows, write_end)
    os.close(write_end)
    pipe = os.fdopen(read_end, "rb")
    finished = False
    try:
        while True:
            message = _receive(pipe)
            if message is None:
                finished = True
                return
            if len(message) == 2:
                finished = True
                name, text = message
                if name == PcapError.__name__:
                    raise PcapError(text)
                raise ReplayError(f"pcap reader failed: {name}: {text}")
            yield FrameWindow._make(message)
    finally:
        pipe.close()
        if not finished:  # the reader may still be walking
            import signal

            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


class PcapSource(FrameSource):
    """Stream a classic libpcap capture.

    Iterates through :func:`repro.analysis.pcap.iter_pcap_frames` and
    windows through :func:`repro.analysis.pcap.iter_pcap_windows`, two
    views of one block record walk: the file is read in fixed-size
    blocks and a capture that ends mid-record raises
    :class:`~repro.errors.PcapError` naming the byte offset.  Windows
    clamp timestamps and, when filtered, run the capture filter inside
    the walk, so a dropped record is never copied out of the read
    buffer.  Timestamps carry pcap's microsecond resolution.
    ``frames_read``/``bytes_read`` are published when the stream ends
    or is closed.

    Where ``os.fork`` exists, :meth:`windows` runs the walk in a reader
    process forked for the stream (:func:`_read_ahead`), so the record
    walk of the next window overlaps the consumer's work on this one;
    elsewhere it walks in process.  Both hand over the same windows.
    """

    kind = "pcap"

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__()
        self.path = Path(path)
        if not self.path.exists():
            raise ReplayError(f"pcap source: no such file {str(self.path)!r}")

    def __iter__(self) -> Iterator[Tuple[float, bytes]]:
        self.frames_read = 0
        self.bytes_read = 0
        frames_read = 0
        bytes_read = 0
        try:
            for pair in iter_pcap_frames(self.path):
                frames_read += 1
                bytes_read += len(pair[1])
                yield pair
        finally:
            self.frames_read = frames_read
            self.bytes_read = bytes_read

    def windows(
        self, window: int, floor: float = 0.0, filtered: bool = True
    ) -> Iterator[FrameWindow]:
        self.frames_read = 0
        self.bytes_read = 0
        frames_read = 0
        bytes_read = 0
        with self.path.open("rb", buffering=0) as capture:
            walk = iter_pcap_windows(capture, window, floor, filtered=filtered)
            stream = _read_ahead(walk) if hasattr(os, "fork") else walk
            try:
                for win in stream:
                    frames_read += win.frames
                    bytes_read += win.bytes
                    yield win
            finally:
                stream.close()
                self.frames_read = frames_read
                self.bytes_read = bytes_read

    @property
    def spec_string(self) -> str:
        return f"pcap:{self.path}"


class MemorySource(FrameSource):
    """An in-memory source for tests: exact float timestamps, no I/O."""

    kind = "memory"

    def __init__(self, frames: Sequence[Tuple[float, bytes]]) -> None:
        super().__init__()
        self._frames: List[Tuple[float, bytes]] = [
            (float(ts), bytes(raw)) for ts, raw in frames
        ]

    @classmethod
    def from_records(cls, records) -> "MemorySource":
        """Build from :class:`~repro.sim.trace.TraceRecord` objects."""
        return cls([(rec.time, rec.frame) for rec in records])

    def __iter__(self) -> Iterator[Tuple[float, bytes]]:
        self.frames_read = 0
        self.bytes_read = 0
        for ts, raw in self._frames:
            self.frames_read += 1
            self.bytes_read += len(raw)
            yield ts, raw

    @property
    def total_frames(self) -> int:
        return len(self._frames)

    @property
    def spec_string(self) -> str:
        # Not spec-constructible (the payload lives in memory); campaigns
        # must use pcap/synthetic sources.
        return f"memory:{len(self._frames)}"


#: SyntheticSource defaults, in canonical spec order.
_SYNTH_DEFAULTS: Dict[str, float] = {
    "rate": 50_000.0,  # frames per trace second
    "frames": 100_000.0,  # stream length
    # 5% ARP is already far above real LAN mixes (<1%) — enough churn
    # signal to exercise the schemes without turning the stream into an
    # ARP flood.
    "arp": 0.05,
    "churn": 0.1,  # fraction of ARP that rebinds an IP to a new MAC
    "hosts": 32.0,  # synthetic station count
    "seed": 7.0,
}


class SyntheticSource(FrameSource):
    """Seeded ARP churn plus a benign TCP/UDP mix at a configurable rate.

    The stream is a pure function of its parameters: every draw comes
    from ``random.Random(f"{seed}/replay/synthetic")`` (the
    ``repro.faults`` rng-stream discipline), and re-iterating restarts
    the stream identically.  ``churn`` is the fraction of ARP slots
    where a station's IP rebinds to a fresh locally-administered MAC and
    announces it — the flip/"changed" events arpwatch-style monitors
    alert on; the rest of the ARP share is benign gratuitous refreshes.

    Benign traffic cycles a pre-encoded pool of TCP and UDP frames
    between stations (~3:1, mirroring real LAN mixes), so the per-frame
    cost of the common case is a list index — the source sustains well
    past the engine's 500k frames/sec target.
    """

    kind = "synthetic"

    def __init__(
        self,
        rate: Union[str, int, float] = _SYNTH_DEFAULTS["rate"],
        frames: Union[str, int, float] = _SYNTH_DEFAULTS["frames"],
        arp: float = _SYNTH_DEFAULTS["arp"],
        churn: float = _SYNTH_DEFAULTS["churn"],
        hosts: int = int(_SYNTH_DEFAULTS["hosts"]),
        seed: int = int(_SYNTH_DEFAULTS["seed"]),
    ) -> None:
        super().__init__()
        self.rate = parse_rate(rate)
        self.frames = int(parse_rate(frames))  # k/m suffixes work here too
        if not 0.0 <= float(arp) <= 1.0:
            raise ReplayError(f"arp share must be in [0, 1], got {arp!r}")
        if not 0.0 <= float(churn) <= 1.0:
            raise ReplayError(f"churn must be in [0, 1], got {churn!r}")
        self.arp = float(arp)
        self.churn = float(churn)
        self.hosts = int(hosts)
        if self.hosts < 2:
            raise ReplayError(f"synthetic source needs >= 2 hosts, got {hosts!r}")
        if self.hosts > 0xFFFF:
            raise ReplayError(f"synthetic source caps at 65535 hosts, got {hosts!r}")
        self.seed = int(seed)

    # -- station addressing -------------------------------------------
    @staticmethod
    def _station_mac(index: int) -> MacAddress:
        # aa:... has the locally-administered bit set and the group bit
        # clear, so synthetic stations can never collide with the
        # realistic-OUI MACs simulated LANs allocate.
        return MacAddress(bytes((0xAA, 0x00, 0x00, 0x00, index >> 8, index & 0xFF)))

    @staticmethod
    def _station_ip(index: int) -> Ipv4Address:
        return Ipv4Address(bytes((10, 200, index >> 8, index & 0xFF)))

    @staticmethod
    def _churn_mac(serial: int) -> MacAddress:
        # Rebind targets: a distinct locally-administered range.
        return MacAddress(
            bytes((0xAE, 0x00, 0x00, (serial >> 16) & 0xFF, (serial >> 8) & 0xFF, serial & 0xFF))
        )

    def _benign_pool(self, rng: random.Random) -> List[bytes]:
        """Pre-encode a pool of benign frames: mostly TCP, some UDP.

        The ~3:1 TCP:UDP split mirrors real LAN mixes; the pool is
        cycled during iteration so the common-case per-frame cost is a
        list index, not a packet encode.
        """
        pool: List[bytes] = []
        for slot in range(64):
            a = rng.randrange(self.hosts)
            b = rng.randrange(self.hosts)
            if b == a:
                b = (a + 1) % self.hosts
            src_ip, dst_ip = self._station_ip(a), self._station_ip(b)
            if slot % 4 == 3:
                payload = UdpDatagram(
                    src_port=40_000 + a % 1000,
                    dst_port=40_000 + b % 1000,
                    payload=bytes(rng.randrange(256) for _ in range(24)),
                ).encode(src_ip=src_ip, dst_ip=dst_ip)
                proto = IpProto.UDP
            else:
                payload = TcpSegment(
                    src_port=49_152 + a % 1000,
                    dst_port=(80, 443, 8080)[slot % 3],
                    seq=rng.randrange(1 << 32),
                    ack=rng.randrange(1 << 32),
                    flags=TcpFlags.ACK | (TcpFlags.PSH if slot % 2 else 0),
                    payload=bytes(rng.randrange(256) for _ in range(32)),
                ).encode(src_ip=src_ip, dst_ip=dst_ip)
                proto = IpProto.TCP
            packet = Ipv4Packet(
                src=src_ip, dst=dst_ip, proto=proto, payload=payload
            ).encode()
            pool.append(
                EthernetFrame(
                    dst=self._station_mac(b),
                    src=self._station_mac(a),
                    ethertype=EtherType.IPV4,
                    payload=packet,
                ).encode()
            )
        return pool

    def __iter__(self) -> Iterator[Tuple[float, bytes]]:
        rng = random.Random(f"{self.seed}/replay/synthetic")
        pool = self._benign_pool(rng)
        pool_len = len(pool)
        owner: Dict[int, MacAddress] = {
            i: self._station_mac(i) for i in range(self.hosts)
        }
        # station -> (its MAC, the announcement of that binding).  One
        # entry per station, so memory stays bounded by the station
        # count: a MAC a station churned away from is never announced
        # again.
        announce_cache: Dict[int, Tuple[MacAddress, bytes]] = {}
        churn_serial = 0
        dt = 1.0 / self.rate
        arp_share = self.arp
        churn = self.churn
        n_hosts = self.hosts
        rnd = rng.random
        randrange = rng.randrange
        self.frames_read = 0
        self.bytes_read = 0
        frames_read = 0
        bytes_read = 0
        try:
            for i in range(self.frames):
                if rnd() < arp_share:
                    station = randrange(n_hosts)
                    if rnd() < churn:
                        churn_serial += 1
                        owner[station] = self._churn_mac(churn_serial)
                    mac = owner[station]
                    cached = announce_cache.get(station)
                    if cached is not None and cached[0] is mac:
                        raw = cached[1]
                    else:
                        arp = ArpPacket.gratuitous(
                            sha=mac, spa=self._station_ip(station)
                        )
                        raw = EthernetFrame(
                            dst=BROADCAST_MAC,
                            src=mac,
                            ethertype=EtherType.ARP,
                            payload=arp.encode(),
                        ).encode()
                        announce_cache[station] = (mac, raw)
                else:
                    raw = pool[i % pool_len]
                frames_read += 1
                bytes_read += len(raw)
                yield i * dt, raw
        finally:
            self.frames_read = frames_read
            self.bytes_read = bytes_read

    @property
    def total_frames(self) -> int:
        return self.frames

    @property
    def spec_string(self) -> str:
        parts = []
        for key in ("rate", "frames", "arp", "churn", "hosts", "seed"):
            value = getattr(self, key)
            if float(value) != _SYNTH_DEFAULTS[key]:
                parts.append(f"{key}={_fmt_num(value)}")
        return "synthetic:" + ",".join(parts) if parts else "synthetic:"


def _parse_kv(body: str, *, allowed: Sequence[str], kind: str) -> Dict[str, str]:
    params: Dict[str, str] = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ReplayError(
                f"{kind} source spec: expected key=value, got {item!r}"
            )
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in allowed:
            raise ReplayError(
                f"{kind} source spec: unknown parameter {key!r}; "
                f"allowed: {sorted(allowed)}"
            )
        if key in params:
            raise ReplayError(f"{kind} source spec: duplicate parameter {key!r}")
        params[key] = value.strip()
    return params


def open_source(
    spec: Union[str, Mapping[str, object], FrameSource],
) -> FrameSource:
    """Build a :class:`FrameSource` from a compact spec.

    Accepts a spec string (``pcap:path/to/file.pcap``,
    ``synthetic:rate=50k,churn=0.2,seed=7``), a ``to_dict`` payload, or
    an already-built source (returned unchanged).  Unknown kinds and
    parameters raise :class:`~repro.errors.ReplayError` naming the
    allowed set, so a typo'd campaign axis fails before any worker
    forks.
    """
    if isinstance(spec, FrameSource):
        return spec
    if isinstance(spec, Mapping):
        return FrameSource.from_dict(spec)
    text = str(spec).strip()
    kind, sep, body = text.partition(":")
    if not sep:
        raise ReplayError(
            f"source spec {text!r} has no kind prefix; expected "
            "'pcap:PATH' or 'synthetic:key=value,...'"
        )
    kind = kind.strip().lower()
    if kind == "pcap":
        if not body.strip():
            raise ReplayError("pcap source spec needs a path: 'pcap:PATH'")
        return PcapSource(body.strip())
    if kind == "synthetic":
        params = _parse_kv(
            body, allowed=tuple(_SYNTH_DEFAULTS), kind="synthetic"
        )
        kwargs: Dict[str, object] = {}
        for key, raw_value in params.items():
            if key in ("rate", "frames"):
                kwargs[key] = parse_rate(raw_value)
            elif key in ("arp", "churn"):
                try:
                    kwargs[key] = float(raw_value)
                except ValueError:
                    raise ReplayError(
                        f"synthetic source spec: {key}={raw_value!r} is not a number"
                    ) from None
            else:  # hosts, seed
                try:
                    kwargs[key] = int(raw_value)
                except ValueError:
                    raise ReplayError(
                        f"synthetic source spec: {key}={raw_value!r} is not an integer"
                    ) from None
        return SyntheticSource(**kwargs)
    raise ReplayError(
        f"unknown source kind {kind!r}; known: ['pcap', 'synthetic']"
    )
