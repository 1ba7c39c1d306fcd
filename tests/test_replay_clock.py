"""One replay clock: every kept frame reaches the schemes at its own timestamp.

``window`` only bounds how many frames a source hands over at once, so a
scheme's alerts (kind, address and time) and the engine's ``delivered``
count must not depend on it.  The reference is the exact per-frame
replay: each frame at its trace timestamp, clamped to the running
maximum of the stream (frames the capture filter drops included).
"""

from __future__ import annotations

import pytest

from repro.analysis.pcap import PcapWriter
from repro.attacks.mitm import MitmAttack
from repro.l2.topology import Lan
from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.packets.arp import ArpPacket
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.packets.ipv4 import IpProto, Ipv4Packet
from repro.packets.udp import UdpDatagram
from repro.replay import MemorySource, PcapSource, ReplayEngine
from repro.schemes import make_defense
from repro.schemes.arpwatch import ArpWatch
from repro.sim import Simulator
from repro.sim.trace import TraceRecorder
from repro.stack.os_profiles import WINDOWS_XP

WINDOWS = (1, 2, 1024)

VICTIM = ("192.168.88.10", "3c:52:82:96:2d:53")
GATEWAY = ("192.168.88.1", "dc:a6:32:5a:11:11")
MALLORY = "88:6b:6e:7f:46:44"

#: Per-member alerts on the sparse MITM capture, as the exact per-frame
#: replay raises them.  Mallory's first poisoned replies reach the
#: mirror at 2.00011 s.
SPARSE_ALERTS = {
    "arpwatch": [
        (0.00011, "new-station", *VICTIM),
        (0.000219, "new-station", *GATEWAY),
        (2.00011, "changed-ethernet-address", GATEWAY[0], MALLORY),
        (2.00011, "changed-ethernet-address", VICTIM[0], MALLORY),
    ],
    "hybrid": [
        (2.00011, "changed", GATEWAY[0], MALLORY),
        (2.00011, "changed", VICTIM[0], MALLORY),
    ],
    "snort-arpspoof": [
        (2.00011, "arpspoof-mapping-violation", GATEWAY[0], MALLORY),
        (2.00011, "arpspoof-mapping-violation", VICTIM[0], MALLORY),
    ],
}

SCHEMES = (
    "arpwatch", "hybrid", "snort-arpspoof",
    "arpwatch+hybrid", "arpwatch+snort-arpspoof", "hybrid+snort-arpspoof",
)


@pytest.fixture(scope="module")
def sparse_capture(tmp_path_factory):
    """A 42-frame mirror capture of a MITM that starts at t = 2 s and
    runs to t = 20 s, plus the LAN's true bindings (snort's inventory)."""
    sim = Simulator(seed=21)
    lan = Lan(sim)
    monitor = lan.add_monitor()
    monitor.recorder = TraceRecorder()
    victim = lan.add_host("victim", profile=WINDOWS_XP)
    mallory = lan.add_host("mallory")
    victim.ping(lan.gateway.ip)
    sim.run(until=2.0)
    MitmAttack(mallory, victim, lan.gateway).start()
    sim.run(until=20.0)
    path = tmp_path_factory.mktemp("sparse") / "mitm.pcap"
    with PcapWriter(path) as writer:
        for record in monitor.recorder.records:
            writer.append(record)
    assert len(monitor.recorder.records) == 42
    return path, lan.true_bindings()


def replay(source, key, window, inventory=None):
    engine = ReplayEngine(Simulator(seed=1), window=window, inventory=inventory)
    scheme = engine.install(make_defense(key))
    stats = engine.run(source)
    members = getattr(scheme, "schemes", [scheme])
    alerts = [
        [(a.time, a.kind, str(a.ip), str(a.mac)) for a in member.alerts]
        for member in members
    ]
    return alerts, stats


@pytest.mark.parametrize("key", SCHEMES)
def test_sparse_capture_alerts_at_every_window(sparse_capture, key):
    path, inventory = sparse_capture
    expected = [SPARSE_ALERTS[member] for member in key.split("+")]
    delivered = set()
    for window in WINDOWS:
        alerts, stats = replay(PcapSource(path), key, window, inventory)
        assert alerts == expected, window
        assert stats["frames"] == 42
        delivered.add(stats["delivered"])
    assert len(delivered) == 1


def announce(station: int, mac_low: int, ts: float):
    mac = MacAddress(bytes((2, 0, 0, 0, 0, mac_low)))
    arp = ArpPacket.gratuitous(sha=mac, spa=Ipv4Address(bytes((10, 0, 0, station))))
    frame = EthernetFrame(dst=BROADCAST_MAC, src=mac, ethertype=EtherType.ARP, payload=arp.encode())
    return ts, frame.encode()


def benign(ts: float):
    """A DNS query between two stations: IPv4 the capture filter drops."""
    src, dst = Ipv4Address("10.0.0.1"), Ipv4Address("10.0.0.9")
    udp = UdpDatagram(src_port=40_000, dst_port=53, payload=b"q" * 20)
    packet = Ipv4Packet(
        src=src, dst=dst, proto=IpProto.UDP, payload=udp.encode(src_ip=src, dst_ip=dst)
    )
    frame = EthernetFrame(
        dst=MacAddress(bytes((2, 0, 0, 0, 0, 9))), src=MacAddress(bytes((2, 0, 0, 0, 0, 1))),
        ethertype=EtherType.IPV4, payload=packet.encode(),
    )
    return ts, frame.encode()


#: The rebinding at 2.0 arrives after a benign frame at 3.0: it is
#: behind the stream's clock and lands at 3.0, though the filter drops
#: the frame that set the clock.
SKEWED = [announce(1, 1, 1.0), benign(3.0), announce(1, 3, 2.0), announce(3, 4, 3.5)]
SKEWED_ALERTS = [
    (1.0, "new-station", "10.0.0.1"),
    (3.0, "changed-ethernet-address", "10.0.0.1"),
    (3.5, "new-station", "10.0.0.3"),
]


def skewed_pcap(tmp_path):
    path = tmp_path / "skewed.pcap"
    with PcapWriter(path) as writer:
        for ts, raw in SKEWED:
            writer.append_frame(ts, raw)
    return PcapSource(path)


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("make", (lambda _: MemorySource(SKEWED), skewed_pcap),
                         ids=("memory", "pcap"))
def test_skewed_trace_alerts_at_the_clamped_time(make, window, tmp_path):
    alerts, stats = replay(make(tmp_path), "arpwatch", window)
    assert [(t, kind, ip) for t, kind, ip, _ in alerts[0]] == SKEWED_ALERTS
    assert (stats["frames"], stats["delivered"], stats["skew"]) == (4, 3, 1)


class FrameLog(ArpWatch):
    """arpwatch that also inspects every frame, so the filter is off."""

    def __init__(self) -> None:
        super().__init__()
        self.seen = []

    def on_any_frame(self, frame, now):
        self.seen.append((now, len(frame.payload)))


@pytest.mark.parametrize("make", (lambda _: MemorySource(SKEWED), skewed_pcap),
                         ids=("memory", "pcap"))
def test_any_frame_scheme_sees_every_frame_at_its_clamped_time(make, tmp_path):
    expected = [
        (ts, len(raw) - 14)
        for ts, raw in zip((1.0, 3.0, 3.0, 3.5), (raw for _, raw in SKEWED))
    ]
    for window in (1, 1024):
        engine = ReplayEngine(Simulator(seed=1), window=window)
        scheme = engine.install(FrameLog())
        stats = engine.run(make(tmp_path))
        assert scheme.seen == expected, window
        assert stats["delivered"] == stats["frames"] == 4
        assert [(a.time, a.kind, str(a.ip)) for a in scheme.alerts] == SKEWED_ALERTS
