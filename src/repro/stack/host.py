"""A simulated end host: NIC, ARP resolver/cache, IPv4, ICMP, UDP, TCP-lite.

The host is where ARP cache poisoning actually lands, so its ARP input
path is written to be *hookable* in exactly the three places the surveyed
defenses attach:

* ``arp_guards`` — called on every received ARP packet before the cache is
  touched; a guard can force-accept, reject, or abstain.  Anticap,
  Antidote, S-ARP/TARP verification and the host middleware all live here.
* ``arp_tx_transform`` — rewrites ARP packets this host originates;
  S-ARP/TARP use it to append signatures/tickets.
* ``arp_rx_cost`` / ``arp_tx_cost`` — charge signing/verification time to
  the simulated clock, so crypto schemes show up in resolution latency.

``arp_guards``, ``frame_taps`` and ``forward_taps`` are
:class:`repro.hooks.HookPoint` pipelines: deterministically ordered,
fault-isolated (a crashing guard is counted and attributed, not fatal),
and safe against removal during dispatch.  They keep a list-compatible
``append``/``remove`` surface for ad-hoc taps.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CodecError, StackError
from repro.hooks import HookPoint, Pipeline
from repro.l2.device import Device, Port
from repro.net.addresses import (
    BROADCAST_IP,
    BROADCAST_MAC,
    Ipv4Address,
    Ipv4Network,
    MacAddress,
)
from repro.obs.trace import TRACER
from repro.perf import PERF
from repro.packets.arp import ArpOp, ArpPacket
from repro.packets.ethernet import EtherType, EthernetFrame, FrameView, frame_bytes
from repro.packets.icmp import IcmpMessage, IcmpType
from repro.packets.ipv4 import IpProto, Ipv4Packet
from repro.packets.tcp import TcpFlags, TcpSegment
from repro.packets.udp import UdpDatagram
from repro.sim.simulator import Simulator
from repro.sim.trace import Direction, TraceRecorder
from repro.stack.arp_cache import ArpCache, BindingSource
from repro.stack.os_profiles import LINUX, OsProfile

__all__ = ["Host", "ArpGuard", "UdpHandler"]

#: Guard verdicts: True = force accept, False = drop, None = no opinion.
ArpGuard = Callable[["Host", ArpPacket, EthernetFrame], Optional[bool]]
#: UDP handler signature: (host, src_ip, datagram).
UdpHandler = Callable[["Host", Ipv4Address, UdpDatagram], None]

#: One-entry identity memo of the batched receive loop: the last buffer a
#: host built a view of, and that view.  A flood hands the same ``bytes``
#: object to every egress port, so the next host receiving it reuses the
#: view — and with it the payload slice whose cached hash keys
#: ``ArpPacket.decode``'s memo.  A view depends only on its immutable
#: buffer, so sharing one across hosts and simulators is safe.
_shared_data: Optional[bytes] = None
_shared_view: Optional[FrameView] = None

#: Stands in for the ``host.rx`` span when tracing is off.
_NO_SPAN = nullcontext()


@dataclass
class _PendingResolution:
    started_at: float
    attempts: int = 1
    waiters: List[Tuple[Callable[[MacAddress], None], Optional[Callable[[], None]]]] = (
        field(default_factory=list)
    )
    timer: Optional[object] = None  # sim Event


@dataclass
class _PendingPing:
    callback: Optional[Callable[[Ipv4Address, float], None]]
    sent_at: float
    timer: Optional[object] = None  # sim Event for the reply timeout


class Host(Device):
    """An end station on the LAN.

    Parameters
    ----------
    sim, name:
        Simulation engine and a unique host name.
    mac:
        The NIC's hardware address.
    ip:
        Static IPv4 address, or ``None`` when the host will DHCP.
    network:
        The LAN subnet; used for on-link vs via-gateway routing.
    gateway:
        Default gateway IP (resolved through ARP like everything else).
    profile:
        The OS cache-update policy (:mod:`repro.stack.os_profiles`).
    """

    #: Does the protocol stack take frames sent to a group address?  A
    #: NIC that sees everything (taps, promiscuous mode) hands the
    #: stack only frames to this station and, while this is set, group
    #: frames; the taps see the rest.
    _stack_takes_group = True

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: MacAddress,
        ip: Optional[Ipv4Address] = None,
        network: Optional[Ipv4Network] = None,
        gateway: Optional[Ipv4Address] = None,
        profile: OsProfile = LINUX,
    ) -> None:
        super().__init__(sim, name)
        self.nic: Port = self.add_port(name=f"{name}.eth0")
        self.mac = mac
        self.ip = ip
        self.network = network
        self.gateway = gateway
        self.profile = profile
        self.arp_cache = ArpCache(
            default_timeout=profile.cache_timeout,
            capacity=profile.neighbor_table_size,
        )
        #: Frame capture of this NIC, or ``None`` (nothing is recorded).
        #: A reader that wants a capture assigns a recorder before the run.
        self.recorder: Optional[TraceRecorder] = None
        self.promiscuous = False
        self.ip_forward = False

        # Scheme attachment points — every list-like surface is a
        # fault-isolated HookPoint (repro.hooks): deterministic ordering,
        # one-shot removal tokens, per-scheme error attribution.
        self.hooks = Pipeline(node=name)
        #: ARP input guards; first non-None verdict wins.
        self.arp_guards: HookPoint = self.hooks.point(
            "host.arp_guard", fallback_label="arp-guard"
        )
        self.arp_tx_transform: Optional[Callable[[ArpPacket], ArpPacket]] = None
        self.arp_rx_cost: Optional[Callable[[ArpPacket], float]] = None
        self.arp_tx_cost: Optional[Callable[[ArpPacket], float]] = None
        #: Promiscuous observers of every received frame (monitors, sniffers).
        self.frame_taps: HookPoint = self.hooks.point("host.frame_tap")
        #: Forward taps may return a replacement packet (tampering) or None.
        self.forward_taps: HookPoint = self.hooks.point("host.forward_tap")

        # Transport state ------------------------------------------------
        self._pending_arp: Dict[Ipv4Address, _PendingResolution] = {}
        self._udp_handlers: Dict[int, UdpHandler] = {}
        self.tcp_open_ports: set[int] = set()
        self._pending_pings: Dict[Tuple[int, int], _PendingPing] = {}
        self._pending_tcp: Dict[
            Tuple[Ipv4Address, int, int], Callable[[TcpSegment], None]
        ] = {}
        self._ping_ids = itertools.count(1)
        self._ip_ids = itertools.count(1)
        self._ephemeral_ports = itertools.count(49152)
        self.icmp_echo_enabled = True
        self.arp_responder_enabled = True

        # Counters ---------------------------------------------------------
        self.counters: Dict[str, int] = {
            "arp_rx": 0,
            "arp_tx": 0,
            "arp_requests_sent": 0,
            "arp_replies_sent": 0,
            "arp_guard_drops": 0,
            "arp_unsolicited_ignored": 0,
            "arp_resolution_failures": 0,
            "ip_tx": 0,
            "ip_rx": 0,
            "ip_forwarded": 0,
            "ip_no_route": 0,
            "ip_misaddressed": 0,
            "icmp_echo_rx": 0,
            "icmp_reply_rx": 0,
            "udp_rx": 0,
            "udp_unreachable": 0,
            "tcp_rx": 0,
            "decode_errors": 0,
        }
        self.resolution_latencies: List[float] = []

    # ==================================================================
    # Configuration helpers
    # ==================================================================
    def set_ip(
        self,
        ip: Ipv4Address,
        network: Optional[Ipv4Network] = None,
        gateway: Optional[Ipv4Address] = None,
    ) -> None:
        """(Re)configure addressing — used by the DHCP client."""
        self.ip = ip
        if network is not None:
            self.network = network
        if gateway is not None:
            self.gateway = gateway

    def udp_bind(self, port: int, handler: UdpHandler) -> None:
        if port in self._udp_handlers:
            raise StackError(f"{self.name}: UDP port {port} already bound")
        self._udp_handlers[port] = handler

    def udp_unbind(self, port: int) -> None:
        self._udp_handlers.pop(port, None)

    def release(self) -> None:
        """Also drop in-flight state: pending resolutions, echoes and TCP
        probes, whose callbacks point back at this host, and the UDP
        bindings of the services running on it.  Counters, the ARP cache
        and resolution latencies stay readable."""
        super().release()
        self._pending_arp.clear()
        self._pending_pings.clear()
        self._pending_tcp.clear()
        self._udp_handlers.clear()

    def add_arp_guard(
        self, guard: ArpGuard, priority: int = 0, owner: Optional[str] = None
    ) -> Callable[[], None]:
        """Install an ARP input guard; returns a one-shot uninstaller."""
        return self.arp_guards.add(guard, priority=priority, owner=owner)

    # ==================================================================
    # Frame input
    # ==================================================================
    def on_frame_batch(self, port: Port, datas: Sequence[bytes]) -> None:
        """The NIC's one receive entry: filter the frames, then one loop.

        Anything that makes the NIC see everything (taps, promiscuous
        mode) or that follows each frame (tracing) sends every frame
        through :meth:`on_frame`, one at a time in wire order.

        Otherwise a non-promiscuous, untapped NIC compares destination
        MAC slices across every frame in the batch in one comprehension
        (a batch of one, the common flood delivery, is tested in place)
        — foreign unicast never produces a frame view, a capture record,
        or even a per-frame Python call.  Every survivor is addressed to
        this host (its own MAC or a group address), so the loop records
        it, builds its view and dispatches on ethertype, one frame at a
        time in wire order: capturing the whole batch first would
        reorder RX records against the TX records their handling
        produces.
        """
        if self.frame_taps.hooks or self.promiscuous or TRACER.enabled:
            on_frame = self.on_frame
            for data in datas:
                on_frame(port, data)
            return
        if len(datas) == 1:
            data = datas[0]
            if len(data) >= 14 and not data[0] & 1 and data[:6] != self.mac.packed:
                PERF.nic_batch_filtered += 1
                return
        else:
            mine = self.mac.packed
            survivors = [
                d for d in datas if len(d) < 14 or d[0] & 1 or d[:6] == mine
            ]
            PERF.nic_batch_filtered += len(datas) - len(survivors)
            if not survivors:
                return
            datas = survivors
        global _shared_data, _shared_view
        recorder = self.recorder
        arp, ipv4 = EtherType.ARP, EtherType.IPV4
        for data in datas:
            if recorder is not None:
                recorder.record(self.sim.now, self.name, Direction.RX, data)
            if data is _shared_data:
                # The previous receiver's view of this flooded buffer.
                # Count what a fresh view would: its construction, and
                # the payload read every ARP and IPv4 handler makes
                # (unless this view's read is still to come).
                frame = _shared_view
                PERF.lazy_frames += 1
                ethertype = frame.ethertype
                if frame.payload_materialized and (
                    ethertype == arp or ethertype == ipv4
                ):
                    PERF.payload_decodes += 1
            else:
                try:
                    frame = FrameView(data)
                except CodecError:
                    self.counters["decode_errors"] += 1
                    continue
                _shared_data, _shared_view = data, frame
                ethertype = frame.ethertype
            if ethertype == arp:
                self._arp_rx(frame)
            elif ethertype == ipv4:
                self._ip_rx(frame)

    def on_frame(self, port: Port, data: bytes) -> None:
        """One observed frame: the per-frame step of
        :meth:`on_frame_batch` (ports deliver only through that entry).

        Without taps or promiscuous mode the NIC still drops foreign
        unicast on its first six bytes.  A frame it keeps is recorded,
        gets a view of its own (outside the flood memo, whose counting
        assumes its reader is the stack, while a tap reads what it
        likes) and runs past the taps, inside a ``host.rx`` span when
        tracing.  It
        reaches the stack only when it is addressed to this station or,
        with :attr:`_stack_takes_group` set, to a group address.
        """
        taps = self.frame_taps
        mine = self.mac.packed
        if (
            not taps.hooks
            and not self.promiscuous
            and len(data) >= 14
            and not data[0] & 1  # I/G bit clear: unicast destination
            and data[:6] != mine
        ):
            return
        recorder = self.recorder
        if recorder is not None:
            recorder.record(self.sim.now, self.name, Direction.RX, data)
        try:
            frame = FrameView(data)
        except CodecError:
            self.counters["decode_errors"] += 1
            return
        with (
            TRACER.frame_span("host.rx", data, node=self.name)
            if TRACER.enabled
            else _NO_SPAN
        ):
            if taps.hooks:
                # The hook point handles tracing (one scheme.inspect span
                # per labeled tap) and isolates tap exceptions.
                taps.emit(frame, data)
            if data[:6] == mine or (self._stack_takes_group and data[0] & 1):
                ethertype = frame.ethertype
                if ethertype == EtherType.ARP:
                    self._arp_rx(frame)
                elif ethertype == EtherType.IPV4:
                    self._ip_rx(frame)

    # ==================================================================
    # ARP
    # ==================================================================
    def _arp_rx(self, frame: EthernetFrame) -> None:
        try:
            arp = ArpPacket.decode(frame.payload)
        except CodecError:
            self.counters["decode_errors"] += 1
            return
        self.counters["arp_rx"] += 1
        ip = self.ip
        if (
            arp.op == ArpOp.REQUEST
            and ip is not None
            and self.arp_rx_cost is None
            and not self.arp_guards.hooks
        ):
            # RFC 826 settle: a request for another address that is not
            # gratuitous changes nothing unless this stack refreshes
            # bindings from requests and its sender is cached or being
            # resolved -- what _arp_request_in would conclude, decided
            # here at wire cost.  Addresses compare as their ints, and
            # each table is tested for emptiness before it is hashed
            # into (most caches on a flooded LAN are empty).
            spa, tpa = arp.spa._value, arp.tpa._value
            entries, pending = self.arp_cache._entries, self._pending_arp
            if (
                tpa != ip._value
                and spa != tpa
                and (
                    not self.profile.update_from_request
                    or not (
                        (entries and arp.spa in entries)
                        or (pending and arp.spa in pending)
                    )
                )
            ):
                PERF.arp_settled += 1
                return
        cost = self.arp_rx_cost(arp) if self.arp_rx_cost is not None else 0.0
        if cost > 0:
            # Crypto schemes defer processing past the verification cost;
            # carry the frame id across the scheduling gap so guards and
            # alerts still attribute to the triggering frame.
            fid = TRACER.current_frame if TRACER.enabled else None
            self.sim.schedule(
                cost,
                lambda: self._arp_process(arp, frame, fid),
                name=f"{self.name}.arp-crypto",
            )
        else:
            self._arp_process(arp, frame)

    def _arp_process(
        self,
        arp: ArpPacket,
        frame: EthernetFrame,
        fid: Optional[int] = None,
    ) -> None:
        tracer = TRACER
        if tracer.enabled and fid is not None:
            tracer.current_frame = fid
        # One code path for traced and untraced runs: the hook point
        # emits per-guard scheme.inspect spans itself when tracing is on,
        # isolates guard crashes, and applies the fail-open/closed policy.
        verdict = self.arp_guards.verdict(self, arp, frame)
        if verdict is False:
            self.counters["arp_guard_drops"] += 1
            if tracer.enabled:
                tracer.instant(
                    "host.drop",
                    node=self.name,
                    reason="arp-guard",
                    frame=tracer.current_frame,
                )
            return

        forced = verdict is True
        if arp.is_gratuitous:
            self._arp_gratuitous(arp, forced)
            return
        if arp.is_request:
            self._arp_request_in(arp, forced)
        else:
            self._arp_reply_in(arp, frame, forced)

    def _arp_gratuitous(self, arp: ArpPacket, forced: bool) -> None:
        if not (forced or self.profile.accept_gratuitous):
            return
        exists = arp.spa in self.arp_cache
        if forced or exists or self.profile.create_from_request:
            self._cache_put(arp, BindingSource.GRATUITOUS)

    def _arp_request_in(self, arp: ArpPacket, forced: bool) -> None:
        # Addresses compare as their ints.
        ip = self.ip
        for_us = ip is not None and arp.tpa._value == ip._value
        # 1. Answer if the request is for our address.
        if for_us and self.arp_responder_enabled:
            reply = ArpPacket.reply(sha=self.mac, spa=ip, tha=arp.sha, tpa=arp.spa)
            self.send_arp(reply, dst_mac=arp.sha)
        # 2. Optionally learn the sender binding.
        if not arp.spa._value:
            return  # RFC 5227 probe carries no binding
        exists = arp.spa in self.arp_cache
        should = forced or (
            (exists and self.profile.update_from_request)
            or (not exists and self.profile.create_from_request and for_us)
        )
        # A solicited resolution can also be completed by a request that
        # crosses ours (both sides resolving each other simultaneously) —
        # but only on stacks that learn from requests at all.  Strict
        # stacks (S-ARP/TARP) must keep waiting for an authenticated reply.
        if arp.spa in self._pending_arp and (
            forced or self.profile.update_from_request
        ):
            self._cache_put(arp, BindingSource.REQUEST)
            self._complete_resolution(arp.spa, arp.sha)
        elif should:
            self._cache_put(arp, BindingSource.REQUEST)

    def _arp_reply_in(
        self, arp: ArpPacket, frame: EthernetFrame, forced: bool
    ) -> None:
        pending = self._pending_arp.get(arp.spa)
        if pending is not None:
            self._cache_put(arp, BindingSource.SOLICITED_REPLY)
            self._complete_resolution(arp.spa, arp.sha)
            return
        if forced or self.profile.accept_unsolicited_reply:
            self._cache_put(arp, BindingSource.UNSOLICITED_REPLY)
            return
        if self.profile.update_from_request and arp.spa in self.arp_cache:
            # Linux-style: an unsolicited reply refreshes an existing entry
            # (treated like any sender-binding sighting).
            self._cache_put(arp, BindingSource.UNSOLICITED_REPLY)
            return
        self.counters["arp_unsolicited_ignored"] += 1

    def _cache_put(self, arp: ArpPacket, source: str) -> None:
        self.arp_cache.put(arp.spa, arp.sha, now=self.sim.now, source=source)
        if TRACER.enabled:
            # Cache updates are where poisoning lands: the audit trail
            # records every accepted binding with the frame that caused it.
            TRACER.instant(
                "arp.cache_put",
                node=self.name,
                ip=str(arp.spa),
                mac=str(arp.sha),
                source=source,
                frame=TRACER.current_frame,
            )

    def accept_arp_binding(self, ip: Ipv4Address, mac: MacAddress, source: str) -> None:
        """Scheme API: install a vetted binding and wake pending resolutions.

        Defenses that vet ARP asynchronously (Antidote's probe, S-ARP's
        key lookup) drop the packet in their guard, verify out of band,
        and then call this to commit the binding.
        """
        self.arp_cache.put(ip, mac, now=self.sim.now, source=source)
        self._complete_resolution(ip, mac)

    # ------------------------------------------------------------------
    # ARP output & resolution
    # ------------------------------------------------------------------
    def send_arp(self, arp: ArpPacket, dst_mac: MacAddress) -> None:
        """Transmit an ARP packet, applying scheme transform and tx cost."""
        if self.arp_tx_transform is not None:
            arp = self.arp_tx_transform(arp)
        cost = self.arp_tx_cost(arp) if self.arp_tx_cost is not None else 0.0

        def do_send() -> None:
            data = frame_bytes(dst_mac, self.mac, EtherType.ARP, arp.encode())
            self.counters["arp_tx"] += 1
            if arp.is_request:
                self.counters["arp_requests_sent"] += 1
            else:
                self.counters["arp_replies_sent"] += 1
            self._transmit_wire(data)

        if cost > 0:
            self.sim.schedule(cost, do_send)
        else:
            do_send()

    def announce(self) -> None:
        """Broadcast a gratuitous ARP for our own binding (boot / failover)."""
        if self.ip is None:
            raise StackError(f"{self.name}: cannot announce without an IP")
        self.send_arp(
            ArpPacket.gratuitous(self.mac, self.ip, as_reply=False),
            dst_mac=BROADCAST_MAC,
        )

    def is_resolving(self, ip: Ipv4Address) -> bool:
        """True while a resolution for ``ip`` is outstanding.

        Scheme API: "solicited" is defined by this predicate — a reply for
        an IP we are not resolving is unsolicited by definition.
        """
        return ip in self._pending_arp

    def resolve(
        self,
        ip: Ipv4Address,
        on_resolved: Callable[[MacAddress], None],
        on_failed: Optional[Callable[[], None]] = None,
    ) -> None:
        """Resolve ``ip`` to a MAC, from cache or by asking the network."""
        cached = self.arp_cache.get(ip, self.sim.now)
        if cached is not None:
            on_resolved(cached)
            return
        self._resolve_uncached(ip, on_resolved, on_failed)

    def _resolve_uncached(
        self,
        ip: Ipv4Address,
        on_resolved: Callable[[MacAddress], None],
        on_failed: Optional[Callable[[], None]],
    ) -> None:
        """Wait for ``ip``'s resolution, asking the network if none is out."""
        pending = self._pending_arp.get(ip)
        if pending is not None:
            pending.waiters.append((on_resolved, on_failed))
            return
        pending = _PendingResolution(started_at=self.sim.now)
        pending.waiters.append((on_resolved, on_failed))
        self._pending_arp[ip] = pending
        self._send_arp_request(ip)
        self._arm_resolution_timer(ip)

    def _send_arp_request(self, ip: Ipv4Address) -> None:
        spa = self.ip if self.ip is not None else Ipv4Address(0)
        request = ArpPacket.request(sha=self.mac, spa=spa, tpa=ip)
        self.send_arp(request, dst_mac=BROADCAST_MAC)

    def _arm_resolution_timer(self, ip: Ipv4Address) -> None:
        pending = self._pending_arp.get(ip)
        if pending is None:
            return

        def on_timeout() -> None:
            current = self._pending_arp.get(ip)
            if current is None:
                return
            if current.attempts >= self.profile.max_retries:
                del self._pending_arp[ip]
                self.counters["arp_resolution_failures"] += 1
                for _, on_failed in current.waiters:
                    if on_failed is not None:
                        on_failed()
                return
            current.attempts += 1
            self._send_arp_request(ip)
            self._arm_resolution_timer(ip)

        pending.timer = self.sim.schedule(
            self.profile.reply_wait, on_timeout, name=f"{self.name}.arp-timeout"
        )

    def _complete_resolution(self, ip: Ipv4Address, mac: MacAddress) -> None:
        pending = self._pending_arp.pop(ip, None)
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.cancel()
        latency = self.sim.now - pending.started_at
        self.resolution_latencies.append(latency)
        # Registry metric (resolutions are rare — well off the wire fast
        # path, so the labeled observe is affordable unconditionally).
        from repro.obs.registry import REGISTRY

        REGISTRY.histogram(
            "arp_resolution_seconds",
            "ARP resolution latency per host",
            labels=("host",),
        ).labels(host=self.name).observe(latency)
        for on_resolved, _ in pending.waiters:
            on_resolved(mac)

    # ==================================================================
    # IPv4
    # ==================================================================
    def _on_link(self, ip: Ipv4Address) -> bool:
        return self.network is not None and ip in self.network

    def send_ip(
        self,
        dst: Ipv4Address,
        proto: int,
        payload: bytes,
        ttl: int = 64,
        on_unresolvable: Optional[Callable[[], None]] = None,
    ) -> None:
        """Send an IPv4 packet, resolving the next hop as needed."""
        ip = self.ip
        if ip is None:
            raise StackError(f"{self.name}: no IP address configured")
        packet = Ipv4Packet(
            src=ip,
            dst=dst,
            proto=proto,
            payload=payload,
            ttl=ttl,
            identification=next(self._ip_ids) & 0xFFFF,
        )
        self.counters["ip_tx"] += 1
        # Addresses compare as their ints.
        value = dst._value
        if value == ip._value:
            self._ip_deliver(packet)
            return
        network = self.network
        if value == 0xFFFFFFFF or (
            network is not None and value == network.broadcast._value
        ):
            self._tx_ip(BROADCAST_MAC, packet)
            return
        if self._on_link(dst):
            next_hop = dst
        elif self.gateway is not None:
            next_hop = self.gateway
        else:
            self.counters["ip_no_route"] += 1
            if on_unresolvable is not None:
                on_unresolvable()
            return
        # A cache hit sends at once; only a miss parks the packet.
        cached = self.arp_cache.get(next_hop, self.sim.now)
        if cached is not None:
            self._tx_ip(cached, packet)
            return
        self._resolve_uncached(
            next_hop, lambda mac: self._tx_ip(mac, packet), on_unresolvable
        )

    def _tx_ip(self, dst_mac: MacAddress, packet: Ipv4Packet) -> None:
        self._transmit_wire(
            frame_bytes(dst_mac, self.mac, EtherType.IPV4, packet.encode())
        )

    def transmit_frame(self, frame: EthernetFrame, origin: Optional[str] = None) -> None:
        """Put a fully formed frame on the wire (also used by attackers).

        ``origin`` labels the injection in the provenance table (attack
        tools pass e.g. ``"attack:arp-poison/reply"``); by default frames
        are attributed to this host.
        """
        self._transmit_wire(frame.encode(), origin)

    def _transmit_wire(self, data: bytes, origin: Optional[str] = None) -> None:
        """Put frame bytes on the wire: provenance, capture, then the NIC."""
        if TRACER.enabled:
            # A frame transmitted while processing a received one (an ARP
            # reply answering a request, a forwarded packet) records that
            # frame as its causal parent.
            fid = TRACER.provenance.new_frame(
                data,
                origin or f"host:{self.name}",
                self.sim.now,
                parent=TRACER.current_frame,
            )
            TRACER.instant("host.tx", node=self.name, frame=fid, origin=origin)
        recorder = self.recorder
        if recorder is not None:
            recorder.record(self.sim.now, self.name, Direction.TX, data)
        self.nic.transmit_batch((data,))

    def _ip_rx(self, frame: EthernetFrame) -> None:
        try:
            packet = Ipv4Packet.decode(frame.payload)
        except CodecError:
            self.counters["decode_errors"] += 1
            return
        self.counters["ip_rx"] += 1
        # Addresses compare as their ints.
        ip, dst = self.ip, packet.dst._value
        if ip is None:
            for_us = dst == 0xFFFFFFFF
        else:
            network = self.network
            for_us = (
                dst == ip._value
                or dst == 0xFFFFFFFF
                or (network is not None and dst == network.broadcast._value)
            )
        if for_us:
            self._ip_deliver(packet)
        elif self.ip_forward:
            self._ip_forward(packet)
        else:
            # L2 delivered it to us but L3 says it belongs to someone else:
            # the victim-side symptom of a poisoned peer cache.
            self.counters["ip_misaddressed"] += 1

    def _ip_forward(self, packet: Ipv4Packet) -> None:
        if packet.ttl <= 1:
            return
        out = packet.decremented()
        self.counters["ip_forwarded"] += 1
        out = self.forward_taps.transform(out)
        if self._on_link(out.dst):
            next_hop = out.dst
        elif self.gateway is not None:
            next_hop = self.gateway
        else:
            self.counters["ip_no_route"] += 1
            return
        self.resolve(next_hop, on_resolved=lambda mac: self._tx_ip(mac, out))

    # ------------------------------------------------------------------
    # Transport demux
    # ------------------------------------------------------------------
    def _ip_deliver(self, packet: Ipv4Packet) -> None:
        if packet.proto == IpProto.ICMP:
            self._icmp_rx(packet)
        elif packet.proto == IpProto.UDP:
            self._udp_rx(packet)
        elif packet.proto == IpProto.TCP:
            self._tcp_rx(packet)

    # -- ICMP ------------------------------------------------------------
    def _icmp_rx(self, packet: Ipv4Packet) -> None:
        try:
            message = IcmpMessage.decode(packet.payload)
        except CodecError:
            self.counters["decode_errors"] += 1
            return
        if message.is_echo_request:
            self.counters["icmp_echo_rx"] += 1
            if self.icmp_echo_enabled:
                self.send_ip(packet.src, IpProto.ICMP, message.reply_to().encode())
        elif message.is_echo_reply:
            self.counters["icmp_reply_rx"] += 1
            key = (message.identifier, message.sequence)
            pending = self._pending_pings.pop(key, None)
            if pending is not None:
                if pending.timer is not None:
                    pending.timer.cancel()
                if pending.callback is not None:
                    pending.callback(packet.src, self.sim.now - pending.sent_at)

    def _register_ping(
        self,
        key: Tuple[int, int],
        on_reply: Optional[Callable[[Ipv4Address, float], None]],
        timeout: Optional[float],
        on_timeout: Optional[Callable[[], None]],
    ) -> None:
        """Track an outstanding echo; with ``timeout`` the entry expires.

        An echo nobody waits for (no ``on_reply``, no ``timeout``) keeps
        no state: its reply is only counted in ``icmp_reply_rx``.
        Without a timeout an awaited but unanswered echo (lost frame,
        downed link) would sit in ``_pending_pings`` forever — harmless
        per ping, but a leak under fault injection where loss is routine.
        """
        if on_reply is None and timeout is None:
            return
        pending = _PendingPing(callback=on_reply, sent_at=self.sim.now)
        self._pending_pings[key] = pending
        if timeout is not None:

            def _expire() -> None:
                if self._pending_pings.pop(key, None) is not None:
                    if on_timeout is not None:
                        on_timeout()

            pending.timer = self.sim.schedule(timeout, _expire, name="icmp.timeout")

    def ping(
        self,
        dst: Ipv4Address,
        on_reply: Optional[Callable[[Ipv4Address, float], None]] = None,
        payload: bytes = b"repro-ping",
        sequence: int = 1,
        timeout: Optional[float] = None,
        on_timeout: Optional[Callable[[], None]] = None,
    ) -> Tuple[int, int]:
        """Send an ICMP echo request; ``on_reply(src, rtt)`` on answer.

        With ``timeout`` the pending entry is dropped (and
        ``on_timeout`` called) if no reply arrives within that many
        simulated seconds, so the wait is always bounded.
        """
        identifier = next(self._ping_ids) & 0xFFFF
        key = (identifier, sequence & 0xFFFF)
        self._register_ping(key, on_reply, timeout, on_timeout)
        message = IcmpMessage.echo_request(identifier, sequence, payload)
        self.send_ip(dst, IpProto.ICMP, message.encode())
        return key

    def ping_via(
        self,
        dst_ip: Ipv4Address,
        dst_mac: MacAddress,
        on_reply: Optional[Callable[[Ipv4Address, float], None]] = None,
        payload: bytes = b"repro-probe",
        sequence: int = 1,
        timeout: Optional[float] = None,
        on_timeout: Optional[Callable[[], None]] = None,
    ) -> Tuple[int, int]:
        """Echo request framed at an explicit MAC, bypassing ARP.

        This is the verification primitive active detectors use: probing
        the *previous* owner of a binding tells you whether it is still
        alive, without trusting the (possibly poisoned) ARP layer.
        ``timeout``/``on_timeout`` bound the wait exactly as for
        :meth:`ping`.
        """
        if self.ip is None:
            raise StackError(f"{self.name}: cannot probe without an IP")
        identifier = next(self._ping_ids) & 0xFFFF
        key = (identifier, sequence & 0xFFFF)
        self._register_ping(key, on_reply, timeout, on_timeout)
        message = IcmpMessage.echo_request(identifier, sequence, payload)
        packet = Ipv4Packet(
            src=self.ip,
            dst=dst_ip,
            proto=IpProto.ICMP,
            payload=message.encode(),
            identification=next(self._ip_ids) & 0xFFFF,
        )
        self._tx_ip(dst_mac, packet)
        return key

    # -- UDP ---------------------------------------------------------------
    def _udp_rx(self, packet: Ipv4Packet) -> None:
        try:
            datagram = UdpDatagram.decode(packet.payload)
        except CodecError:
            self.counters["decode_errors"] += 1
            return
        self.counters["udp_rx"] += 1
        handler = self._udp_handlers.get(datagram.dst_port)
        if handler is None:
            self.counters["udp_unreachable"] += 1
            return
        handler(self, packet.src, datagram)

    def send_udp(
        self,
        dst: Ipv4Address,
        src_port: int,
        dst_port: int,
        payload: bytes,
    ) -> None:
        datagram = UdpDatagram(src_port=src_port, dst_port=dst_port, payload=payload)
        self.send_ip(dst, IpProto.UDP, datagram.encode())

    def ephemeral_port(self) -> int:
        return next(self._ephemeral_ports) % 65536

    # -- TCP (connection-light) ---------------------------------------------
    def _tcp_rx(self, packet: Ipv4Packet) -> None:
        try:
            segment = TcpSegment.decode(packet.payload)
        except CodecError:
            self.counters["decode_errors"] += 1
            return
        self.counters["tcp_rx"] += 1
        key = (packet.src, segment.src_port, segment.dst_port)
        waiter = self._pending_tcp.pop(key, None)
        if waiter is not None:
            waiter(segment)
            return
        # Stateful sessions (repro.stack.tcp_session) claim their segments.
        demux = getattr(self, "tcp_session_demux", None)
        if demux is not None and demux(packet.src, segment):
            return
        if segment.flags & TcpFlags.SYN and not segment.flags & TcpFlags.ACK:
            if segment.dst_port in self.tcp_open_ports:
                answer = TcpSegment.syn_ack(
                    segment.dst_port, segment.src_port, seq=0, ack=segment.seq + 1
                )
            else:
                answer = TcpSegment.rst(segment.dst_port, segment.src_port, seq=0)
            self.send_ip(packet.src, IpProto.TCP, answer.encode())

    def tcp_probe(
        self,
        dst: Ipv4Address,
        dst_port: int,
        on_answer: Callable[[TcpSegment], None],
    ) -> int:
        """Send a SYN and surface whatever comes back (SYN-ACK or RST).

        This is the probe primitive active verification schemes use: only
        the true owner of an IP answers a SYN addressed to it.
        """
        src_port = self.ephemeral_port()
        self._pending_tcp[(dst, dst_port, src_port)] = on_answer
        syn = TcpSegment.syn(src_port, dst_port, seq=1)
        self.send_ip(dst, IpProto.TCP, syn.encode())
        return src_port
