"""A learning Ethernet switch with CAM table, mirroring and ingress hooks.

The switch is deliberately faithful to the behaviours the attacks and
defenses exploit:

* source-MAC learning with aging and a bounded CAM (MAC flooding turns the
  switch into a hub once the table is full);
* unknown-unicast/broadcast flooding;
* a SPAN/mirror port, which is where monitor-based detectors (arpwatch,
  Snort, the hybrid) listen;
* ingress filter hooks, which is where switch-resident defenses (port
  security, DHCP snooping + Dynamic ARP Inspection) install themselves.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.errors import CodecError, TopologyError
from repro.hooks import HookPoint, Pipeline
from repro.l2.cam import CamTable, DEFAULT_AGING, DEFAULT_CAPACITY
from repro.l2.device import Device, Port
from repro.net.addresses import MacAddress
from repro.obs.trace import TRACER
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.perf import PERF
from repro.sim.simulator import Simulator
from repro.sim.trace import Direction, TraceRecorder

__all__ = ["Switch", "IngressFilter"]

#: An ingress filter sees ``(port, frame)`` and returns True to allow.
IngressFilter = Callable[[Port, EthernetFrame], bool]


class Switch(Device):
    """A store-and-forward learning switch."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        num_ports: int,
        cam_capacity: int = DEFAULT_CAPACITY,
        cam_aging: float = DEFAULT_AGING,
    ) -> None:
        super().__init__(sim, name)
        if num_ports < 2:
            raise TopologyError("a switch needs at least two ports")
        for _ in range(num_ports):
            self.add_port()
        self.cam = CamTable(capacity=cam_capacity, aging=cam_aging)
        self._cam_capacity = cam_capacity
        self._cam_aging = cam_aging
        #: Switch-resident defenses install here (repro.hooks pipeline:
        #: ordered, fault-isolated, removal-token based).
        self.hooks = Pipeline(node=name)
        self.ingress_filters: HookPoint = self.hooks.point(
            "switch.ingress", fallback_label="ingress-filter"
        )
        self._mirror_sources: Set[int] = set()
        self._mirror_target: Optional[int] = None
        #: Ingress capture of every port, or ``None`` (nothing is
        #: recorded).  A reader assigns a recorder before the run.
        self.recorder: Optional[TraceRecorder] = None
        self.flooded_frames = 0
        self.forwarded_frames = 0
        self.dropped_frames = 0
        self.undecodable_frames = 0
        self.vlan_violations = 0
        #: port index -> ("access", vid) | ("trunk", allowed-vids-or-None)
        self._vlan_config: dict[int, tuple] = {}
        self.vlan_aware = False
        self._vlan_cams: dict[int, CamTable] = {}
        #: SDN takeover (repro.sdn.SwitchAgent): when set, the agent gets
        #: first claim on every frame; None keeps the learning plane —
        #: and the hot path — untouched.
        self.sdn_agent = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def set_mirror(self, source_ports: List[int], target_port: int) -> None:
        """Mirror traffic entering ``source_ports`` to ``target_port``.

        Models the "port mirroring" / SPAN feature monitors rely on.
        """
        if target_port in source_ports:
            raise TopologyError("mirror target cannot be one of its sources")
        for idx in source_ports + [target_port]:
            if not 0 <= idx < len(self.ports):
                raise TopologyError(f"no such port index {idx}")
        self._mirror_sources = set(source_ports)
        self._mirror_target = target_port

    def mirror_all_to(self, target_port: int) -> None:
        """Mirror every non-target port to ``target_port``."""
        sources = [p.index for p in self.ports if p.index != target_port]
        self.set_mirror(sources, target_port)

    def set_access_port(self, index: int, vid: int) -> None:
        """Make ``index`` an untagged access port in VLAN ``vid``.

        Configuring any VLAN makes the switch VLAN-aware: every
        unconfigured port defaults to access VLAN 1.
        """
        self._check_port(index)
        if not 1 <= vid <= 4094:
            raise TopologyError(f"VLAN id out of range: {vid}")
        self._vlan_config[index] = ("access", vid)
        self.vlan_aware = True

    def set_trunk_port(self, index: int, allowed: Optional[Set[int]] = None) -> None:
        """Make ``index`` an 802.1Q trunk (``allowed=None`` carries all)."""
        self._check_port(index)
        self._vlan_config[index] = ("trunk", set(allowed) if allowed else None)
        self.vlan_aware = True

    def _check_port(self, index: int) -> None:
        if not 0 <= index < len(self.ports):
            raise TopologyError(f"no such port index {index}")

    def _port_role(self, index: int) -> tuple:
        return self._vlan_config.get(index, ("access", 1))

    def _port_carries(self, index: int, vid: int) -> bool:
        role, value = self._port_role(index)
        if role == "access":
            return value == vid
        return value is None or vid in value

    def _cam_for(self, vid: int) -> CamTable:
        cam = self._vlan_cams.get(vid)
        if cam is None:
            cam = CamTable(capacity=self._cam_capacity, aging=self._cam_aging)
            self._vlan_cams[vid] = cam
        return cam

    def add_ingress_filter(
        self,
        filt: IngressFilter,
        priority: int = 0,
        owner: Optional[str] = None,
    ) -> Callable[[], None]:
        """Install an ingress filter; returns a one-shot uninstaller."""
        return self.ingress_filters.add(filt, priority=priority, owner=owner)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def on_frame_batch(self, port: Port, datas: Sequence[bytes]) -> None:
        """The switch's one receive entry: capture, learn, resolve, egress.

        While anything observes the switch — an ingress filter, an SDN
        agent, the VLAN plane or tracing — each frame goes through
        :meth:`on_frame` in wire order (inside its ``switch.forward``
        span when tracing) and leaves at once: the observers see switch
        state *between* frames, so what they see must not change when
        frames arrive together.

        Otherwise the whole batch runs one pass in which per-frame work
        is reduced to raw byte slicing: destination and source MACs are
        read straight from the wire bytes and resolved through the CAM's
        bytes-keyed index, no ``FrameView`` is built, and CAM aging runs
        exactly once for the whole batch (watermark-bounded) instead of
        once per frame.  Learning and resolution stay interleaved in
        wire order — a frame whose source completes a later frame's
        destination behaves as if each had arrived alone.  Egress is
        grouped per output port and handed to each link as one batch, in
        wire order.
        """
        now = self.sim.now
        recorder = self.recorder
        if recorder is not None:
            record = recorder.record
            port_name = port.name
            for data in datas:
                record(now, port_name, Direction.RX, data)

        if (
            TRACER.enabled
            or self.sdn_agent is not None
            or self.vlan_aware
            or self.ingress_filters.hooks  # one truthiness check per batch
        ):
            on_frame = self.on_frame
            if TRACER.enabled:
                frame_span = TRACER.frame_span
                for data in datas:
                    with frame_span(
                        "switch.forward", data, node=self.name, port=port.name
                    ):
                        on_frame(port, data)
            else:
                for data in datas:
                    on_frame(port, data)
            return

        cam = self.cam
        cam.expire(now)  # the batch's one aging sweep
        learn = cam.learn_wire
        # After the sweep nothing in the table is stale for `now`, so
        # destination probes are bare bytes-dict gets (the inlined form
        # of CamTable.lookup_batch, skipping its second expire call).
        lookup = cam._by_wire.get
        mirror = (
            self._mirror_target is not None
            and port.index in self._mirror_sources
        )
        out_lists: Dict[int, List[bytes]] = {}
        ingress_index = port.index
        mirror_target = self._mirror_target
        live = self.live_ports()
        flood_count = 0
        forwarded = 0
        undecodable = 0
        for data in datas:
            if len(data) < 14 or data[12] < 6:
                # A runt, or an 802.3 length (< 0x0600) where the type
                # goes: a FrameView rejects both.
                undecodable += 1
                continue
            learn(data[6:12], ingress_index, now)
            if data[0] & 1:  # multicast/broadcast destination: flood
                entry = None
            else:
                entry = lookup(data[:6])
            if mirror:
                group = out_lists.get(mirror_target)
                if group is None:
                    out_lists[mirror_target] = [data]
                else:
                    group.append(data)
            if entry is None:
                # Unknown unicast or multicast: flood out every live port
                # but the ingress and the mirror target (which got its
                # copy above).  This is the fail-open behaviour MAC
                # flooding forces permanently by filling the CAM.
                flood_count += 1
                for index in live:
                    if index == ingress_index or index == mirror_target:
                        continue
                    group = out_lists.get(index)
                    if group is None:
                        out_lists[index] = [data]
                    else:
                        group.append(data)
                continue
            out_index = entry.port_index
            if out_index == ingress_index:
                continue  # hairpin; already on the right segment
            forwarded += 1
            group = out_lists.get(out_index)
            if group is None:
                out_lists[out_index] = [data]
            else:
                group.append(data)
        self.undecodable_frames += undecodable
        self.forwarded_frames += forwarded
        if flood_count:
            self.flooded_frames += flood_count
            # Every flood copy re-sends the ingress buffer: one copy per
            # live port but the ingress and the mirror target.
            copies = len(live) - len({ingress_index, mirror_target}.intersection(live))
            PERF.flood_buffer_reuses += flood_count * copies
        ports = self.ports
        for index, group in out_lists.items():
            ports[index].transmit_batch(group)

    def on_frame(self, port: Port, data: bytes) -> None:
        """One observed frame: the per-frame step of
        :meth:`on_frame_batch` (ports deliver only through that entry).

        The frame runs past the SDN agent, the VLAN plane and the
        ingress filters, then leaves at once through :meth:`_mirror`
        and :meth:`_forward`.
        """
        try:
            # Lazy view: forwarding decisions need only the 14-byte header;
            # the payload is materialized only if a filter/monitor reads it.
            frame = EthernetFrame.lazy(data)
        except CodecError:
            self.undecodable_frames += 1
            return
        agent = self.sdn_agent
        if agent is not None and agent.on_switch_frame(port, frame, data):
            return
        if self.vlan_aware:
            self._vlan_on_frame(port, frame, data)
            return
        if self.ingress_filters.hooks:
            if not self._run_ingress_filters(port, frame):
                self.dropped_frames += 1
                self._mirror(port, data)  # monitors still see dropped frames
                return
        self.cam.learn(frame.src, port.index, self.sim.now)
        self._mirror(port, data)
        self._forward(port, frame.dst, data)

    def _forward(self, ingress: Port, dst: MacAddress, data: bytes) -> None:
        """The learning plane's forward step for one frame: flood group
        and unknown destinations, drop hairpins, send the rest."""
        if dst.is_multicast:  # includes broadcast
            self._flood(ingress, data)
            return
        out_index = self.cam.lookup(dst, self.sim.now)
        if out_index is None:
            # Unknown unicast: flood.  This is the fail-open behaviour MAC
            # flooding forces permanently by filling the CAM.
            self._flood(ingress, data)
            return
        if out_index == ingress.index:
            return  # hairpin; already on the right segment
        self.forwarded_frames += 1
        self._send(out_index, data)

    def _run_ingress_filters(self, port: Port, frame: EthernetFrame) -> bool:
        """Run every ingress filter through the hook pipeline; False = drop.

        One code path for traced and untraced runs: the hook point emits
        a ``scheme.inspect`` span per filter when tracing is on, isolates
        filter crashes (fail-open/closed per its policy), and attributes
        drops to the vetoing scheme.
        """
        allowed, scheme = self.ingress_filters.allow(port, frame)
        if not allowed and TRACER.enabled:
            TRACER.instant(
                "switch.drop",
                node=self.name,
                port=port.name,
                scheme=scheme,
                frame=TRACER.current_frame,
            )
        return allowed

    def _vlan_on_frame(self, port: Port, frame: EthernetFrame, data: bytes) -> None:
        """The VLAN-aware data plane: classify, learn and forward per VID."""
        from repro.packets.vlan import tag_frame, untag_frame

        role, value = self._port_role(port.index)
        if frame.ethertype == EtherType.VLAN:
            if role == "access":
                # Hosts on access ports must not inject tags (VLAN-hopping
                # attempts land here).
                self.vlan_violations += 1
                return
            try:
                tag, inner = untag_frame(frame)
            except CodecError:
                self.undecodable_frames += 1
                return
            vid = tag.vid
            if not self._port_carries(port.index, vid):
                self.vlan_violations += 1
                return
        else:
            inner = frame
            vid = value if role == "access" else 1  # trunk native VLAN
            if role == "trunk" and not self._port_carries(port.index, vid):
                self.vlan_violations += 1  # native VLAN pruned off this trunk
                return

        if self.ingress_filters.hooks:
            if not self._run_ingress_filters(port, inner):
                self.dropped_frames += 1
                self._mirror(port, data)
                return

        cam = self._cam_for(vid)
        cam.learn(inner.src, port.index, self.sim.now)
        self._mirror(port, data)

        if inner.dst.is_multicast:
            self._vlan_flood(port, inner, vid, tag_frame)
            return
        out_index = cam.lookup(inner.dst, self.sim.now)
        if out_index is None:
            self._vlan_flood(port, inner, vid, tag_frame)
            return
        if out_index == port.index:
            return
        self.forwarded_frames += 1
        self._vlan_egress(out_index, inner, vid, tag_frame)

    def _vlan_flood(self, ingress: Port, inner: EthernetFrame, vid: int, tag_frame) -> None:
        """Flood within a VLAN, serializing each egress form exactly once.

        A flood to N trunk ports used to re-tag and re-encode the frame N
        times; both the tagged and the untagged wire forms are now built
        on first use and the same buffer is transmitted on every
        remaining live port.
        """
        self.flooded_frames += 1
        skip = {ingress.index, self._mirror_target}
        tagged: Optional[bytes] = None
        untagged: Optional[bytes] = None
        tagged_sends = untagged_sends = 0
        ports = self.ports
        for index in self.live_ports():
            if index in skip or not self._port_carries(index, vid):
                continue
            role, _ = self._port_role(index)
            if role == "trunk" and vid != 1:  # native VLAN leaves untagged
                if tagged is None:
                    tagged = tag_frame(inner, vid).encode()
                    self._derive_buffer(tagged)
                ports[index].transmit_batch((tagged,))
                tagged_sends += 1
            else:
                if untagged is None:
                    untagged = inner.encode()
                    self._derive_buffer(untagged)
                ports[index].transmit_batch((untagged,))
                untagged_sends += 1
        # Each form is encoded once; every further send re-sends it.
        PERF.flood_buffer_reuses += max(tagged_sends - 1, 0) + max(untagged_sends - 1, 0)

    def _vlan_egress(self, port_index: int, inner: EthernetFrame, vid: int, tag_frame) -> None:
        role, _ = self._port_role(port_index)
        if role == "trunk" and vid != 1:  # native VLAN leaves untagged
            out = tag_frame(inner, vid).encode()
        else:
            out = inner.encode()
        self._derive_buffer(out)
        self.ports[port_index].transmit_batch((out,))

    def _derive_buffer(self, data: bytes) -> None:
        """Provenance: a re-encoded (re-tagged) egress buffer keeps its
        causal link to the frame currently being forwarded."""
        if TRACER.enabled and TRACER.current_frame is not None:
            if TRACER.provenance.lookup(data) == TRACER.current_frame:
                return  # memoized encode handed back the ingress buffer
            TRACER.provenance.derive(
                data, TRACER.current_frame, f"switch:{self.name}", self.sim.now
            )

    def _flood(self, ingress: Port, data: bytes) -> None:
        self.flooded_frames += 1
        mirror_target = self._mirror_target
        ports = self.ports
        sends = 0
        for index in self.live_ports():
            if index == ingress.index or index == mirror_target:
                continue  # the mirror port gets its copy via _mirror()
            ports[index].transmit_batch((data,))
            sends += 1
        # Every copy re-sends the ingress buffer, never re-encoded.
        PERF.flood_buffer_reuses += sends

    def _send(self, port_index: int, data: bytes) -> None:
        self.ports[port_index].transmit_batch((data,))

    def _mirror(self, ingress: Port, data: bytes) -> None:
        if self._mirror_target is None:
            return
        if ingress.index in self._mirror_sources:
            self.ports[self._mirror_target].transmit_batch((data,))

    def link_down(self, port_index: int) -> int:
        """React to a link-down on ``port_index`` (cable pull, flap).

        Real switches forget dynamically learned stations the moment the
        link drops; without this, a flapped host would stay reachable in
        the CAM and mask the outage.  Returns the number of CAM entries
        (across the plain table and every VLAN table) that were flushed.
        """
        flushed = self.cam.flush_port(port_index)
        for cam in self._vlan_cams.values():
            flushed += cam.flush_port(port_index)
        if self.sdn_agent is not None:
            # Losing the control port is how the agent learns its
            # controller is gone and falls back to learning mode.
            self.sdn_agent.on_link_down(port_index)
        return flushed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stations_on_port(self, port_index: int) -> int:
        return len(self.cam.entries_on_port(port_index))

    def is_fail_open(self) -> bool:
        """True once the CAM is full (new stations get flooded)."""
        self.cam.expire(self.sim.now)
        return self.cam.is_full
