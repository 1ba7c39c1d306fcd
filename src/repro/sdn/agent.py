"""The switch-resident side of the control plane.

A :class:`SwitchAgent` layers a flow-table mode over an existing
learning :class:`~repro.l2.switch.Switch`: while the controller is
reachable the agent owns the data plane (flow lookup, packet-in on
miss), and when the control channel drops the switch *falls back* to
its native learning behaviour — fail-open — or blackholes data traffic
— fail-closed — until a control message is heard again.

The agent keeps the learning plane's CAM warm while in flow mode
(shadow learning) so a fail-open transition is seamless; the CAM and
the flow table are both flushed on failover, exactly like a real switch
forgetting state it can no longer trust.
"""

from __future__ import annotations

import itertools
from typing import Dict, Tuple

from repro.errors import CodecError
from repro.l2.device import Port
from repro.l2.switch import Switch
from repro.net.addresses import MacAddress
from repro.obs.registry import REGISTRY
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.packets.openflow import (
    NO_BUFFER,
    BarrierReply,
    BarrierRequest,
    FlowAction,
    FlowMod,
    FlowModCommand,
    PacketIn,
    PacketInReason,
    PacketOut,
    decode_message,
)
from repro.sdn.flow_table import DEFAULT_FLOW_CAPACITY, FlowEntry, FlowTable

__all__ = ["SwitchAgent", "FAIL_OPEN", "FAIL_CLOSED", "DEFAULT_MAX_PENDING"]

FAIL_OPEN = "open"
FAIL_CLOSED = "closed"

#: Bound on buffered frames awaiting a controller verdict.
DEFAULT_MAX_PENDING = 64


class SwitchAgent:
    """Flow-table mode layered over a learning switch.

    Parameters
    ----------
    switch:
        The switch to take over; ``switch.sdn_agent`` must be pointed at
        this agent by the installer.
    control_port_index:
        The switch port wired to the controller.
    mac, controller_mac:
        Addresses of the agent's and the controller's control endpoints.
    fail_mode:
        ``"open"`` — degrade to learning-switch forwarding when the
        controller is unreachable; ``"closed"`` — drop data traffic.
    """

    def __init__(
        self,
        switch: Switch,
        control_port_index: int,
        mac: MacAddress,
        controller_mac: MacAddress,
        fail_mode: str = FAIL_OPEN,
        flow_capacity: int = DEFAULT_FLOW_CAPACITY,
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> None:
        if fail_mode not in (FAIL_OPEN, FAIL_CLOSED):
            raise ValueError(f"fail_mode must be 'open' or 'closed', got {fail_mode!r}")
        self.switch = switch
        self.control_port = control_port_index
        self.mac = mac
        self.controller_mac = controller_mac
        self.fail_mode = fail_mode
        self.table = FlowTable(capacity=flow_capacity)
        self.max_pending = max_pending
        self.mode = "flow"
        #: buffer_id -> (in_port, wire bytes) awaiting a controller verdict.
        self._pending: Dict[int, Tuple[int, bytes]] = {}
        self._buffer_ids = itertools.count(1)

        self.packet_ins_sent = 0
        self.packet_in_drops = 0
        self.flow_mods_applied = 0
        self.packet_outs_applied = 0
        self.flow_drops = 0
        self.closed_drops = 0
        self.fallbacks = 0
        self.recoveries = 0
        self.control_messages_sent = 0

        name = switch.name
        self._packet_in_metric = REGISTRY.counter(
            "packet_in_total",
            "Packet-in messages sent to the controller",
            labels=("switch",),
        ).labels(switch=name)
        self._flow_mod_metric = REGISTRY.counter(
            "flow_mods_total",
            "Flow modifications applied at the switch",
            labels=("switch",),
        ).labels(switch=name)
        self._evict_metric = REGISTRY.counter(
            "flow_table_evictions_total",
            "Flow entries evicted because the table was full",
            labels=("switch",),
        ).labels(switch=name)
        drops = REGISTRY.counter(
            "packet_in_drops_total",
            "Frames not sent to the controller (queue overflow, failover)",
            labels=("switch", "reason"),
        )
        self._overflow_metric = drops.labels(switch=name, reason="overflow")
        self._failover_metric = drops.labels(switch=name, reason="failover")

    # ------------------------------------------------------------------
    # Switch integration
    # ------------------------------------------------------------------
    def on_switch_frame(self, port: Port, frame: EthernetFrame, data: bytes) -> bool:
        """Claim a frame from the switch data plane; False defers to it."""
        if (
            port.index == self.control_port
            and frame.ethertype == EtherType.EXPERIMENTAL
        ):
            self._control_rx(frame)
            return True
        if self.mode != "flow":
            if self.fail_mode == FAIL_CLOSED:
                # Fail-closed: no controller, no data plane.
                self.closed_drops += 1
                self.switch.dropped_frames += 1
                self.switch._mirror(port, data)
                return True
            return False  # fail-open: the learning plane takes over

        sw = self.switch
        now = sw.sim.now
        if sw.ingress_filters.hooks and not sw._run_ingress_filters(port, frame):
            # Stacked switch-resident schemes (DAI, port security) veto
            # before the flow table, exactly as on the learning plane.
            sw.dropped_frames += 1
            sw._mirror(port, data)
            return True
        sw.cam.learn(frame.src, port.index, now)  # shadow learning for failover
        sw._mirror(port, data)

        entry = self.table.lookup(port.index, frame.src, frame.dst, frame.ethertype, now)
        if entry is not None:
            self._apply_action(entry.action, entry.out_port, port.index, data)
            return True
        self._packet_in(port, frame, data)
        return True

    def on_link_down(self, port_index: int) -> None:
        """Switch callback: a port lost its link (flap, cable pull)."""
        if port_index != self.control_port or self.mode != "flow":
            return
        self.mode = "fallback"
        self.fallbacks += 1
        self.table.clear()
        for port in self.switch.ports:
            self.switch.cam.flush_port(port.index)
        if self._pending:
            # Verdicts will never arrive; the buffered frames are stale.
            self.packet_in_drops += len(self._pending)
            self._failover_metric.inc(len(self._pending))
            self._pending.clear()

    # ------------------------------------------------------------------
    # Control channel
    # ------------------------------------------------------------------
    def _control_rx(self, frame: EthernetFrame) -> None:
        try:
            message = decode_message(frame.payload)
        except CodecError:
            return
        if self.mode != "flow":
            # Hearing the controller again ends the fallback window.
            self.mode = "flow"
            self.recoveries += 1
        if isinstance(message, FlowMod):
            self._apply_flow_mod(message)
        elif isinstance(message, PacketOut):
            self._apply_packet_out(message)
        elif isinstance(message, BarrierRequest):
            self._send_control(BarrierReply(xid=message.xid))

    def _apply_flow_mod(self, mod: FlowMod) -> None:
        self.flow_mods_applied += 1
        self._flow_mod_metric.inc()
        now = self.switch.sim.now
        if mod.command == FlowModCommand.DELETE:
            self.table.remove(mod.match)
            return
        entry = FlowEntry(
            match=mod.match,
            action=mod.action,
            out_port=mod.out_port,
            priority=mod.priority,
            idle_timeout=float(mod.idle_timeout),
            hard_timeout=float(mod.hard_timeout),
        )
        evicted = self.table.install(entry, now)
        if evicted is not None:
            self._evict_metric.inc()
        if mod.buffer_id != NO_BUFFER:
            parked = self._pending.pop(mod.buffer_id, None)
            if parked is not None:
                in_port, data = parked
                self._apply_action(mod.action, mod.out_port, in_port, data)

    def _apply_packet_out(self, out: PacketOut) -> None:
        self.packet_outs_applied += 1
        parked = self._pending.pop(out.buffer_id, None)
        if parked is not None:
            in_port, data = parked
        elif out.frame:
            in_port, data = out.in_port, out.frame
        else:
            return  # stale verdict for a frame dropped at failover
        self._apply_action(out.action, out.out_port, in_port, data)

    def _apply_action(
        self, action: int, out_port: int, in_port: int, data: bytes
    ) -> None:
        sw = self.switch
        if action == FlowAction.OUTPUT:
            if out_port == in_port or not 0 <= out_port < len(sw.ports):
                return  # hairpin or a port that no longer exists
            sw.forwarded_frames += 1
            sw._send(out_port, data)
        elif action == FlowAction.FLOOD:
            sw._flood(sw.ports[in_port], data)
        else:  # DROP
            self.flow_drops += 1
            sw.dropped_frames += 1

    # ------------------------------------------------------------------
    # Packet-in path
    # ------------------------------------------------------------------
    def _packet_in(self, port: Port, frame: EthernetFrame, data: bytes) -> None:
        if len(self._pending) >= self.max_pending:
            # Backpressure: the in-flight window is full (saturated
            # controller or slow channel).
            self.packet_in_drops += 1
            self._overflow_metric.inc()
            if self.fail_mode == FAIL_CLOSED:
                self.switch.dropped_frames += 1
            else:
                # Fail-open overflow: forward as the learning plane would;
                # the CAM is already warm from shadow learning.
                self.switch._forward(port, frame.dst, data)
            return
        buffer_id = next(self._buffer_ids) & 0xFFFFFFFF
        self._pending[buffer_id] = (port.index, data)
        self.packet_ins_sent += 1
        self._packet_in_metric.inc()
        self._send_control(
            PacketIn.for_frame(buffer_id, port.index, PacketInReason.NO_MATCH, data)
        )

    def _send_control(self, message) -> None:
        frame = EthernetFrame(
            dst=self.controller_mac,
            src=self.mac,
            ethertype=EtherType.EXPERIMENTAL,
            payload=message.encode(),
        )
        self.control_messages_sent += 1
        # Silently lost while the control link is down — exactly the
        # semantics of a dead TCP channel, surfaced by keepalive timeouts.
        self.switch.ports[self.control_port].transmit_batch((frame.encode(),))

    # ------------------------------------------------------------------
    def pending_packet_ins(self) -> int:
        return len(self._pending)

    def state_size(self) -> int:
        return len(self.table) + len(self._pending)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SwitchAgent({self.switch.name}, mode={self.mode}, "
            f"flows={len(self.table)}, pending={len(self._pending)})"
        )
