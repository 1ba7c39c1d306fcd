"""LAN topology builder.

Assembles the experimental workplace every evaluation scenario uses: a
switch (with optional mirror port), a gateway router that can run DHCP,
some number of user hosts, optionally an attacker and a monitor station —
the same shape as the classic "home/office LAN plus IDS on a mirror port"
testbed.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.errors import TopologyError
from repro.l2.device import DEFAULT_LATENCY, DEFAULT_RATE_BPS, Link
from repro.l2.switch import Switch
from repro.net.addresses import Ipv4Address, Ipv4Network, MacAddress
from repro.net.oui import KNOWN_OUIS
from repro.sim.simulator import Simulator
from repro.stack.dhcp_server import DhcpServer
from repro.stack.host import Host
from repro.stack.os_profiles import LINUX, OsProfile
from repro.stack.router import Router

__all__ = ["Campus", "DEFAULT_SWITCH_PORTS", "Lan", "PortAllocator"]

_REALISTIC_OUIS = sorted(KNOWN_OUIS)

#: Ports on a :class:`Lan`'s primary switch unless the caller asks for more.
DEFAULT_SWITCH_PORTS = 64

#: Locally-administered, unicast base for deterministic campus MACs
#: (02:xx:xx:xx:xx:xx) — derived from the global host index instead of a
#: shared RNG stream so the address a host gets does not depend on how
#: many other partitions drew from the stream first.
_CAMPUS_MAC_BASE = 0x02_00_00_00_00_00


def _release(fabric, devices) -> None:
    """Release every device (its ports' device, peer and cable), then
    ``fabric`` (a simulator, or a sharded one with its partitions)."""
    for device in devices:
        device.release()
    fabric.release()


class PortAllocator:
    """O(1) switch-port bookkeeping.

    Hands out port indices sequentially (0, 1, 2, ... — byte-identical to
    the counter it replaced) and recycles released indices through a FIFO
    free-list, so building a 10k-host topology costs O(1) per attachment
    and unplugged ports can be reused without scanning the port list.
    """

    __slots__ = ("switch_name", "num_ports", "_next", "_released")

    def __init__(self, switch_name: str, num_ports: int) -> None:
        self.switch_name = switch_name
        self.num_ports = num_ports
        self._next = 0
        self._released: deque[int] = deque()

    def take(self) -> int:
        if self._released:
            return self._released.popleft()
        index = self._next
        if index >= self.num_ports:
            raise TopologyError(f"{self.switch_name} is out of ports")
        self._next = index + 1
        return index

    def release(self, index: int) -> None:
        if not 0 <= index < self._next:
            raise TopologyError(
                f"{self.switch_name} port {index} was never allocated"
            )
        self._released.append(index)

    def available(self) -> int:
        return self.num_ports - self._next + len(self._released)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PortAllocator({self.switch_name!r}, "
            f"{self.num_ports - self.available()}/{self.num_ports} in use)"
        )


class Lan:
    """A single-switch LAN with a gateway, hosts and an optional monitor.

    Addressing convention: the gateway takes ``.1``; statically addressed
    hosts are handed ``.10`` upward; the DHCP pool (when enabled) sits in
    the upper half of the subnet.
    """

    def __init__(
        self,
        sim: Simulator,
        network: str | Ipv4Network = "192.168.88.0/24",
        switch_ports: int = DEFAULT_SWITCH_PORTS,
        cam_capacity: int = 1024,
        cam_aging: float = 300.0,
        link_latency: float = DEFAULT_LATENCY,
        link_rate_bps: float = DEFAULT_RATE_BPS,
    ) -> None:
        self.sim = sim
        self.network = Ipv4Network(network)
        self.link_latency = link_latency
        self.link_rate_bps = link_rate_bps
        self.switch = Switch(
            sim,
            "switch1",
            num_ports=switch_ports,
            cam_capacity=cam_capacity,
            cam_aging=cam_aging,
        )
        #: All switches by name; ``switch1`` is the primary (uplink) one.
        self.switches: Dict[str, Switch] = {"switch1": self.switch}
        self._ports: Dict[str, PortAllocator] = {
            "switch1": PortAllocator("switch1", switch_ports)
        }
        #: Primary-switch port indices that are inter-switch trunks —
        #: switch-resident schemes must treat these as trusted/multi-MAC.
        self.trunk_ports: set[int] = set()
        #: host name -> (switch name, port index on that switch).
        self.attachment_of: Dict[str, tuple[str, int]] = {}
        self._next_host_index = 10
        self._macs_used: set[MacAddress] = set()
        self._mac_rng = sim.rng_stream("lan/mac-alloc")
        self.hosts: Dict[str, Host] = {}
        self.links: List[Link] = []
        self.gateway = self._make_gateway()
        self.dhcp_server: Optional[DhcpServer] = None
        self.monitor: Optional[Host] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _alloc_mac(self, realistic: bool = True) -> MacAddress:
        while True:
            oui = self._mac_rng.choice(_REALISTIC_OUIS) if realistic else None
            mac = MacAddress.random(self._mac_rng, oui=oui)
            if mac not in self._macs_used:
                self._macs_used.add(mac)
                return mac

    def _take_switch_port(self, switch_name: str = "switch1") -> int:
        try:
            allocator = self._ports[switch_name]
        except KeyError:
            raise TopologyError(f"no such switch {switch_name!r}") from None
        return allocator.take()

    def _wire(self, host: Host, switch_name: str = "switch1") -> int:
        port_index = self._take_switch_port(switch_name)
        link = Link(
            self.sim,
            host.nic,
            self.switches[switch_name].ports[port_index],
            latency=self.link_latency,
            rate_bps=self.link_rate_bps,
        )
        self.links.append(link)
        self.attachment_of[host.name] = (switch_name, port_index)
        return port_index

    def add_switch(
        self,
        name: str,
        num_ports: int = 16,
        cam_capacity: int = 1024,
        cam_aging: float = 300.0,
        uplink_to: str = "switch1",
    ) -> Switch:
        """Add a secondary switch trunked to ``uplink_to``.

        Models mixed environments (e.g. a cheap unmanaged switch hanging
        off the managed core) — the topology where switch-resident
        defenses famously go blind for intra-segment traffic.
        """
        if name in self.switches:
            raise TopologyError(f"duplicate switch name {name!r}")
        switch = Switch(
            self.sim,
            name,
            num_ports=num_ports,
            cam_capacity=cam_capacity,
            cam_aging=cam_aging,
        )
        self.switches[name] = switch
        self._ports[name] = PortAllocator(name, num_ports)
        uplink = self.switches[uplink_to]
        up_index = self._take_switch_port(uplink_to)
        down_index = self._take_switch_port(name)
        link = Link(
            self.sim,
            uplink.ports[up_index],
            switch.ports[down_index],
            latency=self.link_latency,
            rate_bps=self.link_rate_bps,
        )
        self.links.append(link)
        if uplink_to == "switch1":
            self.trunk_ports.add(up_index)
        return switch

    def _make_gateway(self) -> Router:
        router = Router(
            self.sim,
            "gateway",
            mac=self._alloc_mac(),
            ip=self.network.host(1),
            network=self.network,
        )
        self.hosts[router.name] = router
        self.switch_port_of: Dict[str, int] = {}
        self.switch_port_of[router.name] = self._wire(router)
        return router

    def add_host(
        self,
        name: str,
        ip: Optional[Ipv4Address | str | int] = None,
        profile: OsProfile = LINUX,
        use_gateway: bool = True,
        realistic_mac: bool = True,
        switch: str = "switch1",
    ) -> Host:
        """Add a statically addressed host.

        ``ip`` may be an address, a host index within the subnet, or
        ``None`` to auto-assign the next free static address.  Pass
        ``use_gateway=False`` for stations (monitors, attackers doing pure
        L2 work) that should never route off-link.
        """
        if name in self.hosts:
            raise TopologyError(f"duplicate host name {name!r}")
        if ip is None:
            address = self.network.host(self._next_host_index)
            self._next_host_index += 1
        elif isinstance(ip, int):
            address = self.network.host(ip)
        else:
            address = Ipv4Address(ip)
            if address not in self.network:
                raise TopologyError(f"{address} is not in {self.network}")
        host = Host(
            self.sim,
            name,
            mac=self._alloc_mac(realistic=realistic_mac),
            ip=address,
            network=self.network,
            gateway=self.gateway.ip if use_gateway else None,
            profile=profile,
        )
        self.hosts[name] = host
        port_index = self._wire(host, switch)
        if switch == "switch1":
            self.switch_port_of[name] = port_index
        return host

    def add_dhcp_host(
        self, name: str, profile: OsProfile = LINUX, switch: str = "switch1"
    ) -> Host:
        """Add a host with no address (to be configured by a DhcpClient)."""
        if name in self.hosts:
            raise TopologyError(f"duplicate host name {name!r}")
        host = Host(
            self.sim,
            name,
            mac=self._alloc_mac(),
            ip=None,
            network=self.network,
            gateway=None,
            profile=profile,
        )
        self.hosts[name] = host
        port_index = self._wire(host, switch)
        if switch == "switch1":
            self.switch_port_of[name] = port_index
        return host

    def add_monitor(self, name: str = "monitor", with_ip: bool = True) -> Host:
        """Attach a promiscuous monitor station on a mirror port.

        The switch mirrors every other port to the monitor's port — the
        standard IDS deployment the detection schemes assume.
        """
        if self.monitor is not None:
            raise TopologyError("monitor already attached")
        address = self.network.host(2) if with_ip else None
        monitor = Host(
            self.sim,
            name,
            mac=self._alloc_mac(),
            ip=address,
            network=self.network,
            gateway=None,
        )
        monitor.promiscuous = True
        self.hosts[name] = monitor
        port_index = self._wire(monitor)
        self.switch_port_of[name] = port_index
        self.switch.mirror_all_to(port_index)
        self.monitor = monitor
        return monitor

    def enable_dhcp(
        self,
        pool_start: Optional[int] = None,
        pool_end: Optional[int] = None,
        lease_time: float = 600.0,
    ) -> DhcpServer:
        """Run a DHCP server on the gateway (home-router style)."""
        if self.dhcp_server is not None:
            raise TopologyError("DHCP already enabled")
        half = self.network.num_hosts // 2
        start = pool_start if pool_start is not None else half + 1
        end = pool_end if pool_end is not None else self.network.num_hosts
        self.dhcp_server = DhcpServer(
            host=self.gateway,
            network=self.network,
            pool_start=start,
            pool_end=end,
            router=self.gateway.ip,
            lease_time=lease_time,
        )
        return self.dhcp_server

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise TopologyError(f"no such host {name!r}") from None

    def port_of(self, name: str) -> int:
        """Primary-switch port index a host is wired to.

        Raises for hosts on secondary switches — use :attr:`attachment_of`
        for the general (switch, port) location.
        """
        try:
            return self.switch_port_of[name]
        except KeyError:
            raise TopologyError(
                f"{name!r} is not attached to the primary switch"
            ) from None

    def true_bindings(self) -> Dict[Ipv4Address, MacAddress]:
        """Ground truth (IP -> MAC) for every addressed host.

        This is what metrics compare poisoned caches against; schemes do
        NOT get to see it.
        """
        return {
            host.ip: host.mac for host in self.hosts.values() if host.ip is not None
        }

    def release(self) -> None:
        """Break the reference cycles that tie this LAN together.

        Ports point at their device, their peer and their cable, and
        devices point at the simulator that holds their timers in its
        queue, so a finished LAN is garbage that only a full collection
        frees.  After this call it is freed by reference counting as
        soon as its last outside reference goes.  Counters, caches,
        names and cable totals stay readable; the LAN cannot carry
        frames again.
        """
        _release(self.sim, (*self.hosts.values(), *self.switches.values()))

    def __repr__(self) -> str:
        return (
            f"Lan({self.network}, hosts={len(self.hosts)}, "
            f"monitor={'yes' if self.monitor else 'no'})"
        )


class Campus:
    """A spine-leaf campus: buildings -> leaf switches -> one spine.

    The scale topology (ROADMAP item 1): ``buildings x leaves_per_building``
    leaf switches each serving ``hosts_per_leaf`` stations, every leaf
    trunked to a single spine switch.  10k hosts is
    ``buildings=10, leaves_per_building=10, hosts_per_leaf=100``.

    ``fabric`` is either a plain :class:`~repro.sim.Simulator` (everything
    in one event loop, plain links throughout) or a
    :class:`~repro.sim.ShardedSimulator` — detected by the presence of
    ``add_partition`` — in which case each building becomes a partition,
    the spine switch gets its own ``spine`` partition, and the leaf->spine
    uplinks become boundary links (their latency is the lookahead floor).
    The built topology is identical either way.

    Determinism across sharding: MAC and IP addresses derive from the
    global host index (not a shared RNG stream — partitions would race on
    it), names encode position (``b{building}l{leaf}h{host}``), and all
    construction is event-free, so a fixed-seed run produces the same
    traffic whether or not the fabric is partitioned.

    Duck-types the :class:`Lan` surface monitor-placement schemes need
    (``hosts``, ``monitor``, ``true_bindings``), so ``ArpWatch`` and
    friends install unchanged via :meth:`add_monitor`.
    """

    def __init__(
        self,
        fabric,
        network: str | Ipv4Network = "10.0.0.0/16",
        buildings: int = 4,
        leaves_per_building: int = 2,
        hosts_per_leaf: int = 24,
        leaf_latency: float = DEFAULT_LATENCY,
        spine_latency: float = 10 * DEFAULT_LATENCY,
        link_rate_bps: float = DEFAULT_RATE_BPS,
        profile: OsProfile = LINUX,
    ) -> None:
        if buildings < 1 or leaves_per_building < 1 or hosts_per_leaf < 1:
            raise TopologyError("campus dimensions must all be >= 1")
        self.fabric = fabric
        self.network = Ipv4Network(network)
        self.buildings = buildings
        self.leaves_per_building = leaves_per_building
        self.hosts_per_leaf = hosts_per_leaf
        self.spine_latency = spine_latency
        self.leaf_latency = leaf_latency
        self.link_rate_bps = link_rate_bps
        total_hosts = buildings * leaves_per_building * hosts_per_leaf
        if total_hosts + 16 > self.network.num_hosts:
            raise TopologyError(
                f"{self.network} cannot address {total_hosts} hosts; "
                f"use a wider prefix"
            )
        self.sharded = hasattr(fabric, "add_partition")
        self.hosts: Dict[str, Host] = {}
        self.switches: Dict[str, Switch] = {}
        self.links: List[Link] = []
        self.monitor: Optional[Host] = None
        self._ports: Dict[str, PortAllocator] = {}
        #: device name -> (switch name, port index) for every station.
        self.attachment_of: Dict[str, tuple[str, int]] = {}

        n_leaves = buildings * leaves_per_building
        if self.sharded:
            spine_sim = fabric.add_partition("spine")
            self._building_sims = [
                fabric.add_partition(f"b{b}") for b in range(buildings)
            ]
        else:
            spine_sim = fabric
            self._building_sims = [fabric] * buildings

        # One CAM big enough for the whole campus on the spine; leaves
        # only ever learn their local stations plus the trunk.
        self.spine = Switch(
            spine_sim,
            "spine",
            num_ports=n_leaves,
            cam_capacity=max(1024, 2 * total_hosts),
        )
        self.switches["spine"] = self.spine
        self._ports["spine"] = PortAllocator("spine", n_leaves)
        if self.sharded:
            spine_sim.register(self.spine)

        host_index = 0
        for b in range(buildings):
            bsim = self._building_sims[b]
            for l in range(leaves_per_building):
                leaf_name = f"b{b}l{l}"
                # hosts + uplink + one spare for a mirror/monitor port.
                leaf = Switch(
                    bsim,
                    leaf_name,
                    num_ports=hosts_per_leaf + 2,
                    cam_capacity=max(256, 4 * hosts_per_leaf),
                )
                self.switches[leaf_name] = leaf
                self._ports[leaf_name] = PortAllocator(leaf_name, hosts_per_leaf + 2)
                if self.sharded:
                    bsim.register(leaf)
                up_index = self._ports[leaf_name].take()
                spine_index = self._ports["spine"].take()
                if self.sharded:
                    fabric.connect(
                        leaf.ports[up_index],
                        self.spine.ports[spine_index],
                        latency=spine_latency,
                        rate_bps=link_rate_bps,
                    )
                else:
                    self.links.append(
                        Link(
                            fabric,
                            leaf.ports[up_index],
                            self.spine.ports[spine_index],
                            latency=spine_latency,
                            rate_bps=link_rate_bps,
                        )
                    )
                for k in range(hosts_per_leaf):
                    host_index += 1
                    self._add_station(
                        bsim,
                        leaf_name,
                        name=f"{leaf_name}h{k}",
                        mac=MacAddress(_CAMPUS_MAC_BASE + host_index),
                        ip=self.network.host(16 + host_index),
                        profile=profile,
                    )

    def _add_station(
        self,
        sim,
        leaf_name: str,
        name: str,
        mac: MacAddress,
        ip: Optional[Ipv4Address],
        profile: OsProfile = LINUX,
        promiscuous: bool = False,
    ) -> Host:
        host = Host(
            sim,
            name,
            mac=mac,
            ip=ip,
            network=self.network,
            gateway=None,
            profile=profile,
        )
        host.promiscuous = promiscuous
        self.hosts[name] = host
        if self.sharded:
            sim.register(host)
        port_index = self._ports[leaf_name].take()
        self.links.append(
            Link(
                sim,
                host.nic,
                self.switches[leaf_name].ports[port_index],
                latency=self.leaf_latency,
                rate_bps=self.link_rate_bps,
            )
        )
        self.attachment_of[name] = (leaf_name, port_index)
        return host

    def add_monitor(
        self, building: int = 0, leaf: int = 0, name: str = "monitor"
    ) -> Host:
        """Attach a promiscuous monitor on a mirror port of one leaf.

        Campus monitors are per-leaf (a real IDS cannot mirror a whole
        spine); schemes installed on it see that leaf's traffic, which is
        exactly the partial-visibility story the paper's monitor schemes
        must survive at scale.
        """
        if self.monitor is not None:
            raise TopologyError("monitor already attached")
        leaf_name = f"b{building}l{leaf}"
        if leaf_name not in self.switches:
            raise TopologyError(f"no such leaf {leaf_name!r}")
        monitor = self._add_station(
            self._building_sims[building],
            leaf_name,
            name=name,
            mac=MacAddress(_CAMPUS_MAC_BASE + 0x00_FF_00_00_00_01),
            ip=self.network.host(2),
            promiscuous=True,
        )
        self.switches[leaf_name].mirror_all_to(self.attachment_of[name][1])
        self.monitor = monitor
        return monitor

    def release(self) -> None:
        """Break the reference cycles that tie this campus together.

        Same contract as :meth:`Lan.release`; when sharded, each
        partition's device registry is dropped too.
        """
        _release(self.fabric, (*self.hosts.values(), *self.switches.values()))

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @property
    def total_hosts(self) -> int:
        return self.buildings * self.leaves_per_building * self.hosts_per_leaf

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise TopologyError(f"no such host {name!r}") from None

    def leaf_switch(self, building: int, leaf: int) -> Switch:
        try:
            return self.switches[f"b{building}l{leaf}"]
        except KeyError:
            raise TopologyError(
                f"no such leaf b{building}l{leaf}"
            ) from None

    def hosts_in(self, building: int) -> List[Host]:
        prefix = f"b{building}l"
        return [h for name, h in self.hosts.items() if name.startswith(prefix)]

    def true_bindings(self) -> Dict[Ipv4Address, MacAddress]:
        """Ground truth (IP -> MAC), same contract as :meth:`Lan.true_bindings`."""
        return {
            host.ip: host.mac for host in self.hosts.values() if host.ip is not None
        }

    def __repr__(self) -> str:
        return (
            f"Campus({self.network}, {self.buildings}x"
            f"{self.leaves_per_building}x{self.hosts_per_leaf} = "
            f"{self.total_hosts} hosts, "
            f"{'sharded' if self.sharded else 'single-sim'})"
        )
