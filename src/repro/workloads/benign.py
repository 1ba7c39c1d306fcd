"""Benign traffic and churn generators.

Two jobs: give attacks something worth intercepting (Figures 1 and 4
need live victim traffic), and generate the *legitimate* events that
fool naive detectors — DHCP reassignment, NIC replacement, gratuitous
re-announcements — for the false-positive table (Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.l2.topology import Lan
from repro.net.addresses import Ipv4Address, MacAddress
from repro.stack.dhcp_client import DhcpClient
from repro.stack.host import Host

__all__ = ["BenignTraffic", "ChurnWorkload", "ChurnEvent"]


class BenignTraffic:
    """Hosts ping random peers (and optionally the WAN) at a Poisson rate."""

    def __init__(
        self,
        lan: Lan,
        hosts: Optional[List[Host]] = None,
        rate_per_host: float = 1.0,
        wan_fraction: float = 0.3,
        wan_ip: Ipv4Address = Ipv4Address("93.184.216.34"),
    ) -> None:
        self.lan = lan
        self.hosts = hosts if hosts is not None else self._default_hosts(lan)
        self.rate = rate_per_host
        self.wan_fraction = wan_fraction
        self.wan_ip = wan_ip
        self._rng = lan.sim.rng_stream("workload/benign")
        self._cancels: List[Callable[[], None]] = []
        self.pings_sent = 0
        #: Echo replies the hosts had received before this generator
        #: existed; :attr:`replies_received` counts from there.
        self._replies_before = self._replies_total()
        self.running = False

    @staticmethod
    def _default_hosts(lan: Lan) -> List[Host]:
        skip = {"gateway"}
        if lan.monitor is not None:
            skip.add(lan.monitor.name)
        return [
            h
            for name, h in lan.hosts.items()
            if name not in skip and h.ip is not None
        ]

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        for host in self.hosts:
            interval = 1.0 / self.rate
            cancel = self.lan.sim.call_every(
                interval,
                lambda h=host: self._tick(h),
                name=f"benign/{host.name}",
                jitter=lambda: self._rng.expovariate(self.rate)
                - 1.0 / self.rate,
            )
            self._cancels.append(cancel)

    def stop(self) -> None:
        self.running = False
        for cancel in self._cancels:
            cancel()
        self._cancels.clear()

    def _tick(self, host: Host) -> None:
        if host.ip is None or not host.nic.up:
            return
        if self._rng.random() < self.wan_fraction:
            target = self.wan_ip
        else:
            peers = [h for h in self.hosts if h is not host and h.ip is not None]
            if not peers:
                return
            target = self._rng.choice(peers).ip
        self.pings_sent += 1
        host.ping(target)

    def _replies_total(self) -> int:
        return sum(host.counters["icmp_reply_rx"] for host in self.hosts)

    @property
    def replies_received(self) -> int:
        """Echo replies the generating hosts received since construction.

        Read from each host's ``icmp_reply_rx`` count, so an echo that is
        never answered leaves no per-ping state behind.
        """
        return self._replies_total() - self._replies_before

    @property
    def loss_fraction(self) -> float:
        if self.pings_sent == 0:
            return 0.0
        return 1.0 - self.replies_received / self.pings_sent


@dataclass
class ChurnEvent:
    """One benign-churn occurrence (for post-hoc accounting)."""

    time: float
    kind: str
    detail: str


class ChurnWorkload:
    """Legitimate binding churn: DHCP joins/leaves, NIC swaps, re-announces.

    Every event here is innocent, so *any* actionable alert a scheme
    raises while this runs is a false positive by construction.
    """

    def __init__(
        self,
        lan: Lan,
        join_rate: float = 1 / 120.0,
        nic_swap_rate: float = 1 / 600.0,
        reannounce_rate: float = 1 / 300.0,
        lease_time: float = 300.0,
        max_dhcp_hosts: int = 64,
    ) -> None:
        if lan.dhcp_server is None and join_rate > 0:
            raise ValueError("ChurnWorkload with joins needs lan.enable_dhcp() first")
        self.lan = lan
        self.join_rate = join_rate
        self.nic_swap_rate = nic_swap_rate
        self.reannounce_rate = reannounce_rate
        self.max_dhcp_hosts = max_dhcp_hosts
        self._rng = lan.sim.rng_stream("workload/churn")
        self._cancels: List[Callable[[], None]] = []
        self._dhcp_clients: List[DhcpClient] = []
        self._join_counter = 0
        self.events: List[ChurnEvent] = []
        self.running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        if self.join_rate > 0:
            self._cancels.append(
                self.lan.sim.call_every(
                    1.0 / self.join_rate, self._join, name="churn.join"
                )
            )
        if self.nic_swap_rate > 0:
            self._cancels.append(
                self.lan.sim.call_every(
                    1.0 / self.nic_swap_rate, self._nic_swap, name="churn.nic-swap"
                )
            )
        if self.reannounce_rate > 0:
            self._cancels.append(
                self.lan.sim.call_every(
                    1.0 / self.reannounce_rate,
                    self._reannounce,
                    name="churn.reannounce",
                )
            )

    def stop(self) -> None:
        self.running = False
        for cancel in self._cancels:
            cancel()
        self._cancels.clear()

    def _log(self, kind: str, detail: str) -> None:
        self.events.append(ChurnEvent(time=self.lan.sim.now, kind=kind, detail=detail))

    # ------------------------------------------------------------------
    # Event kinds
    # ------------------------------------------------------------------
    def _join(self) -> None:
        """A new device DHCPs onto the network (phone walks in the door)."""
        if len(self._dhcp_clients) >= self.max_dhcp_hosts:
            self._leave()
            return
        self._join_counter += 1
        name = f"churn-host-{self._join_counter}"
        host = self.lan.add_dhcp_host(name)
        client = DhcpClient(host)
        client.start()
        self._dhcp_clients.append(client)
        self._log("dhcp-join", name)

    def _leave(self) -> None:
        """An existing DHCP device releases and unplugs.

        Its address returns to the pool — the next joiner may receive the
        same IP with a different MAC, the classic arpwatch false alarm.
        """
        if not self._dhcp_clients:
            return
        client = self._dhcp_clients.pop(0)
        client.release()
        client.host.nic.shut()
        self._log("dhcp-leave", client.host.name)

    def _nic_swap(self) -> None:
        """A static host's NIC is replaced: same IP, brand-new MAC."""
        candidates = [
            h
            for name, h in self.lan.hosts.items()
            if h.ip is not None
            and h.nic.up
            and name not in ("gateway",)
            and not name.startswith("churn-")
            and (self.lan.monitor is None or h is not self.lan.monitor)
        ]
        if not candidates:
            return
        host = self._rng.choice(candidates)
        old = host.mac
        host.mac = MacAddress.random(self._rng)
        host.announce()
        self._log("nic-swap", f"{host.name}: {old} -> {host.mac}")

    def _reannounce(self) -> None:
        """A host gratuitously re-announces its (unchanged) binding."""
        candidates = [
            h for h in self.lan.hosts.values() if h.ip is not None and h.nic.up
        ]
        if not candidates:
            return
        host = self._rng.choice(candidates)
        host.announce()
        self._log("reannounce", host.name)

    # ------------------------------------------------------------------
    def event_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts
