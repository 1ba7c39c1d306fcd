"""Edge cases of the host stack and DHCP machinery."""

from __future__ import annotations

import pytest

from repro.errors import StackError
from repro.l2.topology import Lan
from repro.net.addresses import Ipv4Address, MacAddress
from repro.stack.dhcp_client import DhcpClient
from repro.stack.host import Host
from repro.sim.simulator import Simulator


class TestHostConfiguration:
    def test_announce_requires_ip(self, sim):
        host = Host(sim, "bare", mac=MacAddress("02:00:00:00:00:01"))
        with pytest.raises(StackError):
            host.announce()

    def test_send_ip_requires_ip(self, sim):
        host = Host(sim, "bare", mac=MacAddress("02:00:00:00:00:01"))
        with pytest.raises(StackError):
            host.send_ip(Ipv4Address("10.0.0.1"), 17, b"")

    def test_ping_via_requires_ip(self, sim):
        host = Host(sim, "bare", mac=MacAddress("02:00:00:00:00:01"))
        with pytest.raises(StackError):
            host.ping_via(Ipv4Address("10.0.0.1"), MacAddress("02:00:00:00:00:02"))

    def test_unaddressed_host_resolves_with_zero_spa(self, sim, lan):
        """Pre-DHCP hosts may still ARP (spa 0.0.0.0, RFC 5227 style)."""
        nomad = lan.add_dhcp_host("nomad")
        target = lan.add_host("target")
        got = []
        nomad.resolve(target.ip, on_resolved=got.append)
        sim.run(until=2.0)
        assert got == [target.mac]

    def test_set_ip_reconfigures(self, sim, lan):
        host = lan.add_dhcp_host("h")
        host.set_ip(Ipv4Address("192.168.88.200"), gateway=lan.gateway.ip)
        assert host.ip == Ipv4Address("192.168.88.200")
        assert host.gateway == lan.gateway.ip

    def test_ephemeral_ports_distinct(self, sim, lan):
        host = lan.add_host("h")
        ports = {host.ephemeral_port() for _ in range(100)}
        assert len(ports) == 100

    def test_loopback_delivery(self, sim, lan):
        """send_ip to our own address delivers locally, no wire involved."""
        host = lan.add_host("h")
        got = []
        host.udp_bind(7000, lambda h, src, dg: got.append(dg.payload))
        host.send_udp(host.ip, 1234, 7000, b"self")
        assert got == [b"self"]
        assert host.nic.tx_frames == 0

    def test_frame_tap_sees_foreign_unicast_only_via_delivery(self, sim, lan):
        """Taps observe everything the NIC receives — on a learned switch
        that means no foreign unicast at all."""
        a = lan.add_host("a")
        b = lan.add_host("b")
        c = lan.add_host("c")
        # Teach the switch where everyone lives.
        a.ping(b.ip)
        c.ping(lan.gateway.ip)
        sim.run(until=1.0)
        seen = []
        c.frame_taps.add(lambda frame, raw: seen.append(frame))
        a.ping(b.ip)
        sim.run(until=2.0)
        assert all(f.src != a.mac for f in seen)


class TestDhcpEdgeCases:
    @pytest.fixture
    def dhcp_lan(self, sim):
        lan = Lan(sim, network="10.0.3.0/24")
        server = lan.enable_dhcp(pool_start=100, pool_end=105, lease_time=60.0)
        return lan, server

    def test_offer_hold_expires(self, sim, dhcp_lan):
        """Offers the client never claims return to the pool."""
        lan, server = dhcp_lan
        host = lan.add_dhcp_host("ghost")
        client = DhcpClient(host)
        # Break the client so it discovers but never requests.
        client._on_offer = lambda message: None
        client.start()
        sim.run(until=5.0)
        assert server.free_addresses == 5  # one address held by the offer
        # The client retries DISCOVER until it gives up at ~16 s; the last
        # offer hold (10 s) is gone by t=30.
        sim.run(until=30.0)
        assert server.free_addresses == 6

    def test_client_ignores_foreign_xid(self, sim, dhcp_lan):
        lan, server = dhcp_lan
        host = lan.add_dhcp_host("client")
        client = DhcpClient(host)
        client.start()
        sim.run(until=1.0)
        # A confused server answers with the wrong transaction id.
        from repro.packets.dhcp import DhcpMessage

        bogus = DhcpMessage.offer(
            chaddr=host.mac, xid=client.xid ^ 0xFFFF,
            yiaddr=Ipv4Address("10.0.3.250"), server_id=lan.gateway.ip,
            lease_time=60, netmask=lan.network.netmask, router=lan.gateway.ip,
        )
        server._send(bogus, host.mac)
        sim.run(until=8.0)
        assert host.ip != Ipv4Address("10.0.3.250")

    def test_renewal_failure_falls_back_to_rebind(self, sim, dhcp_lan):
        """If the server vanishes, the client's renewal gives up cleanly."""
        lan, server = dhcp_lan
        host = lan.add_dhcp_host("client")
        client = DhcpClient(host, retry_timeout=2.0, max_retries=2)
        client.start()
        sim.run(until=5.0)
        assert client.binds == 1
        lan.gateway.udp_unbind(67)  # the DHCP service dies
        sim.run(until=60.0)  # past T1=30s and the retries
        assert client.failures >= 1

    def test_two_servers_first_offer_wins(self, sim):
        """Classic multi-server DHCP: the client takes the first offer and
        the losing server releases its hold."""
        lan = Lan(sim, network="10.0.3.0/24")
        lan.enable_dhcp(pool_start=100, pool_end=110)
        second_host = lan.add_host("dhcp2", ip=2)
        from repro.stack.dhcp_server import DhcpServer

        second = DhcpServer(
            second_host, lan.network, pool_start=150, pool_end=160,
            router=lan.gateway.ip,
        )
        client_host = lan.add_dhcp_host("client")
        client = DhcpClient(client_host)
        client.start()
        sim.run(until=10.0)
        assert client.binds == 1
        total_leases = len(lan.dhcp_server.leases) + len(second.leases)
        assert total_leases == 1  # exactly one server committed
        sim.run(until=30.0)
        # The loser is not leaking offer holds.
        assert lan.dhcp_server.free_addresses + second.free_addresses == 21


class TestLinkTiming:
    def test_serialization_delay_scales_with_size(self, sim):
        """A bigger frame takes measurably longer on a slow link."""
        from repro.l2.device import Link
        from repro.l2.hub import Hub

        hub = Hub(sim, "hub", num_ports=2)
        a = Host(sim, "a", mac=MacAddress("02:00:00:00:00:01"),
                 ip=Ipv4Address("10.0.0.1"))
        b = Host(sim, "b", mac=MacAddress("02:00:00:00:00:02"),
                 ip=Ipv4Address("10.0.0.2"))
        Link(sim, a.nic, hub.ports[0], latency=0.0, rate_bps=1e6)  # 1 Mb/s
        Link(sim, b.nic, hub.ports[1], latency=0.0, rate_bps=1e6)
        arrivals = []
        b.frame_taps.add(lambda frame, raw: arrivals.append((sim.now, len(raw))))
        from repro.packets.ethernet import EtherType, EthernetFrame

        small = EthernetFrame(b.mac, a.mac, EtherType.EXPERIMENTAL, b"x" * 46)
        large = EthernetFrame(b.mac, a.mac, EtherType.EXPERIMENTAL, b"x" * 1400)
        a.transmit_frame(small)
        sim.run()
        t_small = arrivals[-1][0]
        a.transmit_frame(large)
        sim.run()
        t_large = arrivals[-1][0] - t_small
        # 60B vs 1414B at 1 Mb/s: ~0.48ms vs ~11.3ms per hop (x2 hops).
        assert t_large > t_small * 10
