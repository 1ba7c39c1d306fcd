"""Unit tests for MAC/IPv4 address value types."""

from __future__ import annotations

import random

import pytest

from repro.errors import AddressError
from repro.net.addresses import (
    BROADCAST_IP,
    BROADCAST_MAC,
    Ipv4Address,
    Ipv4Network,
    MacAddress,
    ZERO_IP,
    ZERO_MAC,
)


class TestMacAddress:
    def test_parse_colon_form(self):
        mac = MacAddress("4c:34:88:5e:ea:85")
        assert str(mac) == "4c:34:88:5e:ea:85"

    def test_parse_dash_form(self):
        assert str(MacAddress("4C-34-88-5E-EA-85")) == "4c:34:88:5e:ea:85"

    def test_roundtrip_via_bytes(self):
        mac = MacAddress("08:00:27:f8:42:a7")
        assert MacAddress(mac.packed) == mac

    def test_roundtrip_via_int(self):
        mac = MacAddress("08:00:27:f8:42:a7")
        assert MacAddress(int(mac)) == mac

    def test_copy_constructor(self):
        mac = MacAddress("08:00:27:f8:42:a7")
        assert MacAddress(mac) == mac

    @pytest.mark.parametrize(
        "bad",
        ["", "08:00:27", "08:00:27:f8:42:zz", "0800.27f8.42a7", "08:00:27:f8:42:a7:00"],
    )
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(AddressError):
            MacAddress(bad)

    def test_wrong_byte_length_rejected(self):
        with pytest.raises(AddressError):
            MacAddress(b"\x00" * 5)

    def test_int_out_of_range_rejected(self):
        with pytest.raises(AddressError):
            MacAddress(1 << 48)

    def test_broadcast_properties(self):
        assert BROADCAST_MAC.is_broadcast
        assert BROADCAST_MAC.is_multicast
        assert not BROADCAST_MAC.is_unicast

    def test_unicast_properties(self):
        mac = MacAddress("08:00:27:f8:42:a7")
        assert mac.is_unicast
        assert not mac.is_broadcast
        assert not mac.is_multicast

    def test_multicast_bit(self):
        assert MacAddress("01:00:5e:00:00:01").is_multicast

    def test_locally_administered_bit(self):
        assert MacAddress("02:00:00:00:00:01").is_locally_administered
        assert not MacAddress("08:00:27:f8:42:a7").is_locally_administered

    def test_oui_extraction(self):
        assert MacAddress("08:00:27:f8:42:a7").oui == 0x080027

    def test_random_is_unicast_and_local(self):
        rng = random.Random(1)
        for _ in range(50):
            mac = MacAddress.random(rng)
            assert mac.is_unicast
            assert mac.is_locally_administered

    def test_random_with_oui(self):
        rng = random.Random(1)
        mac = MacAddress.random(rng, oui=0x080027)
        assert mac.oui == 0x080027
        assert mac.is_unicast

    def test_random_oui_out_of_range(self):
        with pytest.raises(AddressError):
            MacAddress.random(random.Random(1), oui=1 << 24)

    def test_ordering_and_hashing(self):
        a = MacAddress("00:00:00:00:00:01")
        b = MacAddress("00:00:00:00:00:02")
        assert a < b
        assert len({a, MacAddress("00:00:00:00:00:01")}) == 1

    def test_zero_mac(self):
        assert int(ZERO_MAC) == 0


class TestIpv4Address:
    def test_parse_and_format(self):
        assert str(Ipv4Address("192.168.88.254")) == "192.168.88.254"

    def test_roundtrip_bytes_int(self):
        ip = Ipv4Address("10.0.3.50")
        assert Ipv4Address(ip.packed) == ip
        assert Ipv4Address(int(ip)) == ip

    @pytest.mark.parametrize(
        "bad", ["", "1.2.3", "1.2.3.4.5", "256.1.1.1", "01.2.3.4", "a.b.c.d", "1.2.3.-4"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(AddressError):
            Ipv4Address(bad)

    def test_byte_length_enforced(self):
        with pytest.raises(AddressError):
            Ipv4Address(b"\x01\x02\x03")

    def test_addition(self):
        assert Ipv4Address("10.0.0.1") + 9 == Ipv4Address("10.0.0.10")

    def test_addition_wraps(self):
        assert Ipv4Address("255.255.255.255") + 1 == Ipv4Address("0.0.0.0")

    def test_special_addresses(self):
        assert ZERO_IP.is_unspecified
        assert BROADCAST_IP.is_broadcast
        assert Ipv4Address("224.0.0.1").is_multicast
        assert not Ipv4Address("192.168.1.1").is_multicast

    def test_ordering(self):
        assert Ipv4Address("10.0.0.1") < Ipv4Address("10.0.0.2")

    def test_hashable(self):
        assert len({Ipv4Address("1.1.1.1"), Ipv4Address("1.1.1.1")}) == 1


class TestAddressKeys:
    def test_mac_and_ip_with_equal_values_stay_distinct_keys(self):
        mac = MacAddress(0x0A000001)
        ip = Ipv4Address("10.0.0.1")
        assert int(mac) == int(ip)
        assert mac != ip and ip != mac
        table = {mac: "mac", ip: "ip"}
        assert len(table) == 2
        assert table[MacAddress(0x0A000001)] == "mac"
        assert table[Ipv4Address(0x0A000001)] == "ip"
        assert len({mac, ip, MacAddress(mac), Ipv4Address(ip)}) == 2


class TestIpv4Network:
    def test_parse(self):
        net = Ipv4Network("192.168.88.0/24")
        assert str(net) == "192.168.88.0/24"
        assert net.prefix == 24

    def test_netmask_and_broadcast(self):
        net = Ipv4Network("192.168.88.0/24")
        assert str(net.netmask) == "255.255.255.0"
        assert str(net.broadcast) == "192.168.88.255"

    def test_num_hosts(self):
        assert Ipv4Network("192.168.88.0/24").num_hosts == 254
        assert Ipv4Network("10.0.0.0/30").num_hosts == 2

    def test_contains(self):
        net = Ipv4Network("192.168.88.0/24")
        assert Ipv4Address("192.168.88.17") in net
        assert Ipv4Address("192.168.89.17") not in net

    def test_host_indexing(self):
        net = Ipv4Network("10.0.0.0/24")
        assert str(net.host(1)) == "10.0.0.1"
        assert str(net.host(254)) == "10.0.0.254"

    def test_host_index_bounds(self):
        net = Ipv4Network("10.0.0.0/24")
        with pytest.raises(AddressError):
            net.host(0)
        with pytest.raises(AddressError):
            net.host(255)

    def test_hosts_iteration(self):
        hosts = list(Ipv4Network("10.0.0.0/29").hosts())
        assert len(hosts) == 6
        assert str(hosts[0]) == "10.0.0.1"

    @pytest.mark.parametrize("bad", ["10.0.0.0", "10.0.0.0/33", "10.0.0.1/24", "x/24"])
    def test_malformed_cidr_rejected(self, bad):
        with pytest.raises(AddressError):
            Ipv4Network(bad)

    def test_equality_and_hash(self):
        assert Ipv4Network("10.0.0.0/8") == Ipv4Network("10.0.0.0/8")
        assert len({Ipv4Network("10.0.0.0/8"), Ipv4Network("10.0.0.0/8")}) == 1

    def test_copy_constructor(self):
        net = Ipv4Network("10.0.0.0/24")
        assert Ipv4Network(net) == net
