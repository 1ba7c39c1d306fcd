"""Tests for 802.1Q tagging and VLAN-aware switching (segmentation)."""

from __future__ import annotations

import pytest

from repro.attacks.arp_poison import ArpPoisoner, PoisonTarget
from repro.errors import CodecError, TopologyError
from repro.l2.topology import Lan
from repro.net.addresses import BROADCAST_MAC, MacAddress
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.packets.vlan import VlanTag, tag_frame, untag_frame, vlan_of
from repro.stack.os_profiles import WINDOWS_XP

M1 = MacAddress("02:00:00:00:00:01")
M2 = MacAddress("02:00:00:00:00:02")


class TestVlanCodec:
    def test_tag_untag_roundtrip(self):
        frame = EthernetFrame(M2, M1, EtherType.IPV4, b"payload")
        tagged = tag_frame(frame, vid=30, priority=5)
        assert tagged.ethertype == EtherType.VLAN
        tag, inner = untag_frame(tagged)
        assert tag.vid == 30 and tag.priority == 5
        assert inner.ethertype == EtherType.IPV4
        assert inner.payload == b"payload"

    def test_tag_survives_wire_encoding(self):
        frame = EthernetFrame(M2, M1, EtherType.ARP, b"x" * 28)
        wire = tag_frame(frame, vid=99).encode()
        decoded = EthernetFrame.decode(wire)
        assert vlan_of(decoded) == 99

    def test_vlan_of_untagged_is_none(self):
        assert vlan_of(EthernetFrame(M2, M1, EtherType.IPV4, b"")) is None

    def test_double_tagging_refused(self):
        frame = EthernetFrame(M2, M1, EtherType.IPV4, b"")
        with pytest.raises(CodecError):
            tag_frame(tag_frame(frame, vid=1), vid=2)

    def test_untag_requires_tag(self):
        with pytest.raises(CodecError):
            untag_frame(EthernetFrame(M2, M1, EtherType.IPV4, b""))

    @pytest.mark.parametrize("vid", [0, 4095, -1])
    def test_vid_range_enforced(self, vid):
        with pytest.raises(CodecError):
            VlanTag(vid=vid)

    def test_tci_roundtrip(self):
        tag = VlanTag(vid=123, priority=3, dei=True)
        assert VlanTag.decode(tag.encode()) == tag


@pytest.fixture
def segmented_lan(sim):
    """One switch, two VLANs: engineering (10) and guests (20)."""
    lan = Lan(sim)
    eng_a = lan.add_host("eng-a", profile=WINDOWS_XP)
    eng_b = lan.add_host("eng-b")
    guest = lan.add_host("guest")
    switch = lan.switch
    switch.set_access_port(lan.port_of("gateway"), 10)
    switch.set_access_port(lan.port_of("eng-a"), 10)
    switch.set_access_port(lan.port_of("eng-b"), 10)
    switch.set_access_port(lan.port_of("guest"), 20)
    return lan, eng_a, eng_b, guest


class TestVlanSwitching:
    def test_same_vlan_connectivity(self, sim, segmented_lan):
        lan, eng_a, eng_b, guest = segmented_lan
        replies = []
        eng_a.ping(eng_b.ip, on_reply=lambda s, r: replies.append(s))
        sim.run(until=2.0)
        assert replies == [eng_b.ip]

    def test_cross_vlan_isolation(self, sim, segmented_lan):
        lan, eng_a, eng_b, guest = segmented_lan
        failures = []
        guest.resolve(
            eng_a.ip, on_resolved=lambda m: pytest.fail("crossed the VLAN"),
            on_failed=lambda: failures.append(1),
        )
        sim.run(until=10.0)
        assert failures == [1]

    def test_broadcast_confined_to_vlan(self, sim, segmented_lan):
        lan, eng_a, eng_b, guest = segmented_lan
        seen = []
        guest.frame_taps.add(lambda frame, raw: seen.append(frame))
        eng_a.announce()  # broadcast gratuitous ARP in VLAN 10
        sim.run(until=1.0)
        assert all(f.src != eng_a.mac for f in seen)

    def test_poisoning_cannot_cross_vlans(self, sim, segmented_lan):
        """The segmentation mitigation: the guest cannot poison engineering."""
        lan, eng_a, eng_b, guest = segmented_lan
        eng_a.resolve(eng_b.ip, on_resolved=lambda m: None)
        sim.run(until=1.0)
        poisoner = ArpPoisoner(
            guest,
            [PoisonTarget(
                victim_ip=eng_a.ip, victim_mac=eng_a.mac,
                spoofed_ip=eng_b.ip, claimed_mac=guest.mac,
            )],
            technique="reply",
        )
        poisoner.start()
        sim.run(until=5.0)
        poisoner.stop()
        assert eng_a.arp_cache.get(eng_b.ip, sim.now) == eng_b.mac

    def test_per_vlan_cam_tables(self, sim, segmented_lan):
        lan, eng_a, eng_b, guest = segmented_lan
        eng_a.ping(eng_b.ip)
        sim.run(until=1.0)
        cam10 = lan.switch._cam_for(10)
        cam20 = lan.switch._cam_for(20)
        assert eng_a.mac in cam10
        assert eng_a.mac not in cam20

    def test_host_injected_tags_dropped_on_access_port(self, sim, segmented_lan):
        """VLAN hopping attempt: a host on an access port sends a tagged
        frame claiming VLAN 10 — the switch eats it."""
        lan, eng_a, eng_b, guest = segmented_lan
        inner = EthernetFrame(BROADCAST_MAC, guest.mac, EtherType.EXPERIMENTAL, b"hop")
        guest.transmit_frame(tag_frame(inner, vid=10))
        sim.run(until=1.0)
        assert lan.switch.vlan_violations == 1

    def test_invalid_configuration_rejected(self, sim):
        lan = Lan(sim)
        with pytest.raises(TopologyError):
            lan.switch.set_access_port(999, 10)
        with pytest.raises(TopologyError):
            lan.switch.set_access_port(0, 9999)


class TestVlanTrunking:
    def test_trunk_carries_multiple_vlans(self, sim):
        """Two switches; VLANs 10 and 20 both cross one 802.1Q trunk."""
        lan = Lan(sim)
        lan.add_switch("switch2", num_ports=8)
        a10 = lan.add_host("a10")
        b10 = lan.add_host("b10", switch="switch2")
        a20 = lan.add_host("a20")
        b20 = lan.add_host("b20", switch="switch2")

        core, edge = lan.switch, lan.switches["switch2"]
        trunk_core = next(iter(lan.trunk_ports))
        trunk_edge = 0  # first port taken on switch2 is its uplink
        core.set_trunk_port(trunk_core)
        edge.set_trunk_port(trunk_edge)
        core.set_access_port(lan.port_of("a10"), 10)
        core.set_access_port(lan.port_of("a20"), 20)
        core.set_access_port(lan.port_of("gateway"), 10)
        edge.set_access_port(lan.attachment_of["b10"][1], 10)
        edge.set_access_port(lan.attachment_of["b20"][1], 20)

        replies = []
        a10.ping(b10.ip, on_reply=lambda s, r: replies.append(s))
        a20.ping(b20.ip, on_reply=lambda s, r: replies.append(s))
        sim.run(until=3.0)
        assert sorted(str(r) for r in replies) == sorted(
            [str(b10.ip), str(b20.ip)]
        )
        # Isolation still holds across the trunk.
        failures = []
        a10.resolve(b20.ip, on_resolved=lambda m: pytest.fail("leak"),
                    on_failed=lambda: failures.append(1))
        sim.run(until=10.0)
        assert failures == [1]

    def test_trunk_allowed_list_filters(self, sim):
        lan = Lan(sim)
        lan.add_switch("switch2", num_ports=8)
        a20 = lan.add_host("a20")
        b20 = lan.add_host("b20", switch="switch2")
        core, edge = lan.switch, lan.switches["switch2"]
        trunk_core = next(iter(lan.trunk_ports))
        core.set_trunk_port(trunk_core, allowed={10})  # 20 pruned!
        edge.set_trunk_port(0)
        core.set_access_port(lan.port_of("a20"), 20)
        edge.set_access_port(lan.attachment_of["b20"][1], 20)
        failures = []
        a20.resolve(b20.ip, on_resolved=lambda m: pytest.fail("pruned vlan leaked"),
                    on_failed=lambda: failures.append(1))
        sim.run(until=10.0)
        assert failures == [1]


class TestNativeVlanPruning:
    def test_untagged_dropped_on_pruned_trunk(self, sim):
        """A trunk whose allowed list excludes the native VLAN polices
        untagged frames too."""
        lan = Lan(sim)
        lan.add_switch("switch2", num_ports=8)
        rogue = lan.add_host("rogue", switch="switch2")
        core, edge = lan.switch, lan.switches["switch2"]
        trunk_core = next(iter(lan.trunk_ports))
        core.set_trunk_port(trunk_core, allowed={10})  # native VLAN 1 pruned
        edge.set_trunk_port(0)
        edge.set_access_port(lan.attachment_of["rogue"][1], 1)
        violations_before = core.vlan_violations
        rogue.announce()  # untagged broadcast arrives at the core trunk
        sim.run(until=1.0)
        assert core.vlan_violations > violations_before
