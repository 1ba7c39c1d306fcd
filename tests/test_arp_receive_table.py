"""Every ARP packet a host can receive, checked against one reference table.

The paper's subject is which ARP packets a host's cache accepts.  This
module states that decision as a declarative table, one named rule per
row, and checks a real :class:`~repro.stack.host.Host` against it over
the whole input space:

* the four :class:`~repro.stack.os_profiles.OsProfile` stacks;
* the ARP guard verdict: none installed, abstain, force-accept, veto;
* the packet: request, reply, gratuitous request, gratuitous reply and
  RFC 5227 probe (sender address 0.0.0.0);
* the target: this host's address, another address, a host with no
  address, and (for requests and probes) this host's address with the
  responder turned off;
* what the host knows of the sender address: nothing, a cached binding
  with the offered MAC or another one, a resolution in flight, both, a
  static pin, and a static pin while a resolution is in flight;
* ``arp_rx_cost``: none, or a positive verification delay.

The reference is RFC 826's merge rule ("if the sender is in my table,
update it; if I am the target, add it; if it is a request, answer"),
read through the profile knobs' docstrings, with the guard verdict as
an input.  Where the simulated stacks knowingly depart from that
reading, the row carries the behaviour they keep under a
``modelling-choice:`` name (``docs/schemes.md`` gives the reason for
each).

Each case runs on its own one-host fixture: a ``Host`` cabled to a sink
that sends the packet and records what comes back.  It compares the
sender's cache entry and ``rejected_updates``, the resolution in flight
and what its waiter got, the frames sent, the host's counters and the
``PERF.arp_settled`` count of requests settled without the ARP input
path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional

import pytest

from repro.l2.device import Device, Link
from repro.net.addresses import (
    BROADCAST_MAC,
    ZERO_IP,
    Ipv4Address,
    Ipv4Network,
    MacAddress,
)
from repro.packets.arp import ArpPacket
from repro.packets.ethernet import EtherType, frame_bytes
from repro.perf import PERF
from repro.sim.simulator import Simulator
from repro.stack.arp_cache import BindingSource
from repro.stack.host import Host
from repro.stack.os_profiles import LINUX, SOLARIS_LIKE, STRICT, WINDOWS_XP, OsProfile

PROFILES = (LINUX, WINDOWS_XP, SOLARIS_LIKE, STRICT)
GUARDS = {"none": None, "abstain": None, "force-accept": True, "veto": False}
PACKETS = ("request", "reply", "gratuitous-request", "gratuitous-reply", "probe")
TARGETS = ("this-host", "other", "no-ip", "responder-off")
SENDERS = (
    "absent",
    "cached-same",
    "cached-other",
    "pending",
    "cached-pending",
    "pinned",
    "pinned-pending",
)
COSTS = (None, 0.002)

NETWORK = Ipv4Network("10.0.0.0/24")
HOST_MAC = MacAddress("02:00:00:00:00:01")
HOST_IP = Ipv4Address("10.0.0.1")
SENDER_MAC = MacAddress("02:00:00:00:00:02")
SENDER_IP = Ipv4Address("10.0.0.2")
OTHER_IP = Ipv4Address("10.0.0.3")
#: The MAC a cached or pinned entry holds before the packet arrives.
OLD_MAC = MacAddress("02:00:00:00:00:0f")


# ======================================================================
# The reference table
# ======================================================================
class Case(NamedTuple):
    """One receive, in the terms the rules read."""

    profile: OsProfile
    guard: str
    packet: str
    target: str
    sender: str
    cost: Optional[float]

    @property
    def forced(self) -> bool:
        return self.guard == "force-accept"

    @property
    def gratuitous(self) -> bool:
        return self.packet.startswith("gratuitous")

    @property
    def request(self) -> bool:
        """A request that is not gratuitous (probes included)."""
        return self.packet in ("request", "probe")

    @property
    def probe(self) -> bool:
        return self.packet == "probe"

    @property
    def for_us(self) -> bool:
        return self.target in ("this-host", "responder-off")

    @property
    def cached(self) -> bool:
        return self.sender not in ("absent", "pending")

    @property
    def pending(self) -> bool:
        return self.sender.endswith("pending")

    @property
    def pinned(self) -> bool:
        return self.sender.startswith("pinned")


@dataclass(frozen=True)
class Rule:
    """One row: when ``when`` holds (and no earlier row did), the host
    answers (a request for its own address, if its responder is on),
    puts the sender binding under ``put``, completes the sender's
    resolution, and counts the reply as ignored or the packet as
    dropped, as the row says."""

    name: str
    when: Callable[[Case], bool]
    answer: bool = False
    put: Optional[str] = None
    complete: bool = False
    ignored: bool = False
    dropped: bool = False


GRATUITOUS = BindingSource.GRATUITOUS
REQUEST = BindingSource.REQUEST
SOLICITED = BindingSource.SOLICITED_REPLY
UNSOLICITED = BindingSource.UNSOLICITED_REPLY

RULES = (
    Rule("guard-veto", lambda c: c.guard == "veto", dropped=True),
    # -- gratuitous announcements (sender address == target address) --
    Rule(
        "gratuitous-refused",
        lambda c: c.gratuitous
        and not c.forced
        and not c.profile.accept_gratuitous,
    ),
    Rule(
        "gratuitous-unknown-sender",
        lambda c: c.gratuitous
        and not (c.forced or c.cached or c.profile.create_from_request),
    ),
    Rule(
        "modelling-choice: gratuitous-own-address-cached",
        lambda c: c.gratuitous and c.for_us,
        put=GRATUITOUS,
    ),
    Rule(
        "modelling-choice: gratuitous-leaves-resolution-pending",
        lambda c: c.gratuitous and c.pending,
        put=GRATUITOUS,
    ),
    Rule("gratuitous-accepted", lambda c: c.gratuitous, put=GRATUITOUS),
    # -- requests ------------------------------------------------------
    Rule("rfc5227-probe", lambda c: c.probe, answer=True),
    Rule(
        "modelling-choice: pin-refuses-put-resolution-completes",
        lambda c: c.request
        and c.pinned
        and c.pending
        and (c.forced or c.profile.update_from_request),
        answer=True,
        put=REQUEST,
        complete=True,
    ),
    Rule(
        "guard-force-accept-completes",
        lambda c: c.request and c.pending and c.forced,
        answer=True,
        put=REQUEST,
        complete=True,
    ),
    Rule(
        "rfc826-merge-completes",
        lambda c: c.request and c.pending and c.profile.update_from_request,
        answer=True,
        put=REQUEST,
        complete=True,
    ),
    Rule(
        "guard-force-accept",
        lambda c: c.request and c.forced,
        answer=True,
        put=REQUEST,
    ),
    Rule(
        "rfc826-merge",
        lambda c: c.request and c.cached and c.profile.update_from_request,
        answer=True,
        put=REQUEST,
    ),
    Rule(
        "rfc826-create",
        lambda c: c.request
        and c.for_us
        and not c.cached
        and c.profile.create_from_request,
        answer=True,
        put=REQUEST,
    ),
    Rule("rfc826-answer", lambda c: c.request, answer=True),
    # -- replies -------------------------------------------------------
    Rule(
        "modelling-choice: pin-refuses-put-resolution-completes",
        lambda c: c.pinned and c.pending,
        put=SOLICITED,
        complete=True,
    ),
    Rule(
        "solicited-reply",
        lambda c: c.pending,
        put=SOLICITED,
        complete=True,
    ),
    Rule("guard-force-accept", lambda c: c.forced, put=UNSOLICITED),
    Rule(
        "unsolicited-reply-accepted",
        lambda c: c.profile.accept_unsolicited_reply,
        put=UNSOLICITED,
    ),
    Rule(
        "modelling-choice: reply-refreshes-cached-sender",
        lambda c: c.cached and c.profile.update_from_request,
        put=UNSOLICITED,
    ),
    Rule("unsolicited-reply-ignored", lambda c: True, ignored=True),
)


def reference(case: Case) -> Rule:
    """The first row whose condition holds."""
    return next(rule for rule in RULES if rule.when(case))


def settles(case: Case) -> bool:
    """RFC 826 settle: a request for another address, received with no
    guard and no receive cost by a host with an address, whose sender
    the host neither refreshes from requests nor caches nor resolves,
    is finished right after decoding and counted in ``arp_settled``."""
    return (
        case.guard == "none"
        and case.cost is None
        and case.target == "other"
        and case.request
        and not (
            case.profile.update_from_request and (case.cached or case.pending)
        )
    )


# ======================================================================
# The one-host fixture
# ======================================================================
class _Sink(Device):
    """The far end of the host's cable: sends the packet under test and
    records every frame the host sends."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim, "sink")
        self.port = self.add_port()
        self.frames: List[bytes] = []

    def on_frame_batch(self, port, datas) -> None:
        self.frames.extend(datas)


def _packet(case: Case) -> ArpPacket:
    tpa = HOST_IP if case.for_us else OTHER_IP
    if case.packet == "request":
        return ArpPacket.request(sha=SENDER_MAC, spa=SENDER_IP, tpa=tpa)
    if case.packet == "probe":
        return ArpPacket.request(sha=SENDER_MAC, spa=ZERO_IP, tpa=tpa)
    if case.packet == "reply":
        return ArpPacket.reply(sha=SENDER_MAC, spa=SENDER_IP, tha=HOST_MAC, tpa=tpa)
    claimed = HOST_IP if case.for_us else SENDER_IP
    return ArpPacket.gratuitous(
        SENDER_MAC, claimed, as_reply=case.packet == "gratuitous-reply"
    )


def _cases(profile: OsProfile, packet: str):
    for guard, target, sender, cost in itertools.product(
        GUARDS, TARGETS, SENDERS, COSTS
    ):
        if target == "responder-off" and packet not in ("request", "probe"):
            continue
        yield Case(profile, guard, packet, target, sender, cost)


def _entry(host: Host, ip: Ipv4Address):
    entry = host.arp_cache.entry(ip)
    return None if entry is None else (entry.mac, entry.source, entry.static)


def _observe(case: Case):
    """Deliver the case's packet; return (expected, observed)."""
    sim = Simulator(seed=1)
    host = Host(sim, "rx", mac=HOST_MAC, ip=HOST_IP, network=NETWORK, profile=case.profile)
    sink = _Sink(sim)
    Link(sim, host.nic, sink.port)
    if case.target == "no-ip":
        host.ip = None
    if case.target == "responder-off":
        host.arp_responder_enabled = False
    if case.guard != "none":
        verdict = GUARDS[case.guard]
        host.add_arp_guard(lambda h, arp, frame: verdict)
    if case.cost is not None:
        host.arp_rx_cost = lambda arp: case.cost

    arp = _packet(case)
    spa = arp.spa
    got: List[MacAddress] = []
    if case.pending:
        host.resolve(spa, got.append)
    if case.sender in ("cached-same", "cached-other", "cached-pending"):
        mac = SENDER_MAC if case.sender == "cached-same" else OLD_MAC
        host.arp_cache.put(spa, mac, now=sim.now, source=BindingSource.REQUEST)
    if case.pinned:
        host.arp_cache.pin(spa, OLD_MAC)
    sim.run(until=0.01)
    sink.frames.clear()
    before_entry = _entry(host, spa)
    before_counters = dict(host.counters)
    before_settled = PERF.arp_settled

    dst = HOST_MAC if case.packet == "reply" else BROADCAST_MAC
    sink.port.transmit_batch(
        [frame_bytes(dst, SENDER_MAC, EtherType.ARP, arp.encode())]
    )
    sim.run(until=0.05)

    counters = {
        key: value - before_counters[key]
        for key, value in host.counters.items()
        if value != before_counters[key]
    }
    observed = dict(
        entry=_entry(host, spa),
        rejected=host.arp_cache.rejected_updates,
        resolving=host.is_resolving(spa),
        waiter_got=got,
        frames=sink.frames,
        counters=counters,
        settled=PERF.arp_settled - before_settled,
    )

    rule = reference(case)
    answered = rule.answer and case.for_us and host.arp_responder_enabled
    pin_refuses = rule.put is not None and case.pinned
    expected_counters = {"arp_rx": 1}
    if rule.dropped:
        expected_counters["arp_guard_drops"] = 1
    if rule.ignored:
        expected_counters["arp_unsolicited_ignored"] = 1
    if answered:
        expected_counters["arp_tx"] = expected_counters["arp_replies_sent"] = 1
    answer = ArpPacket.reply(sha=HOST_MAC, spa=HOST_IP, tha=SENDER_MAC, tpa=spa)
    expected = dict(
        entry=(
            (SENDER_MAC, rule.put, False)
            if rule.put is not None and not case.pinned
            else before_entry
        ),
        rejected=int(pin_refuses),
        resolving=case.pending and not rule.complete,
        waiter_got=[SENDER_MAC] if rule.complete else [],
        frames=(
            [frame_bytes(SENDER_MAC, HOST_MAC, EtherType.ARP, answer.encode())]
            if answered
            else []
        ),
        counters=expected_counters,
        settled=int(settles(case)),
    )
    return rule, expected, observed


@pytest.mark.parametrize("packet", PACKETS)
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_host_follows_reference_table(profile, packet):
    mismatches = []
    for case in _cases(profile, packet):
        rule, expected, observed = _observe(case)
        diff = {
            key: (expected[key], observed[key])
            for key in expected
            if expected[key] != observed[key]
        }
        if diff:
            mismatches.append(
                f"{case.guard}/{case.target}/{case.sender}/cost={case.cost} "
                f"[{rule.name}]: {diff}"
            )
    assert not mismatches, "\n".join(mismatches[:20])


def test_every_rule_is_reached():
    """The enumeration reaches every row of the table, so none is dead."""
    reached = {
        reference(case).name
        for profile in PROFILES
        for packet in PACKETS
        for case in _cases(profile, packet)
    }
    assert reached == {rule.name for rule in RULES}


def test_enumeration_size():
    cases = sum(
        1 for profile in PROFILES for packet in PACKETS for _ in _cases(profile, packet)
    )
    assert cases == 4 * 4 * 7 * 2 * (3 * 3 + 4 * 2)
