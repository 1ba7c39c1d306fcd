"""The ARP receive decision: which packets a host's cache accepts.

One table holds the whole decision.  It is compiled at import from the
named rows of :data:`ARP_RECEIVE_RULES` (first match wins) into
:data:`ARP_RECEIVE_TABLE`, which maps every :class:`ArpKey` to one
:class:`ArpAction`: first the profile's four knobs, then the packet's
six fields.  A :class:`~repro.stack.host.Host` holds its profile's part
(:func:`arp_receive_table`), looks the packet up in it for each ARP
packet that gets past the guards, and carries the action out: reply,
then put, then complete.

The rows read RFC 826's merge rule ("if the sender is in my table,
update it; if I am the target, add it; if it is a request, answer")
through the :class:`~repro.stack.os_profiles.OsProfile` knobs, with the
guard verdict as an input.  Rows named ``modelling-choice:`` are where
the simulated stacks knowingly depart from that reading;
``docs/schemes.md`` gives the reason each is kept, and
``tests/test_arp_receive_table.py`` checks the host against an
independent statement of the same rules over every input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

from repro.stack.arp_cache import BindingSource
from repro.stack.os_profiles import OsProfile

__all__ = [
    "ArpKey",
    "ArpAction",
    "ArpRule",
    "ARP_RECEIVE_RULES",
    "ARP_RECEIVE_TABLE",
    "arp_receive_table",
]


class ArpKey(NamedTuple):
    """Everything the decision reads about one received ARP packet: six
    fields of the packet and the host's state, then the profile's four
    knobs."""

    #: The opcode is a request (an RFC 5227 probe is one too).
    request: bool
    #: The sender announces its own binding (spa == tpa, spa != 0.0.0.0).
    gratuitous: bool
    #: The target address is this host's address.
    for_us: bool
    #: The sender address has a cache entry (a static pin included).
    cached: bool
    #: A resolution of the sender address is in flight.
    pending: bool
    #: An ARP guard force-accepted the packet.
    forced: bool
    accept_unsolicited_reply: bool
    update_from_request: bool
    create_from_request: bool
    accept_gratuitous: bool


@dataclass(frozen=True)
class ArpAction:
    """What the host does with one packet, and the rule that said so."""

    rule: str
    #: Answer the request (only when the responder is on).
    reply: bool = False
    #: The :class:`BindingSource` to put the sender binding under, or None.
    source: Optional[str] = None
    #: Complete the sender address's pending resolution with its MAC.
    complete: bool = False
    #: Count the packet in ``arp_unsolicited_ignored``.
    ignored: bool = False
    #: A request for another address that changes nothing: a host with
    #: no guard and no receive cost settles it right after decoding.
    settles: bool = False


class ArpRule(NamedTuple):
    """One named row: the key values it requires, and what it does."""

    name: str
    #: Required values of :class:`ArpKey` fields; a field left out may be
    #: anything.
    when: Dict[str, bool]
    #: Answer when the packet asks for this host's address.
    answer: bool = False
    source: Optional[str] = None
    complete: bool = False
    ignored: bool = False


_GRATUITOUS = BindingSource.GRATUITOUS
_REQUEST = BindingSource.REQUEST
_SOLICITED = BindingSource.SOLICITED_REPLY
_UNSOLICITED = BindingSource.UNSOLICITED_REPLY

ARP_RECEIVE_RULES: Tuple[ArpRule, ...] = (
    # Gratuitous announcements, request or reply alike: learned, never
    # answered.
    ArpRule(
        "gratuitous-refused",
        dict(gratuitous=True, forced=False, accept_gratuitous=False),
    ),
    ArpRule(
        "gratuitous-unknown-sender",
        dict(gratuitous=True, forced=False, cached=False, create_from_request=False),
    ),
    ArpRule(
        "modelling-choice: gratuitous-own-address-cached",
        dict(gratuitous=True, for_us=True),
        source=_GRATUITOUS,
    ),
    ArpRule(
        "modelling-choice: gratuitous-leaves-resolution-pending",
        dict(gratuitous=True, pending=True),
        source=_GRATUITOUS,
    ),
    ArpRule("gratuitous-accepted", dict(gratuitous=True), source=_GRATUITOUS),
    # Requests: answered when they ask for this host's address.  A
    # request from a sender being resolved completes the resolution
    # (both sides resolving each other at once), but only on stacks that
    # learn from requests: strict ones wait for a reply.
    ArpRule(
        "guard-force-accept-completes",
        dict(request=True, pending=True, forced=True),
        answer=True,
        source=_REQUEST,
        complete=True,
    ),
    ArpRule(
        "rfc826-merge-completes",
        dict(request=True, pending=True, update_from_request=True),
        answer=True,
        source=_REQUEST,
        complete=True,
    ),
    ArpRule(
        "guard-force-accept",
        dict(request=True, forced=True),
        answer=True,
        source=_REQUEST,
    ),
    ArpRule(
        "rfc826-merge",
        dict(request=True, cached=True, update_from_request=True),
        answer=True,
        source=_REQUEST,
    ),
    ArpRule(
        "rfc826-create",
        dict(request=True, for_us=True, cached=False, create_from_request=True),
        answer=True,
        source=_REQUEST,
    ),
    ArpRule("rfc826-answer", dict(request=True), answer=True),
    # Replies.
    ArpRule(
        "solicited-reply",
        dict(pending=True),
        source=_SOLICITED,
        complete=True,
    ),
    ArpRule("guard-force-accept", dict(forced=True), source=_UNSOLICITED),
    ArpRule(
        "unsolicited-reply-accepted",
        dict(accept_unsolicited_reply=True),
        source=_UNSOLICITED,
    ),
    ArpRule(
        "modelling-choice: reply-refreshes-cached-sender",
        dict(cached=True, update_from_request=True),
        source=_UNSOLICITED,
    ),
    ArpRule("unsolicited-reply-ignored", {}, ignored=True),
)


#: The packet's six fields (in :class:`ArpKey` order) to an action.
PacketTable = Dict[Tuple[bool, ...], ArpAction]


def _compile(rules: Tuple[ArpRule, ...]) -> Dict[Tuple[bool, ...], PacketTable]:
    """Decide every key once: its first matching row's action.  Equal
    actions are one object, and every part shares the packet keys."""
    table: Dict[Tuple[bool, ...], PacketTable] = {}
    actions: Dict[ArpAction, ArpAction] = {}
    packets = list(itertools.product((False, True), repeat=6))
    for knobs in itertools.product((False, True), repeat=4):
        part = table[knobs] = {}
        for packet in packets:
            key = ArpKey(*packet, *knobs)
            rule = next(
                rule
                for rule in rules
                if all(getattr(key, name) is value for name, value in rule.when.items())
            )
            reply = rule.answer and key.for_us
            action = ArpAction(
                rule=rule.name,
                reply=reply,
                source=rule.source,
                complete=rule.complete,
                ignored=rule.ignored,
                settles=(
                    key.request
                    and not key.gratuitous
                    and not (reply or rule.source or rule.ignored)
                ),
            )
            part[packet] = actions.setdefault(action, action)
    return table


#: The profile's four knobs, then the packet's six fields, to an action.
ARP_RECEIVE_TABLE: Dict[Tuple[bool, ...], PacketTable] = _compile(ARP_RECEIVE_RULES)


def arp_receive_table(profile: OsProfile) -> PacketTable:
    """The decisions of a host running ``profile``."""
    return ARP_RECEIVE_TABLE[
        (
            profile.accept_unsolicited_reply,
            profile.update_from_request,
            profile.create_from_request,
            profile.accept_gratuitous,
        )
    ]
