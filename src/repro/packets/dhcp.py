"""DHCP messages (RFC 2131/2132): BOOTP framing plus the option TLVs.

DHCP matters to this reproduction twice over: the DHCP-snooping binding
table is what Dynamic ARP Inspection validates ARP against, and DHCP
starvation / rogue-server attacks are the supporting attacks the defense
schemes must not be confused by.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import CodecError, TruncatedPacketError
from repro.net.addresses import Ipv4Address, MacAddress, ZERO_IP
from repro.packets.base import new_value

__all__ = ["DhcpMessageType", "DhcpOption", "DhcpMessage", "DHCP_MAGIC",
           "DHCP_SERVER_PORT", "DHCP_CLIENT_PORT"]

DHCP_MAGIC = b"\x63\x82\x53\x63"
DHCP_SERVER_PORT = 67
DHCP_CLIENT_PORT = 68

_BOOTREQUEST = 1
_BOOTREPLY = 2

#: The fixed BOOTP fields up to ``chaddr``; ``sname`` and ``file`` follow.
_FIXED = struct.Struct("!BBBBIHH4s4s4s4s16s")
#: The magic cookie follows sname (64 bytes) and file (128); then options.
_MAGIC_AT = _FIXED.size + 64 + 128
_OPTIONS_AT = _MAGIC_AT + 4


class DhcpMessageType:
    """Option 53 message-type values."""

    DISCOVER = 1
    OFFER = 2
    REQUEST = 3
    DECLINE = 4
    ACK = 5
    NAK = 6
    RELEASE = 7
    INFORM = 8

    @classmethod
    def name(cls, value: int) -> str:
        return {
            1: "discover", 2: "offer", 3: "request", 4: "decline",
            5: "ack", 6: "nak", 7: "release", 8: "inform",
        }.get(value, f"type{value}")


class DhcpOption:
    """RFC 2132 option codes used here."""

    PAD = 0
    SUBNET_MASK = 1
    ROUTER = 3
    DNS = 6
    REQUESTED_IP = 50
    LEASE_TIME = 51
    MESSAGE_TYPE = 53
    SERVER_ID = 54
    CLIENT_ID = 61
    END = 255


@dataclass(frozen=True)
class DhcpMessage:
    """One DHCP message (a BOOTP packet with options).

    ``options`` maps option code to raw option bytes; convenience
    properties decode the ones the simulation uses.
    """

    op: int
    xid: int
    chaddr: MacAddress
    ciaddr: Ipv4Address = ZERO_IP
    yiaddr: Ipv4Address = ZERO_IP
    siaddr: Ipv4Address = ZERO_IP
    giaddr: Ipv4Address = ZERO_IP
    flags: int = 0
    secs: int = 0
    options: Dict[int, bytes] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.op not in (_BOOTREQUEST, _BOOTREPLY):
            raise CodecError(f"dhcp: bad op {self.op}")
        if not 0 <= self.xid <= 0xFFFFFFFF:
            raise CodecError("dhcp: xid out of range")

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        head = struct.pack(
            "!BBBBIHH4s4s4s4s",
            self.op,
            1,  # htype ethernet
            6,  # hlen
            0,  # hops
            self.xid,
            self.secs,
            self.flags,
            self.ciaddr.packed,
            self.yiaddr.packed,
            self.siaddr.packed,
            self.giaddr.packed,
        )
        chaddr = self.chaddr.packed + b"\x00" * 10
        sname = b"\x00" * 64
        file_ = b"\x00" * 128
        opts = bytearray(DHCP_MAGIC)
        for code in sorted(self.options):
            value = self.options[code]
            if code in (DhcpOption.PAD, DhcpOption.END):
                raise CodecError("dhcp: PAD/END are framing, not options")
            if len(value) > 255:
                raise CodecError(f"dhcp: option {code} longer than 255 bytes")
            opts.append(code)
            opts.append(len(value))
            opts.extend(value)
        opts.append(DhcpOption.END)
        return head + chaddr + sname + file_ + bytes(opts)

    @classmethod
    def decode(cls, data: bytes) -> "DhcpMessage":
        size = len(data)
        if size < _MAGIC_AT:
            raise TruncatedPacketError(
                f"dhcp: needed {_MAGIC_AT} bytes at offset 0, only {size} remain"
            )
        (
            op, htype, hlen, _hops, xid, secs, flags,
            ciaddr, yiaddr, siaddr, giaddr, chaddr,
        ) = _FIXED.unpack_from(data)
        if htype != 1 or hlen != 6:
            raise CodecError(f"dhcp: unsupported htype/hlen {htype}/{hlen}")
        if data[_MAGIC_AT:_OPTIONS_AT] != DHCP_MAGIC:
            raise CodecError("dhcp: missing magic cookie")
        if op not in (_BOOTREQUEST, _BOOTREPLY):
            raise CodecError(f"dhcp: bad op {op}")
        options: Dict[int, bytes] = {}
        pos = _OPTIONS_AT
        while pos < size:
            code = data[pos]
            pos += 1
            if code == DhcpOption.END:
                break
            if code == DhcpOption.PAD:
                continue
            if pos == size:
                raise TruncatedPacketError(f"dhcp: option {code} has no length")
            end = pos + 1 + data[pos]
            if end > size:
                raise TruncatedPacketError(
                    f"dhcp: option {code} needs {end - pos - 1} bytes at offset "
                    f"{pos + 1}, only {size - pos - 1} remain"
                )
            options[code] = data[pos + 1 : end]
            pos = end
        message = new_value(cls)
        message.__dict__.update(
            op=op,
            xid=xid,
            chaddr=MacAddress.from_wire(chaddr[:6]),
            ciaddr=Ipv4Address.from_wire(ciaddr),
            yiaddr=Ipv4Address.from_wire(yiaddr),
            siaddr=Ipv4Address.from_wire(siaddr),
            giaddr=Ipv4Address.from_wire(giaddr),
            flags=flags,
            secs=secs,
            options=options,
        )
        return message

    # ------------------------------------------------------------------
    # Option accessors
    # ------------------------------------------------------------------
    @property
    def message_type(self) -> Optional[int]:
        raw = self.options.get(DhcpOption.MESSAGE_TYPE)
        return raw[0] if raw else None

    @property
    def requested_ip(self) -> Optional[Ipv4Address]:
        raw = self.options.get(DhcpOption.REQUESTED_IP)
        return Ipv4Address(raw) if raw and len(raw) == 4 else None

    @property
    def server_id(self) -> Optional[Ipv4Address]:
        raw = self.options.get(DhcpOption.SERVER_ID)
        return Ipv4Address(raw) if raw and len(raw) == 4 else None

    @property
    def lease_time(self) -> Optional[int]:
        raw = self.options.get(DhcpOption.LEASE_TIME)
        return struct.unpack("!I", raw)[0] if raw and len(raw) == 4 else None

    @property
    def router(self) -> Optional[Ipv4Address]:
        raw = self.options.get(DhcpOption.ROUTER)
        return Ipv4Address(raw[:4]) if raw and len(raw) >= 4 else None

    @property
    def is_request_op(self) -> bool:
        return self.op == _BOOTREQUEST

    @property
    def is_reply_op(self) -> bool:
        return self.op == _BOOTREPLY

    def summary(self) -> str:
        kind = DhcpMessageType.name(self.message_type or 0)
        return f"dhcp {kind} xid=0x{self.xid:08x} chaddr={self.chaddr} yiaddr={self.yiaddr}"

    # ------------------------------------------------------------------
    # Builders — the DORA handshake plus release
    # ------------------------------------------------------------------
    @classmethod
    def discover(cls, chaddr: MacAddress, xid: int) -> "DhcpMessage":
        return cls(
            op=_BOOTREQUEST,
            xid=xid,
            chaddr=chaddr,
            options={DhcpOption.MESSAGE_TYPE: bytes([DhcpMessageType.DISCOVER])},
        )

    @classmethod
    def offer(
        cls,
        chaddr: MacAddress,
        xid: int,
        yiaddr: Ipv4Address,
        server_id: Ipv4Address,
        lease_time: int,
        netmask: Ipv4Address,
        router: Ipv4Address,
    ) -> "DhcpMessage":
        return cls(
            op=_BOOTREPLY,
            xid=xid,
            chaddr=chaddr,
            yiaddr=yiaddr,
            siaddr=server_id,
            options={
                DhcpOption.MESSAGE_TYPE: bytes([DhcpMessageType.OFFER]),
                DhcpOption.SERVER_ID: server_id.packed,
                DhcpOption.LEASE_TIME: struct.pack("!I", lease_time),
                DhcpOption.SUBNET_MASK: netmask.packed,
                DhcpOption.ROUTER: router.packed,
            },
        )

    @classmethod
    def request(
        cls,
        chaddr: MacAddress,
        xid: int,
        requested: Ipv4Address,
        server_id: Ipv4Address,
    ) -> "DhcpMessage":
        return cls(
            op=_BOOTREQUEST,
            xid=xid,
            chaddr=chaddr,
            options={
                DhcpOption.MESSAGE_TYPE: bytes([DhcpMessageType.REQUEST]),
                DhcpOption.REQUESTED_IP: requested.packed,
                DhcpOption.SERVER_ID: server_id.packed,
            },
        )

    @classmethod
    def ack(
        cls,
        chaddr: MacAddress,
        xid: int,
        yiaddr: Ipv4Address,
        server_id: Ipv4Address,
        lease_time: int,
        netmask: Ipv4Address,
        router: Ipv4Address,
    ) -> "DhcpMessage":
        return cls(
            op=_BOOTREPLY,
            xid=xid,
            chaddr=chaddr,
            yiaddr=yiaddr,
            siaddr=server_id,
            options={
                DhcpOption.MESSAGE_TYPE: bytes([DhcpMessageType.ACK]),
                DhcpOption.SERVER_ID: server_id.packed,
                DhcpOption.LEASE_TIME: struct.pack("!I", lease_time),
                DhcpOption.SUBNET_MASK: netmask.packed,
                DhcpOption.ROUTER: router.packed,
            },
        )

    @classmethod
    def nak(
        cls, chaddr: MacAddress, xid: int, server_id: Ipv4Address
    ) -> "DhcpMessage":
        return cls(
            op=_BOOTREPLY,
            xid=xid,
            chaddr=chaddr,
            options={
                DhcpOption.MESSAGE_TYPE: bytes([DhcpMessageType.NAK]),
                DhcpOption.SERVER_ID: server_id.packed,
            },
        )

    @classmethod
    def release(
        cls,
        chaddr: MacAddress,
        xid: int,
        ciaddr: Ipv4Address,
        server_id: Ipv4Address,
    ) -> "DhcpMessage":
        return cls(
            op=_BOOTREQUEST,
            xid=xid,
            chaddr=chaddr,
            ciaddr=ciaddr,
            options={
                DhcpOption.MESSAGE_TYPE: bytes([DhcpMessageType.RELEASE]),
                DhcpOption.SERVER_ID: server_id.packed,
            },
        )
