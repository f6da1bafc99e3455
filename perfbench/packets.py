"""The benchmark's own Ethernet/IPv4/UDP/ICMP codec and forwarding model.

Nothing here imports the program under test: inputs are built and expected
outputs are derived from the workload's own tables (installed prefixes,
blacklist, MTU), so a fault in the program's packet code cannot hide in the
reference.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

ETH_P_IP = 0x0800
IPPROTO_ICMP = 1
IPPROTO_UDP = 17
ICMP_DEST_UNREACH = 3
ICMP_TIME_EXCEEDED = 11
ETH_HLEN = 14
IP_HLEN = 20

# (src, dst, ident) of the original datagram: the key an output frame is
# attributed to an input by. An ICMP error carries it in its quoted header.
Key = Tuple[int, int, int]


def ip_int(text: str) -> int:
    a, b, c, d = (int(x) for x in text.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


def csum(data: bytes) -> int:
    """RFC 1071 Internet checksum: one's complement of the one's-complement
    sum of the 16-bit words (odd length padded with a zero byte)."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack("!%dH" % (len(data) // 2), data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def ip_header(src: int, dst: int, ident: int, ttl: int, proto: int,
              total_len: int, flags_frag: int = 0) -> bytes:
    head = struct.pack("!BBHHHBBHII", 0x45, 0, total_len, ident, flags_frag,
                       ttl, proto, 0, src, dst)
    return head[:10] + struct.pack("!H", csum(head)) + head[12:]


def udp_frame(dst_mac: bytes, src_mac: bytes, src: int, dst: int, sport: int,
              dport: int, ttl: int, ident: int, frame_len: int) -> bytes:
    """A UDP/IPv4 Ethernet frame of exactly ``frame_len`` bytes (no FCS).

    The payload is a pattern derived from ``ident`` so a forwarded frame's
    untouched payload is checked byte for byte.
    """
    payload_len = frame_len - ETH_HLEN - IP_HLEN - 8
    if payload_len < 0:
        raise ValueError(f"frame_len {frame_len} below the UDP minimum")
    payload = bytes((ident + i) & 0xFF for i in range(payload_len))
    udp_len = 8 + payload_len
    pseudo = struct.pack("!IIBBH", src, dst, 0, IPPROTO_UDP, udp_len)
    head = struct.pack("!HHHH", sport, dport, udp_len, 0)
    check = csum(pseudo + head + payload) or 0xFFFF
    udp = head[:6] + struct.pack("!H", check) + payload
    ip = ip_header(src, dst, ident, ttl, IPPROTO_UDP, IP_HLEN + udp_len)
    return dst_mac + src_mac + struct.pack("!H", ETH_P_IP) + ip + udp


def output_key(frame: bytes) -> Optional[Key]:
    """The original datagram an output frame belongs to, or None when the
    frame is not IPv4 (or is an ICMP error too short to quote a header)."""
    if len(frame) < ETH_HLEN + IP_HLEN or frame[12:14] != b"\x08\x00":
        return None
    ip = frame[ETH_HLEN:]
    if ip[9] == IPPROTO_ICMP and len(ip) >= IP_HLEN + 8 + IP_HLEN and ip[IP_HLEN] in (
        ICMP_DEST_UNREACH, ICMP_TIME_EXCEEDED
    ):
        ip = ip[IP_HLEN + 8:]
    src, dst = struct.unpack_from("!II", ip, 12)
    (ident,) = struct.unpack_from("!H", ip, 4)
    return (src, dst, ident)


# ------------------------------------------------------------------ model

def lpm(prefixes: List[Tuple[int, int]], addr: int) -> Optional[Tuple[int, int]]:
    """Longest-prefix match over ``(network, length)`` pairs."""
    best = None
    for net, length in prefixes:
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
        if addr & mask == net and (best is None or length > best[1]):
            best = (net, length)
    return best


def forwarded(frame: bytes, egress_mac: bytes, next_hop_mac: bytes, mtu: int) -> List[bytes]:
    """What a router emits for ``frame``: TTL−1, header checksum recomputed
    from scratch (RFC 1071), MACs rewritten, payload untouched — split into
    RFC 791 fragments when the datagram exceeds the egress MTU."""
    ip = frame[ETH_HLEN:]
    total_len, ident, flags_frag = struct.unpack_from("!HHH", ip, 2)
    ttl, proto = ip[8], ip[9]
    src, dst = struct.unpack_from("!II", ip, 12)
    body = ip[IP_HLEN:total_len]
    eth = next_hop_mac + egress_mac + struct.pack("!H", ETH_P_IP)
    if total_len <= mtu:
        return [eth + ip_header(src, dst, ident, ttl - 1, proto, total_len, flags_frag) + body]
    # RFC 791: every fragment but the last carries a multiple of 8 data bytes
    chunk = (mtu - IP_HLEN) // 8 * 8
    pieces = []
    for offset in range(0, len(body), chunk):
        data = body[offset:offset + chunk]
        more = 0x2000 if offset + chunk < len(body) else 0
        head = ip_header(src, dst, ident, ttl - 1, proto, IP_HLEN + len(data), more | (offset // 8))
        pieces.append(eth + head + data)
    return pieces


def icmp_error_problem(out: bytes, frame: bytes, icmp_type: int, code: int,
                       router_ip: int, dut_mac: bytes, src_mac: bytes) -> Optional[str]:
    """Why ``out`` is not the ICMP error a router at ``router_ip`` owes the
    sender of ``frame``, or None when it is.

    Checked: MACs back toward the sender, an IPv4 header with a valid RFC
    1071 checksum from the router to the original source, the ICMP type and
    code, a valid ICMP checksum, and the original IPv4 header quoted as
    received. The 64 bits of data RFC 792 asks to quote after it are not
    required: the program sends none (see ``CHANGES.md``).
    """
    if out[0:6] != src_mac or out[6:12] != dut_mac or out[12:14] != b"\x08\x00":
        return "icmp: ethernet header"
    ip = out[ETH_HLEN:]
    if len(ip) < IP_HLEN + 8 + IP_HLEN or ip[0] != 0x45 or ip[9] != IPPROTO_ICMP:
        return "icmp: ip header"
    if csum(ip[:IP_HLEN]) != 0:
        return "icmp: ip checksum"
    (total_len,) = struct.unpack_from("!H", ip, 2)
    src, dst = struct.unpack_from("!II", ip, 12)
    (orig_src,) = struct.unpack_from("!I", frame, ETH_HLEN + 12)
    if src != router_ip or dst != orig_src:
        return "icmp: addresses"
    icmp = ip[IP_HLEN:total_len]
    if icmp[0] != icmp_type or icmp[1] != code:
        return "icmp: type/code"
    if csum(icmp) != 0:
        return "icmp: checksum"
    if icmp[8:8 + IP_HLEN] != frame[ETH_HLEN:ETH_HLEN + IP_HLEN]:
        return "icmp: quoted header"
    return None
