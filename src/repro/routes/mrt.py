"""Minimal MRT (RFC 6396) parser: RIB dumps and update traces → feeds.

Real route collectors (RIPE RIS, RouteViews) publish two kinds of MRT
files this module understands:

* **TABLE_DUMP_V2** RIB snapshots — a ``PEER_INDEX_TABLE`` record followed
  by one ``RIB_IPV4_UNICAST`` record per prefix, each holding the paths
  every collector peer had for it.  :func:`load_rib` turns one into a
  :class:`~repro.routes.ris_feed.RouteFeed`, directly usable wherever the
  synthetic full tables are (``ScenarioLab.load_feeds`` substitutes,
  drifted churn replays, …).
* **BGP4MP** update traces — one ``MESSAGE`` / ``MESSAGE_AS4`` record per
  received BGP message.  :func:`load_updates` turns the UPDATEs into the
  same single-prefix :class:`~repro.bgp.messages.UpdateMessage` stream
  that :func:`~repro.routes.ris_feed.churn_stream` produces, so a recorded
  trace can be replayed through a provider speaker verbatim.

Only the IPv4-unicast subset needed by the reproduction is implemented;
records of any other type/subtype are skipped, never fatal.  The matching
:func:`write_rib` / :func:`write_updates` encoders exist so tests can
round-trip synthetic feeds and so tiny committed fixtures can be
regenerated from code instead of being opaque blobs.
"""

from __future__ import annotations

import io
import struct
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.net.addresses import MASKS, IPv4Address, IPv4Prefix
from repro.routes.ris_feed import FeedRoute, RouteFeed

# MRT record types (RFC 6396 §4).
TABLE_DUMP_V2 = 13
BGP4MP = 16

# TABLE_DUMP_V2 subtypes (§4.3).
PEER_INDEX_TABLE = 1
RIB_IPV4_UNICAST = 2

# BGP4MP subtypes (§4.4).
BGP4MP_MESSAGE = 1
BGP4MP_MESSAGE_AS4 = 4

# BGP path attribute type codes.
_ATTR_ORIGIN = 1
_ATTR_AS_PATH = 2
_ATTR_NEXT_HOP = 3
_ATTR_MED = 4

_AS_SEQUENCE = 2

_BGP_MARKER = b"\xff" * 16
_BGP_UPDATE = 2


class MrtError(ValueError):
    """Raised when an MRT file is structurally invalid."""


class MrtRecord(NamedTuple):
    """One raw MRT record (common header + undecoded payload)."""

    timestamp: int
    type: int
    subtype: int
    payload: bytes


class MrtPeer(NamedTuple):
    """One collector peer from a PEER_INDEX_TABLE.

    ``ip`` is ``None`` for IPv6 peers: real RIS/RouteViews peer tables
    always contain them, so they are parsed (keeping the peer indices
    aligned) and only the RIB paths they contribute are dropped."""

    bgp_id: IPv4Address
    ip: Optional[IPv4Address]
    asn: int

    @property
    def is_ipv6(self) -> bool:
        """Whether the peering session runs over IPv6."""
        return self.ip is None


class MrtRibRoute(NamedTuple):
    """One peer's path for one prefix in a RIB dump."""

    prefix: IPv4Prefix
    peer: MrtPeer
    #: The peer's position in the dump's PEER_INDEX_TABLE (stable even
    #: when other peers' paths are dropped, e.g. IPv6 ones).
    peer_index: int
    originated: int
    attributes: PathAttributes


# ----------------------------------------------------------------------
# Record-level reading
# ----------------------------------------------------------------------
def read_records(source: Union[str, bytes]) -> Iterator[MrtRecord]:
    """Iterate the MRT records of a file path or an in-memory buffer.

    Both are read *streaming* — one record at a time off a buffered
    handle, never the whole dump — so a full-DFZ TABLE_DUMP_V2 (hundreds
    of MB) can be ingested with constant memory.
    """
    with open(source, "rb") if isinstance(source, str) else io.BytesIO(source) as handle:
        offset = 0
        while True:
            header = handle.read(12)
            if not header:
                return
            if len(header) < 12:
                raise MrtError(f"truncated MRT header at byte {offset}")
            timestamp, rtype, subtype, length = struct.unpack(">IHHI", header)
            payload = handle.read(length)
            if len(payload) < length:
                raise MrtError(f"truncated MRT record at byte {offset + 12}")
            yield MrtRecord(timestamp, rtype, subtype, payload)
            offset += 12 + length


# ----------------------------------------------------------------------
# TABLE_DUMP_V2 → RouteFeed
# ----------------------------------------------------------------------
def load_rib(source: Union[str, bytes], peer_index: Optional[int] = None) -> RouteFeed:
    """Parse a TABLE_DUMP_V2 dump into a :class:`RouteFeed`.

    Every ``RIB_IPV4_UNICAST`` record contributes one
    :class:`FeedRoute` — the path learned from the PEER_INDEX_TABLE peer
    at ``peer_index`` if given (prefixes that peer had no path for are
    skipped), else the record's first surviving path (what a single-homed
    collector peer saw).
    """
    routes: List[FeedRoute] = []
    for rib in iter_rib_routes(source):
        if peer_index is None:
            entry = rib[0] if rib else None
        else:
            entry = next((e for e in rib if e.peer_index == peer_index), None)
        if entry is None:
            continue
        attrs = entry.attributes
        routes.append(
            FeedRoute(
                prefix=entry.prefix,
                as_path=attrs.as_path,
                origin=attrs.origin,
                med=attrs.med,
            )
        )
    return RouteFeed(routes=routes, seed=0)


def load_peer_table(source: Union[str, bytes]) -> List[MrtPeer]:
    """The dump's PEER_INDEX_TABLE (stops reading once found)."""
    for record in read_records(source):
        if record.type == TABLE_DUMP_V2 and record.subtype == PEER_INDEX_TABLE:
            return _parse_peer_index(record.payload)
    raise MrtError("no PEER_INDEX_TABLE in dump")


def iter_rib_codes(
    source: Union[str, bytes],
) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """Stream a TABLE_DUMP_V2 dump as ``(prefix code, peer indices)``.

    The full-DFZ ingest path: each ``RIB_IPV4_UNICAST`` record yields its
    prefix as a plain ``int`` code (equal to, and the same dictionary key
    as, the :class:`IPv4Prefix`) plus the table positions of the IPv4
    peers holding a path — path attributes are *skipped wholesale*, and
    neither a path list nor the table itself is ever materialised.  Feed
    the stream straight into a :class:`~repro.bgp.rib.CompactPeerRib`
    (``announce``) or a shard planner; memory stays flat in table size.
    """
    for _peers, _payload, code, entries in _iter_rib_records(source):
        yield code, tuple([entry[0] for entry in entries])


def iter_rib_routes(source: Union[str, bytes]) -> Iterator[List[MrtRibRoute]]:
    """Iterate RIB records as per-prefix path lists (all collector peers)."""
    for peers, payload, code, entries in _iter_rib_records(source):
        prefix = IPv4Prefix.from_code(code)
        yield [
            MrtRibRoute(
                prefix=prefix,
                peer=peers[peer_idx],
                peer_index=peer_idx,
                originated=originated,
                attributes=_decode_attributes(payload, start, end, as_size=4),
            )
            for peer_idx, originated, start, end in entries
        ]


_RibEntry = Tuple[int, int, int, int]
_RIB_ENTRY_HEADER = struct.Struct(">HIH")  # peer index, originated, attr length


def _iter_rib_records(
    source: Union[str, bytes],
) -> Iterator[Tuple[List[MrtPeer], bytes, int, List[_RibEntry]]]:
    """The bounds-checked walk of every ``RIB_IPV4_UNICAST`` record.

    Yields the peer table in force, the record payload, its prefix code
    and ``(peer index, originated, attribute start, attribute end)`` per
    entry held by an IPv4 peer — attribute bytes are located, never
    decoded.  An IPv4 route learned over an IPv6 session has no next hop
    this model can use; the path is skipped, never the file.  A count or
    length field that points past the payload raises :class:`MrtError`.
    """
    peers: List[MrtPeer] = []
    ipv6_peer: List[bool] = []
    unpack_header = _RIB_ENTRY_HEADER.unpack_from
    for record in read_records(source):
        if record.type != TABLE_DUMP_V2:
            continue
        if record.subtype == PEER_INDEX_TABLE:
            peers = _parse_peer_index(record.payload)
            ipv6_peer = [peer.is_ipv6 for peer in peers]
        elif record.subtype == RIB_IPV4_UNICAST:
            if not peers:
                raise MrtError("RIB record before PEER_INDEX_TABLE")
            payload = record.payload
            total = len(payload)
            code, offset = _decode_nlri(payload, 4, total)  # after the sequence number
            if total < offset + 2:
                raise _truncated(offset, total)
            (entry_count,) = struct.unpack_from(">H", payload, offset)
            offset += 2
            entries = []
            for _ in range(entry_count):
                if total < offset + 8:
                    raise _truncated(offset, total)
                peer_idx, originated, attr_length = unpack_header(payload, offset)
                offset += 8
                end = offset + attr_length
                if total < end:
                    raise _truncated(offset, total)
                if peer_idx >= len(peers):
                    raise MrtError(f"peer index {peer_idx} outside the peer table")
                if not ipv6_peer[peer_idx]:
                    entries.append((peer_idx, originated, offset, end))
                offset = end
            yield peers, payload, code, entries


def _parse_peer_index(payload: bytes) -> List[MrtPeer]:
    total = len(payload)
    _name, offset = _block(payload, 4, total)  # view name, after the collector BGP id
    count = _uint(payload, offset, 2, total)
    offset += 2
    peers = []
    for _ in range(count):
        peer_type = _uint(payload, offset, 1, total)
        bgp_id = _uint(payload, offset + 1, 4, total)
        offset += 5
        ip: Optional[IPv4Address] = None
        if peer_type & 0x01:  # IPv6 peer: keep the index slot, drop the IP
            offset += 16
        else:
            ip = IPv4Address(_uint(payload, offset, 4, total))
            offset += 4
        as_size = 4 if peer_type & 0x02 else 2
        asn = _uint(payload, offset, as_size, total)
        offset += as_size
        peers.append(MrtPeer(IPv4Address(bgp_id), ip, asn))
    return peers


# ----------------------------------------------------------------------
# BGP4MP → update stream
# ----------------------------------------------------------------------
def load_updates(
    source: Union[str, bytes], next_hop: Optional[IPv4Address] = None
) -> List[UpdateMessage]:
    """Parse a BGP4MP trace into a ``churn_stream``-compatible update list.

    Multi-NLRI UPDATEs are expanded into this library's single-prefix
    messages (announcements first, in NLRI order, then withdraws — each
    message's own order is preserved).  ``next_hop`` optionally rewrites
    every announcement's NEXT_HOP so a public trace can be replayed inside
    the testbed's addressing plan.
    """
    updates: List[UpdateMessage] = []
    for record in read_records(source):
        if record.type != BGP4MP:
            continue
        if record.subtype not in (BGP4MP_MESSAGE, BGP4MP_MESSAGE_AS4):
            continue
        as_size = 4 if record.subtype == BGP4MP_MESSAGE_AS4 else 2
        updates.extend(_parse_bgp4mp_message(record.payload, as_size, next_hop))
    return updates


def _parse_bgp4mp_message(
    payload: bytes, as_size: int, next_hop: Optional[IPv4Address]
) -> List[UpdateMessage]:
    total = len(payload)
    offset = 2 * as_size  # peer AS + local AS
    afi = _uint(payload, offset + 2, 2, total)
    offset += 4  # interface index + address family
    if afi != 1:
        return []
    offset += 8  # peer IP + local IP (IPv4)
    if payload[offset : offset + 16] != _BGP_MARKER:
        raise MrtError("BGP message marker missing")
    # The BGP length counts from the marker: marker (16) + length (2) + type (1).
    end = offset + _uint(payload, offset + 16, 2, total)
    message_type = _uint(payload, offset + 18, 1, total)
    offset += 19
    if message_type != _BGP_UPDATE:
        return []
    if total < end:
        raise _truncated(offset, total)
    offset, withdrawn_end = _block(payload, offset, end)
    withdrawn: List[IPv4Prefix] = []
    while offset < withdrawn_end:
        code, offset = _decode_nlri(payload, offset, withdrawn_end)
        withdrawn.append(IPv4Prefix.from_code(code))
    attr_start, offset = _block(payload, withdrawn_end, end)
    attributes: Optional[PathAttributes] = None
    if attr_start < offset:
        attributes = _decode_attributes(payload, attr_start, offset, as_size)
        if next_hop is not None:
            attributes = attributes.with_next_hop(next_hop)
    announced: List[IPv4Prefix] = []
    while offset < end:
        code, offset = _decode_nlri(payload, offset, end)
        announced.append(IPv4Prefix.from_code(code))
    updates: List[UpdateMessage] = []
    if attributes is not None:
        for prefix in announced:
            updates.append(UpdateMessage.announce(prefix, attributes))
    for prefix in withdrawn:
        updates.append(UpdateMessage.withdraw(prefix))
    return updates


# ----------------------------------------------------------------------
# Shared wire helpers
# ----------------------------------------------------------------------
def _truncated(offset: int, total: int) -> MrtError:
    return MrtError(
        f"field at payload byte {offset} runs past the {total} bytes it may use"
    )


def _decode_nlri(data: bytes, offset: int, end: int) -> Tuple[int, int]:
    """The prefix at ``offset`` (it must end by ``end``) as its plain code,
    and the offset past it."""
    if end <= offset:
        raise _truncated(offset, end)
    length = data[offset]
    if length > 32:
        raise MrtError(f"IPv4 prefix length {length} out of range")
    byte_count = (length + 7) // 8
    stop = offset + 1 + byte_count
    if end < stop:
        raise _truncated(offset, end)
    network = int.from_bytes(data[offset + 1 : stop], "big") << 8 * (4 - byte_count)
    # Host bits are masked exactly as the IPv4Prefix constructor does.
    return ((network & MASKS[length]) << IPv4Prefix.LENGTH_BITS) | length, stop


def _uint(data: bytes, offset: int, size: int, end: int) -> int:
    """The ``size``-byte big-endian integer at ``offset``, which must end by ``end``."""
    if end < offset + size:
        raise _truncated(offset, end)
    return int.from_bytes(data[offset : offset + size], "big")


def _block(data: bytes, offset: int, end: int) -> Tuple[int, int]:
    """Bounds of the block behind the two-byte length field at ``offset``."""
    start = offset + 2
    stop = start + _uint(data, offset, 2, end)
    if end < stop:
        raise _truncated(start, end)
    return start, stop


def _decode_attributes(data: bytes, offset: int, end: int, as_size: int) -> PathAttributes:
    """Decode the path attributes in ``data[offset:end]``."""
    origin = Origin.IGP
    as_path = AsPath(())
    next_hop = IPv4Address(0)
    med = 0
    while offset < end:
        length_size = 2 if data[offset] & 0x10 else 1  # extended-length flag
        type_code = _uint(data, offset + 1, 1, end)
        start = offset + 2 + length_size
        offset = start + _uint(data, offset + 2, length_size, end)
        if end < offset:
            raise _truncated(start, end)
        if type_code == _ATTR_ORIGIN:
            code = _uint(data, start, 1, offset)
            if code > Origin.INCOMPLETE:
                raise MrtError(f"ORIGIN {code} at payload byte {start} out of range")
            origin = Origin(code)
        elif type_code == _ATTR_AS_PATH:
            as_path = _decode_as_path(data, start, offset, as_size)
        elif type_code == _ATTR_NEXT_HOP:
            next_hop = IPv4Address(_uint(data, start, 4, offset))
        elif type_code == _ATTR_MED:
            med = _uint(data, start, 4, offset)
        # Anything else (communities, aggregator, …) is skipped.
    return PathAttributes(
        next_hop=next_hop, as_path=as_path, origin=origin, med=med
    )


def _decode_as_path(data: bytes, offset: int, end: int, as_size: int) -> AsPath:
    """Decode the AS_SEQUENCE segments in ``data[offset:end]``; other
    segment kinds (AS_SET on aggregated routes, confederation segments)
    share the same wire layout and are skipped rather than made fatal —
    real collector files contain them and the model's :class:`AsPath` is
    a plain sequence."""
    asns: List[int] = []
    while offset < end:
        segment_type = data[offset]
        start = offset + 2
        offset = start + _uint(data, offset + 1, 1, end) * as_size
        if end < offset:
            raise _truncated(start, end)
        if segment_type == _AS_SEQUENCE:
            asns.extend(
                int.from_bytes(data[at : at + as_size], "big")
                for at in range(start, offset, as_size)
            )
    return AsPath(tuple(asns))


# ----------------------------------------------------------------------
# Encoders (fixture generation and round-trip tests)
# ----------------------------------------------------------------------
def write_rib(
    path: str,
    feed: RouteFeed,
    peer: MrtPeer,
    next_hop: Optional[IPv4Address] = None,
    timestamp: int = 0,
) -> int:
    """Write ``feed`` as a TABLE_DUMP_V2 dump with a single collector peer.

    Returns the number of RIB records written.  ``next_hop`` defaults to
    the peer's address.
    """
    hop = next_hop if next_hop is not None else peer.ip
    chunks = [
        _record(timestamp, TABLE_DUMP_V2, PEER_INDEX_TABLE, _encode_peer_index([peer]))
    ]
    for sequence, route in enumerate(feed.routes):
        attrs = _encode_attributes(route.attributes(hop), as_size=4)
        body = struct.pack(">I", sequence)
        body += _encode_nlri(route.prefix)
        body += struct.pack(">H", 1)  # entry count
        body += struct.pack(">HIH", 0, timestamp, len(attrs)) + attrs
        chunks.append(_record(timestamp, TABLE_DUMP_V2, RIB_IPV4_UNICAST, body))
    with open(path, "wb") as handle:
        handle.write(b"".join(chunks))
    return len(feed.routes)


def write_updates(
    path: str,
    updates: Sequence[UpdateMessage],
    peer: MrtPeer,
    local_ip: IPv4Address = IPv4Address("10.0.0.1"),
    local_asn: int = 65000,
    timestamp: int = 0,
) -> int:
    """Write single-prefix UPDATEs as a BGP4MP ``MESSAGE_AS4`` trace.

    Returns the number of records written (one per update)."""
    chunks = []
    for update in updates:
        if update.is_withdraw:
            withdrawn = _encode_nlri(update.prefix)
            attrs = b""
            nlri = b""
        else:
            withdrawn = b""
            attrs = _encode_attributes(update.attributes, as_size=4)
            nlri = _encode_nlri(update.prefix)
        body = struct.pack(">H", len(withdrawn)) + withdrawn
        body += struct.pack(">H", len(attrs)) + attrs + nlri
        message = _BGP_MARKER + struct.pack(">HB", 19 + len(body), _BGP_UPDATE) + body
        header = struct.pack(
            ">IIHH", peer.asn, local_asn, 0, 1
        ) + struct.pack(">II", peer.ip, local_ip)
        chunks.append(_record(timestamp, BGP4MP, BGP4MP_MESSAGE_AS4, header + message))
    with open(path, "wb") as handle:
        handle.write(b"".join(chunks))
    return len(updates)


def _record(timestamp: int, rtype: int, subtype: int, payload: bytes) -> bytes:
    return struct.pack(">IHHI", timestamp, rtype, subtype, len(payload)) + payload


def _encode_peer_index(peers: Sequence[MrtPeer]) -> bytes:
    body = struct.pack(">I", 0)  # collector BGP id
    body += struct.pack(">H", 0)  # empty view name
    body += struct.pack(">H", len(peers))
    for peer in peers:
        body += struct.pack(">B", 0x02)  # IPv4 peer, 4-byte AS
        body += struct.pack(">III", peer.bgp_id, peer.ip, peer.asn)
    return body


def _encode_nlri(prefix: IPv4Prefix) -> bytes:
    byte_count = (prefix.length + 7) // 8
    raw = struct.pack(">I", prefix.network)[:byte_count]
    return struct.pack(">B", prefix.length) + raw


def _encode_attributes(attributes: PathAttributes, as_size: int) -> bytes:
    parts = [_attribute(_ATTR_ORIGIN, struct.pack(">B", int(attributes.origin)))]
    pattern = ">I" if as_size == 4 else ">H"
    asns = attributes.as_path.asns
    segment = b""
    if asns:
        segment = struct.pack(">BB", _AS_SEQUENCE, len(asns))
        segment += b"".join(struct.pack(pattern, asn) for asn in asns)
    parts.append(_attribute(_ATTR_AS_PATH, segment))
    parts.append(_attribute(_ATTR_NEXT_HOP, struct.pack(">I", attributes.next_hop)))
    parts.append(_attribute(_ATTR_MED, struct.pack(">I", attributes.med), optional=True))
    return b"".join(parts)


def _attribute(type_code: int, value: bytes, optional: bool = False) -> bytes:
    flags = 0x80 if optional else 0x40
    if len(value) > 255:
        return struct.pack(">BBH", flags | 0x10, type_code, len(value)) + value
    return struct.pack(">BBB", flags, type_code, len(value)) + value
