"""Tests for the minimal MRT (RFC 6396) parser and encoders."""

import os
import struct

import pytest

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.routes import mrt
from repro.routes.mrt import (
    BGP4MP,
    BGP4MP_MESSAGE_AS4,
    MrtError,
    MrtPeer,
    iter_rib_codes,
    iter_rib_routes,
    load_rib,
    load_updates,
    read_records,
    write_rib,
    write_updates,
)
from repro.routes.ris_feed import churn_stream, synthetic_full_table

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
RIB_FIXTURE = os.path.join(DATA_DIR, "rib_sample.mrt")
UPDATES_FIXTURE = os.path.join(DATA_DIR, "updates_sample.mrt")

PEER = MrtPeer(
    bgp_id=IPv4Address("10.0.0.2"), ip=IPv4Address("10.0.0.2"), asn=65001
)


def _announcement_payload(attrs=None, attr_length=None, bgp_length=None):
    """A MESSAGE_AS4 payload announcing 10.0.0.0/24; the attribute bytes
    and the attribute-length and BGP-length fields can be overridden."""
    if attrs is None:
        attrs = mrt._encode_attributes(
            PathAttributes(next_hop=PEER.ip, as_path=AsPath((65001,))), as_size=4
        )
    body = struct.pack(">H", 0)  # nothing withdrawn
    body += struct.pack(">H", len(attrs) if attr_length is None else attr_length)
    body += attrs + mrt._encode_nlri(IPv4Prefix("10.0.0.0/24"))
    length = 19 + len(body) if bgp_length is None else bgp_length
    header = struct.pack(">IIHH", PEER.asn, 65000, 0, 1)
    header += struct.pack(">II", PEER.ip.value, IPv4Address("10.0.0.1").value)
    return header + mrt._BGP_MARKER + struct.pack(">HB", length, mrt._BGP_UPDATE) + body


def _bgp4mp(payload):
    return mrt._record(0, BGP4MP, BGP4MP_MESSAGE_AS4, payload)


def sources(path):
    """A written file as a reader takes it: its path, then its bytes.
    Both go through the one streaming record reader."""
    with open(path, "rb") as handle:
        return [path, handle.read()]


class TestRoundTrip:
    def test_rib_round_trip(self, tmp_path):
        feed = synthetic_full_table(12, seed=11, provider_asn=65001)
        path = str(tmp_path / "rib.mrt")
        assert write_rib(path, feed, PEER) == 12
        for source in sources(path):
            parsed = load_rib(source)
            assert len(parsed) == 12
            for original, loaded in zip(feed.routes, parsed.routes):
                assert loaded.prefix == original.prefix
                assert loaded.as_path == original.as_path
                assert loaded.origin == original.origin
                assert loaded.med == original.med

    def test_updates_round_trip_preserves_announce_withdraw_mix(self, tmp_path):
        feed = synthetic_full_table(10, seed=5, provider_asn=65001)
        updates = list(
            churn_stream(feed, PEER.ip, withdraw_fraction=0.5, seed=9)
        )
        path = str(tmp_path / "updates.mrt")
        assert write_updates(path, updates, PEER) == len(updates)
        for source in sources(path):
            parsed = load_updates(source)
            assert len(parsed) == len(updates)
            for original, loaded in zip(updates, parsed):
                assert loaded.prefix == original.prefix
                assert loaded.is_withdraw == original.is_withdraw
                if not original.is_withdraw:
                    assert loaded.attributes.as_path == original.attributes.as_path
                    assert loaded.attributes.next_hop == original.attributes.next_hop
                    assert loaded.attributes.med == original.attributes.med
                    assert loaded.attributes.origin == original.attributes.origin

    def test_rib_entries_carry_peer_identity(self, tmp_path):
        feed = synthetic_full_table(3, seed=2, provider_asn=65001)
        path = str(tmp_path / "rib.mrt")
        write_rib(path, feed, PEER)
        for source in sources(path):
            entries = list(iter_rib_routes(source))
            assert len(entries) == 3
            for paths in entries:
                assert len(paths) == 1
                assert paths[0].peer == PEER


class TestCommittedFixtures:
    def test_rib_fixture_parses(self):
        feed = load_rib(RIB_FIXTURE)
        expected = synthetic_full_table(8, seed=7, provider_asn=65001)
        assert len(feed) == 8
        assert feed.prefixes() == expected.prefixes()
        assert feed.routes[0].as_path == expected.routes[0].as_path

    def test_updates_fixture_parses(self):
        updates = load_updates(UPDATES_FIXTURE)
        assert len(updates) == 12
        withdraws = [update for update in updates if update.is_withdraw]
        assert len(withdraws) == 4
        # Every withdraw follows its prefix's announcement, like a recorded
        # feed (the churn_stream interleaving contract).
        announced = set()
        for update in updates:
            if update.is_withdraw:
                assert update.prefix in announced
            else:
                announced.add(update.prefix)

    def test_fixture_records_have_expected_structure(self):
        records = list(read_records(RIB_FIXTURE))
        assert len(records) == 9  # peer index + 8 RIB entries
        assert all(record.type == 13 for record in records)


class TestChurnStreamCompatibility:
    def test_stream_is_update_messages_with_next_hop_override(self):
        replacement = IPv4Address("10.0.0.9")
        count = 0
        for update in load_updates(UPDATES_FIXTURE, next_hop=replacement):
            assert isinstance(update, UpdateMessage)
            if not update.is_withdraw:
                assert update.attributes.next_hop == replacement
            count += 1
        assert count == 12


class TestWireEdgeCases:
    def test_multi_nlri_update_is_expanded(self):
        """A real-world UPDATE carries many NLRI; the parser expands them
        into this library's single-prefix messages."""
        attrs = PathAttributes(
            next_hop=PEER.ip, as_path=AsPath((65001, 3356)), origin=Origin.IGP
        )
        from repro.routes import mrt

        withdrawn = mrt._encode_nlri(IPv4Prefix("9.9.9.0/24"))
        encoded_attrs = mrt._encode_attributes(attrs, as_size=4)
        nlri = mrt._encode_nlri(IPv4Prefix("1.1.0.0/16")) + mrt._encode_nlri(
            IPv4Prefix("2.2.2.0/24")
        )
        body = struct.pack(">H", len(withdrawn)) + withdrawn
        body += struct.pack(">H", len(encoded_attrs)) + encoded_attrs + nlri
        message = mrt._BGP_MARKER + struct.pack(">HB", 19 + len(body), 2) + body
        header = struct.pack(">IIHH", PEER.asn, 65000, 0, 1)
        header += struct.pack(">II", PEER.ip.value, IPv4Address("10.0.0.1").value)
        record = mrt._record(0, BGP4MP, BGP4MP_MESSAGE_AS4, header + message)
        updates = load_updates(record)
        assert [update.prefix for update in updates] == [
            IPv4Prefix("1.1.0.0/16"),
            IPv4Prefix("2.2.2.0/24"),
            IPv4Prefix("9.9.9.0/24"),
        ]
        assert [update.is_withdraw for update in updates] == [False, False, True]

    def test_ipv6_collector_peers_keep_index_alignment(self):
        """Real peer tables always contain IPv6 peers; they must occupy
        their index slot (so IPv4 peer references stay aligned) and only
        the paths they contribute are dropped."""
        import struct as _struct

        from repro.routes import mrt

        # Peer table: [IPv6 peer, IPv4 peer]; one RIB record whose only
        # path comes from peer index 1 (the IPv4 one).
        table = _struct.pack(">IHH", 0, 0, 2)
        table += _struct.pack(">BI", 0x03, 0) + b"\x20" * 16 + _struct.pack(">I", 64500)
        table += _struct.pack(">BIII", 0x02, PEER.bgp_id.value, PEER.ip.value, PEER.asn)
        attrs = mrt._encode_attributes(
            PathAttributes(next_hop=PEER.ip, as_path=AsPath((65001,))), as_size=4
        )
        rib = _struct.pack(">I", 0) + mrt._encode_nlri(IPv4Prefix("5.5.5.0/24"))
        rib += _struct.pack(">H", 2)
        rib += _struct.pack(">HIH", 0, 0, len(attrs)) + attrs  # IPv6 peer's path
        rib += _struct.pack(">HIH", 1, 0, len(attrs)) + attrs  # IPv4 peer's path
        blob = mrt._record(0, mrt.TABLE_DUMP_V2, mrt.PEER_INDEX_TABLE, table)
        blob += mrt._record(0, mrt.TABLE_DUMP_V2, mrt.RIB_IPV4_UNICAST, rib)
        entries = list(iter_rib_routes(blob))
        assert len(entries) == 1
        assert [path.peer for path in entries[0]] == [PEER]
        feed = load_rib(blob)
        assert feed.prefixes() == [IPv4Prefix("5.5.5.0/24")]

    def test_load_rib_peer_index_selects_by_peer_table_position(self):
        """peer_index must address the PEER_INDEX_TABLE, not the position
        in the (possibly filtered/unordered) per-prefix path list."""
        import struct as _struct

        from repro.routes import mrt

        peer_b = MrtPeer(
            bgp_id=IPv4Address("10.0.0.3"), ip=IPv4Address("10.0.0.3"), asn=65002
        )
        table = _struct.pack(">IHH", 0, 0, 2)
        for peer in (PEER, peer_b):
            table += _struct.pack(
                ">BIII", 0x02, peer.bgp_id.value, peer.ip.value, peer.asn
            )
        attrs_a = mrt._encode_attributes(
            PathAttributes(next_hop=PEER.ip, as_path=AsPath((65001,))), as_size=4
        )
        attrs_b = mrt._encode_attributes(
            PathAttributes(next_hop=peer_b.ip, as_path=AsPath((65002, 3356))),
            as_size=4,
        )
        rib = _struct.pack(">I", 0) + mrt._encode_nlri(IPv4Prefix("6.6.6.0/24"))
        rib += _struct.pack(">H", 2)
        # Entries deliberately ordered peer 1 first, then peer 0.
        rib += _struct.pack(">HIH", 1, 0, len(attrs_b)) + attrs_b
        rib += _struct.pack(">HIH", 0, 0, len(attrs_a)) + attrs_a
        blob = mrt._record(0, mrt.TABLE_DUMP_V2, mrt.PEER_INDEX_TABLE, table)
        blob += mrt._record(0, mrt.TABLE_DUMP_V2, mrt.RIB_IPV4_UNICAST, rib)
        assert load_rib(blob, peer_index=0).routes[0].as_path == AsPath((65001,))
        assert load_rib(blob, peer_index=1).routes[0].as_path == AsPath((65002, 3356))
        # A peer with no path for the prefix contributes nothing.
        assert len(load_rib(blob, peer_index=5)) == 0

    def test_as_set_segments_are_skipped_not_fatal(self):
        """Real tables still contain aggregated routes with AS_SET
        segments; they must not abort a whole file load."""
        import struct as _struct

        from repro.routes import mrt

        # AS_SEQUENCE (65001) followed by an AS_SET {3356, 1299}.
        data = _struct.pack(">BBI", mrt._AS_SEQUENCE, 1, 65001)
        data += _struct.pack(">BBII", 1, 2, 3356, 1299)  # type 1 = AS_SET
        path = mrt._decode_as_path(data, 0, len(data), as_size=4)
        assert path.asns == (65001,)

    def test_unknown_record_types_are_skipped(self):
        from repro.routes import mrt

        blob = mrt._record(0, 99, 1, b"\x00\x01") + open(RIB_FIXTURE, "rb").read()
        assert len(load_rib(blob)) == 8

    def test_truncated_file_raises(self, tmp_path):
        data = open(RIB_FIXTURE, "rb").read()
        # The last record cut short, then a partial header behind the last
        # whole record: the same text from a path and from bytes.
        cases = [
            (data[:-3], r"truncated MRT record at byte \d+"),
            (data + data[:5], r"truncated MRT header at byte \d+"),
        ]
        path = str(tmp_path / "truncated.mrt")
        for blob, message in cases:
            with open(path, "wb") as handle:
                handle.write(blob)
            for source in sources(path):
                with pytest.raises(MrtError, match=message):
                    list(read_records(source))

    def test_rib_before_peer_index_raises(self):
        from repro.routes import mrt

        records = [
            record
            for record in read_records(RIB_FIXTURE)
            if record.subtype == mrt.RIB_IPV4_UNICAST
        ]
        blob = mrt._record(
            0, mrt.TABLE_DUMP_V2, mrt.RIB_IPV4_UNICAST, records[0].payload
        )
        with pytest.raises(MrtError):
            list(iter_rib_routes(blob))

    @pytest.mark.parametrize("reader", [iter_rib_codes, iter_rib_routes])
    @pytest.mark.parametrize(
        "rib_payload",
        [
            pytest.param(b"", id="empty-payload"),
            pytest.param(
                struct.pack(">I", 0) + bytes([24, 10]), id="prefix-cut-short"
            ),
            pytest.param(
                struct.pack(">I", 0)
                + bytes([24, 10, 0, 0])
                + struct.pack(">H", 3)
                + struct.pack(">HIH", 0, 0, 0),
                id="three-entries-claimed-one-present",
            ),
            pytest.param(
                struct.pack(">I", 0)
                + bytes([24, 10, 0, 0])
                + struct.pack(">H", 1)
                + struct.pack(">HIH", 0, 0, 500),
                id="attr-length-past-the-record",
            ),
        ],
    )
    def test_rib_record_lying_about_its_lengths_raises(self, reader, rib_payload):
        """Every count and length field of a RIB record is checked against
        the payload: never struct.error / IndexError, never a fabricated
        route from attribute bytes that are not there."""
        from repro.routes import mrt

        blob = mrt._record(
            0, mrt.TABLE_DUMP_V2, mrt.PEER_INDEX_TABLE, mrt._encode_peer_index([PEER])
        )
        blob += mrt._record(0, mrt.TABLE_DUMP_V2, mrt.RIB_IPV4_UNICAST, rib_payload)
        with pytest.raises(MrtError, match=r"payload byte \d+"):
            list(reader(blob))

    @pytest.mark.parametrize(
        "peer_index_payload",
        [
            pytest.param(b"", id="empty-payload"),
            pytest.param(struct.pack(">IH", 0, 500), id="view-name-past-the-record"),
            pytest.param(
                struct.pack(">IHH", 0, 0, 3)
                + struct.pack(">BIII", 0x02, PEER.bgp_id.value, PEER.ip.value, PEER.asn),
                id="three-peers-claimed-one-present",
            ),
        ],
    )
    def test_peer_index_lying_about_its_lengths_raises(self, peer_index_payload):
        from repro.routes import mrt

        blob = mrt._record(0, mrt.TABLE_DUMP_V2, mrt.PEER_INDEX_TABLE, peer_index_payload)
        with pytest.raises(MrtError, match=r"payload byte \d+"):
            mrt.load_peer_table(blob)

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param(bytes(6), id="six-byte-payload"),
            pytest.param(
                _announcement_payload(attr_length=500), id="attr-length-past-the-message"
            ),
            pytest.param(
                _announcement_payload(bgp_length=19), id="bare-header-length-on-a-route"
            ),
        ],
    )
    def test_bgp4mp_message_lying_about_its_lengths_raises(self, payload):
        assert len(load_updates(_bgp4mp(_announcement_payload()))) == 1
        with pytest.raises(MrtError, match=r"payload byte \d+"):
            load_updates(_bgp4mp(payload))

    @pytest.mark.parametrize(
        "type_code, value",
        [
            pytest.param(3, b"\x0a\x00", id="next-hop-cut-short"),
            pytest.param(1, b"\x07", id="origin-out-of-range"),
            pytest.param(1, b"", id="origin-empty"),
            pytest.param(
                2,
                struct.pack(">BB", 2, 200) + struct.pack(">III", 1, 2, 3),
                id="as-path-200-asns-claimed-three-present",
            ),
        ],
    )
    def test_malformed_attribute_value_raises(self, type_code, value):
        payload = _announcement_payload(mrt._attribute(type_code, value))
        with pytest.raises(MrtError, match=r"payload byte \d+"):
            load_updates(_bgp4mp(payload))


class TestStreamingParity:
    """The streaming file path and the in-memory buffer path must agree
    byte for byte, and the attribute-skipping code reader must agree with
    the attribute-decoding route reader, on the committed fixtures."""

    def test_read_records_path_equals_buffer(self):
        for fixture in (RIB_FIXTURE, UPDATES_FIXTURE):
            from_path = list(read_records(fixture))
            from_bytes = list(read_records(open(fixture, "rb").read()))
            assert from_path == from_bytes

    def test_load_peer_table_path_equals_buffer(self):
        from repro.routes.mrt import load_peer_table

        assert load_peer_table(RIB_FIXTURE) == load_peer_table(
            open(RIB_FIXTURE, "rb").read()
        )

    def test_iter_rib_codes_matches_object_path(self):
        """Streaming codes == the prefixes of iter_rib_routes, with the
        same IPv4 peer positions per prefix."""
        from repro.routes.mrt import load_peer_table

        peers = load_peer_table(RIB_FIXTURE)
        expected = []
        for rib in iter_rib_routes(RIB_FIXTURE):
            code = rib[0].prefix
            indices = tuple(
                entry.peer_index
                for entry in rib
                if not peers[entry.peer_index].is_ipv6
            )
            expected.append((code, indices))
        streamed = list(iter_rib_codes(RIB_FIXTURE))
        assert streamed == expected
        assert streamed  # the fixture is not empty
        assert all(type(code) is int for code, _indices in streamed)
        # And the buffer flavour of the streaming path agrees too.
        assert list(iter_rib_codes(open(RIB_FIXTURE, "rb").read())) == expected

    def test_iter_rib_codes_masks_host_bits_like_object_path(self):
        """A wire prefix with stray host bits must decode to the same
        code from both readers (masked as the IPv4Prefix constructor does)."""
        from repro.routes import mrt

        table = mrt._encode_peer_index([PEER])
        # /12 on the wire carried in two bytes, with stray bits set below
        # bit 12 in the second byte (0xFF): 10.255.0.0 raw → 10.240.0.0/12.
        attrs = mrt._encode_attributes(
            PathAttributes(next_hop=PEER.ip, as_path=AsPath((65001,))), as_size=4
        )
        rib = struct.pack(">I", 0) + bytes([12, 10, 0xFF])
        rib += struct.pack(">H", 1)
        rib += struct.pack(">HIH", 0, 0, len(attrs)) + attrs
        blob = mrt._record(0, mrt.TABLE_DUMP_V2, mrt.PEER_INDEX_TABLE, table)
        blob += mrt._record(0, mrt.TABLE_DUMP_V2, mrt.RIB_IPV4_UNICAST, rib)
        ((code, indices),) = list(mrt.iter_rib_codes(blob))
        assert code == IPv4Prefix("10.240.0.0/12")
        (rib_entry,) = next(iter(mrt.iter_rib_routes(blob)))
        assert code == rib_entry.prefix
        assert indices == (0,)
