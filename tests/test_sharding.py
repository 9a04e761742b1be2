"""Tests for sharded full-DFZ group planning (supercharge.sharding)."""

import pytest

from repro.net.addresses import IPv4Address
from repro.routes.prefix_gen import PrefixGenerator
from repro.supercharge.sharding import (
    ShardWorkSpec,
    build_shard,
    run_sharded_build,
    shard_of_key,
    shard_vnh_pool,
)

PEERS = ("9.0.0.1", "9.0.1.1", "9.0.1.2", "9.0.1.3", "9.0.1.4")


class TestShardAssignment:
    def test_stable_across_calls(self):
        key = (IPv4Address("9.0.0.1"), IPv4Address("9.0.1.2"))
        assert shard_of_key(key, 4) == shard_of_key(tuple(key), 4)

    def test_single_shard_takes_everything(self):
        key = (IPv4Address("9.0.0.1"), IPv4Address("9.0.1.2"))
        assert shard_of_key(key, 1) == 0

    def test_vnh_subpools_are_disjoint(self):
        pools = [shard_vnh_pool("10.200.0.0/16", shard, 4) for shard in range(4)]
        seen = set()
        for pool in pools:
            addresses = set(
                range(pool.network.value, pool.network.value + pool.num_addresses)
            )
            assert not (seen & addresses)
            seen |= addresses

    def test_pool_too_small_rejected(self):
        with pytest.raises(ValueError):
            shard_vnh_pool("10.200.0.0/28", 0, 16)


class TestShardBuild:
    def test_shards_partition_the_table(self):
        """Every generated prefix lands in exactly one shard."""
        results = [
            build_shard(
                ShardWorkSpec(
                    shard=shard,
                    num_shards=3,
                    peers=PEERS,
                    prefix_count=600,
                    seed=5,
                )
            )
            for shard in range(3)
        ]
        assert sum(r.prefixes_loaded for r in results) == 600
        keys = [key for r in results for key in r.group_keys]
        assert len(keys) == len(set(keys))  # disjoint group ownership

    def test_failover_is_flat_in_groups(self):
        result = build_shard(
            ShardWorkSpec(
                shard=0, num_shards=1, peers=PEERS, prefix_count=400, seed=5
            )
        )
        assert result.groups == len(PEERS) - 1
        assert result.flow_mods == result.groups
        assert result.prefixes_covered == 400
        assert result.fallback_prefixes == 0

    def test_serial_equals_pooled(self):
        """The merged report must be identical whether shards run
        in-process or across a multiprocessing pool."""
        kwargs = dict(peers=PEERS, prefix_count=800, seed=9, num_shards=3)
        serial = run_sharded_build(workers=1, **kwargs)
        pooled = run_sharded_build(workers=3, **kwargs)
        assert serial["shards"] == pooled["shards"]
        assert serial["totals"] == pooled["totals"]

    def test_sharded_totals_match_single_planner_domain(self):
        kwargs = dict(peers=PEERS, prefix_count=500, seed=2)
        mono = run_sharded_build(num_shards=1, workers=1, **kwargs)
        sharded = run_sharded_build(num_shards=4, workers=1, **kwargs)
        for field in (
            "prefixes_loaded",
            "grouped",
            "groups",
            "flow_mods",
            "prefixes_covered",
            "fallback_prefixes",
        ):
            assert mono["totals"][field] == sharded["totals"][field], field

    def test_mrt_source(self, tmp_path):
        """Shard workers can regenerate their slice from a streamed MRT
        table instead of a synthetic spec."""
        import struct

        from repro.bgp.attributes import AsPath, PathAttributes
        from repro.routes import mrt

        peers = [
            mrt.MrtPeer(
                bgp_id=IPv4Address(ip), ip=IPv4Address(ip), asn=65000 + i
            )
            for i, ip in enumerate(PEERS)
        ]
        prefixes = PrefixGenerator(4).generate(40)
        blob = mrt._record(
            0, mrt.TABLE_DUMP_V2, mrt.PEER_INDEX_TABLE, mrt._encode_peer_index(peers)
        )
        for index, prefix in enumerate(prefixes):
            backup = 1 + index % (len(PEERS) - 1)
            rib = struct.pack(">I", index) + mrt._encode_nlri(prefix)
            rib += struct.pack(">H", 2)
            for peer_index in (0, backup):
                attrs = mrt._encode_attributes(
                    PathAttributes(
                        next_hop=peers[peer_index].ip,
                        as_path=AsPath((65000 + peer_index,)),
                    ),
                    as_size=4,
                )
                rib += struct.pack(">HIH", peer_index, 0, len(attrs)) + attrs
            blob += mrt._record(0, mrt.TABLE_DUMP_V2, mrt.RIB_IPV4_UNICAST, rib)
        path = tmp_path / "table.mrt"
        path.write_bytes(blob)
        report = run_sharded_build(
            peers=PEERS, mrt_path=str(path), num_shards=2, workers=1
        )
        assert report["totals"]["prefixes_loaded"] == 40
        assert report["totals"]["grouped"] == 40
        assert report["totals"]["prefixes_covered"] == 40
