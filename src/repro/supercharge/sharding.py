"""Sharded full-DFZ group planning across worker processes.

A 1M-route table does not fit comfortably in one Python process once
every prefix owns a RIB entry and a group membership — and it does not
have to: remote-failover state is *per backup group*, and a group never
spans two shards if prefixes are sharded by their group key.  This
module builds the table as ``num_shards`` independent planner domains:

* The parent never materialises the table.  It sends each worker only a
  :class:`ShardWorkSpec` (table seed/size or an MRT path, the peer
  layout, and the shard id); the worker regenerates *its* slice from
  that spec — streaming :meth:`PrefixGenerator.stream_codes
  <repro.routes.prefix_gen.PrefixGenerator.stream_codes>` or
  :func:`repro.routes.mrt.iter_rib_codes` and skipping every code whose
  group key hashes to another shard.  Peak RSS is therefore bounded by
  the largest *shard*, not the table.
* Each shard owns a disjoint slice of the VNH pool and VMAC space
  (carved by shard index), so the merged deployment has no virtual
  next-hop collisions even though allocators run independently.
* Workers drive the *real* stack — :class:`CompactPeerRib
  <repro.bgp.rib.CompactPeerRib>`, :class:`RemoteGroupPlanner
  <repro.supercharge.planner.RemoteGroupPlanner>` fed plain int codes, and
  (when a failover is simulated) the real
  :class:`~repro.supercharge.engine.RemoteRepointEngine` — and return a
  compact summary plus a CRC digest of their group membership.  The
  digest makes the serial/pooled parity requirement checkable: the merge
  of per-shard reports is byte-identical whether shards ran in-process
  or across a multiprocessing pool.

Shard assignment hashes the *group key* (the ranked backup next hops),
not the prefix: ``shard_of_key``.  CRC32 over the packed address values
is stable across processes and interpreter runs (unlike ``hash()``,
which is salted), so a spec maps to the same shard layout everywhere.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.bgp.rib import CompactPeerRib
from repro.core.backup_groups import GroupKey, ProvisioningAction
from repro.core.vnh_allocator import DEFAULT_VMAC_BASE, VnhAllocator
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.routes.prefix_gen import PrefixGenerator
from repro.runconfig import pool_start_method
from repro.sim.engine import Simulator
from repro.supercharge.engine import RemoteRepointEngine
from repro.supercharge.planner import RemoteGroup, RemoteGroupPlanner
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.process import peak_rss_mb, sample_scale_gauges
from repro.telemetry.profile import sample_shard_gauges


def shard_of_key(key: GroupKey, num_shards: int) -> int:
    """Deterministic shard for a group key (ranked next-hop tuple).

    All prefixes sharing a ranking land in one shard, so planner group
    state never spans workers; CRC32 over the packed addresses is
    process-stable, unlike salted ``hash()``.
    """
    if num_shards <= 1:
        return 0
    packed = b"".join(hop.to_bytes(4, "big") for hop in key)
    return zlib.crc32(packed) % num_shards


class ShardWorkSpec(NamedTuple):
    """Everything a worker needs to regenerate and build its shard.

    Picklable by construction: addresses travel as dotted-quad strings
    and the table is described by (seed, count) or an MRT path — never
    by materialised prefixes.
    """

    shard: int
    num_shards: int
    #: Best-first peer layout: ``peers[0]`` is the primary every prefix
    #: prefers; each prefix's backup is ``peers[1 + index % (n-1)]``.
    peers: Tuple[str, ...]
    #: Synthetic table: number of prefixes and generator seed.
    prefix_count: int = 0
    seed: int = 0
    #: Alternative table source: a TABLE_DUMP_V2 MRT file streamed via
    #: :func:`repro.routes.mrt.iter_rib_codes` (overrides the synthetic
    #: fields when set).  File peer indices rank the hops.
    mrt_path: Optional[str] = None
    #: Base VNH pool; each shard carves slice ``shard`` out of it.
    vnh_pool: str = "10.200.0.0/16"
    group_size: int = 2


class ShardBuildResult(NamedTuple):
    """Deterministic per-shard summary (no wall-clock, no RSS)."""

    shard: int
    prefixes_loaded: int = 0
    grouped: int = 0
    ungrouped: int = 0
    groups: int = 0
    #: CRC32 over sorted (group key, sorted member codes) — the
    #: serial/pooled parity witness for membership.
    membership_crc: int = 0
    group_keys: Sequence[Tuple[int, ...]] = ()
    #: Failover absorption: the loss of the primary peer (zeros when the
    #: shard loaded nothing).
    flow_mods: int = 0
    groups_repointed: int = 0
    prefixes_covered: int = 0
    fallback_prefixes: int = 0
    #: Peak RSS of the process that built this shard, MiB.  Deliberately
    #: excluded from :meth:`as_dict`: it is a measurement, not a result,
    #: so it must not participate in serial/pooled parity comparisons
    #: (serial runs accumulate one process's high-water mark).
    rss_mb: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "prefixes_loaded": self.prefixes_loaded,
            "grouped": self.grouped,
            "ungrouped": self.ungrouped,
            "groups": self.groups,
            "membership_crc": self.membership_crc,
            "flow_mods": self.flow_mods,
            "groups_repointed": self.groups_repointed,
            "prefixes_covered": self.prefixes_covered,
            "fallback_prefixes": self.fallback_prefixes,
        }


class _CountingProvisioner:
    """Duck-typed stand-in for :class:`FlowProvisioner` inside a shard.

    The engine only needs ``point_groups`` (batch group repoints,
    returning per-group outcomes) and the ``rules_pushed`` counter; a
    shard worker has no switch to program, so every repoint succeeds at
    the cost of exactly one counted flow-mod — the O(#groups) claim the
    scale bench asserts.
    """

    def __init__(self) -> None:
        self.rules_pushed = 0

    def point_groups(
        self, repoints: Sequence[Tuple[RemoteGroup, IPv4Address]]
    ) -> List[bool]:
        self.rules_pushed += len(repoints)
        return [True] * len(repoints)


def shard_vnh_pool(base: str, shard: int, num_shards: int) -> IPv4Prefix:
    """Carve shard ``shard``'s disjoint VNH subpool out of ``base``.

    The base pool is split into the next power of two >= ``num_shards``
    equal slices; independent per-shard allocators therefore never hand
    out colliding virtual next hops in the merged deployment.
    """
    pool = IPv4Prefix(base)
    bits = 0
    while (1 << bits) < max(1, num_shards):
        bits += 1
    sub_len = pool.length + bits
    if sub_len > 30:
        raise ValueError(
            f"pool {base} too small for {num_shards} shards (would need /{sub_len})"
        )
    sub_size = 1 << (32 - sub_len)
    return IPv4Prefix(IPv4Address(pool.network + shard * sub_size), sub_len)


def _iter_shard_codes(
    spec: ShardWorkSpec, peers: List[IPv4Address]
) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """Yield ``(code, peer indices)`` belonging to this shard.

    The worker streams the *whole* table description (ints only) and
    keeps just its slice — CPU is O(table) per worker, memory O(shard).
    """
    num_backups = len(peers) - 1
    if spec.mrt_path is not None:
        from repro.routes.mrt import iter_rib_codes

        for code, indices in iter_rib_codes(spec.mrt_path):
            if len(indices) < 2:
                key = tuple(peers[i] for i in indices[:1])
            else:
                key = tuple(peers[i] for i in indices[: spec.group_size])
            if shard_of_key(key, spec.num_shards) == spec.shard:
                yield code, indices
        return
    gen = PrefixGenerator(spec.seed)
    for index, code in enumerate(gen.stream_codes(spec.prefix_count)):
        backup = 1 + index % num_backups
        key = (peers[0], peers[backup])
        if shard_of_key(key, spec.num_shards) == spec.shard:
            yield code, (0, backup)


def build_shard(spec: ShardWorkSpec) -> ShardBuildResult:
    """Build one shard's planner domain end to end (worker entry point).

    Streams the shard's codes into a :class:`CompactPeerRib` and a
    :class:`RemoteGroupPlanner`, then withdraws the primary peer and
    absorbs the loss through the real
    :class:`RemoteRepointEngine` — so a shard exercises exactly the code
    the single-process controller runs, just on a slice of the table.
    """
    if len(spec.peers) < 2:
        raise ValueError("need a primary and at least one backup peer")
    peers = [IPv4Address(ip) for ip in spec.peers]
    if spec.mrt_path is None and spec.prefix_count <= 0:
        raise ValueError("synthetic shard build needs prefix_count > 0")

    rib = CompactPeerRib()
    for peer in peers:
        rib.add_peer(peer)
    allocator = VnhAllocator(
        shard_vnh_pool(spec.vnh_pool, spec.shard, spec.num_shards),
        vmac_base=DEFAULT_VMAC_BASE + (spec.shard << 24),
    )
    planner = RemoteGroupPlanner(allocator, group_size=spec.group_size)

    loaded = grouped = 0
    for code, indices in _iter_shard_codes(spec, peers):
        for index in indices:
            rib.load(code, index)
        hops = tuple(peers[i] for i in indices)
        loaded += 1
        if planner.load_code(code, hops):
            grouped += 1

    absorbed: Dict[str, int] = {}
    if loaded:
        sim = Simulator(seed=spec.seed)
        provisioner = _CountingProvisioner()
        dead = peers[0]
        fallback_actions: List[ProvisioningAction] = []
        engine = RemoteRepointEngine(
            sim,
            planner,
            provisioner,
            peer_alive=lambda hop: hop != dead,
            apply_actions=fallback_actions.extend,
        )
        for code, new_ranking in rib.iter_withdraw_peer(0):
            if not planner.defer_code(code, new_ranking) and new_ranking:
                # Ungrouped single-path prefixes take the per-prefix
                # path immediately, exactly as process_change would.
                planner.reassign(code, new_ranking)
        engine.absorb_deferred()
        sim.run_for(engine.holddown * 2)
        absorbed = {
            "flow_mods": engine.flow_mods,
            "groups_repointed": engine.groups_repointed,
            "prefixes_covered": engine.prefixes_covered,
            "fallback_prefixes": engine.fallback_prefixes,
        }

    groups = sorted(planner.groups(), key=lambda g: g.vmac)
    crc = 0
    for group in groups:
        packed = b"".join(hop.to_bytes(4, "big") for hop in group.key)
        crc = zlib.crc32(packed, crc)
        for code in sorted(group.members):
            crc = zlib.crc32(code.to_bytes(5, "big"), crc)
    return ShardBuildResult(
        shard=spec.shard,
        prefixes_loaded=loaded,
        grouped=grouped,
        ungrouped=loaded - grouped,
        groups=len(groups),
        membership_crc=crc,
        group_keys=sorted(group.key for group in groups),
        rss_mb=round(peak_rss_mb(), 1),
        **absorbed,
    )


def run_sharded_build(
    *,
    peers: Tuple[str, ...],
    prefix_count: int = 0,
    seed: int = 0,
    mrt_path: Optional[str] = None,
    num_shards: int = 1,
    workers: int = 1,
    group_size: int = 2,
    vnh_pool: str = "10.200.0.0/16",
    telemetry: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Build a full table as ``num_shards`` planner domains and merge.

    ``workers <= 1`` runs the shards serially in-process; otherwise a
    multiprocessing pool runs them concurrently.  The merged report is
    byte-identical either way (shard results are deterministic and
    ordered by shard index), which is the property the campaign layer
    relies on for serial==pooled reproducibility.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    specs = [
        ShardWorkSpec(
            shard=shard,
            num_shards=num_shards,
            peers=tuple(peers),
            prefix_count=prefix_count,
            seed=seed,
            mrt_path=mrt_path,
            vnh_pool=vnh_pool,
            group_size=group_size,
        )
        for shard in range(num_shards)
    ]
    if workers > 1 and num_shards > 1:
        import multiprocessing  # the serial path never pays for it

        ctx = multiprocessing.get_context(pool_start_method())
        with ctx.Pool(processes=min(workers, num_shards)) as pool:
            results = pool.map(build_shard, specs)
    else:
        results = [build_shard(spec) for spec in specs]
    results.sort(key=lambda r: r.shard)

    # Group keys must be disjoint across shards — the invariant that
    # makes per-shard planner domains equivalent to one big planner.
    seen: Dict[Tuple[int, ...], int] = {}
    for shard_result in results:
        for key in shard_result.group_keys:
            owner = seen.setdefault(key, shard_result.shard)
            if owner != shard_result.shard:
                raise RuntimeError(
                    f"group key {key} spans shards {owner} and {shard_result.shard}"
                )

    totals = {
        "prefixes_loaded": sum(r.prefixes_loaded for r in results),
        "grouped": sum(r.grouped for r in results),
        "ungrouped": sum(r.ungrouped for r in results),
        "groups": sum(r.groups for r in results),
        "flow_mods": sum(r.flow_mods for r in results),
        "groups_repointed": sum(r.groups_repointed for r in results),
        "prefixes_covered": sum(r.prefixes_covered for r in results),
        "fallback_prefixes": sum(r.fallback_prefixes for r in results),
        "membership_crc": zlib.crc32(
            b"".join(r.membership_crc.to_bytes(4, "big") for r in results)
        ),
    }
    sample_scale_gauges(
        telemetry,
        rib_prefixes=totals["prefixes_loaded"],
        shard_count=num_shards,
    )
    # Per-shard balance gauges (plus min/max skew) — the sharded-build
    # half of the sim profiler's per-shard observability.
    sample_shard_gauges(
        telemetry,
        [(r.shard, r.prefixes_loaded, r.groups, r.flow_mods) for r in results],
    )
    return {
        "num_shards": num_shards,
        "shards": [r.as_dict() for r in results],
        "totals": totals,
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "shard_rss_mb": max(r.rss_mb for r in results),
    }
