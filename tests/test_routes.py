"""Tests for the synthetic prefix generator and route feeds."""

import hashlib
import random
from itertools import islice, repeat

import pytest

from repro.net.addresses import IPv4Address
from repro.routes.prefix_gen import PrefixGenerator
from repro.routes.ris_feed import churn_stream, synthetic_full_table
from repro.sim.random import SeededRandom


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _feed_lines(feed):
    return [f"{r.prefix} {r.as_path} {int(r.origin)} {r.med}" for r in feed.routes]


def _update_lines(updates):
    lines = []
    for update in updates:
        attrs = update.attributes
        if attrs is None:
            lines.append(f"W {update.prefix}")
        else:
            lines.append(
                f"A {update.prefix} {attrs.next_hop} {attrs.as_path}"
                f" {int(attrs.origin)} {attrs.med}"
            )
    return lines


# sha256 of the generators' output: every scenario's table is these
# draws, so one extra, missing or reordered draw must change a digest.
GENERATE_DIGESTS = {
    (0, 100): "fdd00e0a80fd38ad844e5f36a50070acb9ed981137756d47a8d259b146df98ae",
    (0, 3000): "f0d622eb60657b04565bd274a344c7a46df5be61ddc4369869251c4a9e6207e4",
    (1, 100): "d81f1fb529d48a60ed882bf3eeb2a324066d16ffb36d725e4d7146e912fc22f1",
    (1, 3000): "155c2b6d8d73486571da56e52545cd9c80b67070f60119023f07eafaa1ac5bb2",
    (7, 100): "a1db9deb9f660d87fefd76983399dbf45eecc1d05c007fede3f1945a95d48ca4",
    (7, 3000): "c7328b3ea29129ac2434114e0ec0e834d14e350177a5075552bc9bde92489f4f",
}
TABLE_DIGESTS = {
    (1, 100): "9c0f03a5c635e21d2528fee3a60b4db75fff9b3aae01e25d081440495098be82",
    (7, 2000): "b27008fe25a210b577ab778fc5b8266d3037c81a0cd7c89834fbc6f392f72145",
}
SHARED_TABLE_DIGESTS = {
    (3, 65001): "21d2a6199b385bb6a2202c5b09c8a82b6d7d4f1418979b50f438b7d33448eff3",
    (4, 65002): "363e24c05042ae3cf9e540ef4e10798a613a615261db9ce82652c5cf893927d0",
}
CHURN_DIGESTS = {
    (1, 100, 5): "cf21baa2958760526de8922ec5afa65384a87874da6b8111d6839afc13a15e21",
    (7, 2000, 11): "7484fd7bb09dc43da67257f515ad9e99a70b06d7e8afe0c4d80c88b7f5046509",
}


class TestPinnedDraws:
    @pytest.mark.parametrize("seed,count", sorted(GENERATE_DIGESTS))
    def test_generate(self, seed, count):
        prefixes = PrefixGenerator(seed).generate(count)
        assert _digest(map(str, prefixes)) == GENERATE_DIGESTS[seed, count]

    @pytest.mark.parametrize("seed,count", sorted(TABLE_DIGESTS))
    def test_synthetic_full_table(self, seed, count):
        feed = synthetic_full_table(count, seed=seed)
        assert _digest(_feed_lines(feed)) == TABLE_DIGESTS[seed, count]

    @pytest.mark.parametrize("seed,asn", sorted(SHARED_TABLE_DIGESTS))
    def test_synthetic_full_table_over_shared_prefixes(self, seed, asn):
        prefixes = PrefixGenerator(seed=3).generate(1000)
        feed = synthetic_full_table(1000, seed=seed, provider_asn=asn, prefixes=prefixes)
        assert _digest(_feed_lines(feed)) == SHARED_TABLE_DIGESTS[seed, asn]

    @pytest.mark.parametrize("feed_seed,count,seed", sorted(CHURN_DIGESTS))
    def test_churn_stream(self, feed_seed, count, seed):
        feed = synthetic_full_table(count, seed=feed_seed)
        updates = churn_stream(feed, IPv4Address("10.0.0.2"), withdraw_fraction=0.3, seed=seed)
        assert _digest(_update_lines(updates)) == CHURN_DIGESTS[feed_seed, count, seed]

    @pytest.mark.parametrize("low,high", [(1, 5), (1000, 64000), (0, 10), (7, 7)])
    def test_randints_are_randint(self, low, high):
        for seed in (0, 1, 7):
            drawn = list(SeededRandom(seed).randints(repeat((low, high), 500)))
            stdlib = random.Random(seed)
            assert drawn == [stdlib.randint(low, high) for _ in range(500)]

    def test_randints_over_churn_ranges_are_randint(self):
        # churn_stream draws a withdraw's slot from (index + 1, total).
        total = 300
        bounds = [(index + 1, total) for index in range(total)]
        for seed in (0, 1, 7):
            stdlib = random.Random(seed)
            expected = [stdlib.randint(low, high) for low, high in bounds]
            assert list(SeededRandom(seed).randints(bounds)) == expected

    def test_randints_rejects_an_empty_range(self):
        with pytest.raises(ValueError):
            next(SeededRandom(1).randints([(5, 4)]))

    @pytest.mark.parametrize("span", [1, 2, 5, 11, 2**16, 63001])
    def test_integers_draw_what_randints_draws(self, span):
        # Pulls of 0-3 values alternate with random() on the same generator,
        # so each stream must consume exactly the draws randints consumes.
        low = 1000
        for seed in (0, 1, 7):
            fast, reference = SeededRandom(seed), SeededRandom(seed)
            stream = fast.integers(low, low + span - 1)
            expected = reference.randints(repeat((low, low + span - 1)))
            for step in range(400):
                pulls = step % 4
                assert list(islice(stream, pulls)) == list(islice(expected, pulls))
                assert fast.random() == reference.random()

    def test_integers_reject_an_empty_range(self):
        with pytest.raises(ValueError):
            SeededRandom(1).integers(5, 4)

    def test_invalid_provider_asn_rejected(self):
        with pytest.raises(ValueError):
            synthetic_full_table(10, seed=1, provider_asn=0)


class TestPrefixGenerator:
    def test_count_and_uniqueness(self):
        prefixes = PrefixGenerator(seed=1).generate(500)
        assert len(prefixes) == 500
        assert len(set(prefixes)) == 500

    def test_non_overlapping(self):
        prefixes = PrefixGenerator(seed=1).generate(200)
        # Sampled pairwise containment check (full N^2 would be slow).
        for a in prefixes[:50]:
            for b in prefixes[:50]:
                if a != b:
                    assert not a.contains(b)

    def test_deterministic_per_seed(self):
        assert PrefixGenerator(seed=5).generate(100) == PrefixGenerator(seed=5).generate(100)
        assert PrefixGenerator(seed=5).generate(100) != PrefixGenerator(seed=6).generate(100)

    def test_length_mix_is_dominated_by_24s(self):
        prefixes = PrefixGenerator(seed=2).generate(2000)
        share_24 = sum(1 for prefix in prefixes if prefix.length == 24) / len(prefixes)
        assert 0.4 < share_24 < 0.8
        assert all(22 <= prefix.length <= 24 for prefix in prefixes)

    def test_addresses_stay_in_public_range(self):
        prefixes = PrefixGenerator(seed=3).generate(1000)
        assert all(prefix.network >= IPv4Address("4.0.0.0") for prefix in prefixes)
        assert all(prefix.last_address < IPv4Address("224.0.0.0") for prefix in prefixes)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            PrefixGenerator().generate(-1)

    def test_stream_matches_generate(self):
        generator = PrefixGenerator(seed=9)
        assert list(PrefixGenerator(seed=9).stream_codes(50)) == generator.generate(50)


class TestSyntheticFullTable:
    def test_size_and_determinism(self):
        feed_a = synthetic_full_table(300, seed=4)
        feed_b = synthetic_full_table(300, seed=4)
        assert len(feed_a) == 300
        assert feed_a.prefixes() == feed_b.prefixes()
        assert [r.as_path for r in feed_a.routes] == [r.as_path for r in feed_b.routes]

    def test_shared_prefixes_between_providers(self):
        prefixes = PrefixGenerator(seed=1).generate(100)
        feed_r2 = synthetic_full_table(100, seed=1, provider_asn=65001, prefixes=prefixes)
        feed_r3 = synthetic_full_table(100, seed=2, provider_asn=65002, prefixes=prefixes)
        assert feed_r2.prefixes() == feed_r3.prefixes()
        assert feed_r2.routes[0].as_path != feed_r3.routes[0].as_path

    def test_as_paths_start_with_provider(self):
        feed = synthetic_full_table(50, seed=1, provider_asn=65009)
        assert all(route.as_path.asns[0] == 65009 for route in feed.routes)

    def test_updates_carry_next_hop(self):
        feed = synthetic_full_table(10, seed=1)
        next_hop = IPv4Address("10.0.0.2")
        updates = feed.updates(next_hop)
        assert len(updates) == 10
        assert all(update.attributes.next_hop == next_hop for update in updates)

    def test_insufficient_prefixes_rejected(self):
        prefixes = PrefixGenerator(seed=1).generate(5)
        with pytest.raises(ValueError):
            synthetic_full_table(10, prefixes=prefixes)


class TestChurnStream:
    def test_pure_announcement_stream(self):
        feed = synthetic_full_table(20, seed=1)
        updates = list(churn_stream(feed, IPv4Address("10.0.0.2")))
        assert len(updates) == 20
        assert not any(update.is_withdraw for update in updates)

    def test_withdraw_fraction_mixes_in_withdraws(self):
        feed = synthetic_full_table(200, seed=1)
        updates = list(churn_stream(feed, IPv4Address("10.0.0.2"), withdraw_fraction=0.5, seed=3))
        withdraws = [update for update in updates if update.is_withdraw]
        assert len(updates) == 200 + len(withdraws)
        assert 50 <= len(withdraws) <= 150

    def test_withdraws_are_interleaved_not_appended(self):
        feed = synthetic_full_table(200, seed=1)
        updates = list(churn_stream(feed, IPv4Address("10.0.0.2"), withdraw_fraction=0.5, seed=3))
        withdraw_count = sum(1 for update in updates if update.is_withdraw)
        # Churn, not a batch: withdraws appear before the final announcement…
        first_withdraw = next(i for i, u in enumerate(updates) if u.is_withdraw)
        last_announce = max(i for i, u in enumerate(updates) if not u.is_withdraw)
        assert first_withdraw < last_announce
        # …and the tail of the stream is not one solid withdraw block.
        tail = updates[-withdraw_count:]
        assert not all(update.is_withdraw for update in tail)

    def test_every_withdraw_follows_its_announcement(self):
        feed = synthetic_full_table(150, seed=2)
        announced = set()
        for update in churn_stream(feed, IPv4Address("10.0.0.2"), withdraw_fraction=0.4, seed=7):
            if update.is_withdraw:
                assert update.prefix in announced
            else:
                announced.add(update.prefix)

    def test_stream_is_seed_stable(self):
        feed = synthetic_full_table(100, seed=4)
        def render(seed):
            return [
                (update.is_withdraw, update.prefix)
                for update in churn_stream(
                    feed, IPv4Address("10.0.0.2"), withdraw_fraction=0.3, seed=seed
                )
            ]
        assert render(5) == render(5)
        assert render(5) != render(6)

    def test_invalid_fraction_rejected(self):
        feed = synthetic_full_table(5, seed=1)
        with pytest.raises(ValueError):
            list(churn_stream(feed, IPv4Address("10.0.0.2"), withdraw_fraction=1.5))
