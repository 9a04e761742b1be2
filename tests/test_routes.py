"""Tests for the synthetic prefix generator and route feeds."""

import pytest

from repro.net.addresses import IPv4Address
from repro.routes.prefix_gen import PrefixGenerator
from repro.routes.ris_feed import churn_stream, synthetic_full_table


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

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            PrefixGenerator(length_mix=())

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
