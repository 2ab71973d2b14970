"""Tests for the distance-label data structure and the decoder."""

import math

import pytest

from repro.errors import LabelingError
from repro.labeling.labels import DistanceLabel, DistanceLabeling, decode_distance


class TestDistanceLabel:
    def test_entries_and_sizes(self):
        lab = DistanceLabel("u")
        lab.set_entry("a", 3.0, 4.0)
        lab.set_entry("b", 1.0, math.inf)
        assert lab.num_entries() == 2
        assert set(lab.hubs()) == {"a", "b"}
        assert lab.size_bits(n=16) == 2 * (4 + 2 * 4)

    def test_restrict(self):
        lab = DistanceLabel("u", {"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 2.0})
        restricted = lab.restrict(["a"])
        assert restricted.num_entries() == 1
        assert "b" not in restricted.to_dist
        assert lab.num_entries() == 2  # original unchanged

    def test_copy_independent(self):
        lab = DistanceLabel("u", {"a": 1.0}, {"a": 1.0})
        cp = lab.copy()
        cp.set_entry("b", 2.0, 2.0)
        assert lab.num_entries() == 1


class TestDecoder:
    def test_same_vertex_distance_zero(self):
        lab = DistanceLabel("u", {"s": 5.0}, {"s": 5.0})
        assert decode_distance(lab, lab) == 0.0

    def test_decode_through_common_hub(self):
        lab_u = DistanceLabel("u", {"s": 2.0, "t": 9.0}, {"s": 7.0, "t": 1.0})
        lab_v = DistanceLabel("v", {"s": 8.0, "t": 3.0}, {"s": 4.0, "t": 5.0})
        # d(u, v) = min(2 + 4, 9 + 5) = 6 ; d(v, u) = min(8 + 7, 3 + 1) = 4
        assert decode_distance(lab_u, lab_v) == 6.0
        assert decode_distance(lab_v, lab_u) == 4.0

    def test_no_common_hub_gives_infinity(self):
        lab_u = DistanceLabel("u", {"a": 1.0}, {"a": 1.0})
        lab_v = DistanceLabel("v", {"b": 1.0}, {"b": 1.0})
        assert math.isinf(decode_distance(lab_u, lab_v))

    def test_asymmetric_hub_sets(self):
        lab_u = DistanceLabel("u", {"s": 2.0}, {"s": 2.0})
        hubs = {f"h{i}": float(i) for i in range(10)}
        lab_v = DistanceLabel("v", dict(hubs, s=3.0), dict(hubs, s=4.0))
        assert decode_distance(lab_u, lab_v) == 6.0

    def test_decode_leaves_hub_order_unset(self):
        # The decoder walks dict items; only packing needs the str-sorted
        # hub order, so neither branch may build it.
        small = DistanceLabel("u", {"s": 2.0}, {"s": 2.0})
        large = DistanceLabel("v", {"s": 3.0, "t": 1.0}, {"s": 4.0, "t": 5.0})
        assert decode_distance(small, large) == 6.0  # walks u's to_dist
        assert decode_distance(large, small) == 5.0  # walks u's from_dist
        assert small._hub_order is None and large._hub_order is None


class TestDistanceLabeling:
    def _labeling(self):
        return DistanceLabeling(
            {
                "u": DistanceLabel("u", {"s": 1.0}, {"s": 2.0}),
                "v": DistanceLabel("v", {"s": 3.0, "t": 0.0}, {"s": 4.0, "t": 0.0}),
            }
        )

    def test_distance_and_membership(self):
        labeling = self._labeling()
        assert labeling.distance("u", "v") == 5.0
        assert "u" in labeling
        assert len(labeling) == 2

    def test_missing_label_raises(self):
        labeling = self._labeling()
        with pytest.raises(LabelingError):
            labeling.label("w")

    def test_unhashable_vertex_has_no_label(self):
        labeling = self._labeling()
        for bad in (["u"], {"u": 1}):
            with pytest.raises(LabelingError, match="no label"):
                labeling.label(bad)
            with pytest.raises(LabelingError, match="no label"):
                labeling.distance("u", bad)

    def test_size_statistics(self):
        labeling = self._labeling()
        assert labeling.max_entries() == 2
        assert labeling.total_entries() == 3
        assert labeling.max_size_bits() > 0

    def test_size_statistics_cached_and_invalidated_by_set_entry(self):
        labeling = self._labeling()
        assert labeling.total_entries() == 3
        assert labeling._total_entries_cache == 3  # cache is warm
        labeling.set_entry("u", "t", 7.0, 8.0)
        assert labeling._total_entries_cache is None  # invalidated
        assert labeling.total_entries() == 4
        assert labeling.max_entries() == 2
        # Overwriting an existing entry also goes through the invalidation
        # (the counts happen not to change, but the cache contract is
        # "any set_entry resets").
        labeling.set_entry("u", "t", 9.0, 9.0)
        assert labeling.total_entries() == 4
        assert labeling.label("u").to_dist["t"] == 9.0

    def test_set_entry_on_unknown_vertex_raises(self):
        labeling = self._labeling()
        assert labeling.total_entries() == 3
        with pytest.raises(LabelingError, match="no label"):
            labeling.set_entry("w", "s", 1.0, 1.0)
        assert "w" not in labeling
        assert labeling.total_entries() == 3


class TestSortedHubsCache:
    def test_union_order_and_caching(self):
        lab = DistanceLabel("u", {"b": 1.0, "a": 2.0}, {"a": 3.0, "c": 4.0})
        assert lab.sorted_hubs() == ("a", "b", "c")  # union, str order
        assert lab.sorted_hubs() is lab.sorted_hubs()  # cached tuple

    def test_set_entry_invalidates_only_on_new_hubs(self):
        lab = DistanceLabel("u", {"a": 1.0}, {"a": 1.0})
        first = lab.sorted_hubs()
        lab.set_entry("a", 9.0, 9.0)  # existing hub: cache survives
        assert lab.sorted_hubs() is first
        lab.set_entry("b", 2.0, 2.0)  # new hub: cache rebuilt
        assert lab.sorted_hubs() == ("a", "b")

    def test_decoder_matches_brute_force(self):
        import random

        rng = random.Random(99)
        hubs = [f"h{i}" for i in range(12)]
        labels = {}
        for v in range(8):
            lab = DistanceLabel(v)
            for s in hubs:
                r = rng.random()
                if r < 0.4:
                    lab.set_entry(s, float(rng.randint(0, 30)), float(rng.randint(0, 30)))
                elif r < 0.55:
                    lab.to_dist[s] = float(rng.randint(0, 30))
                elif r < 0.7:
                    lab.from_dist[s] = float(rng.randint(0, 30))
            labels[v] = lab

        def brute(lu, lv):
            if lu.vertex == lv.vertex:
                return 0.0
            common = set(lu.to_dist) & set(lv.from_dist)
            return min(
                (lu.to_dist[s] + lv.from_dist[s] for s in common),
                default=math.inf,
            )

        for u in labels:
            for v in labels:
                assert decode_distance(labels[u], labels[v]) == brute(
                    labels[u], labels[v]
                )
