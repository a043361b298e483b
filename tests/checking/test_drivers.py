"""Unit tests for the environment drivers and adversary pools."""

import pytest

from repro.checking.drivers import (
    DvsClientDriver,
    SxClientDriver,
    ToClientDriver,
    VsClientDriver,
    grid_view_pool,
    random_view_pool,
)
from repro.core import make_view
from repro.ioa import act


class TestVsClientDriver:
    def test_sends_budget_in_order(self):
        driver = VsClientDriver("p1", budget=2)
        s = driver.initial_state()
        first = list(driver.controlled_candidates(s))
        assert first == [act("vs_gpsnd", ("m", "p1", 0), "p1")]
        s = driver.apply(s, first[0])
        second = list(driver.controlled_candidates(s))
        assert second == [act("vs_gpsnd", ("m", "p1", 1), "p1")]
        s = driver.apply(s, second[0])
        assert list(driver.controlled_candidates(s)) == []

    def test_participation(self):
        driver = VsClientDriver("p1")
        assert driver.participates(act("vs_gpsnd", "m", "p1"))
        assert not driver.participates(act("vs_gpsnd", "m", "p2"))


class TestDvsClientDriver:
    def test_registers_each_view_once(self, v0):
        driver = DvsClientDriver("p1", budget=0)
        s = driver.initial_state()
        assert list(driver.controlled_candidates(s)) == []  # no view yet
        s = driver.apply(s, act("dvs_newview", v0, "p1"))
        assert act("dvs_register", "p1") in driver.enabled_controlled(s)
        s = driver.apply(s, act("dvs_register", "p1"))
        assert act("dvs_register", "p1") not in driver.enabled_controlled(s)

    def test_eager_register_blocks_sends(self, v0):
        driver = DvsClientDriver("p1", budget=1, eager_register=True)
        s = driver.initial_state()
        s = driver.apply(s, act("dvs_newview", v0, "p1"))
        names = {a.name for a in driver.enabled_controlled(s)}
        assert names == {"dvs_register"}
        s = driver.apply(s, act("dvs_register", "p1"))
        names = {a.name for a in driver.enabled_controlled(s)}
        assert "dvs_gpsnd" in names

    def test_records_deliveries(self, v0):
        driver = DvsClientDriver("p1")
        s = driver.initial_state()
        s = driver.apply(s, act("dvs_gprcv", "m", "p2", "p1"))
        assert s.delivered == [("m", "p2")]


class TestSxClientDriver:
    def test_hands_in_snapshot_per_view(self, v0):
        driver = SxClientDriver("p1", budget=0)
        s = driver.initial_state()
        s = driver.apply(s, act("dvs_newview", v0, "p1"))
        offers = [
            a for a in driver.enabled_controlled(s)
            if a.name == "sx_sendstate"
        ]
        assert len(offers) == 1
        s = driver.apply(s, offers[0])
        assert not [
            a for a in driver.enabled_controlled(s)
            if a.name == "sx_sendstate"
        ]

    def test_collects_bundles(self, v0):
        driver = SxClientDriver("p1")
        s = driver.initial_state()
        s = driver.apply(s, act("sx_statedelivery", (("p1", "x"),), "p1"))
        assert s.bundles == [(("p1", "x"),)]


class TestToClientDriver:
    def test_budgeted_broadcasts(self):
        driver = ToClientDriver("p1", budget=1)
        s = driver.initial_state()
        (candidate,) = driver.enabled_controlled(s)
        assert candidate == act("bcast", ("a", "p1", 0), "p1")
        s = driver.apply(s, candidate)
        assert driver.enabled_controlled(s) == []


class TestViewPools:
    def test_grid_pool_counts(self):
        pool = grid_view_pool(["a", "b"], max_epoch=2)
        # 3 nonempty subsets x 2 epochs.
        assert len(pool) == 6
        assert len({v.id for v in pool}) == 2  # epochs shared across sizes

    def test_grid_pool_min_size(self):
        pool = grid_view_pool(["a", "b", "c"], max_epoch=1, min_size=3)
        assert len(pool) == 1
        assert pool[0].set == frozenset("abc")

    def test_random_pool_increasing_epochs(self):
        pool = random_view_pool(["a", "b", "c"], 5, seed=1)
        epochs = [v.id.epoch for v in pool]
        assert epochs == sorted(epochs)
        assert len(set(epochs)) == 5

    def test_random_pool_deterministic(self):
        assert random_view_pool("abc", 4, seed=9) == random_view_pool(
            "abc", 4, seed=9
        )
