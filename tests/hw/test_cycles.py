"""Unit tests: cycle ledger and cost model."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.hw.cycles import (CLOCK_HZ, CostModel, CycleLedger,
                             cycles_to_seconds, free_cost_model)


class TestCostModel:
    def test_domain_switch_matches_paper(self):
        assert CostModel().domain_switch == 7135

    def test_copy_cost_is_quarter_cycle_per_byte(self):
        cost = CostModel()
        assert cost.copy_cost(4096) == 1024

    def test_copy_cost_rounds_down(self):
        assert CostModel().copy_cost(1) == 0
        assert CostModel().copy_cost(4) == 1

    def test_sha256_and_cipher_costs_scale_linearly(self):
        cost = CostModel()
        assert cost.sha256_cost(2000) == 2 * cost.sha256_cost(1000)
        assert cost.cipher_cost(2000) == 2 * cost.cipher_cost(1000)

    def test_free_cost_model_is_all_zero(self):
        cost = free_cost_model()
        assert cost.vmgexit == 0
        assert cost.rmpadjust == 0
        assert cost.copy_cost(10_000) == 0
        assert cost.domain_switch == 0


class TestCycleLedger:
    def test_charge_accumulates_total_and_category(self):
        ledger = CycleLedger()
        ledger.charge("a", 10)
        ledger.charge("a", 5)
        ledger.charge("b", 3)
        assert ledger.total == 18
        assert ledger.category("a") == 15
        assert ledger.category("b") == 3
        assert ledger.category("missing") == 0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CycleLedger().charge("x", -1)

    def test_snapshot_is_immutable_view(self):
        ledger = CycleLedger()
        ledger.charge("a", 7)
        snap = ledger.snapshot()
        ledger.charge("a", 100)
        assert snap.total == 7
        assert snap.category("a") == 7

    def test_since_returns_delta_only(self):
        ledger = CycleLedger()
        ledger.charge("a", 7)
        snap = ledger.snapshot()
        ledger.charge("a", 3)
        ledger.charge("b", 2)
        delta = ledger.since(snap)
        assert delta.total == 5
        assert delta.by_category == {"a": 3, "b": 2}

    def test_since_omits_unchanged_categories(self):
        ledger = CycleLedger()
        ledger.charge("a", 7)
        snap = ledger.snapshot()
        ledger.charge("b", 1)
        assert "a" not in ledger.since(snap).by_category

    def test_reset(self):
        ledger = CycleLedger()
        ledger.charge("a", 7)
        ledger.reset()
        assert ledger.total == 0
        assert ledger.by_category == {}

    @given(st.lists(st.tuples(st.sampled_from("abc"),
                              st.integers(0, 10_000)), max_size=50))
    def test_total_equals_sum_of_categories(self, charges):
        ledger = CycleLedger()
        for category, amount in charges:
            ledger.charge(category, amount)
        assert ledger.total == sum(ledger.by_category.values())


class TestLedgerTally:
    """``by_category`` is a :class:`repro.trace.Tally`; it must read and
    store exactly as the ``collections.Counter`` it replaced did, because
    the benchmark's ledger digest sorts ``by_category.items()``."""

    def test_missing_category_reads_zero_and_inserts_nothing(self):
        ledger = CycleLedger()
        ledger.charge("a", 1)
        assert ledger.by_category["missing"] == 0
        assert ledger.category("missing") == 0
        assert "missing" not in ledger.by_category
        assert list(ledger.by_category) == ["a"]

    def test_zero_charge_creates_its_key(self):
        ledger = CycleLedger()
        ledger.charge("z", 0)
        ledger.handle("h").charge(0)
        assert ledger.by_category == {"z": 0, "h": 0}
        assert ledger.total == 0

    def test_reset_keeps_handles_valid(self):
        ledger = CycleLedger()
        handle = ledger.handle("copy")
        tally = ledger.by_category
        handle.charge(5)
        ledger.charge("walk", 2)
        ledger.reset()
        assert ledger.by_category is tally
        handle.charge(3)
        assert ledger.total == 3
        assert ledger.by_category == {"copy": 3}

    @given(st.lists(st.tuples(st.sampled_from(["copy", "walk", "switch",
                                               "audit"]),
                              st.integers(0, 10_000), st.booleans()),
                    max_size=60))
    def test_items_match_a_counter(self, charges):
        """Same keys, values and insertion order as a ``Counter`` fed the
        same charges, through ``charge`` and through handles alike."""
        ledger = CycleLedger()
        handles = {}
        reference = Counter()
        for category, cycles, by_handle in charges:
            if by_handle:
                if category not in handles:
                    handles[category] = ledger.handle(category)
                handles[category].charge(cycles)
            else:
                ledger.charge(category, cycles)
            reference[category] += cycles
        assert list(ledger.by_category.items()) == list(reference.items())
        assert ledger.total == sum(reference.values())


class TestConversions:
    def test_cycles_to_seconds(self):
        assert cycles_to_seconds(CLOCK_HZ) == 1.0
        assert cycles_to_seconds(CLOCK_HZ // 2) == 0.5

    def test_snapshot_seconds(self):
        ledger = CycleLedger()
        ledger.charge("x", 3 * CLOCK_HZ)
        assert ledger.snapshot().seconds() == pytest.approx(3.0)
