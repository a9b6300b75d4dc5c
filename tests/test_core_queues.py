"""Unit tests for the pending-event queue structures (paper S4.1 & S7)."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.core.queues import (
    SHED_POLICIES,
    BucketPlacement,
    InstanceBucketQueue,
    PendingQueue,
)


@dataclass
class Item:
    cost_ns: int
    label: str = ""


class TestPendingQueue:
    def test_fifo_order(self):
        q = PendingQueue()
        a, b = Item(1), Item(2)
        q.add(a)
        q.add(b)
        assert q.peek() is a
        assert list(q) == [a, b]
        assert len(q) == 2

    def test_choose_first_fitting_skips_expensive_head(self):
        # the paper's example: head costs 3, capacity left 2, a later
        # 1-cost event overtakes
        q = PendingQueue()
        big, small = Item(3, "big"), Item(1, "small")
        q.add(big)
        q.add(small)
        assert q.choose_first_fitting(2) is small
        assert q.choose_first_fitting(3) is big
        assert q.choose_first_fitting(0) is None

    def test_pop_first_fitting_removes(self):
        q = PendingQueue()
        big, small = Item(3), Item(1)
        q.add(big)
        q.add(small)
        assert q.pop_first_fitting(2) is small
        assert list(q) == [big]
        assert q.pop_first_fitting(1) is None

    def test_remove_and_empty(self):
        q = PendingQueue()
        assert q.empty
        item = Item(1)
        q.add(item)
        q.remove(item)
        assert q.empty
        with pytest.raises(ValueError):
            q.remove(item)

    def test_peek_on_empty(self):
        assert PendingQueue().peek() is None


class TestInstanceBucketQueue:
    def test_first_fit_last_bucket_packing(self):
        q = InstanceBucketQueue(capacity_ns=4)
        p1 = q.add(Item(2))
        p2 = q.add(Item(2))
        p3 = q.add(Item(1))  # 2+2+1 > 4: opens bucket 1
        assert p1 == BucketPlacement(0, 0)
        assert p2 == BucketPlacement(0, 2)
        assert p3 == BucketPlacement(1, 0)
        assert q.bucket_count == 2
        assert len(q) == 3

    def test_exact_fill(self):
        q = InstanceBucketQueue(capacity_ns=4)
        q.add(Item(4))
        p = q.add(Item(1))
        assert p.instance_offset == 1

    def test_oversized_item_rejected(self):
        q = InstanceBucketQueue(capacity_ns=4)
        with pytest.raises(ValueError, match="exceeds"):
            q.add(Item(5))

    def test_pop_current_strict_order(self):
        q = InstanceBucketQueue(capacity_ns=4)
        items = [Item(2, "a"), Item(2, "b"), Item(3, "c")]
        for item in items:
            q.add(item)
        assert [q.pop_current().label for _ in range(3)] == ["a", "b", "c"]
        assert q.empty

    def test_head_instance_advances_as_buckets_drain(self):
        q = InstanceBucketQueue(capacity_ns=4)
        q.add(Item(4))
        q.add(Item(4))
        assert q.head_instance == 0
        q.pop_current()
        assert q.head_instance == 1
        q.pop_current()
        assert q.head_instance == 2

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            InstanceBucketQueue(capacity_ns=4).pop_current()

    def test_placement_reflects_cumulative_cost(self):
        q = InstanceBucketQueue(capacity_ns=10)
        costs = [3, 4, 2]
        placements = [q.add(Item(c)) for c in costs]
        assert [p.cumulative_before_ns for p in placements] == [0, 3, 7]

    def test_new_bucket_after_partial_drain(self):
        q = InstanceBucketQueue(capacity_ns=4)
        q.add(Item(3, "a"))
        q.pop_current()          # bucket drained, head advances
        p = q.add(Item(3, "b"))
        assert p == BucketPlacement(0, 0)  # offset from the new head

    def test_head_bucket_items_view(self):
        q = InstanceBucketQueue(capacity_ns=4)
        q.add(Item(2, "a"))
        q.add(Item(2, "b"))
        q.add(Item(4, "c"))
        assert [i.label for i in q.head_bucket_items()] == ["a", "b"]
        assert InstanceBucketQueue(capacity_ns=4).head_bucket_items() == []

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            InstanceBucketQueue(capacity_ns=0)

    def test_advance_instance_on_empty_queue(self):
        q = InstanceBucketQueue(capacity_ns=4)
        q.advance_instance()
        assert q.head_instance == 1

    def test_advance_instance_keeps_unfinished_bucket(self):
        q = InstanceBucketQueue(capacity_ns=4)
        q.add(Item(2, "a"))
        q.advance_instance()
        assert q.head_instance == 0
        assert not q.empty


def _bucket_items(q: InstanceBucketQueue) -> list:
    return [item for bucket in q._buckets for item in bucket.items]


class TestInstanceBucketQueueLength:
    """``len()`` is a running count; it must match the buckets' contents
    across every mutating path."""

    def test_len_through_add_pop_and_advance(self):
        q = InstanceBucketQueue(capacity_ns=5)
        for cost in (2, 3, 4, 1, 5, 2):
            q.add(Item(cost))
            assert len(q) == len(_bucket_items(q))
        while len(q):
            q.pop_current()
            q.advance_instance()
            assert len(q) == len(_bucket_items(q))
        q.advance_instance()
        assert len(q) == 0 and q.empty

    def test_len_through_shed_in_place(self):
        q = InstanceBucketQueue(capacity_ns=6)
        items = [Item(c) for c in (3, 3, 2, 4, 1)]
        for item in items:
            q.add(item)
        for item in (items[2], items[0], items[1]):
            q._shed_in_place(item)
            assert len(q) == len(_bucket_items(q))
        with pytest.raises(ValueError):
            q._shed_in_place(items[0])
        assert len(q) == 2

    def test_pop_skips_a_bucket_emptied_by_shedding(self):
        q = InstanceBucketQueue(capacity_ns=5)
        a, b, c = Item(5, "a"), Item(5, "b"), Item(5, "c")
        for item in (a, b, c):
            q.add(item)
        q._shed_in_place(b)  # empties the middle bucket
        assert q.pop_current() is a
        assert q.peek_current() is c
        assert q.pop_current() is c
        assert len(q) == 0 and q.empty

    @pytest.mark.parametrize("policy", SHED_POLICIES)
    def test_len_through_offer_with_shedding(self, policy):
        rng = random.Random(7)
        q = InstanceBucketQueue(capacity_ns=10, max_items=4, max_cost_ns=25,
                                policy=policy)
        for step in range(300):
            roll = rng.random()
            if roll < 0.6:
                q.offer(Item(rng.randint(1, 12), f"i{step}"))
            elif roll < 0.8 and len(q):
                q.pop_current()
            elif roll < 0.9 and len(q):
                q._shed_in_place(rng.choice(_bucket_items(q)))
            else:
                q.advance_instance()
            assert len(q) == len(_bucket_items(q))
            assert q.total_cost_ns == sum(i.cost_ns for i in _bucket_items(q))
