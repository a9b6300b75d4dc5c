"""Differential tests for the indexed pending queue and the DS pick.

:class:`~repro.core.queues.PendingQueue` answers ``chooseNextEvent()``
through a min-cost segment tree over insertion slots.  These properties
drive random operation sequences through it and through a linear-scan
oracle (the plain deque implementation the index replaced, kept only
here) and require identical answers after every step.  A second
property checks the Deferrable Server's closed-form pick against the
loop it replaced.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeferrableTaskServer, TaskServerParameters
from repro.core.queues import SHED_POLICIES, PendingQueue, _value_density
from repro.rtsj import RelativeTime


class _Item:
    def __init__(self, cost_ns: int, value: float | None) -> None:
        self.cost_ns = cost_ns
        self.value = value

    def __repr__(self) -> str:
        return f"_Item({self.cost_ns}, {self.value})"


class LinearQueue:
    """The reference: a deque scanned front to back."""

    def __init__(self, max_items=None, max_cost_ns=None,
                 policy="reject-new") -> None:
        self.items: deque = deque()
        self.total_ns = 0
        self.max_items = max_items
        self.max_cost_ns = max_cost_ns
        self.policy = policy
        self.bounded = max_items is not None or max_cost_ns is not None

    def fits(self, count: int, total_ns: int) -> bool:
        if self.max_items is not None and count > self.max_items:
            return False
        return self.max_cost_ns is None or total_ns <= self.max_cost_ns

    def add(self, item) -> list:
        if not self.bounded or self.fits(len(self.items) + 1,
                                         self.total_ns + item.cost_ns):
            self.items.append(item)
            self.total_ns += item.cost_ns
            return []
        if self.policy == "reject-new":
            return [item]
        self.items.append(item)
        self.total_ns += item.cost_ns
        shed = []
        while self.items and not self.fits(len(self.items), self.total_ns):
            if self.policy == "drop-oldest":
                victim = self.items[0]
            else:
                victim = min(self.items, key=_value_density)
            self.remove(victim)
            shed.append(victim)
        return shed

    def peek(self):
        return self.items[0] if self.items else None

    def choose_first_fitting(self, limit_ns: int):
        for item in self.items:
            if item.cost_ns <= limit_ns:
                return item
        return None

    def remove(self, item) -> None:
        self.items.remove(item)
        self.total_ns -= item.cost_ns

    def pop_first_fitting(self, limit_ns: int):
        item = self.choose_first_fitting(limit_ns)
        if item is not None:
            self.remove(item)
        return item


costs = st.integers(min_value=1, max_value=30)
values = st.one_of(st.none(), st.floats(min_value=0.0, max_value=50.0))
limits = st.integers(min_value=-5, max_value=40)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), costs, values),
        st.tuples(st.just("add"), costs, values),
        st.tuples(st.just("choose"), limits),
        st.tuples(st.just("pop"), limits),
        st.tuples(st.just("remove"), st.integers(min_value=0)),
        st.tuples(st.just("remove_absent"), costs),
    ),
    min_size=20,
    max_size=300,
)
bounds = st.one_of(
    st.just({}),
    st.builds(
        lambda items, cost, policy: {
            "max_items": items, "max_cost_ns": cost, "policy": policy,
        },
        st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
        st.one_of(st.none(), st.integers(min_value=1, max_value=400)),
        st.sampled_from(SHED_POLICIES),
    ),
)


def _same(a, b) -> None:
    assert a is b, (a, b)


@settings(max_examples=200, deadline=None)
@given(bound=bounds, ops=operations)
def test_indexed_queue_matches_linear_scan(bound, ops):
    queue = PendingQueue(**bound)
    oracle = LinearQueue(**bound)
    for op in ops:
        kind = op[0]
        if kind == "add":
            item = _Item(op[1], op[2])
            shed, expected = queue.add(item), oracle.add(item)
            assert len(shed) == len(expected)
            for got, want in zip(shed, expected):
                _same(got, want)
        elif kind == "choose":
            _same(queue.choose_first_fitting(op[1]),
                  oracle.choose_first_fitting(op[1]))
        elif kind == "pop":
            _same(queue.pop_first_fitting(op[1]),
                  oracle.pop_first_fitting(op[1]))
        elif kind == "remove":
            if oracle.items:
                victim = oracle.items[op[1] % len(oracle.items)]
                queue.remove(victim)
                oracle.remove(victim)
        else:
            with pytest.raises(ValueError):
                queue.remove(_Item(op[1], None))
        assert list(queue) == list(oracle.items)
        assert len(queue) == len(oracle.items)
        assert queue.empty == (not oracle.items)
        assert queue.total_cost_ns == oracle.total_ns
        _same(queue.peek(), oracle.peek())


def test_queued_item_cannot_be_added_twice():
    queue = PendingQueue()
    item = _Item(3, None)
    queue.add(item)
    with pytest.raises(ValueError):
        queue.add(item)


def test_compaction_keeps_fifo_order_across_growth():
    # hundreds of adds with interleaved picks: the index compacts and
    # grows several times while items stay queued across it
    queue = PendingQueue()
    oracle = LinearQueue()
    for round_ in range(6):
        for i in range(50):
            item = _Item(1 + (i * 7 + round_) % 11, None)
            queue.add(item)
            oracle.add(item)
        for limit in (3, 8, 1, 11, 5):
            _same(queue.pop_first_fitting(limit),
                  oracle.pop_first_fitting(limit))
        assert list(queue) == list(oracle.items)


# -- the Deferrable Server's chooseNextEvent ----------------------------------


def loop_choose(costs, now_ns, next_refill_ns, remaining, full, margin):
    """The pre-index DS pick, verbatim but over a list of costs: the
    index of the picked release and its budget, or ``None``."""
    time_to_refill = next_refill_ns - now_ns
    for index, declared in enumerate(costs):
        cost = declared + margin
        if now_ns + cost > next_refill_ns:
            if time_to_refill <= remaining and cost <= remaining + full:
                return index, remaining + full
            continue
        if cost <= remaining:
            return index, remaining
    return None


def _ds(full: int, margin: int) -> DeferrableTaskServer:
    params = TaskServerParameters(
        RelativeTime(0, full), RelativeTime(0, 4 * full), priority=30,
    )
    return DeferrableTaskServer(params,
                                safety_margin=RelativeTime(0, margin))


@settings(max_examples=500, deadline=None)
@given(
    costs=st.lists(st.integers(min_value=1, max_value=20), max_size=12),
    now=st.integers(min_value=0, max_value=60),
    to_refill=st.integers(min_value=-10, max_value=30),
    remaining=st.integers(min_value=0, max_value=20),
    full=st.integers(min_value=1, max_value=20),
    margin=st.integers(min_value=0, max_value=5),
    tie=st.sampled_from(("none", "cost", "remaining")),
)
def test_ds_closed_form_matches_loop(costs, now, to_refill, remaining, full,
                                     margin, tie):
    # pin the two boundaries: cost + margin == T and T == remaining
    if tie == "cost" and costs:
        to_refill = costs[len(costs) // 2] + margin
    elif tie == "remaining":
        to_refill = remaining
    server = _ds(full, margin)
    server.capacity_ns = remaining
    server.next_refill_ns = now + to_refill
    items = [_Item(c, None) for c in costs]
    for item in items:
        server._queue.add(item)
    expected = loop_choose(costs, now, now + to_refill, remaining, full,
                           margin)
    got = server._choose(now)
    if expected is None:
        assert got is None
        assert list(server._queue) == items
    else:
        index, budget = expected
        assert got is not None
        assert got[0] is items[index]
        assert got[1] == budget
        assert list(server._queue) == items[:index] + items[index + 1:]


@pytest.mark.parametrize("to_refill", [-3, 0, 4, 5, 6])
def test_ds_closed_form_at_the_refill_boundaries(to_refill):
    # costs 4 and 5 with margin 1 straddle time-to-refill 5 exactly
    for remaining in range(0, 12):
        costs = [9, 4, 3, 5]
        server = _ds(6, 1)
        server.capacity_ns = remaining
        server.next_refill_ns = 10 + to_refill
        items = [_Item(c, None) for c in costs]
        for item in items:
            server._queue.add(item)
        expected = loop_choose(costs, 10, 10 + to_refill, remaining, 6, 1)
        got = server._choose(10)
        if expected is None:
            assert got is None
        else:
            assert (got[0], got[1]) == (items[expected[0]], expected[1])
