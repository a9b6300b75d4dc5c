"""Pending-event queues for task servers.

Two structures from the paper:

* :class:`PendingQueue` — the simple FIFO list of Section 4.1, with the
  implementation's *cost-aware skip*: ``choose_first_fitting`` returns the
  first handler whose declared cost fits the remaining capacity, so a
  cheap later event can overtake an expensive earlier one (the behaviour
  the paper credits for the improved heterogeneous response times in
  Table 3).

* :class:`InstanceBucketQueue` — the Section 7 "list of lists": handlers
  are grouped into buckets, each bucket holding only what one server
  instance can serve, alongside a running cumulative cost per bucket.
  Registration returns the bucket index and the cumulative cost of the
  handlers ahead, which is exactly the ``(Ia, Cpa)`` pair of equation (5)
  — making the on-line response-time computation O(1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generic, Iterator, TypeVar

__all__ = [
    "CostedItem",
    "PendingQueue",
    "InstanceBucketQueue",
    "BucketPlacement",
    "SHED_POLICIES",
]

#: shedding policies accepted by bounded queues (see repro.overload)
SHED_POLICIES = ("reject-new", "drop-oldest", "drop-lowest-value")


class CostedItem:
    """Anything with an integer declared cost (duck-typed protocol)."""

    cost_ns: int


T = TypeVar("T", bound=CostedItem)


def _value_density(item) -> float:
    """D-OVER-style value density: value per unit of declared cost.

    The value is looked up on the item itself, then on its ``job``
    record; an item without a value is worth its declared cost (density
    1.0), so heterogeneous values are honoured when present and the
    policy degrades to cost-agnostic FIFO shedding when absent.
    """
    value = getattr(item, "value", None)
    if value is None:
        job = getattr(item, "job", None)
        value = getattr(job, "value", None) if job is not None else None
    cost = max(item.cost_ns, 1)
    return (value if value is not None else cost) / cost


class _QueueBoundNs:
    """A size/total-cost bound in the queue's own nanosecond domain."""

    __slots__ = ("max_items", "max_cost_ns", "policy")

    def __init__(self, max_items: int | None, max_cost_ns: int | None,
                 policy: str) -> None:
        if max_items is not None and max_items < 1:
            raise ValueError(f"max_items must be >= 1, got {max_items}")
        if max_cost_ns is not None and max_cost_ns <= 0:
            raise ValueError(f"max_cost_ns must be > 0, got {max_cost_ns}")
        if policy not in SHED_POLICIES:
            raise ValueError(
                f"policy must be one of {SHED_POLICIES}, got {policy!r}"
            )
        self.max_items = max_items
        self.max_cost_ns = max_cost_ns
        self.policy = policy

    def fits(self, count: int, total_ns: int) -> bool:
        if self.max_items is not None and count > self.max_items:
            return False
        if self.max_cost_ns is not None and total_ns > self.max_cost_ns:
            return False
        return True


#: leaf value of a free or tombstoned slot: fits no limit
_VACANT = float("inf")
#: smallest slot capacity of the index (a power of two)
_MIN_SLOTS = 16


class PendingQueue(Generic[T]):
    """FIFO queue with cost-aware first-fit selection.

    Optionally *bounded* (``max_items`` and/or ``max_cost_ns`` with a
    shedding ``policy`` from :data:`SHED_POLICIES`): :meth:`add` then
    returns the list of items it shed to respect the bound — possibly
    the new item itself — instead of growing without limit.  Unbounded
    (the default), :meth:`add` always accepts and returns ``[]``.

    Items are kept in insertion *slots*: ``_items[s]`` is the item in
    slot ``s``, or ``None`` once it has been removed (a tombstone), so
    slot order is FIFO order.  A min-cost segment tree over the slots
    answers :meth:`choose_first_fitting` by one root-to-leaf descent,
    O(log n); :meth:`remove` tombstones a slot in O(log n); :meth:`add`
    fills the next slot in O(log n) and, when the slots run out,
    compacts the live items into a fresh index sized to twice their
    count (amortised O(1) per add).  Items are tracked by identity: an
    item may be queued at most once at a time.
    """

    def __init__(
        self,
        max_items: int | None = None,
        max_cost_ns: int | None = None,
        policy: str = "reject-new",
    ) -> None:
        #: slot -> item, ``None`` for a tombstone; append-only between
        #: compactions
        self._items: list[T | None] = []
        #: id(item) -> slot, for the live items
        self._slot_of: dict[int, int] = {}
        #: first slot that may still be live (peek's lazy cursor)
        self._head = 0
        self._slots = _MIN_SLOTS
        #: min-cost segment tree: node ``i`` has children ``2i``/``2i+1``,
        #: slot ``s`` is leaf ``_slots + s``
        self._tree: list[float] = [_VACANT] * (2 * _MIN_SLOTS)
        self._total_ns = 0
        self._bound = (
            _QueueBoundNs(max_items, max_cost_ns, policy)
            if max_items is not None or max_cost_ns is not None
            else None
        )

    def __len__(self) -> int:
        return len(self._slot_of)

    def __iter__(self) -> Iterator[T]:
        return (item for item in self._items if item is not None)

    @property
    def empty(self) -> bool:
        return not self._slot_of

    @property
    def total_cost_ns(self) -> int:
        """Sum of the queued items' declared costs."""
        return self._total_ns

    def _append(self, item: T) -> None:
        """Put ``item`` in the next free slot."""
        key = id(item)
        if key in self._slot_of:
            raise ValueError("item already queued")
        if len(self._items) == self._slots:
            self._compact()
        slot = len(self._items)
        self._items.append(item)
        self._slot_of[key] = slot
        cost = item.cost_ns
        self._total_ns += cost
        # a new leaf can only lower its ancestors' minima
        tree = self._tree
        node = self._slots + slot
        while node and tree[node] > cost:
            tree[node] = cost
            node >>= 1

    def _compact(self) -> None:
        """Re-slot the live items from 0, in FIFO order, into an index
        with room for as many again."""
        live = [item for item in self._items if item is not None]
        slots = _MIN_SLOTS
        while slots < 2 * len(live):
            slots *= 2
        tree = [_VACANT] * (2 * slots)
        tree[slots:slots + len(live)] = [item.cost_ns for item in live]
        for node in range(slots - 1, 0, -1):
            left, right = tree[2 * node], tree[2 * node + 1]
            tree[node] = left if left < right else right
        self._items = live
        self._slot_of = {id(item): slot for slot, item in enumerate(live)}
        self._head = 0
        self._slots = slots
        self._tree = tree

    def add(self, item: T) -> list[T]:
        """Append in release order; returns the items shed (if bounded).

        Unbounded queues always accept and return ``[]``.  A bounded
        queue sheds per its policy until the bound holds again:
        ``reject-new`` sheds the incoming item itself, ``drop-oldest``
        sheds from the head, ``drop-lowest-value`` sheds the item with
        the lowest value density (ties: oldest first), which may be the
        incoming one.
        """
        bound = self._bound
        if bound is None or bound.fits(
            len(self._slot_of) + 1, self._total_ns + item.cost_ns
        ):
            self._append(item)
            return []
        if bound.policy == "reject-new":
            return [item]
        self._append(item)
        shed: list[T] = []
        while self._slot_of and not bound.fits(
            len(self._slot_of), self._total_ns
        ):
            if bound.policy == "drop-oldest":
                victim = self.peek()
            else:  # drop-lowest-value
                victim = min(self, key=_value_density)
            self.remove(victim)
            shed.append(victim)
        return shed

    def peek(self) -> T | None:
        """The head item (strict FIFO view), or ``None``."""
        if not self._slot_of:
            return None
        items, head = self._items, self._head
        while items[head] is None:
            head += 1
        self._head = head
        return items[head]

    def choose_first_fitting(self, limit_ns: int) -> T | None:
        """First item with ``cost_ns <= limit_ns``, without removing it.

        This implements the paper's ``chooseNextEvent()``: "the first
        handler in the list which has a cost lower than the remaining
        capacity", which deliberately lets later cheap events overtake
        earlier expensive ones.  The descent keeps left of every subtree
        whose minimum fits, so it lands on the leftmost fitting slot.
        """
        tree = self._tree
        if tree[1] > limit_ns:
            return None
        slots = self._slots
        node = 1
        while node < slots:
            node <<= 1
            if tree[node] > limit_ns:
                node += 1
        return self._items[node - slots]

    def remove(self, item: T) -> None:
        """Remove a specific item (raises ``ValueError`` if absent)."""
        slot = self._slot_of.pop(id(item), None)
        if slot is None:
            raise ValueError("item not queued")
        self._items[slot] = None
        self._total_ns -= item.cost_ns
        tree = self._tree
        node = self._slots + slot
        tree[node] = _VACANT
        node >>= 1
        while node:
            left, right = tree[2 * node], tree[2 * node + 1]
            low = left if left < right else right
            if tree[node] == low:
                break  # unchanged here, so unchanged above
            tree[node] = low
            node >>= 1

    def pop_first_fitting(self, limit_ns: int) -> T | None:
        """Remove and return the first fitting item."""
        item = self.choose_first_fitting(limit_ns)
        if item is not None:
            self.remove(item)
        return item


@dataclass(frozen=True)
class BucketPlacement:
    """Where a handler landed in an :class:`InstanceBucketQueue`.

    ``instance_offset`` counts buckets from the one currently being
    served (0 = current/next instance); ``cumulative_before_ns`` is the
    total declared cost of handlers ahead of it in the same bucket —
    the ``Ia`` and ``Cpa`` of the paper's equation (5).
    """

    instance_offset: int
    cumulative_before_ns: int


@dataclass
class _Bucket(Generic[T]):
    items: deque[T] = field(default_factory=deque)
    #: declared cost of the items currently queued (falls as items pop)
    total_ns: int = 0
    #: declared cost ever packed into this bucket (never decremented):
    #: the instance's committed service time, which is what packing and
    #: the (Ia, Cpa) placement must count — an item popped for service
    #: still consumes its share of the instance
    claimed_ns: int = 0


class InstanceBucketQueue(Generic[T]):
    """The Section 7 list-of-lists structure.

    Handlers are packed first-fit-in-last-bucket: a handler opens a new
    bucket whenever adding it would push the current last bucket past the
    server capacity.  Service consumes strictly in bucket order, which is
    the price of predictability: unlike :class:`PendingQueue` there is no
    cost-aware overtaking, so the (Ia, Cpa) placement computed at
    registration time stays valid.
    """

    def __init__(
        self,
        capacity_ns: int,
        max_items: int | None = None,
        max_cost_ns: int | None = None,
        policy: str = "reject-new",
    ) -> None:
        if capacity_ns <= 0:
            raise ValueError(f"capacity_ns must be > 0, got {capacity_ns}")
        self.capacity_ns = capacity_ns
        self._buckets: deque[_Bucket[T]] = deque()
        #: index (in absolute served-instance count) of the head bucket
        self._head_instance = 0
        #: queued (not yet popped or shed) items across all buckets
        self._count = 0
        self._total_ns = 0
        self._bound = (
            _QueueBoundNs(max_items, max_cost_ns, policy)
            if max_items is not None or max_cost_ns is not None
            else None
        )

    def __len__(self) -> int:
        return self._count

    @property
    def total_cost_ns(self) -> int:
        """Sum of the queued (not yet popped) items' declared costs."""
        return self._total_ns

    @property
    def empty(self) -> bool:
        return not self._buckets

    @property
    def bucket_count(self) -> int:
        return len(self._buckets)

    @property
    def head_instance(self) -> int:
        """Absolute index of the head bucket (count of buckets fully
        served so far); identifies "which instance's worth of work" is
        at the front of the queue."""
        return self._head_instance

    def add(self, item: T) -> BucketPlacement:
        """Register a handler; O(1); returns its (Ia, Cpa) placement.

        Raises ``ValueError`` when the item alone exceeds the server
        capacity (it could never be served; the paper requires handler
        costs at most the capacity).
        """
        if item.cost_ns > self.capacity_ns:
            raise ValueError(
                f"handler cost {item.cost_ns} exceeds server capacity "
                f"{self.capacity_ns}"
            )
        if (
            not self._buckets
            or self._buckets[-1].claimed_ns + item.cost_ns > self.capacity_ns
        ):
            self._buckets.append(_Bucket())
        bucket = self._buckets[-1]
        placement = BucketPlacement(
            instance_offset=len(self._buckets) - 1,
            cumulative_before_ns=bucket.claimed_ns,
        )
        bucket.items.append(item)
        bucket.total_ns += item.cost_ns
        bucket.claimed_ns += item.cost_ns
        self._count += 1
        self._total_ns += item.cost_ns
        return placement

    def offer(self, item: T) -> tuple[BucketPlacement | None, list[T]]:
        """Bound-aware :meth:`add`: ``(placement, shed_items)``.

        Unlike :meth:`add`, an oversized item does not raise — it is
        returned in the shed list with a ``None`` placement, so servers
        can surface the rejection as a recorded decision instead of a
        crash.  When a bound is configured and full, items are shed per
        the policy; the incoming item itself may be shed (``reject-new``,
        or ``drop-lowest-value`` when it has the lowest density), in
        which case it appears in the shed list and callers must treat
        the returned placement (if any) as void.

        Shedding an already-placed item removes it *in place*: the
        bucket keeps its ``claimed_ns``, so placements handed to other
        handlers remain valid upper bounds.
        """
        if item.cost_ns > self.capacity_ns:
            return None, [item]
        bound = self._bound
        if bound is None or bound.fits(
            self._count + 1, self._total_ns + item.cost_ns
        ):
            return self.add(item), []
        if bound.policy == "reject-new":
            return None, [item]
        placement = self.add(item)
        shed: list[T] = []
        while self._buckets and not bound.fits(self._count, self._total_ns):
            if bound.policy == "drop-oldest":
                victim = self.pop_current()
            else:  # drop-lowest-value
                victim = min(
                    (i for b in self._buckets for i in b.items),
                    key=_value_density,
                )
                self._shed_in_place(victim)
            shed.append(victim)
        if item in shed:
            placement = None
        return placement, shed

    def _shed_in_place(self, item: T) -> None:
        """Remove a queued item, preserving its bucket's claim."""
        for bucket in self._buckets:
            if item in bucket.items:
                bucket.items.remove(item)
                bucket.total_ns -= item.cost_ns
                self._count -= 1
                self._total_ns -= item.cost_ns
                self._prune_head()
                return
        raise ValueError("item not queued")

    def _prune_head(self) -> None:
        """Drop empty head buckets, drained by service or emptied by
        shedding (a shed bucket's leftover claim would otherwise stall
        ``peek_current``; serving the next bucket early only improves on
        its placement's upper bound)."""
        while self._buckets and not self._buckets[0].items:
            self._buckets.popleft()
            self._head_instance += 1

    def peek_current(self) -> T | None:
        """Next handler in strict bucket order, or ``None``."""
        return self._buckets[0].items[0] if self._buckets else None

    def pop_current(self) -> T:
        """Remove and return the next handler; advances to the following
        bucket when the current one empties."""
        if not self._buckets:
            raise IndexError("pop from an empty InstanceBucketQueue")
        bucket = self._buckets[0]
        item = bucket.items.popleft()
        bucket.total_ns -= item.cost_ns
        self._count -= 1
        self._total_ns -= item.cost_ns
        # also skips buckets behind it that shedding already emptied
        self._prune_head()
        return item

    def advance_instance(self) -> None:
        """Mark the start of a new server instance: the head bucket closes
        even if some of it was not served (its leftovers merge into the
        next bucket's front)."""
        if not self._buckets:
            self._head_instance += 1
            return
        head = self._buckets[0]
        if head.items:
            return  # unfinished bucket keeps its claim on the new instance
        self._buckets.popleft()
        self._head_instance += 1

    def head_bucket_items(self) -> list[T]:
        """Handlers of the bucket currently claiming the next instance."""
        return list(self._buckets[0].items) if self._buckets else []
