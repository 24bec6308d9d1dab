"""Single-producer single-consumer ring buffer.

The paper's queues are lockless because each is shared between exactly one
producer and one consumer (§3, "Scalable Lockless Queues").  We model that
discipline explicitly: a ring is *claimed* by one producer identity and one
consumer identity, and any second party touching the same end is a bug the
simulation surfaces immediately rather than a silent race.

Storage follows occupancy, not capacity: items live in one
``collections.deque`` bounded by an explicit length check against
``capacity`` (never ``maxlen``, which would drop items silently).  An
idle ring costs one empty deque however large its logical capacity.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Any, List, Optional

from repro.errors import ResourceError, RingEmptyError, RingFullError


class SpscRing:
    """Bounded FIFO with single-producer / single-consumer enforcement."""

    def __init__(self, capacity: int, name: str = "ring"):
        if capacity < 1:
            raise ResourceError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        #: Queued items, oldest at the left; ``len`` is the depth.
        self._items: deque = deque()
        self._producer: Optional[object] = None
        self._consumer: Optional[object] = None
        # Lifetime statistics.
        self.produced = 0
        self.consumed = 0
        self.full_rejections = 0
        self.peak_depth = 0
        #: Windowed occupancy high-watermark: like ``peak_depth`` but
        #: resettable via :meth:`take_hwm`, so the overload detector can
        #: sample per-interval peaks instead of a lifetime maximum.
        self.hwm_depth = 0
        #: Drains that built a fresh list (``pop_batch``).  The switching
        #: loop drains through ``drain_into`` instead, which reuses a
        #: caller-owned scratch list; perf smoke asserts this counter stays
        #: flat across steady-state switching.
        self.list_allocs = 0

    # -- ownership -----------------------------------------------------------

    def claim_producer(self, owner: object) -> None:
        """Bind the producing end to ``owner``; rebinding is an error."""
        if self._producer is not None and self._producer is not owner:
            raise ResourceError(
                f"{self.name}: second producer {owner!r} (already "
                f"{self._producer!r}) — SPSC discipline violated"
            )
        self._producer = owner

    def claim_consumer(self, owner: object) -> None:
        """Bind the consuming end to ``owner``; rebinding is an error."""
        if self._consumer is not None and self._consumer is not owner:
            raise ResourceError(
                f"{self.name}: second consumer {owner!r} (already "
                f"{self._consumer!r}) — SPSC discipline violated"
            )
        self._consumer = owner

    # Ownership checks are inlined at each call site as
    # ``if owner is not None and self._producer is not owner:`` — the
    # steady-state claim (same owner every call) costs one identity
    # compare and no function call, which matters at switching rates.

    # -- state ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items

    @property
    def full(self) -> bool:
        return len(self._items) == self.capacity

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._items)

    # -- produce ---------------------------------------------------------------

    def _note_full(self) -> None:
        """The single full-rejection accounting point.

        Both push paths (``try_push`` and ``push_batch``) funnel through
        here, so rejection semantics — one rejection per refused push or
        per overflowing batch — live in exactly one place.
        """
        self.full_rejections += 1

    def _note_depth(self, depth: int) -> None:
        """Record a post-push depth against both high-watermarks."""
        if depth > self.peak_depth:
            self.peak_depth = depth
        if depth > self.hwm_depth:
            self.hwm_depth = depth

    def take_hwm(self) -> int:
        """Return the windowed occupancy high-watermark and restart the
        window at the current depth (the overload detector's sampler)."""
        hwm = self.hwm_depth
        self.hwm_depth = len(self._items)
        return hwm

    def try_push(self, item: Any, owner: Optional[object] = None) -> bool:
        """Push one item; returns False (and counts a rejection) if full."""
        if owner is not None and self._producer is not owner:
            self.claim_producer(owner)
        queued = self._items
        depth = len(queued)
        if depth == self.capacity:
            self._note_full()
            return False
        queued.append(item)
        self.produced += 1
        self._note_depth(depth + 1)
        return True

    def push(self, item: Any, owner: Optional[object] = None) -> None:
        """Push one item; raises :class:`RingFullError` if full."""
        if not self.try_push(item, owner):
            raise RingFullError(f"{self.name} is full ({self.capacity})")

    def push_batch(self, items, owner: Optional[object] = None,
                   count: Optional[int] = None) -> int:
        """Push as many of ``items`` as fit; returns how many were pushed.

        One ownership check covers the whole batch — the producer cannot
        change mid-call under the SPSC discipline.

        ``count`` pushes only ``items[:count]`` without materializing the
        slice: pass a reusable scratch list plus the valid-prefix length
        (the batched producer fast path).  A ``count`` beyond
        ``len(items)`` is a caller bug and raises :class:`ResourceError`
        before anything is pushed.
        """
        if owner is not None and self._producer is not owner:
            self.claim_producer(owner)
        n = len(items)
        if count is not None:
            if count > n:
                raise ResourceError(
                    f"{self.name}: push_batch count {count} exceeds "
                    f"{n} items")
            n = count
        queued = self._items
        free = self.capacity - len(queued)
        if n > free:
            # One rejection per overflowing batch, as a one-at-a-time
            # push loop would count only its first refused element.
            self._note_full()
            n = free
        if n <= 0:
            return 0
        queued.extend(items if n == len(items) else islice(items, n))
        self.produced += n
        self._note_depth(len(queued))
        return n

    # -- consume -----------------------------------------------------------------

    def try_pop(self, owner: Optional[object] = None) -> Any:
        """Pop the oldest item, or return None when empty."""
        if owner is not None and self._consumer is not owner:
            self.claim_consumer(owner)
        if not self._items:
            return None
        self.consumed += 1
        return self._items.popleft()

    def pop(self, owner: Optional[object] = None) -> Any:
        """Pop the oldest item; raises :class:`RingEmptyError` when empty.

        A single emptiness/ownership check: ``try_pop`` does the work and
        ``None`` (never a valid queued element) signals empty.
        """
        item = self.try_pop(owner)
        if item is None:
            raise RingEmptyError(f"{self.name} is empty")
        return item

    def pop_batch(self, max_items: int, owner: Optional[object] = None) -> List[Any]:
        """Pop up to ``max_items`` items (the paper's batched consumption).

        One ownership check covers the whole batch — the consumer cannot
        change mid-call under the SPSC discipline.  Builds a fresh list per
        call (counted in ``list_allocs``); steady-state consumers should
        prefer :meth:`drain_into`.
        """
        if owner is not None and self._consumer is not owner:
            self.claim_consumer(owner)
        if max_items < 0:
            raise ResourceError(f"negative batch: {max_items}")
        queued = self._items
        if not queued or max_items == 0:
            return []
        self.list_allocs += 1
        take = min(max_items, len(queued))
        popleft = queued.popleft
        self.consumed += take
        return [popleft() for _ in range(take)]

    def drain_into(self, buf: List[Any], max_items: int,
                   owner: Optional[object] = None, start: int = 0) -> int:
        """Pop up to ``max_items`` items into ``buf[start:]``; returns the count.

        The allocation-free drain: the caller owns ``buf`` (a reusable
        scratch list) and reads back exactly ``start + n`` valid slots.
        ``buf`` is grown once if too short and never shrunk, so a steady
        state consumer performs zero list allocations per pass.
        """
        if owner is not None and self._consumer is not owner:
            self.claim_consumer(owner)
        if max_items < 0:
            raise ResourceError(f"negative batch: {max_items}")
        queued = self._items
        if not queued:
            return 0
        take = len(queued)
        if max_items < take:
            take = max_items
        if take == 0:
            return 0
        need = start + take
        if len(buf) < need:
            buf.extend([None] * (need - len(buf)))
        if take == 1:
            buf[start] = queued.popleft()
        else:
            popleft = queued.popleft
            for i in range(start, need):
                buf[i] = popleft()
        self.consumed += take
        return take

    def peek(self, owner: Optional[object] = None) -> Any:
        """The oldest item without consuming it, or None when empty."""
        if owner is not None and self._consumer is not owner:
            self.claim_consumer(owner)
        return self._items[0] if self._items else None

    def snapshot(self) -> List[Any]:
        """All queued items, oldest first, without consuming anything.

        Inspection only (migration quiescence checks, tests): bypasses the
        ownership discipline because it consumes nothing.
        """
        return list(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SpscRing {self.name} {len(self._items)}/{self.capacity}>"
