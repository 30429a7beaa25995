"""Delay-line storage on the optical ring's cache channels.

Physics (Section 2 of the paper): data sent onto a fiber loop circulates
with a fixed round-trip time and remains there until overwritten —
``capacity = num_channels * fiber_length * rate / speed_of_light``.
Table 1 gives a 52 usec round trip and 1.25 GB/s per channel, i.e.
~64 KB (16 pages) of storage per channel.

We model each channel as a set of page *slots*.  A page inserted at time
``t`` has phase ``t mod round_trip``; a reader must wait for the page's
leading edge to pass by — ``(phase - now) mod round_trip`` — and then
stream it off at the channel rate.  This makes read latency exact and
deterministic rather than a sampled mean.

Each channel is written only by its owner node (no arbitration, per the
paper's hardware-cost discussion) but can be read by any NWCache
interface.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.config import SimConfig
from repro.sim import Counter, Engine
from repro.sim.events import Event


class CacheChannel:
    """One WDM cache channel: delay-line page storage for one owner node."""

    def __init__(
        self,
        engine: Engine,
        cfg: SimConfig,
        owner: int,
        index: Optional[int] = None,
        ring: Optional["OpticalRing"] = None,
    ) -> None:
        self.engine = engine
        self.cfg = cfg
        self.owner = owner
        #: the ring whose occupancy high-water mark this channel feeds
        self.ring = ring
        #: global channel number on the ring (= owner when one per node)
        self.index = owner if index is None else index
        self.capacity = cfg.ring_slots_per_channel
        self._pages: Dict[int, float] = {}  # page -> insertion phase
        self._slot_waiters: Deque[Event] = deque()
        self._reserved = 0  # slots claimed by in-progress insertions
        #: latched true when the fault layer fails this channel for good
        self.failed = False
        #: transient drop: the channel is dark until this time
        self._down_until = 0.0
        self.stats = Counter()

    # -- capacity ------------------------------------------------------------
    @property
    def n_stored(self) -> int:
        """Pages currently circulating on the channel."""
        return len(self._pages)

    def has_room(self) -> bool:
        """True when an insertion can be started right now."""
        return self.n_stored + self._reserved < self.capacity

    def reserve_slot(self) -> Event:
        """Claim a slot for an insertion; fires when one is available.

        Swap-outs must reserve before transferring the page to the ring
        so two concurrent swap-outs cannot overcommit the channel.
        """
        ev = self.engine.event()
        if self.has_room():
            self._reserved += 1
            ev.succeed()
        else:
            self._slot_waiters.append(ev)
            self.stats.add("full_waits")
        return ev

    def cancel_reservation(self, ev: Event) -> bool:
        """Abandon a reservation (swap-out cancelled by a page reclaim).

        Works whether the reservation is still queued or already granted;
        a granted slot is handed to the next waiter.
        """
        try:
            self._slot_waiters.remove(ev)
            return True
        except ValueError:
            pass
        if ev.triggered:
            self.release_reservation()
            return True
        return False

    def release_reservation(self) -> None:
        """Return a granted-but-unused slot reservation."""
        if self._reserved < 1:
            raise RuntimeError(f"channel {self.owner}: no reservation to release")
        self._reserved -= 1
        if self._slot_waiters and self.has_room():
            self._reserved += 1
            self._slot_waiters.popleft().succeed()

    # -- faults ------------------------------------------------------------
    def available(self) -> bool:
        """True when the channel can accept swap-outs right now."""
        return not self.failed and self.engine.now >= self._down_until

    def fail(self) -> None:
        """Permanently fail the channel (fault injection).

        Queued slot waiters are woken with the ``"channel-failed"``
        marker so their swap-outs can degrade to the standard path; they
        hold no reservation, so nothing is released.  Circulating pages
        are swept separately by the injector.
        """
        self.failed = True
        self.stats.add("failures")
        self._void_waiters()

    def drop_until(self, t: float) -> None:
        """Transient drop: the channel is dark until time ``t``."""
        if t > self._down_until:
            self._down_until = t
        self.stats.add("drops")
        self._void_waiters()

    def _void_waiters(self) -> None:
        while self._slot_waiters:
            self._slot_waiters.popleft().succeed("channel-failed")

    # -- storage ------------------------------------------------------------
    def insert(self, page: int) -> None:
        """Commit a reserved insertion: the page starts circulating now."""
        if self._reserved < 1:
            raise RuntimeError(f"channel {self.owner}: insert without reservation")
        if page in self._pages:
            raise RuntimeError(f"channel {self.owner}: page {page} already stored")
        if self.n_stored >= self.capacity:
            raise RuntimeError(f"channel {self.owner}: over capacity")
        self._reserved -= 1
        self._pages[page] = self.engine.now % self.round_trip
        self.stats.add("insertions")
        ring = self.ring
        if ring is not None:
            ring._stored += 1
            if ring._stored > ring.stored_peak:
                ring.stored_peak = ring._stored

    def contains(self, page: int) -> bool:
        """True if ``page`` is circulating on this channel."""
        return page in self._pages

    def remove(self, page: int) -> None:
        """Free the page's slot (ACK received / victim read completed)."""
        if page not in self._pages:
            raise KeyError(f"channel {self.owner}: page {page} not stored")
        del self._pages[page]
        self.stats.add("removals")
        if self.ring is not None:
            self.ring._stored -= 1
        if self._slot_waiters and self.has_room():
            self._reserved += 1
            self._slot_waiters.popleft().succeed()

    # -- timing ----------------------------------------------------------------
    @property
    def round_trip(self) -> float:
        """Ring round-trip latency, pcycles."""
        return self.cfg.ring_round_trip_pcycles

    def insertion_time(self) -> float:
        """Serialization time to put one page on the channel."""
        return self.cfg.page_size / self.cfg.ring_rate

    def read_delay(self, page: int) -> float:
        """Wait for the page to come around, plus streaming it off."""
        phase = self._pages.get(page)
        if phase is None:
            raise KeyError(f"channel {self.owner}: page {page} not stored")
        alignment = (phase - self.engine.now) % self.round_trip
        return alignment + self.insertion_time()

    def pages(self) -> List[int]:
        """Snapshot of stored page ids (tests/inspection)."""
        return list(self._pages)


class OpticalRing:
    """All cache channels of the NWCache.

    With ``ring_channels == n_nodes`` (the paper's configuration) each
    node owns exactly one channel.  The OTDM future-work configuration
    (Section 4: "OTDM ... will potentially support 5000 channels") is
    supported by setting ``ring_channels`` to a multiple of ``n_nodes``:
    node ``n`` then owns the contiguous group of
    ``ring_channels / n_nodes`` channels starting at ``n * k``.
    """

    def __init__(self, engine: Engine, cfg: SimConfig) -> None:
        if cfg.ring_channels % cfg.n_nodes != 0:
            raise ValueError(
                f"ring_channels ({cfg.ring_channels}) must be a multiple of "
                f"n_nodes ({cfg.n_nodes})"
            )
        self.engine = engine
        self.cfg = cfg
        self.per_node = cfg.ring_channels // cfg.n_nodes
        #: pages stored across all channels, kept by the channels'
        #: insert/remove so the high-water mark costs O(1) per insertion
        self._stored = 0
        #: most pages ever stored on the ring at once
        self.stored_peak = 0
        self.channels: List[CacheChannel] = [
            CacheChannel(
                engine, cfg, owner=i // self.per_node, index=i, ring=self
            )
            for i in range(cfg.ring_channels)
        ]
        #: set by the fault injector when any optical fault mode is
        #: active; gates the availability filter off the fault-free path
        self._faulty = False

    def channels_of(self, node: int) -> List[CacheChannel]:
        """All cache channels written by ``node``."""
        lo = node * self.per_node
        return self.channels[lo : lo + self.per_node]

    def channel_of(self, node: int) -> CacheChannel:
        """The first cache channel owned (written) by ``node``."""
        return self.channels[node * self.per_node]

    def best_channel(self, node: int) -> Optional[CacheChannel]:
        """The owned channel with the most free slots (swap-out target).

        Returns None when every channel the node owns is failed or
        dropped — the caller degrades to the standard swap-out path.
        """
        channels = self.channels_of(node)
        if self._faulty:
            channels = [ch for ch in channels if ch.available()]
            if not channels:
                return None
        return min(
            channels,
            key=lambda ch: (ch.n_stored + ch._reserved, ch.index),
        )

    @property
    def total_stored(self) -> int:
        """Pages currently stored on the whole ring."""
        return sum(ch.n_stored for ch in self.channels)

    def find(self, page: int) -> Optional[CacheChannel]:
        """The channel storing ``page``, if any (test helper; the VM
        tracks the channel in the page-table entry instead of searching)."""
        for ch in self.channels:
            if ch.contains(page):
                return ch
        return None
