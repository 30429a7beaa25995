"""The engine's event calendar: one heap, one total order.

Events reach the engine's future-event list from three push sites —
:meth:`Engine._schedule`, and the inlined pushes in :class:`Timeout`
and :meth:`Event.succeed` — and the engine pops them straight off the
binary heap.  Whatever the mix of sites, the dispatch order must be the
total order ``(time, priority, insertion order)``: that order is what
makes every run reproducible bit for bit.
"""

import heapq
import random

import pytest

from repro.sim import Engine
from repro.sim.engine import NORMAL, URGENT


def _push(eng, rng, delay):
    """Queue one event through a randomly chosen push site; return it
    with its ``(time, priority)``."""
    site = rng.randrange(3)
    if site == 0:
        return eng.timeout(delay), (eng.now + delay, NORMAL)
    ev = eng.event()
    if site == 1:
        ev.succeed()
        return ev, (eng.now, NORMAL)
    ev._value = None  # triggered by hand, queued ahead of NORMAL peers
    eng._schedule(ev, delay, URGENT)
    return ev, (eng.now + delay, URGENT)


# ------------------------------------------------------------ order fidelity
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 10, 1000])
def test_pop_order_matches_heap(seed, n):
    rng = random.Random(seed)
    eng = Engine()
    keys, dispatched = [], []
    for seq in range(n):
        # few distinct times, so the priority and insertion-order
        # tie-breaks decide most of the order
        ev, (when, prio) = _push(eng, rng, float(rng.randrange(n // 4 + 1)))
        key = (when, prio, seq)
        keys.append(key)
        ev.callbacks.append(lambda e, key=key: dispatched.append(key))
    heapq.heapify(keys)
    expect = [heapq.heappop(keys) for _ in range(n)]
    eng.run()
    assert dispatched == expect
    assert eng.events_processed == n


def test_interleaved_push_pop_matches_heap():
    """Callbacks queue new events mid-run; every dispatch must be the
    smallest key among the events queued at that moment."""
    rng = random.Random(42)
    eng = Engine()
    ref = []
    seq = 0
    budget = 5000

    def push():
        nonlocal seq, budget
        ev, (when, prio) = _push(eng, rng, rng.uniform(0.0, 50.0))
        key = (when, prio, seq)
        seq += 1
        budget -= 1
        heapq.heappush(ref, key)
        ev.callbacks.append(lambda e: on_dispatch(key))

    def on_dispatch(key):
        assert heapq.heappop(ref) == key
        assert eng.now == key[0]
        for _ in range(rng.randrange(3) if budget > 0 else 0):
            push()

    for _ in range(50):
        push()
    eng.run()
    assert not ref
    assert eng.events_processed == seq > 4000


def test_simultaneous_items_pop_in_eid_order():
    """At one instant URGENT events go first, then NORMAL ones, each in
    the order they were queued."""
    eng = Engine()
    log = []
    for tag, prio in enumerate([NORMAL, URGENT, NORMAL, URGENT, NORMAL]):
        ev = eng.event()
        ev._value = tag
        ev.callbacks.append(lambda e: log.append(e.value))
        eng._schedule(ev, 7.0, prio)
    eng.run()
    assert log == [1, 3, 0, 2, 4]
    assert eng.now == 7.0
