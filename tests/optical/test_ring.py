"""Tests for the delay-line cache channels."""

import pytest

from repro.apps import make_app
from repro.config import SimConfig
from repro.core.machine import Machine
from repro.core.runner import experiment_config, linear_scale
from repro.optical.ring import CacheChannel, OpticalRing
from repro.sim import Engine


@pytest.fixture
def cfg():
    return SimConfig.paper()  # 16 slots per channel, 52us round trip


def make_channel(cfg):
    eng = Engine()
    return eng, CacheChannel(eng, cfg, owner=0)


def test_table1_capacity(cfg):
    assert cfg.ring_slots_per_channel == 16
    assert cfg.ring_capacity_bytes == 512 * 1024
    # round trip at 1.25 GB/s stores ~64KB per channel (Section 2 formula)
    physical = cfg.ring_rate * cfg.ring_round_trip_pcycles
    assert physical == pytest.approx(cfg.ring_channel_bytes, rel=0.02)


def test_reserve_insert_remove(cfg):
    eng, ch = make_channel(cfg)

    def go():
        yield ch.reserve_slot()
        ch.insert(42)
        assert ch.contains(42)
        assert ch.n_stored == 1
        ch.remove(42)
        assert ch.n_stored == 0

    eng.process(go())
    eng.run()


def test_insert_without_reservation_raises(cfg):
    _, ch = make_channel(cfg)
    with pytest.raises(RuntimeError):
        ch.insert(1)


def test_double_insert_raises(cfg):
    eng, ch = make_channel(cfg)

    def go():
        yield ch.reserve_slot()
        ch.insert(1)
        yield ch.reserve_slot()
        ch.insert(1)

    eng.process(go())
    with pytest.raises(RuntimeError):
        eng.run()


def test_remove_absent_raises(cfg):
    _, ch = make_channel(cfg)
    with pytest.raises(KeyError):
        ch.remove(9)


def test_reservation_blocks_at_capacity(cfg):
    eng, ch = make_channel(cfg)
    granted = []

    def filler():
        for p in range(cfg.ring_slots_per_channel):
            yield ch.reserve_slot()
            ch.insert(p)
        assert not ch.has_room()
        ev = ch.reserve_slot()  # must block
        yield eng.timeout(100)
        ch.remove(0)            # frees a slot -> reservation granted
        yield ev
        granted.append(eng.now)
        ch.insert(999)

    eng.process(filler())
    eng.run()
    assert granted == [100.0]
    assert ch.stats["full_waits"] == 1


def test_read_delay_is_phase_aligned(cfg):
    eng, ch = make_channel(cfg)
    rt = cfg.ring_round_trip_pcycles
    xfer = ch.insertion_time()
    delays = []

    def go():
        yield ch.reserve_slot()
        ch.insert(7)  # phase = 0
        delays.append(ch.read_delay(7))          # immediate: just transfer
        yield eng.timeout(rt / 2)
        delays.append(ch.read_delay(7))          # half a trip away
        yield eng.timeout(rt / 2)
        delays.append(ch.read_delay(7))          # full trip: aligned again

    eng.process(go())
    eng.run()
    assert delays[0] == pytest.approx(xfer)
    assert delays[1] == pytest.approx(rt / 2 + xfer)
    assert delays[2] == pytest.approx(xfer)


def test_read_delay_bounded_by_round_trip(cfg):
    eng, ch = make_channel(cfg)
    checked = []

    def go():
        yield ch.reserve_slot()
        ch.insert(3)
        for dt in (0, 123.4, 9999.9, 54321.0):
            yield eng.timeout(dt)
            d = ch.read_delay(3)
            checked.append(0 <= d <= ch.round_trip + ch.insertion_time())

    eng.process(go())
    eng.run()
    assert all(checked)


def test_read_delay_absent_page_raises(cfg):
    _, ch = make_channel(cfg)
    with pytest.raises(KeyError):
        ch.read_delay(5)


def test_overcommit_impossible_with_concurrent_reservations(cfg):
    eng, ch = make_channel(cfg)
    inserted = []

    def writer(p):
        yield ch.reserve_slot()
        yield eng.timeout(10)  # transfer time
        ch.insert(p)
        inserted.append(p)

    for p in range(cfg.ring_slots_per_channel + 5):
        eng.process(writer(p))

    def drainer():
        yield eng.timeout(1000)
        for p in list(ch.pages())[:5]:
            ch.remove(p)

    eng.process(drainer())
    eng.run()
    assert len(inserted) == cfg.ring_slots_per_channel + 5
    assert ch.n_stored <= cfg.ring_slots_per_channel


# ---------------------------------------------------------------- OpticalRing
def test_ring_has_channel_per_node(cfg):
    eng = Engine()
    ring = OpticalRing(eng, cfg)
    assert len(ring.channels) == cfg.ring_channels
    assert ring.channel_of(3).owner == 3


def test_ring_find_and_total(cfg):
    eng = Engine()
    ring = OpticalRing(eng, cfg)

    def go():
        ch = ring.channel_of(2)
        yield ch.reserve_slot()
        ch.insert(55)

    eng.process(go())
    eng.run()
    assert ring.total_stored == 1
    assert ring.find(55) is ring.channel_of(2)
    assert ring.find(56) is None


def test_stored_peak_is_the_ring_wide_high_water_mark(cfg):
    eng = Engine()
    ring = OpticalRing(eng, cfg)

    def go():
        for node, page in ((0, 10), (1, 11), (1, 12)):
            ch = ring.channel_of(node)
            yield ch.reserve_slot()
            ch.insert(page)
        ring.channel_of(1).remove(11)
        ring.channel_of(0).remove(10)

    eng.process(go())
    eng.run()
    assert ring.stored_peak == 3
    assert ring.total_stored == 1


def test_ring_stored_peak_extra_on_a_ring_hitting_run():
    machine = Machine(experiment_config(0.1), system="nwcache",
                      prefetch="naive")
    res = machine.run(make_app("sor", scale=linear_scale("sor", 0.1)))
    assert res.metrics.counts["ring_hits"] > 0
    peak = res.extras["ring_stored_peak"]
    assert peak > 0
    assert peak >= machine.ring.total_stored
    assert peak <= machine.cfg.ring_channels * machine.cfg.ring_slots_per_channel
