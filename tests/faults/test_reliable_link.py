"""ReliableLink: in-order exactly-once delivery over lossy channels."""

import pytest

from repro.core.propagation import ReliableLink
from repro.core.system import ReplicatedSystem
from repro.errors import ReplicationError
from repro.faults.channel import ChannelFaults
from repro.kernel import Kernel
from repro.sim.rng import RandomStreams


class FakeSite:
    """Just enough of SecondarySite for the link: ordered receive log."""

    def __init__(self, name="fake"):
        self.name = name
        self.crashed = False
        self.retired = False
        self.records_dropped = 0
        self.received = []

    @property
    def live(self):
        return not self.crashed and not self.retired

    def receive(self, record):
        if self.crashed:
            self.records_dropped += 1
            return False
        self.received.append(record)
        return True


def make_link(faults=None, ack_faults=None, seed=0, **kwargs):
    kernel = Kernel()
    site = FakeSite()
    streams = RandomStreams(seed)
    link = ReliableLink(
        kernel, site,
        faults=faults or ChannelFaults(),
        ack_faults=ack_faults,
        rng=streams["data"] if faults and faults.any else None,
        ack_rng=streams["ack"] if ack_faults and ack_faults.any else None,
        **kwargs)
    return kernel, site, link


def test_lossless_link_delivers_in_order():
    kernel, site, link = make_link()
    for i in range(5):
        link.send(i, 1.0)
    kernel.run()
    assert site.received == [0, 1, 2, 3, 4]
    assert link.settled
    assert link.retransmissions == 0


def test_validation():
    with pytest.raises(ReplicationError):
        make_link(timeout=0.0)


def test_drops_recovered_by_retransmission():
    faults = ChannelFaults(drop=0.4)
    kernel, site, link = make_link(faults, timeout=2.0)
    for i in range(30):
        link.send(i, 1.0)
    kernel.run()
    assert site.received == list(range(30))
    assert link.retransmissions > 0
    assert link.settled


def test_duplicates_filtered_exactly_once_delivery():
    faults = ChannelFaults(duplicate=0.6)
    kernel, site, link = make_link(faults)
    for i in range(30):
        link.send(i, 1.0)
    kernel.run()
    assert site.received == list(range(30))
    assert link.duplicates_filtered > 0


def test_reordering_repaired_by_sequence_buffer():
    faults = ChannelFaults(jitter=4.0, reorder=0.3, reorder_delay=5.0)
    kernel, site, link = make_link(faults)
    for i in range(30):
        link.send(i, 1.0)
    kernel.run()
    assert site.received == list(range(30))


def test_full_fault_mix_with_lossy_acks():
    faults = ChannelFaults(drop=0.25, duplicate=0.2, jitter=3.0, reorder=0.2,
                           reorder_delay=4.0)
    ack_faults = ChannelFaults(drop=0.25, jitter=2.0)
    kernel, site, link = make_link(faults, ack_faults, timeout=3.0)
    for i in range(50):
        link.send(i, 1.0)
    kernel.run()
    assert site.received == list(range(50))
    assert link.settled


def test_retransmission_backoff_doubles_and_resets():
    # Total blackout: every data message dropped, so the timer keeps
    # firing with doubling waits capped at MAX_RETRANSMIT_TIMEOUT (30).
    faults = ChannelFaults(drop=1.0)
    kernel, site, link = make_link(faults, timeout=4.0)
    fires = []
    orig = link._on_timer

    def spy():
        fires.append(kernel.now)
        orig()

    link._on_timer = spy
    link.send("x", 0.0)
    kernel.run(until=100.0)
    gaps = [round(b - a, 6) for a, b in zip(fires, fires[1:])]
    assert gaps[:4] == [8.0, 16.0, 30.0, 30.0]   # 4 -> 8 -> 16 -> 30, capped


def test_timer_stops_when_site_crashes():
    faults = ChannelFaults(drop=1.0)
    kernel, site, link = make_link(faults, timeout=1.0)
    link.send("x", 0.0)
    site.crashed = True
    kernel.run(until=50.0)
    # One timer was armed at send; it fired, saw the crash, did not rearm.
    assert link.retransmissions == 0
    assert not link._timer_armed


def test_resync_discards_stale_epoch_traffic():
    kernel, site, link = make_link()
    link.send("old-1", 5.0)             # still in flight at resync time
    link.resync()
    link.send("new-1", 1.0)
    kernel.run()
    assert site.received == ["new-1"]
    assert link.stale_epoch_drops >= 1
    assert link.settled


def test_crashed_site_records_dropped_no_ack():
    kernel, site, link = make_link()
    site.crashed = True
    link.send("x", 1.0)
    kernel.run(until=1.5)
    assert site.received == []
    assert site.records_dropped == 1
    assert link.acks_received == 0


def test_blackhole_holds_data_and_heal_delivers():
    kernel, site, link = make_link()
    link.send("a", 1.0)
    kernel.run()
    link.blackhole()
    assert link.blackholed
    link.send("b", 1.0)
    link.send("c", 1.0)
    kernel.run(until=10.0)
    assert site.received == ["a"]          # held, not lost
    link.heal()
    assert not link.blackholed
    kernel.run()
    assert site.received == ["a", "b", "c"]
    assert link.settled


def test_a_partition_holds_one_copy_per_record_until_heal():
    """While a link is partitioned its retransmission timer stops: the
    channel holds the one copy of each record sent into the partition,
    no event stays queued (so ``run()`` returns), and the heal delivers
    each record once.  Before, the timer resent every unacked record
    into the partition at each expiry: 80 copies held at t = 100, 3 380
    at t = 10 000, and 3 370 duplicates filtered after the heal."""
    system = ReplicatedSystem(num_secondaries=2,
                              channel_faults=ChannelFaults())
    system.partition(1)
    writer = system.session(secondary=0)
    for i in range(5):
        writer.write(f"k{i}", i)
    link = system.secondaries[1].link
    for until in (100.0, 1000.0, 10000.0):
        system.run(until=until)
        assert link.data_channel.held == 10    # start + commit per write
        assert link.retransmissions == 0
        assert system.kernel.pending_events == 0
    system.run()
    system.heal(1)
    system.quiesce()
    assert link.duplicates_filtered == 0
    assert link.settled
    assert system.secondary_state(1) == system.primary_state()


def test_resync_races_in_flight_retransmissions_across_heal():
    """Satellite regression: a resync() (epoch bump, as promotion does)
    while retransmissions are in flight and a partition holds traffic.
    Every pre-resync frame — original sends, retransmitted copies, and
    partition-held copies released by the heal — must be discarded by
    epoch, and the new epoch must deliver cleanly in order."""
    faults = ChannelFaults(drop=0.4)
    kernel, site, link = make_link(faults, timeout=2.0)
    for i in range(10):
        link.send(("old", i), 1.0)
    kernel.run(until=5.0)              # some delivered, some retransmitting
    link.blackhole()                   # partition: the timer stops
    for i in range(10, 13):
        link.send(("old", i), 1.0)     # sends into the partition are held
    kernel.run(until=12.0)
    assert link.data_channel.held > 0
    link.resync()                      # epoch fence while frames in flight
    link.arm_zombie_fence()
    delivered_before = list(site.received)
    link.heal()                        # held old-epoch frames flush now
    for i in range(10):
        link.send(("new", i), 1.0)
    kernel.run()
    assert site.received == delivered_before + [("new", i)
                                                for i in range(10)]
    assert link.stale_epoch_drops > 0
    assert link.zombie_records_fenced > 0
    assert link.settled


def test_retransmit_timer_stops_for_retired_site():
    """Satellite: the dead-site check in the retransmit timer uses the
    live predicate — a *retired* site (promoted to primary) must stop
    the timer exactly like a crashed one, not be retransmitted into."""
    faults = ChannelFaults(drop=1.0)
    kernel, site, link = make_link(faults, timeout=1.0)
    link.send("x", 0.0)
    site.retired = True                # retired: not crashed, yet gone
    assert not site.crashed
    kernel.run(until=20.0)
    assert link.retransmissions == 0
    assert not link._timer_armed


def test_dark_channel_keeps_retransmitting_past_a_thousand_timeouts():
    """The timer's doubling stays at its cap however long the channel
    stays dark (``2.0 ** attempt`` overflowed after 1 024 expiries)."""
    faults = ChannelFaults(drop=1.0)
    kernel, site, link = make_link(faults, timeout=1.0)
    link.send("x", 0.0)
    kernel.run(until=40000.0)
    assert link.retransmissions > 1024
    assert link._timer_armed


# ---------------------------------------------------------------------------
# Fast retransmit: the first duplicate ack resends the hole
# ---------------------------------------------------------------------------

def lose_sends(link, *seqs):
    """Lose the next data transmission of each listed sequence number
    (a number listed twice loses two transmissions)."""
    pending = list(seqs)
    send = link.data_channel.send

    def lossy(payload, delay, **kwargs):
        if payload[0] != "ctrl" and payload[1] in pending:
            pending.remove(payload[1])
            return
        send(payload, delay, **kwargs)

    link.data_channel.send = lossy


def test_lost_record_resent_at_first_duplicate_ack():
    """Record 0 is lost and record 1 arrives at t=1: its ack (still
    for -1) tells the sender where the hole is, so record 0 arrives at
    t=2, long before the timer would fire at t=4."""
    kernel, site, link = make_link(timeout=4.0)
    lose_sends(link, 0)
    link.send("a", 1.0)
    link.send("b", 1.0)
    kernel.run(until=2.0)
    assert site.received == ["a", "b"]
    assert link.retransmissions == 1
    assert link.settled


def test_one_fast_retransmit_per_stall():
    """Four duplicate acks of one stall resend the hole once; the timer
    covers the resend's loss, and the next stall (after ack progress)
    gets its own fast retransmit."""
    kernel, site, link = make_link(timeout=4.0)
    lose_sends(link, 0, 0)           # the original and the fast resend
    for i in range(5):
        link.send(i, 1.0)
    kernel.run(until=3.5)
    assert link.acks_received == 4 and site.received == []
    assert link.retransmissions == 1
    kernel.run(until=5.0)            # timer at 4: all five resent
    assert link.retransmissions == 6
    assert site.received == [0, 1, 2, 3, 4]
    lose_sends(link, 5)
    link.send(5, 1.0)
    link.send(6, 1.0)
    kernel.run(until=7.0)
    assert link.retransmissions == 7
    assert site.received == [0, 1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("gone", ["crashed", "retired"])
def test_no_fast_retransmit_to_a_gone_site(gone):
    """The duplicate ack arrives after the site crashed or retired:
    nothing is resent into it."""
    kernel, site, link = make_link(timeout=4.0, ack_delay=0.5)
    lose_sends(link, 0)
    link.send("a", 1.0)
    link.send("b", 1.0)

    def leave():
        if gone == "crashed":
            site.crashed = True
        else:
            site.retired = True

    kernel.call_at(1.2, leave)
    kernel.run(until=3.0)
    assert link.acks_received == 1
    assert link.retransmissions == 0


def test_no_fast_retransmit_from_a_stale_epoch_ack():
    """A duplicate ack of the previous epoch looks like one for the new
    epoch's unacked record 0; the epoch check drops it."""
    kernel, site, link = make_link(timeout=4.0, ack_delay=0.5)
    lose_sends(link, 0)
    link.send("old-a", 1.0)
    link.send("old-b", 1.0)          # arrives at 1, acks -1 at 1.5
    kernel.run(until=1.2)
    link.resync()
    link.send("new-a", 1.0)          # unacked until 2.7
    kernel.run(until=2.0)
    assert link.stale_epoch_drops == 1
    assert link.retransmissions == 0
    kernel.run(until=3.0)
    assert site.received == ["new-a"]     # "old-b" was never in order


def test_resync_clears_the_fast_retransmit_flag():
    """A stall whose fast resend was lost is cut short by resync(); the
    new epoch's first stall gets a fast retransmit of its own."""
    kernel, site, link = make_link(timeout=4.0)
    lose_sends(link, 0, 0)
    link.send("a", 1.0)
    link.send("b", 1.0)
    kernel.run(until=1.5)
    assert link.retransmissions == 1
    link.resync()
    lose_sends(link, 0)
    link.send("c", 1.0)
    link.send("d", 1.0)              # arrives at 2.5: resend "c"
    kernel.run(until=3.5)            # the timer is due at 4
    assert link.retransmissions == 2
    assert site.received == ["c", "d"]
