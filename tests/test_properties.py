"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.egress import EgressRateEstimator
from repro.core.marking import (classic_mark_probability,
                                coupled_l4s_probability, l4s_mark_probability,
                                tcp_model_constant)
from repro.core.profile_table import DrbProfile
from repro.metrics.stats import box_stats, cdf_points
from repro.net.checksum import internet_checksum, verify_checksum
from repro.net.ecn import ECN
from repro.net.packet import AccEcnCounters
from repro.net.queueing import DropTailQueue
from repro.net.packet import make_data_packet
from repro.net.addresses import FiveTuple
from repro.sim.engine import Simulator


# --------------------------------------------------------------------------- #
# Marking probabilities
# --------------------------------------------------------------------------- #
@given(queued=st.floats(0, 1e8), rate=st.floats(0, 1e8),
       error=st.floats(0, 1e8), threshold=st.floats(1e-4, 1.0))
def test_l4s_probability_always_in_unit_interval(queued, rate, error,
                                                 threshold):
    p = l4s_mark_probability(queued, rate, error, threshold)
    assert 0.0 <= p <= 1.0


@given(rate=st.floats(1e3, 1e8), error=st.floats(0, 1e7),
       threshold=st.floats(1e-3, 0.1),
       q1=st.floats(0, 1e7), q2=st.floats(0, 1e7))
def test_l4s_probability_monotone_in_queue(rate, error, threshold, q1, q2):
    low, high = sorted((q1, q2))
    assert l4s_mark_probability(low, rate, error, threshold) <= \
        l4s_mark_probability(high, rate, error, threshold) + 1e-12


@given(mss=st.floats(100, 9000), rtt=st.floats(1e-3, 2.0),
       rate=st.floats(1e3, 1e9), beta=st.floats(0.05, 0.95))
def test_classic_probability_bounded_and_decreasing_in_rate(mss, rtt, rate,
                                                            beta):
    p = classic_mark_probability(mss, rtt, rate, beta)
    p_faster = classic_mark_probability(mss, rtt, rate * 2, beta)
    assert 0.0 <= p <= 1.0
    assert p_faster <= p + 1e-12


@given(p_classic=st.floats(0, 1), beta=st.floats(0.05, 0.95))
def test_coupled_probability_bounded(p_classic, beta):
    assert 0.0 <= coupled_l4s_probability(p_classic, beta) <= 1.0


@given(beta=st.floats(0.05, 0.95))
def test_tcp_model_constant_positive(beta):
    assert tcp_model_constant(beta) > 0


# --------------------------------------------------------------------------- #
# Profile table
# --------------------------------------------------------------------------- #
@given(sizes=st.lists(st.integers(40, 9000), min_size=1, max_size=60),
       txed_fraction=st.floats(0, 1))
def test_profile_queued_bytes_matches_untransmitted_sum(sizes, txed_fraction):
    profile = DrbProfile()
    for i, size in enumerate(sizes):
        profile.add_packet(size, i * 0.001)
    highest = int(len(sizes) * txed_fraction) - 1
    if highest >= 0:
        profile.on_feedback(highest, None, 1.0)
    expected = sum(sizes[highest + 1:]) if highest >= 0 else sum(sizes)
    assert profile.queued_bytes == expected
    assert profile.queued_packets == len(sizes) - (highest + 1)


@given(sizes=st.lists(st.integers(40, 9000), min_size=1, max_size=60),
       feedback_points=st.lists(st.integers(0, 59), min_size=1, max_size=10))
def test_profile_feedback_idempotent_and_monotone(sizes, feedback_points):
    profile = DrbProfile()
    for i, size in enumerate(sizes):
        profile.add_packet(size, i * 0.001)
    transmitted = set()
    for point in feedback_points:
        highest = min(point, len(sizes) - 1)
        newly = profile.on_feedback(highest, None, 1.0)
        new_sns = {e.sn for e in newly}
        assert not (new_sns & transmitted), "an SN was reported twice"
        transmitted |= new_sns
    assert profile.queued_bytes >= 0


# --------------------------------------------------------------------------- #
# Egress estimator
# --------------------------------------------------------------------------- #
class _Entry:
    def __init__(self, transmitted_time, size):
        self.transmitted_time = transmitted_time
        self.size = size


@given(sizes=st.lists(st.integers(100, 3000), min_size=2, max_size=80),
       interval=st.floats(1e-4, 5e-3))
@settings(max_examples=50)
def test_egress_estimate_never_negative_and_bounded(sizes, interval):
    estimator = EgressRateEstimator(window=0.01245)
    peak = max(sizes) / interval
    for i, size in enumerate(sizes):
        estimator.observe_transmissions([_Entry((i + 1) * interval, size)])
    estimate = estimator.last_estimate
    assert estimate.smoothed_rate >= 0
    assert estimate.error_std >= 0
    # A window of length W over packets spaced interval apart can contain
    # floor(W/interval) + 1 of them, so the instantaneous rate (and hence
    # the smoothed average of such rates) is bounded by
    # max_size * (floor(W/interval) + 1) / W <= peak * (1 + interval / W).
    assert estimate.smoothed_rate <= peak * (1 + interval / estimator.window) \
        * (1 + 1e-9)


# --------------------------------------------------------------------------- #
# Packet / checksum / counters
# --------------------------------------------------------------------------- #
@given(data=st.binary(min_size=0, max_size=200))
def test_internet_checksum_verifies_own_output(data):
    assert verify_checksum(data, internet_checksum(data))


@given(payloads=st.lists(st.tuples(st.integers(40, 2000),
                                   st.sampled_from(list(ECN))),
                         max_size=50))
def test_accecn_counters_are_consistent(payloads):
    counters = AccEcnCounters()
    for size, ecn in payloads:
        counters.add_packet(size, ecn)
    ce_total = sum(size for size, ecn in payloads if ecn == ECN.CE)
    assert counters.ce_bytes == ce_total
    assert counters.ce_packets == sum(1 for _, ecn in payloads
                                      if ecn == ECN.CE)
    assert counters.ect1_bytes + counters.ect0_bytes + counters.ce_bytes <= \
        sum(size for size, _ in payloads)


# --------------------------------------------------------------------------- #
# Queue and event-queue invariants
# --------------------------------------------------------------------------- #
@given(payloads=st.lists(st.integers(1, 5000), max_size=60),
       max_bytes=st.integers(1000, 50_000))
def test_droptail_byte_accounting_invariant(payloads, max_bytes):
    queue = DropTailQueue(max_bytes=max_bytes)
    five_tuple = FiveTuple("a", 1, "b", 2)
    accepted_bytes = 0
    for i, payload in enumerate(payloads):
        packet = make_data_packet(0, five_tuple, i, payload, ECN.ECT0, 0.0)
        if queue.enqueue(packet):
            accepted_bytes += packet.size
    assert queue.bytes == accepted_bytes
    assert queue.bytes <= max_bytes
    drained = 0
    while queue.dequeue() is not None:
        drained += 1
    assert queue.bytes == 0
    assert drained == queue.enqueued_packets


@given(times=st.lists(st.floats(0, 1000), max_size=80))
def test_event_queue_pops_in_nondecreasing_time_order(times):
    sim = Simulator()
    popped = []
    for t in times:
        sim.schedule_at(t, lambda: popped.append(sim.now))
    sim.run()
    assert popped == sorted(popped)
    assert len(popped) == len(times)


@given(times=st.lists(st.floats(0, 1000), max_size=80),
       cancel_mask=st.lists(st.booleans(), max_size=80))
def test_event_queue_cancellation_preserves_order_of_survivors(times,
                                                               cancel_mask):
    sim = Simulator()
    popped = []
    events = [sim.schedule_at(t, popped.append, index)
              for index, t in enumerate(times)]
    cancelled = set()
    for index, (event, do_cancel) in enumerate(zip(events, cancel_mask)):
        if do_cancel:
            sim.cancel(event)
            cancelled.add(index)
    survivors = sorted((index for index in range(len(events))
                        if index not in cancelled),
                       key=lambda index: (events[index][0], events[index][1]))
    sim.run()
    assert popped == survivors


@given(times=st.lists(st.sampled_from([0.0, 1.0, 2.0]), max_size=60))
def test_event_queue_ties_break_in_scheduling_order(times):
    sim = Simulator()
    popped = []
    events = [sim.schedule_at(t, popped.append, index)
              for index, t in enumerate(times)]
    expected = sorted(range(len(events)),
                      key=lambda index: (events[index][0], events[index][1]))
    sim.run()
    assert popped == expected
    # Sequence numbers within a tie must reflect scheduling order.
    for earlier, later in zip(popped, popped[1:]):
        if times[earlier] == times[later]:
            assert events[earlier][1] < events[later][1]


@given(times=st.lists(st.floats(0, 100), max_size=40),
       cancel_mask=st.lists(st.booleans(), max_size=40))
def test_event_queue_peek_time_matches_next_pop(times, cancel_mask):
    sim = Simulator()
    fired = []

    def fire():
        fired.append(sim.now)
        sim.stop()  # one event per run() call

    events = [sim.schedule_at(t, fire) for t in times]
    for event, do_cancel in zip(events, cancel_mask):
        if do_cancel:
            sim.cancel(event)
    while True:
        peeked = sim.peek_time()
        if sim.run() == 0:
            assert peeked is None
            break
        assert peeked == fired[-1]


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
def test_box_stats_ordering(values):
    stats = box_stats(values)
    assert stats.p10 <= stats.p25 <= stats.median <= stats.p75 <= stats.p90
    assert min(values) <= stats.median <= max(values)


@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
def test_cdf_is_monotone(values):
    points = cdf_points(values)
    xs = [x for x, _ in points]
    fs = [f for _, f in points]
    assert xs == sorted(xs)
    assert fs == sorted(fs)
    assert fs[-1] == 1.0
