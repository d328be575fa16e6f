"""DualPi2: the dual-queue coupled AQM of RFC 9332.

The wired L4S router in the motivation experiment (Fig. 2a) is a
:class:`DualPi2Router`.  It keeps two queues:

* the **L queue** for L4S traffic (ECT(1)/CE), marked by a step function of
  its own sojourn time plus the coupled probability from the classic queue;
* the **C queue** for classic traffic, marked/dropped with probability
  ``p_C = p'^2`` where ``p'`` is produced by a PI controller tracking the
  classic queue's sojourn time against its target.

The coupling ``p_CL = k * p'`` gives classic flows their fair share when both
kinds of traffic compete.  A weighted-round-robin scheduler with a small L
priority serves the two queues onto the output link.

:class:`DualPi2Core` contains just the probability machinery; it is reused by
the in-RAN baseline in :mod:`repro.core.ran_dualpi2`.
"""

from __future__ import annotations

from typing import Optional

from repro.net.base import PacketSink
from repro.net.ecn import ECN, FlowClass
from repro.net.packet import Packet
from repro.net.queueing import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.randomness import block_draws, chance
from repro.units import ms, transmission_time


class DualPi2Core:
    """The PI² probability controller and coupling law.

    Args:
        target: classic-queue delay target (default 15 ms, RFC 9332).
        tupdate: controller update period (default 16 ms).
        alpha / beta: PI gains in probability units per second of error.
        coupling: the coupling factor k (default 2).
        l4s_threshold: step threshold for the L queue (default 1 ms).
    """

    def __init__(self, target: float = ms(15), tupdate: float = ms(16),
                 alpha: float = 0.16, beta: float = 3.2,
                 coupling: float = 2.0, l4s_threshold: float = ms(1)) -> None:
        self.target = target
        self.tupdate = tupdate
        self.alpha = alpha
        self.beta = beta
        self.coupling = coupling
        self.l4s_threshold = l4s_threshold
        self.p_prime = 0.0
        self.prev_delay = 0.0

    def update(self, classic_delay: float) -> float:
        """Advance the PI controller one ``tupdate`` step.

        Returns the new base probability ``p'`` (clamped to [0, 1]).
        """
        delta = (self.alpha * (classic_delay - self.target)
                 + self.beta * (classic_delay - self.prev_delay)) * self.tupdate
        self.p_prime = min(1.0, max(0.0, self.p_prime + delta))
        self.prev_delay = classic_delay
        return self.p_prime

    @property
    def p_classic(self) -> float:
        """Classic-queue mark/drop probability, ``p'`` squared."""
        return min(1.0, self.p_prime * self.p_prime)

    @property
    def p_coupled(self) -> float:
        """The L-queue probability contributed by coupling, ``k * p'``."""
        return min(1.0, self.coupling * self.p_prime)

    def l4s_mark_probability(self, l_queue_delay: float) -> float:
        """Probability of marking an L-queue packet given its sojourn time."""
        step = 1.0 if l_queue_delay > self.l4s_threshold else 0.0
        return min(1.0, max(step, self.p_coupled))


class DualPi2Router:
    """A bottleneck router running the dual-queue coupled AQM.

    Args:
        sim: simulator.
        rate: output rate, bytes per second.
        delay: output propagation delay, seconds.
        sink: downstream component.
        queue_bytes: per-queue byte limit (tail drop beyond it).
        core: optionally share a pre-configured :class:`DualPi2Core`.
    """

    #: Weighted round robin: serve up to this many L-queue packets per C packet.
    L_PRIORITY = 4

    def __init__(self, sim: Simulator, rate: float, delay: float = 0.0,
                 sink: Optional[PacketSink] = None,
                 queue_bytes: int = 2_000_000,
                 core: Optional[DualPi2Core] = None,
                 name: str = "dualpi2") -> None:
        self._sim = sim
        self.rate = rate
        self.delay = delay
        self.sink = sink
        self.name = name
        self.core = core if core is not None else DualPi2Core()
        self.l_queue = DropTailQueue(max_bytes=queue_bytes)
        self.c_queue = DropTailQueue(max_bytes=queue_bytes)
        self._busy = False
        self._l_credit = self.L_PRIORITY
        self.marked_l4s = 0
        self.marked_classic = 0
        self.dropped_classic = 0
        # Marking runs once per dequeued packet; look the streams up once
        # and read them in blocks.
        self._lmark_draw = block_draws(sim.random.stream(f"{name}-lmark"))
        self._cmark_draw = block_draws(sim.random.stream(f"{name}-cmark"))
        self._updater = sim.every(self.core.tupdate, self._update)

    # ------------------------------------------------------------------ #
    # Enqueue path
    # ------------------------------------------------------------------ #
    def receive(self, packet: Packet) -> None:
        packet.timestamps["link_enqueue"] = self._sim.now
        queue = (self.l_queue if packet.flow_class == FlowClass.L4S
                 else self.c_queue)
        queue.enqueue(packet)
        if not self._busy:
            self._transmit_next()

    # ------------------------------------------------------------------ #
    # PI controller
    # ------------------------------------------------------------------ #
    def _queue_delay(self, queue: DropTailQueue) -> float:
        head = queue.peek()
        if head is None:
            return 0.0
        enqueue = head.timestamps.get("link_enqueue", self._sim.now)
        return max(0.0, self._sim.now - enqueue)

    def _update(self) -> None:
        self.core.update(self._queue_delay(self.c_queue))

    # ------------------------------------------------------------------ #
    # Dequeue / scheduler path
    # ------------------------------------------------------------------ #
    def _pick_queue(self) -> Optional[DropTailQueue]:
        l_empty, c_empty = self.l_queue.empty, self.c_queue.empty
        if l_empty and c_empty:
            return None
        if c_empty:
            return self.l_queue
        if l_empty:
            return self.c_queue
        if self._l_credit > 0:
            self._l_credit -= 1
            return self.l_queue
        self._l_credit = self.L_PRIORITY
        return self.c_queue

    def _transmit_next(self) -> None:
        queue = self._pick_queue()
        if queue is None:
            self._busy = False
            return
        packet = queue.dequeue()
        assert packet is not None
        now = self._sim.now
        if queue is self.l_queue:
            p_mark = self.core.l4s_mark_probability(
                max(0.0, now - packet.timestamps.get("link_enqueue", now)))
            if chance(self._lmark_draw, p_mark):
                if packet.mark_ce(by=self.name):
                    self.marked_l4s += 1
        else:
            if chance(self._cmark_draw, self.core.p_classic):
                if packet.ecn == ECN.NOT_ECT:
                    self.dropped_classic += 1
                    self._sim.call_soon(self._transmit_next)
                    return
                packet.mark_ce(by=self.name)
                self.marked_classic += 1
        self._busy = True
        serialization = transmission_time(packet.size, self.rate)
        self._sim.schedule(serialization, self._finish, packet)

    def _finish(self, packet: Packet) -> None:
        if self.sink is not None:
            if self.delay > 0:
                self._sim.schedule(self.delay, self.sink.receive, packet)
            else:
                self.sink.receive(packet)
        self._transmit_next()

    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        """Stop the periodic PI controller (call at the end of a scenario)."""
        self._updater.stop()
