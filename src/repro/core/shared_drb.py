"""The alternative shared-DRB marking strategies of Fig. 16.

One bearer carrying an L4S and a classic flow needs two marking
probabilities; L4Span couples them.  :class:`ForcedStrategyLayer` replaces
the coupling with ``original`` (each flow's own single-class strategy, as
if the queue were not shared), ``l4s`` (Eq. 1 for both) or ``classic``
(Eq. 2 for both); on a separate DRB it marks exactly like its base.
"""

from __future__ import annotations

from repro.core.l4span import L4SpanLayer
from repro.core.marking import l4s_mark_probability
from repro.net.ecn import FlowClass

#: Strategy names, in the figure's row order.
SHARED_DRB_STRATEGIES = ("original", "l4s", "classic", "l4span")


class ForcedStrategyLayer(L4SpanLayer):
    """An L4Span layer whose shared-DRB strategy is overridden for the ablation."""

    def __init__(self, *args, strategy: str = "l4span", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.strategy = strategy

    def mark_probability(self, state, flow):  # noqa: D102 - documented in base
        if self.strategy == "l4span" or not state.is_shared:
            return super().mark_probability(state, flow)
        prediction = state.prediction
        queued, rate, error = (prediction.queued_bytes, prediction.rate,
                               prediction.error_std)
        if rate <= 0:
            return 0.0
        sojourn = prediction.sojourn
        if self.strategy == "l4s":
            return l4s_mark_probability(queued, rate, error,
                                        self.config.sojourn_threshold)
        if self.strategy == "classic":
            return self._classic_probability(state, flow, sojourn, rate)
        # "original": apply each flow's own single-class strategy even though
        # the queue is shared.
        if flow.flow_class == FlowClass.L4S:
            return l4s_mark_probability(queued, rate, error,
                                        self.config.sojourn_threshold)
        return self._classic_probability(state, flow, sojourn, rate)
