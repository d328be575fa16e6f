"""Delta-debugging minimizer for failing fuzz specs.

A fuzz campaign's raw finding is a big random spec — three cells, five
flows, a middlebox schedule, mobility, a population block — of which
usually one or two ingredients actually matter.  :func:`minimize_spec`
greedily shrinks a failing spec to a local minimum: it repeatedly tries
structural reductions (drop a flow, drop a UE and its flows, drop a cell
and its UEs, zero a whole feature block, halve the duration, simplify
per-flow knobs) and keeps any candidate that still fails *the same way*.

"The same way" is decided by :func:`failure_signature`: the set of
``suite:`` prefixes :func:`repro.experiments.fuzz.check_spec` puts on its
violations.  Requiring signature overlap keeps the search from
degenerating into a *different* failure class — e.g. shrinking to one
cell trades a sharding mismatch for an "unexpected blocker" violation,
which is not the bug being minimized, so that candidate is rejected.

The search is deterministic (candidate order is fixed, the failing
predicate is expected to be a pure function of the spec) and memoizes
every candidate verdict by the spec's canonical JSON, so revisited specs
cost nothing.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Iterator, Sequence

from repro.experiments.spec import (MobilitySpec, PopulationSpec,
                                    ScenarioSpec)

__all__ = ["failure_signature", "minimize_spec"]

#: Violation strings are ``prefix: detail``; the prefix set is the
#: failure's class signature.
def failure_signature(violations: Sequence[str]) -> frozenset:
    """The set of ``suite:`` prefixes carried by ``violations``."""
    return frozenset(v.split(":", 1)[0].strip() for v in violations if v)


def _canonical(spec: ScenarioSpec) -> str:
    return json.dumps(spec.to_dict(), sort_keys=True)


def _normalized(spec: ScenarioSpec) -> ScenarioSpec:
    """Spec with its cells/UEs/flows made explicit, so passes can edit them."""
    return dataclasses.replace(
        spec, num_ues=0, cells=spec.resolved_cells(),
        ues=spec.resolved_ues(), flows=spec.resolved_flows())


# --------------------------------------------------------------------- #
# Reduction passes — each yields candidate specs, most aggressive first
# --------------------------------------------------------------------- #
def _drop_cells(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    cells = spec.resolved_cells()
    if len(cells) <= 1:
        return
    for drop in cells:
        kept_ues = [ue for ue in spec.resolved_ues()
                    if ue.cell_id != drop.cell_id]
        kept_ue_ids = {ue.ue_id for ue in kept_ues}
        yield dataclasses.replace(
            spec,
            cells=[cell for cell in cells if cell.cell_id != drop.cell_id],
            ues=kept_ues,
            flows=[flow for flow in spec.resolved_flows()
                   if flow.ue_id in kept_ue_ids])


def _drop_ues(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    ues = spec.resolved_ues()
    if len(ues) <= 1:
        return
    for drop in ues:
        yield dataclasses.replace(
            spec,
            ues=[ue for ue in ues if ue.ue_id != drop.ue_id],
            flows=[flow for flow in spec.resolved_flows()
                   if flow.ue_id != drop.ue_id])


def _drop_flows(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    flows = spec.resolved_flows()
    if len(flows) <= 1:
        return
    for drop in flows:
        yield dataclasses.replace(
            spec, flows=[flow for flow in flows
                         if flow.flow_id != drop.flow_id])


def _zero_blocks(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    if spec.mobility.enabled:
        yield dataclasses.replace(spec, mobility=MobilitySpec())
    if spec.wired_bottleneck_mbps is not None:
        yield dataclasses.replace(spec, wired_bottleneck_mbps=None,
                                  wired_bottleneck_schedule=[])
    if spec.wired_bottleneck_schedule:
        yield dataclasses.replace(spec, wired_bottleneck_schedule=[])
    if spec.population.n_background:
        yield dataclasses.replace(spec, population=PopulationSpec())
    profiles = {ue.channel_profile or spec.channel_profile
                for ue in spec.resolved_ues()}
    if profiles - {"static"}:
        yield dataclasses.replace(
            spec, channel_profile="static",
            ues=[dataclasses.replace(ue, channel_profile=None)
                 for ue in spec.resolved_ues()])


def _shorten(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    if spec.duration_s > 0.05:
        yield dataclasses.replace(
            spec, duration_s=round(max(spec.duration_s / 2, 0.05), 6))


def _simplify(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    flows = spec.resolved_flows()
    if any(flow.wan_rtt is not None for flow in flows):
        yield dataclasses.replace(
            spec, flows=[dataclasses.replace(flow, wan_rtt=None)
                         for flow in flows])
    if any(flow.start_time for flow in flows):
        yield dataclasses.replace(
            spec, flows=[dataclasses.replace(flow, start_time=0.0)
                         for flow in flows])
    if spec.seed:
        yield dataclasses.replace(spec, seed=0)


_PASSES = (_drop_cells, _drop_ues, _drop_flows, _zero_blocks, _shorten,
           _simplify)


def minimize_spec(spec: ScenarioSpec,
                  failing: Callable[[ScenarioSpec], Sequence[str]],
                  max_checks: int = 400) -> ScenarioSpec:
    """Shrink ``spec`` to a local minimum that still fails the same way.

    ``failing(spec)`` returns the violation list (empty = the spec
    passes) — typically :func:`repro.experiments.fuzz.check_spec` or a
    partial of it.  Raises :class:`ValueError` when the input spec does
    not fail at all.  ``max_checks`` bounds how many candidate specs are
    *evaluated* (cache hits and invalid candidates are free), so
    minimization cost stays predictable even for pathological predicates.
    """
    baseline = list(failing(spec))
    if not baseline:
        raise ValueError("minimize_spec needs a failing spec; "
                         "failing(spec) returned no violations")
    signature = failure_signature(baseline)
    verdicts: dict[str, bool] = {}
    checks = 0

    def still_fails(candidate: ScenarioSpec) -> bool:
        nonlocal checks
        key = _canonical(candidate)
        if key in verdicts:
            return verdicts[key]
        try:
            candidate.validate()
        except Exception:  # noqa: BLE001 - invalid reductions are skipped
            verdicts[key] = False
            return False
        if checks >= max_checks:
            return False
        checks += 1
        violations = failing(candidate)
        verdicts[key] = bool(violations) and bool(
            failure_signature(violations) & signature)
        return verdicts[key]

    current = _normalized(spec)
    verdicts[_canonical(current)] = True
    progress = True
    while progress and checks < max_checks:
        progress = False
        for reduction in _PASSES:
            # Re-run each pass until it stops helping: dropping one flow
            # often unlocks dropping another.
            reduced = True
            while reduced and checks < max_checks:
                reduced = False
                for candidate in reduction(current):
                    if still_fails(candidate):
                        current = _normalized(candidate)
                        reduced = progress = True
                        break
    return current
