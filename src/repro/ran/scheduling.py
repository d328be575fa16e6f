"""The MAC scheduling policies, registered under their spec names.

:class:`~repro.ran.mac.MacScheduler` runs either policy; specs and the CLI
name one (``"rr"`` / ``"pf"``) and :func:`resolve_scheduler` maps the name
onto its :class:`SchedulerPolicy` member.
"""

from __future__ import annotations

import enum

from repro.registry import SCHEDULERS


class SchedulerPolicy(enum.Enum):
    """Supported MAC scheduling policies."""

    ROUND_ROBIN = "rr"
    PROPORTIONAL_FAIR = "pf"


SCHEDULERS.add("rr", SchedulerPolicy.ROUND_ROBIN)
SCHEDULERS.add("pf", SchedulerPolicy.PROPORTIONAL_FAIR)


def resolve_scheduler(name) -> SchedulerPolicy:
    """Map a policy name (or a policy member) onto :class:`SchedulerPolicy`."""
    if isinstance(name, SchedulerPolicy):
        return name
    return SCHEDULERS.get(name)
