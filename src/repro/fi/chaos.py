"""Fault injection into the harness itself: the ``REPRO_CHAOS_*`` hooks.

The paper measures error permeability by injecting faults on purpose;
the chaos tests and CI jobs apply the same idea to this harness.  Six
environment variables arm the hooks:

* ``REPRO_CHAOS_FAIL_INDEX=N`` — the first attempt of task *N* raises;
* ``REPRO_CHAOS_KILL_INDEX=N`` — the first attempt of task *N* hard-
  kills its pool worker;
* ``REPRO_CHAOS_CORRUPT_FF_RESTORE=all|N`` — perturb the signal store
  after every fast-forward restore, or after the *N*-th one;
* ``REPRO_CHAOS_DRIFT_WORKER=1`` — pool workers corrupt their drift-
  sentinel probe digest;
* ``REPRO_CHAOS_KILL_FLUSH=N`` — hard-exit during the *N*-th checkpoint
  flush, after the bytes are staged and before they are durable;
* ``REPRO_CHAOS_KILL_SERVICE=N`` — hard-exit the service daemon on its
  *N*-th scheduler tick.

:meth:`ChaosPlan.from_env` is the only parser.  A value that does not
parse, or a ``REPRO_CHAOS_*`` name that is not one of the six, raises
:class:`~repro.errors.CampaignError` naming the variable; an empty
value leaves its hook unarmed.  The executor, the fast-forward
engine, the result stores and the service scheduler each parse the
plan once, when they start, and carry it.

The three counting hooks share one **N-th-occurrence rule**: each
process counts restores, flushes and scheduler ticks from 1, only
while the hook for that event is armed, and the hook fires when the
count reaches *N*.  Forked children inherit their parent's counts.
"""

import re
from dataclasses import dataclass
from typing import Dict, Mapping, MutableMapping, Optional

from repro.errors import CampaignError

__all__ = ["ChaosPlan", "disarm_daemon_hooks"]

_PREFIX = "REPRO_CHAOS_"

#: hook name after the prefix -> (plan field, the values it accepts)
_HOOKS = {
    "FAIL_INDEX": ("fail_index", "[0-9]+"),
    "KILL_INDEX": ("kill_index", "[0-9]+"),
    "CORRUPT_FF_RESTORE": ("corrupt_restore", "all|[1-9][0-9]*"),
    "DRIFT_WORKER": ("drift_worker", "[01]"),
    "KILL_FLUSH": ("kill_flush", "[1-9][0-9]*"),
    "KILL_SERVICE": ("kill_service", "[1-9][0-9]*"),
}

#: occurrences this process has counted, per counting hook.
_SEEN: Dict[str, int] = {}


@dataclass(frozen=True)
class ChaosPlan:
    """Which chaos hooks are armed; all unarmed by default."""

    #: task index whose first attempt raises.
    fail_index: Optional[int] = None
    #: task index whose first attempt hard-kills its pool worker.
    kill_index: Optional[int] = None
    #: restore occurrence to corrupt; 0 corrupts every restore.
    corrupt_restore: Optional[int] = None
    #: 1 = corrupt the drift-sentinel probe in pool workers.
    drift_worker: int = 0
    #: flush occurrence during which the process hard-exits.
    kill_flush: Optional[int] = None
    #: scheduler tick on which the daemon hard-exits.
    kill_service: Optional[int] = None

    @classmethod
    def from_env(cls, environ: Mapping[str, str]) -> "ChaosPlan":
        """Parse the ``REPRO_CHAOS_*`` variables of *environ*."""
        plan: Dict[str, int] = {}
        for name, value in environ.items():
            if not name.startswith(_PREFIX) or not value:
                continue
            try:
                field, accepted = _HOOKS[name[len(_PREFIX):]]
            except KeyError:
                raise CampaignError(
                    f"unknown chaos hook {name}; choose from "
                    + ", ".join(_PREFIX + hook for hook in _HOOKS)
                ) from None
            if not re.fullmatch(accepted, value):
                raise CampaignError(f"{name}={value!r}: expected {accepted}")
            plan[field] = 0 if value == "all" else int(value)
        return cls(**plan)

    @property
    def armed(self) -> bool:
        """Whether any hook is armed."""
        return self != ChaosPlan()

    def fires(self, hook: str) -> bool:
        """Count one occurrence of the event the counting *hook*
        (``corrupt_restore``, ``kill_flush`` or ``kill_service``)
        watches; whether the hook fires on it."""
        nth = getattr(self, hook)
        if nth is not None:
            _SEEN[hook] = _SEEN.get(hook, 0) + 1
        return nth is not None and nth in (0, _SEEN[hook])


def disarm_daemon_hooks(environ: MutableMapping[str, str]) -> None:
    """Drop the hooks aimed at the service daemon from a forked job
    child's environment (a job arms its own through its spec ``env``).
    """
    for hook in ("KILL_SERVICE", "KILL_FLUSH"):
        environ.pop(_PREFIX + hook, None)
