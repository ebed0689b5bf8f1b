"""Campaign-as-a-service: the long-running fault-injection daemon.

The one-shot CLI drivers run a campaign and exit; this package turns
the same machinery into infrastructure.  A daemon (``repro serve``)
owns a spool directory with

* a **durable job queue** (:mod:`repro.service.jobs`) — campaign
  submissions persisted in sqlite with atomic state transitions
  (``queued → running → done | failed | cancelled``), lease-based
  claims with heartbeats, and bounded admission;
* a **supervising scheduler** (:mod:`repro.service.scheduler`) —
  claimed jobs run as forked child processes over one shared worker
  budget with fair-share grants, job-level retry with
  decorrelated-jitter backoff, a degradation ladder (full width →
  halved width → serial) that is reported honestly in job status,
  clean SIGTERM/SIGINT drain (children flush their checkpoints, jobs
  requeue), and ``kill -9`` recovery (dead leases reclaimed by
  pid-liveness, orphaned children killed, jobs resumed from their
  checkpoints — bit-identical to an uninterrupted run);
* a **local socket endpoint** (:mod:`repro.service.daemon`) speaking
  a JSON-line protocol for ``repro submit | status | cancel | drain``
  (:mod:`repro.service.client`), with a streaming ``status`` mode
  reporting per-campaign progress and queue/fault counters.

Because job children are forked from the daemon, they inherit
whatever the daemon's process-wide golden-run cache
(:data:`repro.fi.executor.golden_cache`) holds at fork time; the
scheduler pre-warms it per target so concurrent campaigns of the same
target share golden runs instead of recomputing them.

Chaos hooks (test/CI only) kill the daemon or a job child at chosen
points; see :mod:`repro.fi.chaos` and ``docs/campaigns.md``
§ "Chaos hooks".
"""

from repro.service.client import (
    ServiceClient,
    default_spool,
)
from repro.service.daemon import ServiceDaemon
from repro.service.jobs import (
    JOB_STATES,
    Job,
    JobQueue,
)
from repro.service.scheduler import Scheduler, SchedulerConfig

__all__ = [
    "JOB_STATES",
    "Job",
    "JobQueue",
    "Scheduler",
    "SchedulerConfig",
    "ServiceClient",
    "ServiceDaemon",
    "default_spool",
]
