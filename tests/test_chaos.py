"""Tests for the chaos-hook plan (:mod:`repro.fi.chaos`).

The hooks themselves are exercised end to end by the chaos tests in
``test_executor``, ``test_integrity``, ``test_adaptive``,
``test_store_interrupt`` and ``test_service_daemon``; these tests pin
the parser and the N-th-occurrence rule they share.
"""

import os

import pytest

from repro.errors import CampaignError, ServiceError
from repro.fi import CampaignConfig, CampaignExecutor
from repro.fi import chaos
from repro.fi.chaos import ChaosPlan, disarm_daemon_hooks
from repro.fi.snapshot import FastForward
from repro.fi.store import JsonCheckpointStore
from repro.service.jobs import JobQueue
from repro.service.scheduler import Scheduler, validate_spec
from repro.target.simulation import ArrestmentSimulator


def _run_executor(tmp_path):
    CampaignExecutor(CampaignConfig(), campaign="unit").run_tasks(
        lambda i: i, 2, "fp"
    )


def _start_fast_forward(tmp_path):
    FastForward(ArrestmentSimulator, "arrestment")


def _open_store(tmp_path):
    JsonCheckpointStore(str(tmp_path / "cp.json"))


def _start_scheduler(tmp_path):
    with JobQueue(str(tmp_path / "queue.db")) as queue:
        Scheduler(str(tmp_path), queue)


#: every object that parses the plan when it starts
STARTERS = [_run_executor, _start_fast_forward, _open_store, _start_scheduler]


@pytest.mark.parametrize(
    "name, value",
    [
        ("REPRO_CHAOS_FAIL_INDEX", "three"),
        ("REPRO_CHAOS_KILL_INDEX", "-1"),
        ("REPRO_CHAOS_CORRUPT_FF_RESTORE", "some"),
        ("REPRO_CHAOS_DRIFT_WORKER", "yes"),
        ("REPRO_CHAOS_KILL_FLUSH", "0"),
        ("REPRO_CHAOS_KILL_SERVICE", "2.5"),
    ],
)
def test_malformed_hook_fails_loudly(monkeypatch, tmp_path, name, value):
    """A value that does not parse stops every starting object, naming
    the variable, instead of silently disarming the hook."""
    monkeypatch.setenv(name, value)
    for start in STARTERS:
        with pytest.raises(CampaignError, match=name):
            start(tmp_path)
    with pytest.raises(ServiceError, match=name):
        validate_spec({"experiment": "table1", "env": {name: value}})


def test_unknown_hook_fails_loudly(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CHAOS_FAIL_INDX", "3")
    for start in STARTERS:
        with pytest.raises(CampaignError, match="REPRO_CHAOS_FAIL_INDX"):
            start(tmp_path)


def test_parse():
    environ = {
        "REPRO_CHAOS_FAIL_INDEX": "3",
        "REPRO_CHAOS_KILL_INDEX": "0",
        "REPRO_CHAOS_CORRUPT_FF_RESTORE": "all",
        "REPRO_CHAOS_DRIFT_WORKER": "1",
        "REPRO_CHAOS_KILL_FLUSH": "2",
        "REPRO_CHAOS_KILL_SERVICE": "5",
        "REPRO_SCALE": "test",
    }
    assert ChaosPlan.from_env(environ) == ChaosPlan(
        fail_index=3, kill_index=0, corrupt_restore=0, drift_worker=1,
        kill_flush=2, kill_service=5,
    )
    assert ChaosPlan.from_env(
        {"REPRO_CHAOS_CORRUPT_FF_RESTORE": "4"}
    ).corrupt_restore == 4


def test_empty_or_absent_values_leave_hooks_unarmed():
    assert not ChaosPlan.from_env({}).armed
    assert not ChaosPlan.from_env({"REPRO_CHAOS_KILL_FLUSH": ""}).armed
    assert not ChaosPlan.from_env({"REPRO_CHAOS_DRIFT_WORKER": "0"}).armed
    assert ChaosPlan.from_env({"REPRO_CHAOS_KILL_INDEX": "0"}).armed


def test_nth_occurrence_rule(monkeypatch):
    monkeypatch.setattr(chaos, "_SEEN", {})
    plan = ChaosPlan(kill_flush=2, corrupt_restore=0)
    assert [plan.fires("kill_flush") for _ in range(3)] == [
        False, True, False,
    ]
    assert all(plan.fires("corrupt_restore") for _ in range(3))
    # an unarmed hook neither fires nor counts its events
    assert not plan.fires("kill_service")
    assert chaos._SEEN == {"corrupt_restore": 3, "kill_flush": 3}
    # the count is per process, not per plan
    assert ChaosPlan(kill_flush=4).fires("kill_flush")


def test_job_children_drop_the_daemon_hooks():
    environ = {
        "REPRO_CHAOS_KILL_SERVICE": "1",
        "REPRO_CHAOS_KILL_FLUSH": "1",
        "REPRO_CHAOS_FAIL_INDEX": "1",
        "PATH": os.defpath,
    }
    disarm_daemon_hooks(environ)
    assert sorted(environ) == ["PATH", "REPRO_CHAOS_FAIL_INDEX"]
