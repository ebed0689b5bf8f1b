"""The vectorized batch core: bit-identical to the scalar path.

Two layers of A/B coverage: :class:`~repro.fi.vector.BatchRunner`
directly against the campaigns' scalar ``_one_run`` (fast, surgical —
including forced tick-0 dispatch divergence), and whole campaigns with
``batch_width`` on vs off (serial in the default suite, the process
backend under the ``slow`` marker).
"""

import random
from collections import Counter

import pytest

from repro.fi.campaign import (
    DetectionCampaign,
    MemoryCampaign,
    PermeabilityCampaign,
    RecoveryCampaign,
)
from repro.fi import _counters
from repro.fi.executor import CampaignConfig, VectorPolicy
from repro.fi.memory import MemoryMap
from repro.fi.vector import BatchRunner, wrap_runner
from repro.edm.catalogue import EA_BY_NAME
from repro.target.simulation import ArrestmentSimulator
from repro.target.testcases import standard_test_cases
from repro.watertank.catalogue import tank_assertions
from repro.watertank.simulation import WaterTankSimulator
from repro.watertank.testcases import standard_tank_cases


def tank_factory(tc):
    return WaterTankSimulator(tc, mission_ticks=300)


def arrestment_factory(tc):
    return ArrestmentSimulator(tc, timeout_s=6.0)


@pytest.fixture(scope="module")
def tank_cases():
    return standard_tank_cases()[:2]


@pytest.fixture(scope="module")
def arrestment_cases():
    cases = standard_test_cases()
    return [cases[4], cases[20]]


def _batched(width, **kwargs):
    return CampaignConfig(vector=VectorPolicy(batch_width=width), **kwargs)


def batch_vs_scalar(kind, campaign, tasks, width=16, **kwargs):
    """Outcomes of a BatchRunner over *tasks* next to the scalar
    reference, plus the counter delta of the batched pass."""

    def scalar(index):
        return campaign._one_run(*tasks[index])

    runner = BatchRunner(
        kind, tasks, scalar, width, campaign.factory, **kwargs
    )
    assert runner._kernel is not None, "kernel refused the target"
    before = dict(_counters.COUNTERS)
    try:
        batched = [runner(i) for i in range(len(tasks))]
    finally:
        runner.close()
    delta = Counter(_counters.since(before))
    reference = [scalar(i) for i in range(len(tasks))]
    return batched, reference, delta


def memory_tasks(campaign, cases, count, seed):
    """Randomized ``(location, case, bit, phase)`` tuples mixing both
    test cases, the way the memory/recovery campaigns pre-draw them."""
    probe = campaign.factory(cases[0])
    locations = MemoryMap(probe.system).locations()
    rng = random.Random(seed)
    tasks = []
    for index in range(count):
        location = locations[rng.randrange(len(locations))]
        tasks.append((
            location,
            cases[index % len(cases)],
            rng.randrange(location.valid_bits),
            rng.randrange(campaign.period_ticks),
        ))
    return tasks


class KernelContract:
    """The batch-vs-scalar contract every vector kernel keeps.

    Each subclass runs the same cases on one target: it names the
    target's simulator factory, test cases and assertion specs, the
    rows each case injects (test cases by index), and the target's
    dispatch chain.
    """

    #: (module, input port, case index, tick, bit)
    permeability_rows = ()
    #: permeability rows flipping the dispatch slot at tick 0 or later
    divergence_rows = ()
    #: (system input, case index, tick, bit)
    detection_rows = ()
    #: (row count, seed) of the randomized memory / recovery draws
    memory_draw = (0, 0)
    recovery_draw = (0, 0)
    #: (dispatch module, successor-cell prefix, slot signal)
    dispatch_chain = ("", "", "")

    @staticmethod
    def factory(tc):
        raise NotImplementedError

    @staticmethod
    def specs():
        raise NotImplementedError

    def run_permeability(self, cases, rows):
        campaign = PermeabilityCampaign(
            self.factory, cases, runs_per_input=1, seed=3
        )
        tasks = [
            (module, port, cases[case], tick, bit)
            for module, port, case, tick, bit in rows
        ]
        return batch_vs_scalar(
            "permeability", campaign, tasks, goldens=campaign.goldens
        )

    def run_memory(self, cases, draw):
        """Batch vs scalar over the memory tasks ``draw(campaign)``."""
        specs = self.specs()
        campaign = MemoryCampaign(self.factory, cases, specs, seed=5)
        return batch_vs_scalar(
            "memory", campaign, draw(campaign), specs=specs,
            period_ticks=campaign.period_ticks,
        )

    def test_permeability_rows_match_scalar(self, cases):
        batched, reference, delta = self.run_permeability(
            cases, self.permeability_rows
        )
        assert batched == reference
        # every row answered by a batch
        assert delta["vec_rows"] == len(self.permeability_rows)

    def test_dispatch_divergence_retires_to_scalar(self, cases):
        """A flip of the dispatch slot leaves the golden schedule
        immediately: the rows retire and are recomputed by the scalar
        path, so outcomes still match exactly."""
        batched, reference, delta = self.run_permeability(
            cases, self.divergence_rows
        )
        assert batched == reference
        # all rows dispatch-diverged
        assert delta["vec_retired_rows"] == len(self.divergence_rows)
        assert delta["vec_rows"] == 0

    def test_detection_rows_match_scalar(self, cases):
        specs = self.specs()
        campaign = DetectionCampaign(
            self.factory, cases, specs, runs_per_signal=1, seed=3
        )
        tasks = [
            (signal, cases[case], tick, bit)
            for signal, case, tick, bit in self.detection_rows
        ]
        batched, reference, delta = batch_vs_scalar(
            "detection", campaign, tasks, specs=specs
        )
        assert batched == reference
        assert delta["vec_rows"] == len(tasks)

    def test_memory_rows_match_scalar(self, cases):
        count, seed = self.memory_draw
        batched, reference, delta = self.run_memory(
            cases, lambda c: memory_tasks(c, cases, count, seed=seed)
        )
        assert batched == reference
        assert delta["vec_rows"] > 0  # some rows really ran batched

    def test_memory_cross_case_group(self, cases):
        """Two cases sharing one (location, bit, phase) land in the
        same group: per-row golden indirection in action."""
        location = MemoryMap(self.factory(cases[0]).system).locations()[0]
        batched, reference, delta = self.run_memory(
            cases,
            lambda c: [(location, cases[0], 0, 3), (location, cases[1], 0, 3)],
        )
        assert batched == reference
        assert delta["vec_groups"] == 1  # one group for both cases
        assert delta["vec_cross_case_groups"] == 1  # counted as cross-case
        # one group's slots at width 16
        assert delta["vec_group_capacity"] == 16

    def test_memory_dispatch_chain_rows_stay_batched(self, cases):
        """Memory flips on the dispatch chain — the dispatch module's
        slot-successor cells and the slot signal's backing store —
        corrupt the schedule itself.  Per-row masked dispatch follows
        each row's own (possibly corrupted) slot, so these rows stay in
        the batch (0 retired) and still match the scalar path bit for
        bit."""
        module, prefix, slot_signal = self.dispatch_chain
        chain = [
            loc
            for loc in MemoryMap(self.factory(cases[0]).system).locations()
            if loc.module == module
            and (loc.cell.startswith(prefix) or loc.cell == slot_signal)
        ]
        assert chain, "no dispatch-chain locations on the memory map"

        def draw(campaign):
            rng = random.Random(13)
            tasks = []
            for index in range(8):
                location = chain[index % len(chain)]
                tasks.append((
                    location,
                    cases[index % 2],
                    rng.randrange(location.valid_bits),
                    rng.randrange(campaign.period_ticks),
                ))
            return tasks

        batched, reference, delta = self.run_memory(cases, draw)
        assert batched == reference
        # no dispatch-divergence retirements
        assert delta["vec_retired_rows"] == 0
        # every row answered by the batch
        assert delta["vec_rows"] == 8

    def test_recovery_rows_match_scalar(self, cases):
        specs = self.specs()
        campaign = RecoveryCampaign(self.factory, cases, specs, seed=5)
        count, seed = self.recovery_draw
        tasks = memory_tasks(campaign, cases, count, seed=seed)
        batched, reference, delta = batch_vs_scalar(
            "recovery", campaign, tasks, specs=specs,
            policies=campaign.policies,
            period_ticks=campaign.period_ticks,
        )
        assert batched == reference
        assert delta["vec_rows"] > 0


class TestWatertankKernel(KernelContract):
    factory = staticmethod(tank_factory)
    specs = staticmethod(tank_assertions)
    permeability_rows = (
        ("LEVEL_S", "LVL_ADC", 0, 40, 2),
        ("LEVEL_S", "LVL_ADC", 1, 120, 9),
        ("LEVEL_S", "LVL_ADC", 0, 299, 0),
        ("CTRL", "level_f", 0, 7, 14),
        ("CTRL", "inflow_rate", 1, 55, 3),
        ("CTRL", "ticks", 0, 90, 1),
        ("FLOW_S", "FLOW_CNT", 1, 33, 7),
        ("FLOW_S", "FLOW_CNT", 0, 34, 0),
    )
    divergence_rows = (
        ("TIMER", "tick_nbr", 0, 0, 0),
        ("TIMER", "tick_nbr", 0, 0, 1),
        ("TIMER", "tick_nbr", 1, 150, 2),
    )
    detection_rows = (
        ("LVL_ADC", 0, 0, 9),
        ("LVL_ADC", 1, 60, 5),
        ("FLOW_CNT", 0, 120, 7),
        ("FLOW_CNT", 1, 299, 0),
    )
    memory_draw = (12, 5)
    recovery_draw = (10, 7)
    dispatch_chain = ("TIMER", "succ", "tick_nbr")

    @pytest.fixture
    def cases(self, tank_cases):
        return tank_cases


class TestArrestmentKernel(KernelContract):
    factory = staticmethod(arrestment_factory)
    permeability_rows = (
        ("DIST_S", "PACNT", 0, 500, 3),
        ("DIST_S", "TIC1", 1, 1200, 11),
        ("DIST_S", "TCNT", 0, 40, 0),
        ("CALC", "pulscnt", 1, 2500, 8),
        ("CALC", "i", 0, 700, 1),
        ("CALC", "stopped", 1, 900, 0),
        ("V_REG", "SetValue", 0, 3000, 13),
        ("V_REG", "IsValue", 1, 100, 6),
    )
    divergence_rows = (
        ("CLOCK", "ms_slot_nbr", 0, 0, 0),
        ("CLOCK", "ms_slot_nbr", 1, 0, 4),
    )
    detection_rows = (
        ("PACNT", 0, 0, 2),
        ("ADC", 1, 800, 9),
        ("TCNT", 0, 3000, 15),
        ("TIC1", 1, 5500, 1),
    )
    memory_draw = (10, 5)
    recovery_draw = (8, 9)
    dispatch_chain = ("CLOCK", "slot_succ", "ms_slot_nbr")

    @staticmethod
    def specs():
        return list(EA_BY_NAME.values())

    @pytest.fixture
    def cases(self, arrestment_cases):
        return arrestment_cases


class TestCampaignAB:
    """Whole campaigns: batch_width on vs off is invisible in results."""

    def test_tank_permeability_identical(self, tank_cases):
        def run(config):
            estimate = PermeabilityCampaign(
                tank_factory, tank_cases, runs_per_input=4, seed=11,
                config=config,
            ).run()
            return estimate.direct_counts, estimate.active_runs

        assert run(None) == run(_batched(32))

    def test_tank_detection_identical(self, tank_cases):
        def run(config):
            result = DetectionCampaign(
                tank_factory, tank_cases, tank_assertions(),
                runs_per_signal=8, seed=11, config=config,
            ).run()
            return (
                result.n_injected, result.n_err, result.detections,
                result.run_records, result.run_latencies,
            )

        assert run(None) == run(_batched(32))

    def test_tank_memory_identical(self, tank_cases):
        def run(config):
            result = MemoryCampaign(
                tank_factory, tank_cases, tank_assertions(),
                seed=11, config=config,
            ).run()
            return [
                (r.region, r.location_label, r.fired, r.failed)
                for r in result.records
            ]

        assert run(None) == run(_batched(32))

    def test_tank_recovery_identical(self, tank_cases):
        def run(config):
            result = RecoveryCampaign(
                tank_factory, tank_cases, tank_assertions(),
                seed=11, config=config,
            ).run()
            return [
                (
                    o.region, o.location_label, o.detected,
                    o.baseline_failed, o.recovered_failed,
                    o.recovery_actions,
                )
                for o in result.outcomes
            ]

        assert run(None) == run(_batched(32))

    def test_telemetry_counts_batched_rows(self, tank_cases):
        campaign = DetectionCampaign(
            tank_factory, tank_cases, tank_assertions(),
            runs_per_signal=8, seed=11,
            config=_batched(32),
        )
        campaign.run()
        telemetry = campaign.telemetry
        assert telemetry.vec_rows > 0
        assert telemetry.vec_groups > 0
        assert telemetry.vec_batched_ticks > 0
        assert "vector" in telemetry.render()

    def test_telemetry_occupancy_and_cross_case(self, tank_cases):
        """Group occupancy (rows over offered slots) and cross-case
        group counts reach the telemetry line and run-event log."""
        campaign = MemoryCampaign(
            tank_factory, tank_cases, tank_assertions(),
            seed=11, config=_batched(32),
        )
        campaign.run()
        telemetry = campaign.telemetry
        assert telemetry.vec_group_capacity >= telemetry.vec_rows > 0
        assert 0.0 < telemetry.vec_occupancy <= 1.0
        # a memory sweep pairs every location with every case: the
        # planner must have packed cross-case groups
        assert telemetry.vec_cross_case_groups > 0
        rendered = telemetry.render()
        assert "occupancy=" in rendered
        assert "cross-case=" in rendered

    def test_run_event_carries_vector_fields(self, tank_cases, tmp_path):
        import json

        log = tmp_path / "events.jsonl"
        MemoryCampaign(
            tank_factory, tank_cases, tank_assertions(), seed=11,
            config=_batched(32, event_log_path=str(log)),
        ).run()
        events = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        run_end = [e for e in events if e["event"] == "run_end"][-1]
        assert run_end["vec_rows"] > 0
        assert run_end["vec_cross_case_groups"] > 0
        assert 0.0 < run_end["vec_occupancy"] <= 1.0

    def test_default_config_stays_scalar(self, tank_cases):
        campaign = DetectionCampaign(
            tank_factory, tank_cases, tank_assertions(),
            runs_per_signal=2, seed=11, config=CampaignConfig(),
        )
        campaign.run()
        assert campaign.telemetry.vec_rows == 0
        assert campaign.telemetry.vec_groups == 0

    def test_wrap_runner_passthrough_when_off(self):
        def runner(index):
            return index

        assert wrap_runner(
            "detection", runner, [], None, tank_factory
        ) is runner
        assert wrap_runner(
            "detection", runner, [], CampaignConfig(), tank_factory
        ) is runner

    def test_wrap_runner_passthrough_when_chaos_armed(
        self, tank_cases, monkeypatch
    ):
        """An armed chaos hook keeps the whole campaign scalar: no
        tick-0 templates, no golden pack, no batch-aligned chunks."""
        specs = tank_assertions()
        campaign = DetectionCampaign(
            tank_factory, tank_cases, specs, runs_per_signal=1, seed=3
        )
        tasks = [
            ("LVL_ADC", tank_cases[0], 0, 9),
            ("FLOW_CNT", tank_cases[1], 60, 5),
        ]

        def runner(index):
            return campaign._one_run(*tasks[index])

        def wrap():
            return wrap_runner(
                "detection", runner, tasks, _batched(16), campaign.factory,
                specs=specs,
            )

        batched = wrap()
        assert isinstance(batched, BatchRunner)
        batched.close()
        monkeypatch.setenv("REPRO_CHAOS_FAIL_INDEX", "1")
        assert wrap() is runner


@pytest.mark.slow
class TestCampaignABProcess:
    """The batched core composes with the process pool: groups are
    computed whole inside one worker and results stay bit-identical."""

    def test_arrestment_detection_identical(self, arrestment_cases):
        def run(batch_width):
            result = DetectionCampaign(
                arrestment_factory, arrestment_cases,
                list(EA_BY_NAME.values()),
                runs_per_signal=6, seed=11,
                config=_batched(batch_width, backend="process", jobs=2),
            ).run()
            return (
                result.n_injected, result.n_err, result.detections,
                result.run_records, result.run_latencies,
            )

        assert run(0) == run(16)

    def test_tank_permeability_identical(self, tank_cases):
        def run(batch_width):
            estimate = PermeabilityCampaign(
                tank_factory, tank_cases, runs_per_input=4, seed=11,
                config=_batched(batch_width, backend="process", jobs=2),
            ).run()
            return estimate.direct_counts, estimate.active_runs

        assert run(0) == run(16)

    def test_tank_memory_identical(self, tank_cases):
        def run(batch_width):
            result = MemoryCampaign(
                tank_factory, tank_cases, tank_assertions(), seed=11,
                config=_batched(batch_width, backend="process", jobs=2),
            ).run()
            return [
                (r.region, r.location_label, r.fired, r.failed)
                for r in result.records
            ]

        assert run(0) == run(16)

    def test_arrestment_recovery_identical(self, arrestment_cases):
        def run(batch_width):
            result = RecoveryCampaign(
                arrestment_factory, arrestment_cases,
                list(EA_BY_NAME.values()), seed=11,
                config=_batched(batch_width, backend="process", jobs=2),
            ).run()
            return [
                (
                    o.region, o.location_label, o.detected,
                    o.baseline_failed, o.recovered_failed,
                    o.recovery_actions,
                )
                for o in result.outcomes
            ]

        assert run(0) == run(16)
