"""Integration tests for the fault-injection campaign drivers.

Campaigns here run at deliberately tiny scale; the statistically
meaningful runs live in the benchmark harness.  What these tests pin
down is the *mechanics*: determinism, accounting, and the qualitative
signatures that must hold at any scale (e.g. TIC1/TCNT errors never
propagate).
"""

import pytest

from repro.errors import CampaignError
from repro.fi.campaign import (
    DetectionCampaign,
    MemoryCampaign,
    PermeabilityCampaign,
)
from repro.fi.memory import MemoryMap, Region
from repro.edm.catalogue import EA_BY_NAME
from repro.target.simulation import ArrestmentSimulator


def factory(tc):
    return ArrestmentSimulator(tc)


@pytest.fixture(scope="module")
def two_cases(test_cases):
    return [test_cases[4], test_cases[20]]


class TestPermeabilityCampaign:
    def test_config_validation(self, two_cases):
        with pytest.raises(CampaignError):
            PermeabilityCampaign(factory, two_cases, runs_per_input=0)
        with pytest.raises(CampaignError):
            PermeabilityCampaign(factory, [])

    def test_estimates_cover_all_pairs(self, ctx):
        estimate = ctx.permeability_estimate()
        assert len(estimate.values) == 25
        for value in estimate.values.values():
            assert 0.0 <= value <= 1.0

    def test_deterministic_given_seed(self, two_cases):
        runs = [
            PermeabilityCampaign(
                factory, two_cases, runs_per_input=3, seed=11
            ).run().values
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_capture_inputs_never_propagate(self, ctx):
        """The debounced TIC1/TCNT path: all six pairs exactly zero."""
        estimate = ctx.permeability_estimate()
        for port in ("TIC1", "TCNT"):
            for out in ("pulscnt", "slow_speed", "stopped"):
                assert estimate.values[("DIST_S", port, out)] == 0.0

    def test_pacnt_to_pulscnt_is_high(self, ctx):
        assert ctx.permeability_estimate().values[
            ("DIST_S", "PACNT", "pulscnt")
        ] >= 0.8

    def test_clock_self_permeability_total(self, ctx):
        estimate = ctx.permeability_estimate()
        assert estimate.values[
            ("CLOCK", "ms_slot_nbr", "ms_slot_nbr")
        ] >= 0.8
        assert estimate.values[("CLOCK", "ms_slot_nbr", "mscnt")] == 0.0

    def test_unknown_pair_value_rejected(self, ctx):
        with pytest.raises(CampaignError):
            ctx.permeability_estimate().value("CALC", "nope", "i")


class TestDetectionCampaign:
    def test_config_validation(self, two_cases):
        with pytest.raises(CampaignError):
            DetectionCampaign(
                factory, two_cases, list(EA_BY_NAME.values()),
                runs_per_signal=0,
            )

    def test_targets_default_to_system_inputs(self, ctx):
        result = ctx.detection_result()
        assert set(result.targets) == {"PACNT", "TIC1", "TCNT", "ADC"}

    def test_n_err_at_most_injected(self, ctx):
        result = ctx.detection_result()
        for target in result.targets:
            assert 0 <= result.n_err[target] <= result.n_injected[target]

    def test_coverage_bounded(self, ctx):
        result = ctx.detection_result()
        for target in result.targets:
            for ea in result.ea_names:
                assert 0.0 <= result.coverage(target, ea) <= 1.0
            assert result.total_coverage(target) <= 1.0

    def test_subset_coverage_monotone(self, ctx):
        """A larger EA set can only detect more."""
        result = ctx.detection_result()
        for target in result.targets:
            small = result.total_coverage(target, ["EA4"])
            large = result.total_coverage(target, ["EA4", "EA1", "EA7"])
            full = result.total_coverage(target)
            assert small <= large <= full

    def test_capture_inputs_never_detected(self, ctx):
        """No propagation -> nothing to detect (paper Table 4)."""
        result = ctx.detection_result()
        assert result.total_coverage("TIC1") == 0.0
        assert result.total_coverage("TCNT") == 0.0

    def test_combined_row_consistent(self, ctx):
        result = ctx.detection_result()
        total_err = sum(result.n_err.values())
        combined = result.combined()
        if total_err:
            per_target_hits = sum(result.any_detections.values())
            assert combined["total"] == pytest.approx(
                per_target_hits / total_err
            )


class TestMemoryCampaign:
    def test_records_have_regions(self, ctx):
        result = ctx.memory_result()
        regions = {record.region for record in result.records}
        assert regions <= {Region.RAM, Region.STACK}

    def test_coverage_triple_bounds(self, ctx):
        result = ctx.memory_result()
        triple = result.coverage(["EA1", "EA4"], None)
        for value in (triple.c_tot, triple.c_fail, triple.c_nofail):
            assert 0.0 <= value <= 1.0
        assert triple.n_fail <= triple.n_runs

    def test_empty_selection_zero(self, ctx):
        result = ctx.memory_result()
        triple = result.coverage([], None)
        assert triple.c_tot == 0.0

    def test_superset_dominates(self, ctx):
        result = ctx.memory_result()
        small = result.coverage(["EA4"], None).c_tot
        full = result.coverage(list(EA_BY_NAME), None).c_tot
        assert small <= full

    def test_explicit_locations(self, two_cases, system):
        locations = MemoryMap(system).locations(Region.RAM)[:2]
        result = MemoryCampaign(
            factory, two_cases[:1], list(EA_BY_NAME.values()),
            locations=locations, seed=5,
        ).run()
        assert len(result.records) == 2
        assert all(r.region is Region.RAM for r in result.records)

    def test_requires_test_cases(self):
        with pytest.raises(CampaignError):
            MemoryCampaign(factory, [], list(EA_BY_NAME.values()))


class TestPipelineCleanup:
    def test_interrupted_dispatch_closes_executor_and_runner(
        self, monkeypatch, two_cases, system
    ):
        """Ctrl-C (or an integrity abort) in dispatch still releases the
        result store and the batched runner's shared memory."""
        import repro.fi.campaign as campaign_mod

        closed = []
        real_close = campaign_mod.CampaignExecutor.close

        def interrupt(self, *args, **kwargs):
            raise KeyboardInterrupt

        def close(self):
            closed.append("executor")
            real_close(self)

        monkeypatch.setattr(
            campaign_mod.CampaignExecutor, "run_tasks", interrupt
        )
        monkeypatch.setattr(campaign_mod.CampaignExecutor, "close", close)
        monkeypatch.setattr(
            campaign_mod, "close_runner",
            lambda runner: closed.append("runner"),
        )
        locations = MemoryMap(system).locations(Region.RAM)[:1]
        with pytest.raises(KeyboardInterrupt):
            MemoryCampaign(
                factory, two_cases[:1], list(EA_BY_NAME.values()),
                locations=locations, seed=5,
            ).run()
        assert closed == ["executor", "runner"]
