"""Closed-loop water-tank mission simulation.

:class:`WaterTankSimulator` runs on the same
:class:`~repro.model.simulator.ClosedLoopSimulator` skeleton as the
arrestment simulator (hooks, traces, ``corrupt_input``, ``executor``,
checkpointing), so every campaign driver of :mod:`repro.fi` works
against this target unchanged.

The mission is fixed-duration regulation: a run *completes* when the
full mission has been simulated (so every injection within the mission
is active), and it *fails* if any of the vessel's safety criteria was
violated: overflow (level >= 3.5 m), dry-run (level <= 0.5 m), or a
missed alarm (level above 3.0 m for more than a second with the alarm
line deasserted).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.model.simulator import ClosedLoopSimulator, SignalTraces
from repro.watertank import constants as C
from repro.watertank.physics import InflowProfile, TankPlant, TankSensorSuite
from repro.watertank.testcases import TankTestCase
from repro.watertank.wiring import build_watertank_system

__all__ = ["TankVerdict", "TankMissionResult", "WaterTankSimulator"]


@dataclass
class TankVerdict:
    """Safety outcome of one mission."""

    failed: bool
    kinds: List[str] = field(default_factory=list)
    peak_level_m: float = 0.0
    min_level_m: float = 0.0

    def describe(self) -> str:
        if not self.failed:
            return (
                f"OK (level {self.min_level_m:.2f}..{self.peak_level_m:.2f} m)"
            )
        return (
            f"FAILURE [{', '.join(self.kinds)}] "
            f"(level {self.min_level_m:.2f}..{self.peak_level_m:.2f} m)"
        )


@dataclass
class TankMissionResult:
    test_case: TankTestCase
    ticks_run: int
    completion_tick: Optional[int]
    verdict: TankVerdict
    traces: SignalTraces

    @property
    def arrested(self) -> bool:  # campaign-compat alias: mission done
        return self.completion_tick is not None

    @property
    def failed(self) -> bool:
        return self.verdict.failed


class WaterTankSimulator(ClosedLoopSimulator):
    """One fixed-duration regulation mission."""

    _REGISTER_OF = {"LVL_ADC": "lvl_adc", "FLOW_CNT": "flow_cnt"}

    def __init__(
        self,
        test_case: TankTestCase,
        mission_ticks: int = C.MISSION_TICKS,
        record_traces: bool = True,
    ):
        super().__init__(
            test_case,
            build_watertank_system(),
            dispatch_module="TIMER",
            module_slots=C.MODULE_SLOTS,
            n_slots=C.N_SLOTS,
            plant=TankPlant(
                InflowProfile(test_case.base_inflow_m3s, test_case.step_m3s)
            ),
            sensors=TankSensorSuite(),
            record_traces=record_traces,
        )
        self.mission_ticks = mission_ticks
        #: consecutive ticks with level above the alarm threshold while
        #: the alarm line is deasserted
        self._missed_alarm_ticks = 0
        self._failure_kinds: List[str] = []

    def _loop_state(self) -> dict:
        return {
            "missed_alarm_ticks": self._missed_alarm_ticks,
            "failure_kinds": tuple(self._failure_kinds),
        }

    def _restore_loop(self, loop: dict) -> None:
        self._missed_alarm_ticks = loop["missed_alarm_ticks"]
        self._failure_kinds = list(loop["failure_kinds"])

    # ------------------------------------------------------------------
    # The mission loop.
    # ------------------------------------------------------------------
    def _observe_safety(self, tick: int) -> None:
        level = self.plant.state.level_m
        if level >= C.MAX_LEVEL_M and "overflow" not in self._failure_kinds:
            self._failure_kinds.append("overflow")
        if level <= C.MIN_LEVEL_M and "dry_run" not in self._failure_kinds:
            self._failure_kinds.append("dry_run")
        alarm = self.executor.store["ALARM_OUT"]
        if level > C.ALARM_LEVEL_M and not alarm:
            self._missed_alarm_ticks += 1
            if (
                self._missed_alarm_ticks > C.ALARM_GRACE_TICKS
                and "missed_alarm" not in self._failure_kinds
            ):
                self._failure_kinds.append("missed_alarm")
        else:
            self._missed_alarm_ticks = 0

    def run(self) -> TankMissionResult:
        executor = self.executor
        store = executor.store
        probe = self._tick_probe
        tick = self._start_tick
        while tick < self.mission_ticks:
            if probe is not None and probe(tick):
                break
            self.sensors.advance(
                self.plant.state.level_m, self.plant.total_inflow_m3
            )
            self._write_sensor_inputs(tick)
            executor.begin_tick()
            executor.invoke("TIMER")
            slot = store["tick_nbr"]
            for module in self._slot_map.get(slot, ()):
                executor.invoke(module)
            executor.end_tick()
            commanded = TankSensorSuite.commanded_valve(store["VALVE_POS"])
            self.plant.step(commanded)
            self._observe_safety(tick)
            tick += 1
        return TankMissionResult(
            test_case=self.test_case,
            ticks_run=self.mission_ticks,
            completion_tick=self.mission_ticks - 1,
            verdict=TankVerdict(
                failed=bool(self._failure_kinds),
                kinds=list(self._failure_kinds),
                peak_level_m=self.plant.peak_level_m,
                min_level_m=self.plant.min_level_m,
            ),
            traces=self.traces,
        )
