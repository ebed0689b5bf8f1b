"""Closed-loop arrestment simulation: software, plant, and verdict.

One :class:`ArrestmentSimulator` owns one engagement: it drives the
slot-scheduled software at the 1 ms tick, feeds the peripheral
registers from the plant's true state, applies the commanded brake
pressure back to the plant, and classifies the outcome.  The hooks,
traces, register corruption and checkpointing it exposes to the fault
injector come from :class:`~repro.model.simulator.ClosedLoopSimulator`;
:class:`SignalTraces` and :class:`SimulatorState` are re-exported from
there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.model.simulator import (
    ClosedLoopSimulator,
    SignalTraces,
    SimulatorState,
)
from repro.model.system import SystemModel
from repro.target import constants as C
from repro.target.failure import FailureClassifier, FailureVerdict
from repro.target.hardware import SensorSuite
from repro.target.physics import ArrestmentPlant
from repro.target.testcases import TestCase
from repro.target.wiring import build_arrestment_system

__all__ = [
    "SignalTraces",
    "SimulatorState",
    "ArrestmentResult",
    "ArrestmentSimulator",
]


@dataclass
class ArrestmentResult:
    """Outcome of one simulated engagement."""

    test_case: TestCase
    ticks_run: int
    completion_tick: Optional[int]
    verdict: FailureVerdict
    traces: SignalTraces
    stop_distance_m: float
    stop_time_s: float

    @property
    def arrested(self) -> bool:
        return self.completion_tick is not None

    @property
    def failed(self) -> bool:
        return self.verdict.failed


class ArrestmentSimulator(ClosedLoopSimulator):
    """One engagement of the arrestment system."""

    _REGISTER_OF = {
        "PACNT": "pacnt",
        "TIC1": "tic1",
        "TCNT": "tcnt",
        "ADC": "adc",
    }

    def __init__(
        self,
        test_case: TestCase,
        timeout_s: float = C.DEFAULT_TIMEOUT_S,
        record_traces: bool = True,
        system: Optional[SystemModel] = None,
        module_slots: Optional[Dict[str, int]] = None,
    ):
        if system is None:
            system = build_arrestment_system(
                pressure_scale=C.pressure_scale_counts(test_case.mass_kg)
            )
        super().__init__(
            test_case,
            system,
            dispatch_module="CLOCK",
            module_slots=(
                C.MODULE_SLOTS if module_slots is None else module_slots
            ),
            n_slots=C.N_SLOTS,
            plant=ArrestmentPlant(
                test_case.mass_kg, test_case.engaging_velocity_ms
            ),
            sensors=SensorSuite(),
            classifier=FailureClassifier(test_case),
            record_traces=record_traces,
        )
        self.timeout_s = timeout_s
        self._completion: Optional[int] = None
        self._stop_tick: Optional[int] = None
        self._ticks_run = 0

    def _loop_state(self) -> dict:
        return {
            "completion": self._completion,
            "stop_tick": self._stop_tick,
            "ticks_run": self._ticks_run,
        }

    def _restore_loop(self, loop: dict) -> None:
        self._completion = loop["completion"]
        self._stop_tick = loop["stop_tick"]
        self._ticks_run = loop["ticks_run"]

    # ------------------------------------------------------------------
    # The engagement loop.
    # ------------------------------------------------------------------
    def run(self) -> ArrestmentResult:
        executor = self.executor
        store = executor.store
        max_ticks = int(self.timeout_s / C.TICK_S)
        abort_distance = C.MAX_STOPPING_DISTANCE_M + C.OVERRUN_ABORT_MARGIN_M
        probe = self._tick_probe
        tick = self._start_tick
        while tick < max_ticks:
            if probe is not None and probe(tick):
                break
            self.sensors.advance(
                self.plant.state.distance_m, self.plant.state.pressure_pa
            )
            self._write_sensor_inputs(tick)
            executor.begin_tick()
            executor.invoke("CLOCK")
            slot = store["ms_slot_nbr"]
            for module in self._slot_map.get(slot, ()):
                executor.invoke(module)
            executor.end_tick()
            state = self.plant.step(
                SensorSuite.commanded_pressure(store["TOC2"])
            )
            self.classifier.observe(state)
            self._ticks_run = tick + 1
            if self._stop_tick is None and self.plant.is_stopped:
                self._stop_tick = tick
            if (
                self._completion is None
                and store["stopped"]
                and self.plant.is_stopped
            ):
                self._completion = tick
            if (
                self._completion is not None
                and tick >= self._completion + C.POST_STOP_TICKS
            ):
                break
            if state.distance_m > abort_distance:
                break
            tick += 1
        ticks_run = self._ticks_run
        stop_tick = self._stop_tick
        return ArrestmentResult(
            test_case=self.test_case,
            ticks_run=ticks_run,
            completion_tick=self._completion,
            verdict=self.classifier.verdict(
                arrested=self._completion is not None
            ),
            traces=self.traces,
            stop_distance_m=self.plant.state.distance_m,
            stop_time_s=(
                stop_tick if stop_tick is not None else ticks_run
            ) * C.TICK_S,
        )
