"""The extension contract of the closed-loop simulator base.

A new target subclasses :class:`repro.model.simulator.ClosedLoopSimulator`
with its plant, sensors, schedule, verdict and tick loop — and nothing
else — and every campaign driver runs against it.  The toy room heater
below has two modules and no vector kernel, so asking for batched
execution falls back to the scalar path with identical results.
"""

from dataclasses import dataclass

from repro.fi import CampaignConfig, PermeabilityCampaign
from repro.fi.executor import VectorPolicy
from repro.model import (
    FunctionModule,
    SignalRole,
    SignalSpec,
    SignalType,
    SystemModel,
)
from repro.model.simulator import ClosedLoopSimulator, SignalTraces

SETPOINT_COUNTS = 400  #: 20 degC at 20 ADC counts per degree


def build_room_system() -> SystemModel:
    """TEMP_ADC -> SENSE -> temp_f -> CTRL -> HEAT."""
    system = SystemModel("room")
    system.add_signal(SignalSpec(
        "TEMP_ADC", SignalType.UINT, width=10, role=SignalRole.SYSTEM_INPUT
    ))
    system.add_signal(SignalSpec("temp_f", SignalType.UINT, width=16))
    system.add_signal(SignalSpec(
        "HEAT", SignalType.UINT, width=8, role=SignalRole.SYSTEM_OUTPUT
    ))
    system.add_module(FunctionModule(
        "SENSE", inputs=["TEMP_ADC"], outputs=["temp_f"],
        fn=lambda args, state: {"temp_f": args["TEMP_ADC"]},
    ))
    system.add_module(FunctionModule(
        "CTRL", inputs=["temp_f"], outputs=["HEAT"],
        fn=lambda args, state: {
            "HEAT": max(0, min(255, (SETPOINT_COUNTS - args["temp_f"]) * 4)),
        },
    ))
    system.connect_input("TEMP_ADC", "SENSE", "TEMP_ADC")
    system.bind_output("temp_f", "SENSE", "temp_f")
    system.connect_input("temp_f", "CTRL", "temp_f")
    system.bind_output("HEAT", "CTRL", "HEAT")
    return system


class Room:
    """First-order thermal plant heated by the HEAT command."""

    def __init__(self, temp_c: float):
        self.temp_c = temp_c

    def step(self, heat: int) -> None:
        self.temp_c += heat * 0.0004 - (self.temp_c - 15.0) * 0.002

    def snapshot(self) -> dict:
        return {"temp_c": self.temp_c}

    def restore(self, snapshot: dict) -> None:
        self.temp_c = snapshot["temp_c"]


class Thermometer:
    """A 10-bit converter, 20 counts per degree."""

    def __init__(self):
        self.adc = 0

    def advance(self, temp_c: float) -> None:
        self.adc = max(0, min(1023, int(temp_c * 20)))

    def snapshot(self) -> dict:
        return {"adc": self.adc}

    def restore(self, snapshot: dict) -> None:
        self.adc = snapshot["adc"]


@dataclass(frozen=True)
class RoomCase:
    case_id: int
    start_c: float

    @property
    def label(self) -> str:
        return f"start {self.start_c} degC"


@dataclass
class RoomVerdict:
    failed: bool

    def describe(self) -> str:
        return "FAILURE (overheated)" if self.failed else "OK"


@dataclass
class RoomResult:
    test_case: RoomCase
    ticks_run: int
    completion_tick: int
    verdict: RoomVerdict
    traces: SignalTraces


class RoomSimulator(ClosedLoopSimulator):
    """The whole target: plant, sensors, schedule, verdict, loop."""

    _REGISTER_OF = {"TEMP_ADC": "adc"}

    def __init__(self, test_case: RoomCase, ticks: int = 200):
        super().__init__(
            test_case,
            build_room_system(),
            dispatch_module="SENSE",
            module_slots={"CTRL": 0},
            n_slots=1,
            plant=Room(test_case.start_c),
            sensors=Thermometer(),
        )
        self.ticks = ticks
        self._overheated = False

    def _loop_state(self) -> dict:
        return {"overheated": self._overheated}

    def _restore_loop(self, loop: dict) -> None:
        self._overheated = loop["overheated"]

    def run(self) -> RoomResult:
        executor = self.executor
        probe = self._tick_probe
        tick = self._start_tick
        while tick < self.ticks:
            if probe is not None and probe(tick):
                break
            self.sensors.advance(self.plant.temp_c)
            self._write_sensor_inputs(tick)
            executor.begin_tick()
            executor.invoke("SENSE")
            for module in self._slot_map[0]:
                executor.invoke(module)
            executor.end_tick()
            self.plant.step(executor.store["HEAT"])
            self._overheated |= self.plant.temp_c > 30.0
            tick += 1
        return RoomResult(
            test_case=self.test_case,
            ticks_run=self.ticks,
            completion_tick=self.ticks - 1,
            verdict=RoomVerdict(failed=self._overheated),
            traces=self.traces,
        )


CASES = [RoomCase(0, 17.0), RoomCase(1, 22.0)]


def test_golden_run_regulates():
    result = RoomSimulator(CASES[0]).run()
    assert not result.verdict.failed
    assert result.traces.signals() == ["TEMP_ADC", "temp_f", "HEAT"]


def test_capture_restore_bit_identical():
    golden = RoomSimulator(CASES[1])
    states = {}

    def probe(tick):
        if tick == 120:
            states[tick] = golden.capture_state()
        return False

    golden.set_tick_probe(probe)
    expected = golden.run()
    resumed = RoomSimulator(CASES[1])
    resumed.restore_state(states[120])
    result = resumed.run()
    for signal in expected.traces.signals():
        assert list(result.traces.values_of(signal)) == list(
            expected.traces.values_of(signal)
        )


def test_permeability_campaign_runs_on_the_base():
    """No kernel supports the toy target: a batch width falls back to
    the scalar path, with the same estimate as batch width 0."""

    def run(width):
        campaign = PermeabilityCampaign(
            RoomSimulator, CASES, runs_per_input=6, seed=4,
            config=CampaignConfig(vector=VectorPolicy(batch_width=width)),
        )
        return campaign, campaign.run()

    campaign, estimate = run(16)
    _, reference = run(0)
    assert campaign.telemetry.vec_groups == 0
    assert campaign.telemetry.vec_rows == 0
    assert estimate.active_runs == {
        ("SENSE", "TEMP_ADC"): 6,
        ("CTRL", "temp_f"): 6,
    }
    # SENSE passes its input straight through
    assert estimate.values[("SENSE", "TEMP_ADC", "temp_f")] == 1.0
    assert estimate.values == reference.values
