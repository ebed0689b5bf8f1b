"""Struct-of-arrays batch kernel for the water-tank target.

The water-tank transcription over :class:`repro.fi.vector.VectorKernel`:
every scalar quantity of
:class:`~repro.watertank.simulation.WaterTankSimulator` — plant state,
module state cells, sensor registers, the signal store — becomes an
int64/float64 array with one row per run, and each module body is
transcribed onto those arrays in the exact operation order of the
scalar code (same quantization points, same branch structure encoded
as masks).  Outcomes are bit-identical to the scalar path by
construction; see :mod:`repro.fi.vector` for the contract.

Every mission lasts the full mission length, so all rows are live on
every tick and the kernel runs the base's unmasked, full-slice paths.
"""

from __future__ import annotations

import numpy as np

from repro.fi.vector import VectorKernel, q_bool, q_int
from repro.watertank import constants as C

__all__ = ["WatertankVectorKernel"]

_U8 = 0xFF
_U16 = 0xFFFF


class WatertankVectorKernel(VectorKernel):
    """Vectorized mission executor for batches of water-tank runs."""

    simulator = "WaterTankSimulator"
    dispatch_module = "TIMER"
    successor_cell = "succ{}"
    plant_keys = ("time_s", "level_m", "valve_pos", "total_inflow_m3")
    fixed_length = True

    def __init__(self, probe):
        super().__init__(probe, max_ticks=int(probe.mission_ticks))

    def _seed(self, job, P, judged):
        rows, cases = job.rows, job.cases
        P["mirror"] = self._rows(
            job.templates, rows, lambda t: t.sensors["_pulse_mirror"]
        )
        P["base"] = self._rows(
            cases, rows, lambda c: c.base_inflow_m3s, "float64"
        )
        P["step_amp"] = self._rows(
            cases, rows, lambda c: c.step_m3s, "float64"
        )
        if judged:
            # mission verdict accumulators
            P["missed"] = np.zeros(len(rows), dtype=np.int64)
            P["failed"] = np.zeros(len(rows), dtype=bool)

    def _advance_sensors(self, P, regs):
        # TankSensorSuite.advance
        adc_full = float((1 << C.LVL_ADC_BITS) - 1)
        ratio = np.maximum(
            0.0, np.minimum(1.0, P["level_m"] / C.TANK_HEIGHT_M)
        )
        # round() is banker's rounding; np.rint matches it exactly
        regs["LVL_ADC"] = np.rint(ratio * adc_full).astype(np.int64)
        pulses = np.floor(
            P["total_inflow_m3"] * C.PULSES_PER_M3
        ).astype(np.int64)
        mirror = P["mirror"]
        upd = pulses > mirror
        regs["FLOW_CNT"] = np.where(
            upd, (regs["FLOW_CNT"] + (pulses - mirror)) & _U8,
            regs["FLOW_CNT"],
        )
        P["mirror"] = np.where(upd, pulses, mirror)

    def _step_plant(self, P, S, t, entered):
        # TankPlant.step
        dt = C.TICK_S
        valve_full = (1 << C.VALVE_POS_BITS) - 1
        commanded = np.maximum(
            0.0, np.minimum(1.0, S["VALVE_POS"] / valve_full)
        )
        P["valve_pos"] += (commanded - P["valve_pos"]) * (
            dt / C.VALVE_TAU_S
        )
        phase = (P["time_s"] % C.DISTURBANCE_PERIOD_S) \
            / C.DISTURBANCE_PERIOD_S
        inflow = P["base"] + np.where(phase >= 0.5, P["step_amp"], 0.0)
        outflow = C.OUTFLOW_CV * P["valve_pos"] * np.sqrt(
            np.maximum(0.0, P["level_m"])
        )
        level = P["level_m"] + (inflow - outflow) * dt / C.TANK_AREA_M2
        P["level_m"] = level = np.maximum(
            0.0, np.minimum(C.TANK_HEIGHT_M, level)
        )
        P["total_inflow_m3"] += inflow * dt
        P["time_s"] += dt

        # _observe_safety (judged rows)
        if "failed" in P:
            bad = (level > C.ALARM_LEVEL_M) & (S["ALARM_OUT"] == 0)
            P["missed"] = missed = np.where(bad, P["missed"] + 1, 0)
            P["failed"] |= (
                (level >= C.MAX_LEVEL_M)
                | (level <= C.MIN_LEVEL_M)
                | (missed > C.ALARM_GRACE_TICKS)
            )
        return None

    def _outcome(self, P, n):
        failed = P.get("failed")
        return (
            [self.max_ticks - 1] * n,
            failed.tolist() if failed is not None else None,
        )

    # ------------------------------------------------------------------
    # Module bodies (exact transcriptions of repro.watertank.modules).
    # ------------------------------------------------------------------
    def _body_timer(self, args, st):
        (arg,) = args
        nxt = self._mem_local(
            "TIMER", "next_slot",
            np.where(arg < self.n_slots, self._successors(arg), 0),
        )
        st["ticks"] = (st["ticks"] + 1) & _U16
        return [nxt, st["ticks"]]

    def _body_level_s(self, args, st):
        (adc,) = args
        scaled = self._mem_local(  # local u16
            "LEVEL_S", "scaled", (adc << (16 - C.LVL_ADC_BITS)) & _U16
        )
        jump = np.abs(scaled - st["last_good"]) > C.LEVEL_MAX_JUMP
        rejects_b = (st["rejects"] + 1) & _U8
        resync = jump & (rejects_b > 5)
        hold = jump & ~resync
        sample = np.where(hold, st["last_good"], scaled)
        st["last_good"] = np.where(hold, st["last_good"], sample)
        st["rejects"] = np.where(hold, rejects_b, 0)
        sample = self._mem_local(  # local u16
            "LEVEL_S", "sample", sample & _U16
        )
        st["h2"] = st["h1"]
        st["h1"] = st["h0"]
        st["h0"] = sample
        low = np.minimum(st["h0"], st["h1"])
        high = np.maximum(st["h0"], st["h1"])
        median = np.maximum(low, np.minimum(high, st["h2"]))
        return [median & ~(C.LEVEL_QUANTUM - 1)]

    def _body_flow_s(self, args, st):
        (cnt,) = args
        delta = self._mem_local(  # local u8
            "FLOW_S", "delta", (cnt - st["last_cnt"]) & _U8
        )
        st["last_cnt"] = cnt & _U8
        pos = st["pos"] % C.FLOW_WINDOW
        w = np.stack(
            [st[f"w{j}"] for j in range(C.FLOW_WINDOW)], axis=1
        )
        w[np.arange(len(cnt)), pos] = delta
        for j in range(C.FLOW_WINDOW):
            st[f"w{j}"] = w[:, j].copy()
        st["pos"] = (pos + 1) % C.FLOW_WINDOW
        rate = self._mem_local(  # local u16 wraps
            "FLOW_S", "rate", (w.sum(axis=1) << 7) & _U16
        )
        return [rate]

    def _body_ctrl(self, args, st):
        level_f, inflow_rate, ticks = args
        err = self._mem_local(  # local i32
            "CTRL", "err", q_int(level_f - C.LEVEL_SETPOINT_COUNTS, 32)
        )
        clamp = C.CTRL_INTEG_CLAMP * 16
        integ = np.maximum(
            -clamp, np.minimum(clamp, st["integ"] + err)
        )
        st["integ"] = q_int(integ, 32)
        pterm = self._mem_local(
            "CTRL", "pterm", q_int((C.CTRL_KP_NUM * err) >> 8, 32)
        )
        ff = self._mem_local(
            "CTRL", "ff", q_int((C.CTRL_FF_NUM * inflow_rate) >> 8, 32)
        )
        target = self._mem_local(
            "CTRL", "target",
            q_int(pterm + ((C.CTRL_KI_NUM * integ) >> 8) + ff, 32),
        )
        target = np.maximum(0, np.minimum(C.VALUE_FULL_SCALE, target))
        started = st["started"] != 0
        dt = np.where(started, (ticks - st["last_ticks"]) & _U16, 0)
        st["started"] = np.ones(len(ticks), dtype=np.int64)
        st["last_ticks"] = ticks & _U16
        dt = self._mem_local(  # local u16
            "CTRL", "dt", np.minimum(dt, 50) & _U16
        )
        step = 400 * dt  # Ctrl.RATE_PER_TICK
        prev = st["cmd_prev"]
        cmd = np.where(
            target > prev,
            np.minimum(prev + step, target),
            np.maximum(prev - step, target),
        )
        st["cmd_prev"] = cmd & _U16
        return [cmd]

    def _body_alarm(self, args, st):
        (level_f,) = args
        level = self._mem_local(  # local u16
            "ALARM", "level_copy", level_f & _U16
        )
        latched = st["latched"] != 0
        unlatch = latched & (level < C.ALARM_OFF_COUNTS)
        latch = (~latched) & (level > C.ALARM_ON_COUNTS)
        new = np.where(unlatch, 0, np.where(latch, 1, st["latched"]))
        st["latched"] = q_bool(new)
        return [st["latched"]]

    def _body_valve_a(self, args, st):
        (valve_cmd,) = args
        return [self._mem_local("VALVE_A", "pos", (valve_cmd >> 4) & _U16)]

    _BODIES = {
        "TIMER": _body_timer,
        "LEVEL_S": _body_level_s,
        "FLOW_S": _body_flow_s,
        "CTRL": _body_ctrl,
        "ALARM": _body_alarm,
        "VALVE_A": _body_valve_a,
    }
