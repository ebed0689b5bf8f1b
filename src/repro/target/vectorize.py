"""Struct-of-arrays batch kernel for the arrestment target.

The arrestment transcription over :class:`repro.fi.vector.VectorKernel`:
one row per injected engagement, every register/state cell/plant
quantity an array, each module body transcribed in the scalar
operation order.  Unlike the fixed-length tank mission, engagements
end per row (post-stop window or overrun abort), so the kernel runs
with the base's ``running`` mask: rows that left the engagement loop
stop evaluating their monitor bank, stop recording invocations, and
freeze their completion latches, while the batch advances the
remaining rows.
"""

from __future__ import annotations

import numpy as np

from repro.fi.vector import VectorKernel, q_int
from repro.target import constants as C

__all__ = ["ArrestmentVectorKernel"]

_U8 = 0xFF
_U16 = 0xFFFF


class ArrestmentVectorKernel(VectorKernel):
    """Vectorized engagement executor for batches of arrestment runs."""

    simulator = "ArrestmentSimulator"
    dispatch_module = "CLOCK"
    successor_cell = "slot_succ{}"
    plant_keys = ("velocity_ms", "distance_m", "pressure_pa")

    def __init__(self, probe):
        super().__init__(probe, max_ticks=int(probe.timeout_s / C.TICK_S))
        self._scale = None  #: per-row CALC pressure scale, set per group

    def _seed(self, job, P, judged):
        rows, cases = job.rows, job.cases
        P["mirror"] = self._rows(
            job.templates, rows, lambda t: t.sensors["_pulse_mirror"]
        )
        P["mass"] = self._rows(cases, rows, lambda c: c.mass_kg, "float64")
        P["completion"] = np.full(len(rows), -1, dtype=np.int64)
        self._scale = self._rows(
            cases, rows, lambda c: C.pressure_scale_counts(c.mass_kg)
        )
        if judged:
            # failure-classifier accumulators
            P["kinds"] = np.zeros(len(rows), dtype=bool)
            P["force_limit"] = self._rows(
                cases, rows,
                lambda c: C.max_retardation_force_n(
                    c.mass_kg, c.engaging_velocity_ms
                ),
                "float64",
            )

    def _advance_sensors(self, P, regs):
        # SensorSuite.advance
        regs["TCNT"] = (regs["TCNT"] + C.TCNT_PER_TICK) & _U16
        pulses = (P["distance_m"] * C.PULSES_PER_M).astype(np.int64)
        mirror = P["mirror"]
        new = pulses - mirror
        upd = new > 0
        P["mirror"] = np.where(upd, pulses, mirror)
        regs["PACNT"] = np.where(
            upd,
            (regs["PACNT"] + new) & ((1 << C.PACNT_BITS) - 1),
            regs["PACNT"],
        )
        regs["TIC1"] = np.where(upd, regs["TCNT"], regs["TIC1"])
        fraction = np.minimum(
            np.maximum(P["pressure_pa"] / C.ADC_FULL_SCALE_PA, 0.0), 1.0
        )
        adc_full = (1 << C.ADC_BITS) - 1
        regs["ADC"] = np.minimum(
            adc_full, (fraction * adc_full).astype(np.int64)
        )

    def _step_plant(self, P, S, t, entered):
        # ArrestmentPlant.step
        dt = C.TICK_S
        toc_full = (1 << C.TOC2_BITS) - 1
        commanded_pa = np.minimum(
            np.maximum(S["TOC2"] / toc_full, 0.0), 1.0
        ) * C.P_MAX_PA
        commanded = np.minimum(np.maximum(commanded_pa, 0.0), C.P_MAX_PA)
        pressure = P["pressure_pa"]
        P["pressure_pa"] = pressure = pressure + (commanded - pressure) \
            * dt / C.ACTUATOR_TAU_S
        velocity = P["velocity_ms"]
        distance = P["distance_m"]
        moving = velocity > 0.0
        force = C.BRAKE_GAIN_N_PER_PA * pressure + C.TAPE_DRAG_N
        retardation = force / P["mass"]
        new_velocity = np.maximum(0.0, velocity - retardation * dt)
        P["distance_m"] = distance = np.where(
            moving,
            distance + (velocity + new_velocity) * 0.5 * dt,
            distance,
        )
        P["velocity_ms"] = velocity = np.where(
            moving, new_velocity, velocity
        )

        # FailureClassifier.observe (judged live rows; a stopped plant
        # reports zero force and retardation)
        if "kinds" in P:
            obs_ret = np.where(moving, retardation, 0.0)
            obs_force = np.where(moving, force, 0.0)
            P["kinds"] |= entered & (
                (obs_ret > C.MAX_RETARDATION_G * C.G)
                | (obs_force > P["force_limit"])
                | (distance > C.MAX_STOPPING_DISTANCE_M)
            )

        # completion latch and loop exits (live rows only)
        completion = P["completion"]
        newly_complete = (
            entered
            & (completion < 0)
            & (S["stopped"] != 0)
            & (velocity == 0.0)
        )
        P["completion"] = completion = np.where(newly_complete, t, completion)
        abort_distance = C.MAX_STOPPING_DISTANCE_M + C.OVERRUN_ABORT_MARGIN_M
        return entered & (
            ((completion >= 0) & (t >= completion + C.POST_STOP_TICKS))
            | (distance > abort_distance)
        )

    def _outcome(self, P, n):
        completion = P["completion"]
        failed = P["kinds"] | (completion < 0) if "kinds" in P else None
        return (
            [int(v) if v >= 0 else None for v in completion],
            failed.tolist() if failed is not None else None,
        )

    # ------------------------------------------------------------------
    # Module bodies (exact transcriptions of repro.target.modules).
    # ------------------------------------------------------------------
    def _body_clock(self, args, st):
        (arg,) = args
        in_range = (arg >= 0) & (arg < self.n_slots)
        nxt = self._mem_local(  # local u8
            "CLOCK", "next_slot",
            np.where(in_range, self._successors(arg), 0) & _U8,
        )
        st["mscnt"] = (st["mscnt"] + 1) & _U16
        return [nxt, st["mscnt"]]

    def _body_dist_s(self, args, st):
        pacnt, tic1, tcnt = args
        delta = self._mem_local(  # local u8
            "DIST_S", "delta", (pacnt - st["last_cnt"]) & _U8
        )
        st["last_cnt"] = pacnt & _U8
        st["pulscnt_acc"] = (st["pulscnt_acc"] + delta) & _U16
        pos = st["win_pos"] % C.SPEED_WINDOW
        w = np.stack(
            [st[f"win{j}"] for j in range(C.SPEED_WINDOW)], axis=1
        )
        w[np.arange(len(pacnt)), pos] = delta
        for j in range(C.SPEED_WINDOW):
            st[f"win{j}"] = w[:, j].copy()
        st["win_pos"] = (st["win_pos"] + 1) & _U8
        st["win_fill"] = np.minimum(st["win_fill"] + 1, C.SPEED_WINDOW)
        window_sum = w.sum(axis=1)
        pulse_slow = (st["win_fill"] >= C.SPEED_WINDOW) & (
            window_sum < C.SLOW_PULSE_THRESHOLD
        )
        interval = (tcnt - tic1) & _U16
        st["intv_streak"] = np.where(
            interval > C.SLOW_INTERVAL_TCNT,
            np.minimum(st["intv_streak"] + 1, 255),
            0,
        )
        interval_slow = st["intv_streak"] >= 2
        st["quiet"] = np.where(
            delta == 0, np.minimum(st["quiet"] + 1, 255), 0
        )
        st["halted"] = np.where(
            st["quiet"] >= C.STOPPED_QUIET_INVOCATIONS, 1, st["halted"]
        )
        return [
            st["pulscnt_acc"],
            np.where(pulse_slow | interval_slow, 1, 0),
            st["halted"],
        ]

    def _body_calc(self, args, st):
        i, mscnt, pulscnt, slow_speed, stopped = args
        n_prog = len(C.PRESSURE_PROGRAM)
        advance = (
            (stopped == 0)
            & (i < n_prog - 1)
            & ((pulscnt >> C.SEG_SHIFT) > i)
        )
        i_out = np.where(advance, i + 1, i)
        program = np.array(C.PRESSURE_PROGRAM, dtype=np.float64)
        fraction = program[i & (n_prog - 1)]
        # int() truncates toward zero; both products are non-negative
        target = np.where(
            slow_speed != 0,
            (C.SLOW_SPEED_TARGET * self._scale).astype(np.int64),
            (fraction * self._scale).astype(np.int64),
        )
        target = np.minimum(target, mscnt * C.TIME_RAMP_PER_MS)
        target = self._mem_local(  # local u16
            "CALC", "target", target & _U16
        )
        prev = st["set_prev"]
        dt = (mscnt - st["last_mscnt"]) & _U16
        step = C.SETVALUE_RATE_PER_MS * np.minimum(
            dt, C.SETVALUE_DT_CLAMP
        )
        new = np.where(
            target > prev,
            np.minimum(prev + step, target),
            np.where(
                target < prev, np.maximum(prev - step, target), prev
            ),
        )
        st["set_prev"] = new & _U16
        st["last_mscnt"] = mscnt & _U16
        return [i_out, new]

    def _body_pres_s(self, args, st):
        (adc,) = args
        scaled = self._mem_local(  # local u16
            "PRES_S", "scaled", (adc << 6) & _U16
        )
        jump = np.abs(scaled - st["last"]) > C.PRES_MAX_JUMP
        rejects_b = (st["rejects"] + 1) & _U8
        resync = jump & (rejects_b > 5)  # PresS.MAX_REJECT_STREAK
        hold = jump & ~resync  # the only rejecting branch
        st["rejects"] = np.where(hold, rejects_b, 0)
        accept = ~hold
        st["last"] = np.where(accept, scaled, st["last"])
        depth = 5  # PresS.DEPTH
        for j in range(depth - 1):
            st[f"h{j}"] = np.where(accept, st[f"h{j + 1}"], st[f"h{j}"])
        st[f"h{depth - 1}"] = np.where(
            accept, scaled, st[f"h{depth - 1}"]
        )
        history = np.stack(
            [st[f"h{j}"] for j in range(depth)], axis=1
        )
        median = np.sort(history, axis=1)[:, depth // 2]
        return [median & ~(1024 - 1)]  # PresS.QUANTUM

    def _body_v_reg(self, args, st):
        set_value, is_value = args
        err = self._mem_local(  # local i32
            "V_REG", "err", q_int(set_value - is_value, 32)
        )
        clamp = C.VREG_INTEG_CLAMP * 16
        integ = np.maximum(
            -clamp, np.minimum(clamp, st["integ"] + err)
        )
        st["integ"] = q_int(integ, 32)
        out = (C.VREG_KP_NUM * err + C.VREG_KI_NUM * integ) >> 8
        return [np.maximum(0, np.minimum(C.VALUE_FULL_SCALE, out))]

    def _body_pres_a(self, args, st):
        (out_value,) = args
        return [
            self._mem_local(  # local u14
                "PRES_A", "toc", (out_value >> 2) & ((1 << C.TOC2_BITS) - 1)
            )
        ]

    _BODIES = {
        "CLOCK": _body_clock,
        "DIST_S": _body_dist_s,
        "CALC": _body_calc,
        "PRES_S": _body_pres_s,
        "V_REG": _body_v_reg,
        "PRES_A": _body_pres_a,
    }
