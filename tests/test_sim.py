import re
import warnings

import numpy as np
import pytest

from resetcert import sim as sim_module
from resetcert.elements import clegg, gfore, gsore, pci, realization
from resetcert.errors import RunTooLong
from resetcert.lti import assemble_closed_loop, tf
from resetcert.sim import (
    BATCH,
    CHUNK,
    MAX_CELLS,
    MAX_STEPS,
    InputSignal,
    SimConfig,
    default_dt,
    expm,
    realization_equivalence,
    simulate,
    simulate_linear,
    sinusoid_input,
    step_input,
    step_response,
)

ONE = tf([1.0])
ZERO = tf([0.0])


def open_loop_ci(gamma=0.0):
    """Integrator driven by the reference directly: e_r = r."""
    return assemble_closed_loop(realization(clegg(gamma)), [[gamma]], ONE, ONE, ZERO, ONE)


def gfore_loop(gamma=0.0):
    g = tf([1.0], [1.0, 1.0])
    return assemble_closed_loop(realization(gfore(1.0, gamma)), [[gamma]], ONE, ONE, g, ONE)


def polynomial_input(roots, scale=1.0):
    """scale * prod (t - root) as a sum of exppoly t^k terms."""
    coefs = scale * np.poly(roots)[::-1]
    return InputSignal(tuple((float(c), k, 0.0, 0.0, 0.0) for k, c in enumerate(coefs)))


class TestClosedFormOracle:
    def test_ci_sinusoid_per_interval(self):
        # x(t) = (-1)^k - cos t on (k pi, (k+1) pi], resets at t = k pi
        cl = open_loop_ci(0.0)
        cfg = SimConfig(cl, dt=1e-3, t_end=6 * np.pi, input=sinusoid_input(1.0, 1.0))
        tr = simulate(cfg)
        k = np.floor(tr.times / np.pi + 1e-12)
        exact = (-1.0) ** k - np.cos(tr.times)
        assert np.max(np.abs(tr.states[:, 0] - exact)) <= 1e-6
        assert np.max(np.abs(tr.states)) == pytest.approx(2.0, abs=1e-6)
        assert len(tr.reset_instants) == 5
        for i, t in enumerate(tr.reset_instants, start=1):
            assert t == pytest.approx(i * np.pi, abs=1e-9)

    def test_zero_everything_stays_zero(self):
        cl = open_loop_ci(0.0)
        cfg = SimConfig(cl, dt=0.01, t_end=5.0, input=InputSignal())
        tr = simulate(cfg)
        assert np.all(tr.states == 0.0)
        assert tr.reset_instants == []

    @pytest.mark.parametrize("dt", [1e-3, 0.05, 0.2, 0.6, 0.7, 0.8])
    def test_exact_flow_at_any_step(self, dt):
        # the flow is exact, so the closed form holds to rounding whatever
        # the sample step, and the resets sit at k pi.  |F dt|_1 = 2 dt: from
        # dt = 0.6 on a step is one Taylor cell where |F h|_1 <= 1 asks for two
        cl = open_loop_ci(0.0)
        tr = simulate(SimConfig(cl, dt=dt, t_end=6 * np.pi, input=sinusoid_input(1.0, 1.0)))
        assert tr.cells == 1
        k = np.floor(tr.times / np.pi + 1e-12)
        exact = (-1.0) ** k - np.cos(tr.times)
        assert np.max(np.abs(tr.states[:, 0] - exact)) <= 1e-12
        assert len(tr.reset_instants) == 5
        for i, t in enumerate(tr.reset_instants, start=1):
            assert abs(t - i * np.pi) <= 1e-9


class TestRunLength:
    @pytest.mark.parametrize("dt, t_end", [(0.01, 1e300), (0.01, 1e308), (1e-300, 1e300),
                                           (0.01, np.nan), (0.01, (MAX_STEPS + 1) * 0.01)],
                             ids=["1e302-steps", "inf-steps", "tiny-dt", "nan-t-end",
                                  "one-past-the-cap"])
    def test_refused_before_allocating(self, dt, t_end):
        # numpy used to fail allocating the trace (or converting inf to int)
        with pytest.raises(RunTooLong, match=re.escape(f"t_end = {t_end!r} over dt = {dt!r}")):
            SimConfig(open_loop_ci(0.0), dt=dt, t_end=t_end)

    @pytest.mark.parametrize("freq", [1e6, 1e300])
    def test_too_many_cells_refused_before_building_the_flow(self, freq):
        # 1e6 rad/s at dt = 0.01 asked for 16,384 cells and took about 29 s;
        # 1e300 for about 2^990 cells, and expm overflowed to NaN
        cl = assemble_closed_loop(realization(pci(1.0, 0.0)), [[0.0]], ONE, ONE,
                                  tf([1.0], [1.0, 1.0]), ONE)
        cfg = SimConfig(cl, dt=0.01, t_end=2.0, input=sinusoid_input(1.0, freq))
        for run in (simulate, simulate_linear):
            with pytest.raises(RunTooLong, match=re.escape(f"dt = 0.01 with |F|_1 = {freq:.3g}")
                               + f".* at most {MAX_CELLS} Taylor cells"):
                run(cfg)


class TestTaylorCells:
    """A step is split into Taylor cells h = dt / cells; a cell twice as long
    as |F h|_1 <= 1 allows is taken where |(F h)^19|_1 e^|F h|_1 <= 1."""

    def test_non_normal_flow_takes_one_cell(self, workloads, tmp_path, monkeypatch):
        # the sim_ubibs PCI22 step run: |F dt|_1 = 1.08 asked for two cells,
        # and the spectral radius of F dt is 0.24
        seen, count = [], sim_module._cell_count

        def recorded(f, dt):
            seen.append((np.linalg.norm(f, 1) * dt, count(f, dt)))
            return seen[-1][1]

        monkeypatch.setattr(sim_module, "_cell_count", recorded)
        op = next(op for op in workloads.setup_sim_ubibs(1, str(tmp_path)).ops
                  if op.id == "sim-PCI22-step")
        assert op.run()["resets"] == 552
        [(norm_dt, cells)] = seen
        assert 1.0 < norm_dt <= 2.0 and cells == 1

    @pytest.mark.parametrize("omega_dt", [1.2, 1.5, 2.0])
    def test_rotation_keeps_two_cells(self, omega_dt):
        # |(F h)^19|_1 = (omega h)^19 > 1 for omega h > 1
        omega = 3.0
        rotation = np.array([[0.0, -omega], [omega, 0.0]])
        assert sim_module._cell_count(rotation, omega_dt / omega) == 2
        assert sim_module._cell_count(rotation, 0.99 / omega) == 1


class TestBatchedScan:
    def test_crossing_late_in_the_largest_batch(self):
        # crossings every P = (2 BATCH - 1.5) CHUNK + 1 + 1/6 steps, none on a
        # grid point (whose sample could be pre- or post-jump by rounding); the
        # steps that hold them are (2 BATCH - 1.5) CHUNK + 1 apart.  After each
        # cut the next batch asks for more than BATCH chunks and gets BATCH,
        # the uncut batch after it BATCH again, so every crossing after the
        # first falls 1.5 chunks before the end of a full-size batch
        dt = np.pi / (CHUNK * (2 * BATCH - 1.5) + 7 / 6)
        cl = open_loop_ci(0.0)
        tr = simulate(SimConfig(cl, dt=dt, t_end=5.5 * np.pi, input=sinusoid_input(1.0, 1.0)))
        k = np.floor(tr.times / np.pi + 1e-12)
        exact = (-1.0) ** k - np.cos(tr.times)
        assert np.max(np.abs(tr.states[:, 0] - exact)) <= 1e-12
        assert len(tr.reset_instants) == 5
        for i, t in enumerate(tr.reset_instants, start=1):
            assert abs(t - i * np.pi) <= 1e-9

    def test_one_batch_per_event_gap(self):
        # crossings at k pi are 150 steps apart: after the first cut each
        # batch holds ceil(150 / CHUNK) chunks and ends at the next crossing
        cl = open_loop_ci(0.0)
        tr = simulate(SimConfig(cl, dt=np.pi / 150, t_end=40.5 * np.pi,
                                input=sinusoid_input(1.0, 1.0)))
        assert tr.crossings == 40
        assert tr.batches <= tr.crossings + 2

    def test_reset_free_run_ends_inside_a_batch(self):
        # e_r = r = 1 + sin(t)/2 > 0 never crosses, so x = t + (1 - cos t)/2
        # comes from the batched scan alone; the run ends inside a batch and
        # inside a chunk
        cl = open_loop_ci(0.0)
        signal = InputSignal(((1.0, 0, 0.0, 0.0, 0.0), (0.5, 0, 0.0, 1.0, -np.pi / 2)))
        # and runs that end exactly at a chunk's end, at the end of a full
        # batch's worth of chunks and one step past it
        for n_steps in (3 * BATCH * CHUNK + CHUNK // 2 + 17, CHUNK, BATCH * CHUNK,
                        BATCH * CHUNK + 1):
            tr = simulate(SimConfig(cl, dt=0.01, t_end=n_steps * 0.01, input=signal))
            assert tr.steps == n_steps and tr.crossings == 0
            exact = tr.times + 0.5 * (1.0 - np.cos(tr.times))
            assert np.max(np.abs(tr.states[:, 0] - exact)) <= 1e-12 * np.max(exact)

    def test_sim_ubibs_reset_counts(self, workloads, tmp_path):
        # resets per sim_ubibs operation at seed 1 (step, sinusoid)
        expected = {"GFORE0": (0, 64), "GFORE1": (0, 63), "GFORE4": (0, 63),
                    "PCI22": (552, 448), "PCI41": (592, 321), "PCI43": (520, 383),
                    "GSORE": (2, 65)}
        resets = {}
        for op in workloads.setup_sim_ubibs(1, str(tmp_path)).ops:
            out = op.run()
            assert out["failure"] is None and not out["diverged"]
            resets[out["id"]] = out["resets"]
        assert resets == {f"sim-{name}-{kind}": count for name, counts in expected.items()
                          for kind, count in zip(("step", "sinusoid"), counts)}


class TestGenerators:
    @staticmethod
    def generated(signal, t):
        s, w0, c = signal.generator()
        return np.array([c @ expm(s * tk) @ w0 for tk in t])

    def test_exppoly_cosine_is_shifted_sinusoid(self):
        t = np.linspace(0.0, 20.0, 101)
        a = InputSignal(((1.7, 0, 0.0, 2.3, 0.4),))
        b = sinusoid_input(1.7, 2.3, 0.4 + np.pi / 2)
        assert np.max(np.abs(self.generated(a, t) - self.generated(b, t))) <= 1e-12
        cl = gfore_loop(0.0)
        ta = simulate(SimConfig(cl, dt=0.01, t_end=20.0, input=a))
        tb = simulate(SimConfig(cl, dt=0.01, t_end=20.0, input=b))
        assert np.max(np.abs(ta.states - tb.states)) <= 1e-12
        assert ta.reset_instants == pytest.approx(tb.reset_instants, abs=1e-12)

    def test_exppoly_constant_is_step(self):
        t = np.linspace(0.0, 20.0, 101)
        a = InputSignal(((1.3, 0, 0.0, 0.0, 0.0),))
        b = step_input(1.3)
        assert np.max(np.abs(self.generated(a, t) - self.generated(b, t))) <= 1e-12
        cl = assemble_closed_loop(realization(gfore(1.0, 0.0)), [[0.0]], ONE, ONE,
                                  tf([9.0], [1.0, 1.0]), ONE)
        ta = simulate(SimConfig(cl, dt=0.01, t_end=20.0, input=a))
        tb = simulate(SimConfig(cl, dt=0.01, t_end=20.0, input=b))
        assert tb.reset_instants
        assert np.max(np.abs(ta.states - tb.states)) <= 1e-12

    def test_generator_matches_closed_form(self):
        # the signal and its generator against the closed form of each input
        t = np.linspace(0.0, 5.0, 51)
        a, w, phi = 1.3, 2.3, 0.4
        cases = [(InputSignal(((0.7, 2, -0.3, 1.5, 0.2), (-1.1, 1, 0.1, 0.0, 0.0))),
                  0.7 * t**2 * np.exp(-0.3 * t) * np.cos(1.5 * t + 0.2)
                  - 1.1 * t * np.exp(0.1 * t)),
                 (step_input(a), np.full_like(t, a)),
                 (sinusoid_input(a, w, phi), a * np.sin(w * t + phi))]
        for signal, exact in cases:
            scale = np.max(np.abs(exact))
            assert np.max(np.abs(signal(t) - exact)) <= 1e-13 * scale
            assert np.max(np.abs(self.generated(signal, t) - exact)) <= 1e-13 * scale
        assert np.all(step_input(a)(t) == a)

    def test_exppoly_power_must_be_integer(self):
        with pytest.raises(ValueError):
            InputSignal(((1.0, 1.5, 0.0, 0.0, 0.0),)).generator()


class TestEventCounters:
    def test_clegg_counts(self):
        cl = open_loop_ci(0.0)
        tr = simulate(SimConfig(cl, dt=1e-3, t_end=6 * np.pi, input=sinusoid_input(1.0, 1.0)))
        assert tr.steps == tr.times.size - 1
        assert (tr.crossings, tr.resets_fired) == (5, 5)
        assert (tr.suppressed_dwell, tr.suppressed_guard, tr.suppressed_tolerance) == (0, 0, 0)
        assert tr.min_reset_gap == pytest.approx(np.pi, abs=1e-9)

    def test_crossings_faster_than_dwell(self):
        # crossings every pi against a dwell of 4: after the jump at pi, 2 pi
        # is inside the dwell, at 3 pi the state is back at zero (guard), 4 pi
        # fires and 5 pi is inside its dwell
        cl = open_loop_ci(0.0)
        tr = simulate(SimConfig(cl, dt=0.01, t_end=6 * np.pi, lam=4.0,
                                input=sinusoid_input(1.0, 1.0)))
        assert tr.crossings == 5
        assert tr.reset_instants == pytest.approx([np.pi, 4 * np.pi], abs=1e-9)
        assert tr.resets_fired == 2
        assert (tr.suppressed_dwell, tr.suppressed_guard) == (2, 1)
        assert tr.min_reset_gap == pytest.approx(3 * np.pi, abs=1e-9)

    def test_guard_suppresses_identity_reset(self):
        cl = gfore_loop(1.0)
        tr = simulate(SimConfig(cl, dt=0.01, t_end=30.0, input=sinusoid_input(1.0, 1.0)))
        assert tr.crossings > 0
        assert tr.suppressed_guard == tr.crossings
        assert tr.resets_fired == 0 and tr.min_reset_gap == np.inf


class TestCrossingsInsideAStep:
    def test_two_crossings_in_one_step(self):
        # e_r = cos t - 0.9 dips above zero on (2 pi - a, 2 pi + a), a =
        # acos 0.9, inside the single step (5.7, 7.6] whose endpoints are
        # both negative; the first crossing fires, the second is within the
        # dwell
        cl = open_loop_ci(0.0)
        signal = InputSignal(((-0.9, 0, 0.0, 0.0, 0.0), (1.0, 0, 0.0, 1.0, 0.0)))
        tr = simulate(SimConfig(cl, dt=1.9, t_end=7.6, input=signal))
        a = np.arccos(0.9)
        assert tr.reset_instants == pytest.approx([a, 2 * np.pi - a], abs=1e-9)
        assert tr.crossings == 3 and tr.suppressed_dwell == 1

    def test_scan_continues_after_rejected_crossing(self):
        # e_r = -(t - 0.5)(t - 1.2)(t - 1.6)(t - 1.8) with dt = dwell = 1: the
        # crossing at 1.2 falls in the dwell after 0.5, the one at 1.6 fires,
        # the one at 1.8 falls in its dwell
        cl = open_loop_ci(0.0)
        signal = polynomial_input([0.5, 1.2, 1.6, 1.8], scale=-1.0)
        tr = simulate(SimConfig(cl, dt=1.0, t_end=3.0, input=signal))
        assert tr.reset_instants == pytest.approx([0.5, 1.6], abs=1e-9)
        assert tr.crossings == 4 and tr.suppressed_dwell == 2


class TestExtremumEnclosure:
    """e_r = offset + cos t has a minimum offset - 1 at t = pi (2k + 1): the
    step holding it has equal signs of e_r at its ends and a sign change of
    e_r'.  Only a step whose enclosure cannot rule out a zero is scanned."""

    @staticmethod
    def run(monkeypatch, offset, dt):
        import resetcert.sim as sim_module
        scans, step = [], sim_module._Run.step

        def counted(self, z, t0, e_a):
            scans.append(t0)
            return step(self, z, t0, e_a)

        monkeypatch.setattr(sim_module._Run, "step", counted)
        signal = InputSignal(((offset, 0, 0.0, 0.0, 0.0), (1.0, 0, 0.0, 1.0, 0.0)))
        return simulate(SimConfig(open_loop_ci(0.0), dt=dt, t_end=60.0, input=signal)), scans

    @pytest.mark.parametrize("dt", [0.25, 0.5, 1.0])
    def test_clear_minimum_is_not_scanned(self, monkeypatch, dt):
        tr, scans = self.run(monkeypatch, 1.02, dt)
        assert scans == [] and tr.crossings == 0

    @pytest.mark.parametrize("dt", [0.25, 0.5, 1.0])
    def test_minimum_at_rounding_distance_is_scanned(self, monkeypatch, dt):
        tr, scans = self.run(monkeypatch, 1.0 + 1e-6, dt)
        assert len(scans) == 10 and tr.crossings == 0

    @pytest.mark.parametrize("dt", [0.25, 0.5, 1.0])
    def test_dips_below_zero_scan_at_most_once_per_crossing(self, monkeypatch, dt):
        # two crossings a = acos 0.98 either side of each minimum; the second
        # fires only when it is past the dwell dt
        tr, scans = self.run(monkeypatch, 0.98, dt)
        a = np.arccos(0.98)
        mins = np.pi * (2 * np.arange(10) + 1)
        hits = np.column_stack([mins - a, mins + a])
        assert tr.crossings == 20 and len(scans) <= tr.crossings
        fired = hits.ravel() if 2 * a >= dt else hits[:, 0]
        assert tr.reset_instants == pytest.approx(fired, abs=1e-9)


class TestJumpSemantics:
    def test_identity_reset_equals_linear(self):
        cl = gfore_loop(1.0)
        cfg = SimConfig(cl, dt=0.01, t_end=30.0, input=sinusoid_input(1.0, 1.0))
        a = simulate(cfg)
        b = simulate_linear(cfg)
        assert np.max(np.abs(a.states - b.states)) <= 1e-12
        assert a.reset_instants == []

    def test_dwell_spacing(self):
        cl = gfore_loop(0.0)
        lam = 0.35
        cfg = SimConfig(cl, dt=0.01, t_end=60.0, lam=lam,
                        input=sinusoid_input(1.0, 2.0))
        tr = simulate(cfg)
        gaps = np.diff(tr.reset_instants)
        assert len(tr.reset_instants) >= 2
        assert np.all(gaps >= lam - 1e-12)

    def test_default_dwell_is_dt(self):
        cl = gfore_loop(0.0)
        cfg = SimConfig(cl, dt=0.02, t_end=40.0, input=sinusoid_input(1.0, 1.0))
        tr = simulate(cfg)
        gaps = np.diff(tr.reset_instants)
        assert np.all(gaps >= cfg.dt - 1e-12)

    def test_jump_applies_reset_matrix_only(self):
        # integrate to just past the first reset with a tiny step so the grid
        # sample right after the jump exposes the multiplied substate
        gamma = 0.25
        cl = gfore_loop(gamma)
        cfg = SimConfig(cl, dt=1e-4, t_end=4.0, input=sinusoid_input(1.0, 1.0))
        tr = simulate(cfg)
        assert tr.reset_instants
        t0 = tr.reset_instants[0]
        i = int(np.searchsorted(tr.times, t0))    # first grid sample past the jump
        assert tr.reset_flags[i] == 1.0
        pre, post = tr.states[i - 1], tr.states[i]
        # the linear substate moves only by the flow over <= dt
        assert abs(post[1] - pre[1]) <= 5e-4
        # the reset substate lands near gamma times its pre-jump value
        assert post[0] == pytest.approx(gamma * pre[0], abs=5e-4)

    def test_jump_pairs_exact(self):
        # post = A_rho_bar @ pre at every recorded reset: the reset substate
        # scales by gamma and the linear substate is unchanged bit for bit
        gamma = 0.25
        cl = gfore_loop(gamma)
        cfg = SimConfig(cl, dt=0.01, t_end=30.0, input=sinusoid_input(1.0, 1.0))
        tr = simulate(cfg)
        assert tr.reset_states
        for pre, post in tr.reset_states:
            assert abs(post[0] - gamma * pre[0]) <= 1e-12 * max(abs(pre[0]), 1.0)
            assert post[1] == pre[1]          # bitwise

    def test_overflow_marks_divergence(self):
        unstable = assemble_closed_loop(realization(gfore(1.0, 0.0)), [[0.0]],
                                        ONE, ONE, tf([-3.0], [1.0, 1.0]), ONE)
        cfg = SimConfig(unstable, dt=0.01, t_end=400.0, input=step_input(1.0))
        tr = simulate(cfg)
        assert tr.diverged
        assert tr.max_state_norm > 1e12
        # A_bar has eigenvalues 1.236 and -3.236 and no reset fires: the
        # linear run overflows at the same step, without numpy overflow
        unstable = assemble_closed_loop(realization(gfore(1.0, 0.0)), [[0.0]],
                                        ONE, ONE, tf([-5.0], [1.0, 1.0]), ONE)
        for t_end in (200.0, 1000.0):
            cfg = SimConfig(unstable, dt=0.05, t_end=t_end, input=step_input(1.0))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                a, b = simulate(cfg), simulate_linear(cfg)
            assert a.diverged and b.diverged and a.steps == b.steps == 461
            assert np.all(np.isfinite(b.states))
            assert b.max_state_norm == pytest.approx(a.max_state_norm, rel=1e-12)


class TestStepResponse:
    def test_bounded_certified_loop(self):
        cl = gfore_loop(0.0)
        tr, diag = step_response(cl, 1.0, t_end=60.0, dt=0.01)
        assert not tr.diverged
        assert np.isfinite(tr.max_state_norm)
        assert diag.final_value == pytest.approx(0.5, abs=0.05)

    def test_identity_reset_matches_linear_step(self):
        cl = gfore_loop(1.0)
        tr, _ = step_response(cl, 1.0, t_end=40.0, dt=0.01)
        ref = simulate_linear(SimConfig(cl, dt=0.01, t_end=40.0, input=step_input(1.0)))
        assert np.max(np.abs(tr.outputs - ref.outputs)) <= 1e-12

    def test_gamma_sweep_bounded_and_distinct(self):
        # loop gain 9 makes the output overshoot the reference, so resets fire
        traces = {}
        g = tf([9.0], [1.0, 1.0])
        for gamma in (-0.5, 0.0, 0.5):
            cl = assemble_closed_loop(realization(gfore(1.0, gamma)), [[gamma]],
                                      ONE, ONE, g, ONE)
            tr, _ = step_response(cl, 1.0, t_end=40.0, dt=0.01)
            assert not tr.diverged
            assert tr.reset_instants
            traces[gamma] = tr.outputs
        assert np.max(np.abs(traces[0.0] - traces[0.5])) > 1e-4
        assert np.max(np.abs(traces[0.0] - traces[-0.5])) > 1e-4


class TestRealizationEquivalence:
    def test_uniform_reset_makes_outputs_equal(self):
        g = tf([1.0], [1.0, 1.0])
        a_rho = 0.3 * np.eye(2)
        ca = assemble_closed_loop(realization(gsore(1.0, 1.0)), a_rho, ONE, ONE, g, ONE)
        cb = assemble_closed_loop(
            realization(gsore(1.0, 1.0, realization_form="observable")),
            a_rho, ONE, ONE, g, ONE)
        dev = realization_equivalence(ca, cb, sinusoid_input(1.0, 1.0), 50.0, 0.0025)
        assert dev <= 1e-6

    def test_partial_reset_breaks_equivalence(self):
        g = tf([1.0], [1.0, 1.0])
        a_rho = np.diag([0.5, 1.0])
        ca = assemble_closed_loop(realization(gsore(1.0, 1.0)), a_rho, ONE, ONE, g, ONE)
        cb = assemble_closed_loop(
            realization(gsore(1.0, 1.0, realization_form="observable")),
            a_rho, ONE, ONE, g, ONE)
        dev = realization_equivalence(ca, cb, sinusoid_input(1.0, 1.0), 50.0, 0.0025)
        assert dev > 1e-3


class TestTraceExport:
    def test_csv_columns(self, tmp_path):
        cl = gfore_loop(0.0)
        tr = simulate(SimConfig(cl, dt=0.05, t_end=5.0, input=sinusoid_input(1.0, 1.0)))
        out = tmp_path / "trace.csv"
        tr.save_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x_1,x_2,y,e_r,reset_flag"
        assert len(lines) == tr.times.size + 1

    def test_default_dt_from_dominant_pole(self):
        cl = gfore_loop(0.0)
        dt = default_dt(cl)
        rates = np.abs(np.linalg.eigvals(cl.a_bar).real)
        assert dt == pytest.approx(1.0 / rates.min() / 200.0)

    def test_default_dt_resolves_the_input(self):
        # 40 samples per period of a 50 rad/s input on a slow loop
        cl = gfore_loop(0.0)
        cap = 2.0 * np.pi / (40 * 50.0)
        assert default_dt(cl) > cap
        assert default_dt(cl, input=sinusoid_input(1.0, 50.0)) == pytest.approx(cap)
        assert default_dt(cl, disturbance=InputSignal(
            ((1.0, 1, -0.1, 50.0, 0.0),))) == pytest.approx(cap)
        assert default_dt(cl, input=step_input(2.0)) == default_dt(cl)
        # a zero-frequency sinusoid is a constant and sets no cap
        assert default_dt(cl, input=sinusoid_input(1.0, 0.0)) == default_dt(cl)
