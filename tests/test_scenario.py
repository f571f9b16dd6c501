"""Engine-level tests: event timing, cadences, determinism, end-to-end reflex."""

import io
from dataclasses import replace

import numpy as np
import pytest

from reflex_sim.arm import ArmModel, JointParams, LinkParams
from reflex_sim.control import FeedbackParams
from reflex_sim.errors import SimulationDiverged
from reflex_sim.muscles import MuscleParams
from reflex_sim.reflex import ReflexParams
from reflex_sim.robot import Robot
from reflex_sim.scenario import (
    Impulse, PayloadSet, RefTrajectory, ScenarioScript, _jittered_impulses, run, run_family,
)


def _robot(mu_s=0.02, mu_k=0.01, damping=(0.3, 0.15)):
    joints = JointParams(
        inertia=np.array([0.12, 0.04]),
        damping=np.array(damping),
        limit_lo=np.array([-3.0, -3.0]),
        limit_hi=np.array([3.0, 3.0]),
        limit_stiffness=np.array([500.0, 500.0]),
        limit_damping=np.array([5.0, 5.0]),
        mu_static=np.array([mu_s, mu_s]),
        mu_kinetic=np.array([mu_k, mu_k]),
        stiction_band=np.array([0.05, 0.05]),
    )
    links = LinkParams(
        mass=np.array([1.5, 0.8]),
        length=np.array([0.25, 0.12]),
        com=np.array([0.11, 0.054]),
    )
    model = ArmModel(
        joints=joints,
        G=np.array([[-60.0, 60.0, 0.0, 0.0], [0.0, 0.0, -50.0, 50.0]]),
        l0=np.array([300.0, 300.0, 250.0, 250.0]),
        links=links,
        gravity_g=0.0,
    )
    muscles = MuscleParams(
        k=np.full(4, 0.5),
        f_max=np.full(4, 400.0),
        motor_vmax=np.full(4, 300.0),
        servo_gain=np.full(4, 30.0),
    )
    return Robot(
        model=model,
        muscles=muscles,
        joint_names=("shoulder", "elbow"),
        muscle_names=("m0", "m1", "m2", "m3"),
        groups=((0, 1), (2, 3)),
    )


def _scenario(**kw):
    base = dict(
        name="t",
        duration=1.0,
        theta0=np.array([0.0, 0.0]),
        pretension_mm=5.0,
    )
    base.update(kw)
    return ScenarioScript(**base)


REFLEX = ReflexParams(c_stretch=15.0, dl_stretch=10.0, dt_loose=0.5, groups=((0, 1), (2, 3)))


class TestEquilibrium:
    def test_balanced_posture_holds_exactly(self):
        # antagonists at equal pretension cancel; nothing else acts
        log = run(_scenario(duration=2.0), _robot())
        assert np.max(np.abs(log.theta - np.array([0.0, 0.0]))) < 1e-12
        assert np.max(np.abs(log.omega)) < 1e-12

    def test_row_count_and_time_axis(self):
        log = run(_scenario(duration=0.25), _robot())
        assert len(log.t) == 250
        assert log.t[0] == 0.0
        assert log.t[-1] == pytest.approx(0.249)
        assert log.n_joints == 2 and log.n_muscles == 4


class TestTelemetry:
    def test_saturated_at_exactly_f_max(self):
        # f_max below the pretension tension of the shoulder pair: both sit
        # on the clamp, f == f_max exactly, and that counts as saturated
        robot = _robot()
        f_max = np.array([10.0, 10.0, 400.0, 400.0])
        clamped = replace(robot, muscles=replace(robot.muscles, f_max=f_max))
        log = run(_scenario(duration=0.05), clamped)
        assert np.all(log.f[:, :2] == 10.0)
        assert np.all(log.saturated[:, :2] == 1) and np.all(log.saturated[:, 2:] == 0)


class TestScriptedEvents:
    def test_impulse_lands_within_one_step(self):
        log = run(
            _scenario(impulses=(Impulse(t=0.1234, joint=0, delta_omega=1.0),)),
            _robot(),
        )
        moving = np.flatnonzero(np.abs(log.omega[:, 0]) > 1e-12)
        t_first = log.t[moving[0]]
        assert 0.1234 <= t_first + 1e-12
        assert t_first - 0.1234 < log.dt + 1e-12
        assert log.omega[moving[0], 0] == pytest.approx(1.0)
        (t_ev, desc), = log.scripted_events
        assert abs(t_ev - 0.1234) < log.dt and "impulse" in desc

    def test_payload_event_changes_inertia_response(self):
        imp = (Impulse(t=0.3, joint=0, delta_omega=1.0),)
        bare = run(_scenario(impulses=imp), _robot())
        loaded = run(
            _scenario(impulses=imp, payload_events=(PayloadSet(t=0.1, mass=2.0),)),
            _robot(),
        )
        # same velocity jump on a larger inertia carries more energy into the
        # antagonist springs, so the peak excursion grows
        assert np.max(loaded.theta[:, 0]) > np.max(bare.theta[:, 0]) * 1.05
        assert any("payload" in d for _, d in loaded.scripted_events)

    def test_initial_payload_field(self):
        imp = (Impulse(t=0.1, joint=0, delta_omega=1.0),)
        a = run(_scenario(impulses=imp, initial_payload=2.0), _robot())
        b = run(
            _scenario(impulses=imp, payload_events=(PayloadSet(t=0.0, mass=2.0),)),
            _robot(),
        )
        assert np.array_equal(a.theta, b.theta)


class TestCadences:
    def test_feedback_updates_only_on_its_ticks(self):
        fb = FeedbackParams(alpha=0.3, rate_hz=5.0, theta_ref=np.array([0.1, -0.1]))
        log = run(_scenario(), _robot(), feedback=fb)
        changed = np.flatnonzero(np.any(log.l_ref_commanded[1:] != log.l_ref_commanded[:-1], axis=1)) + 1
        assert len(changed) > 0
        assert np.all(changed % 200 == 0)  # 5 Hz on a 1 ms base step

    def test_tick_sampled_df_holds_between_control_ticks(self):
        log = run(
            _scenario(impulses=(Impulse(t=0.05, joint=0, delta_omega=2.0),)),
            _robot(),
        )
        changed = np.flatnonzero(np.any(log.df[1:] != log.df[:-1], axis=1)) + 1
        assert len(changed) > 0
        assert np.all(changed % 10 == 0)  # 100 Hz on a 1 ms base step

    def test_reflex_offsets_hold_between_control_ticks(self):
        log = run(
            _scenario(impulses=(Impulse(t=0.05, joint=0, delta_omega=6.0),)),
            _robot(),
            reflex=REFLEX,
        )
        changed = np.flatnonzero(np.any(log.reflex_offset[1:] != log.reflex_offset[:-1], axis=1)) + 1
        assert len(changed) > 0
        assert np.all(changed % 10 == 0)


class TestReflexEndToEnd:
    def test_fast_stretch_fires_and_ramps_out(self):
        # heavy damping: the impact fires once and the arm settles inside the
        # release window, so no second trigger muddies the ramp
        log = run(
            _scenario(duration=1.2, impulses=(Impulse(t=0.05, joint=0, delta_omega=6.0),)),
            _robot(damping=(1.5, 0.5)),
            reflex=REFLEX,
        )
        assert log.reflex_events, "impact should trigger the stretched muscle"
        muscle, t_fire = log.reflex_events[0]
        assert muscle == 0  # positive joint-0 swing stretches the negative-moment-arm muscle
        assert 0.05 < t_fire <= 0.15
        s = log.index_at(t_fire)
        assert log.reflex_fired[s, 0] == 1
        assert log.reflex_offset[s, 0] == pytest.approx(10.0)
        assert log.l_ref_effective[s, 0] == pytest.approx(log.l_ref_commanded[s, 0] - 10.0)
        # linear release: gone at t_fire + dt_loose
        after = log.index_at(t_fire + 0.5 + 0.01)
        assert log.reflex_offset[after, 0] == 0.0
        ramp = log.reflex_offset[s:after, 0]
        assert np.all(np.diff(ramp) <= 1e-12)

    def test_reflex_off_leaves_offsets_zero(self):
        log = run(
            _scenario(impulses=(Impulse(t=0.05, joint=0, delta_omega=6.0),)),
            _robot(),
            reflex=None,
        )
        assert np.all(log.reflex_offset == 0.0)
        assert np.all(log.reflex_fired == 0)
        assert not log.reflex_events
        # df stays populated so the trigger signal is still observable
        assert np.any(log.df != 0.0)


class TestTrajectory:
    def test_commanded_refs_follow_waypoints_exactly(self):
        robot = _robot()
        hold = robot.model.l0.copy()  # theta0 = 0 posture
        target = hold + np.array([6.0, -6.0, 0.0, 0.0])
        traj = RefTrajectory(
            times=(0.0, 0.5),
            refs=(tuple(hold), tuple(target)),
        )
        log = run(_scenario(trajectory=traj, pretension_mm=5.0), _robot())
        i = log.index_at(0.25)
        expect = (hold + target) / 2.0 - 5.0
        assert log.l_ref_commanded[i] == pytest.approx(expect, abs=1e-9)
        # held at the last waypoint afterwards
        assert log.l_ref_commanded[-1] == pytest.approx(target - 5.0, abs=1e-12)

    def test_arm_moves_toward_trajectory_target(self):
        robot = _robot(mu_s=0.005, mu_k=0.002)
        hold = robot.model.l0.copy()
        # shorten muscle 0 (moment arm -60): drives joint 0 negative
        target = hold + np.array([-8.0, 8.0, 0.0, 0.0])
        traj = RefTrajectory(times=(0.0, 0.3), refs=(tuple(hold), tuple(target)))
        log = run(_scenario(duration=2.0, trajectory=traj, pretension_mm=6.0), robot)
        assert log.theta[-1, 0] < -0.02
        assert abs(log.theta[-1, 1]) < 1e-6


class TestDeterminism:
    def _busy(self):
        return _scenario(
            duration=1.5,
            impulses=(
                Impulse(t=0.2, joint=0, delta_omega=5.0),
                Impulse(t=0.8, joint=1, delta_omega=-4.0),
            ),
            payload_events=(PayloadSet(t=1.0, mass=1.0),),
        )

    def test_repeat_runs_are_byte_identical(self):
        fb = FeedbackParams(alpha=0.3, rate_hz=5.0, theta_ref=np.array([0.0, 0.0]))
        out = []
        for _ in range(2):
            log = run(self._busy(), _robot(), reflex=REFLEX, feedback=fb)
            buf = io.StringIO()
            log.write_csv(buf)
            out.append(buf.getvalue())
        assert out[0] == out[1]

    def test_impulses_jittered_past_either_end_are_clamped(self):
        # a jitter far wider than the run pushes every impulse out of it; each
        # lands on the first step or the last one instead of being dropped
        sc = _scenario(
            duration=0.5,
            impulses=tuple(Impulse(t=0.25, joint=0, delta_omega=0.1 * (i + 1)) for i in range(8)),
            seed=3,
            time_jitter=10.0,
        )
        ends = (0.0, sc.duration - sc.dt)
        assert {imp.t for imp in _jittered_impulses(sc)} == set(ends)
        log = run(sc, _robot())
        assert {t for t, _ in log.scripted_events} == {0.0, log.t[-1]}
        assert len(log.scripted_events) == 8

    def test_impulse_jitter_is_seeded(self):
        def times(seed):
            sc = _scenario(
                impulses=(Impulse(t=0.3, joint=0, delta_omega=1.0),),
                seed=seed,
                time_jitter=0.05,
            )
            log = run(sc, _robot())
            return [t for t, _ in log.scripted_events]

        assert times(7) == times(7)
        assert times(7) != times(8)


class TestDivergence:
    def test_blowup_reports_tick(self):
        joints = _robot().model.joints
        hot = JointParams(
            inertia=np.array([1e-9, 1e-9]),
            damping=joints.damping,
            limit_lo=np.array([-0.01, -0.01]),
            limit_hi=np.array([0.01, 0.01]),
            limit_stiffness=np.array([1e30, 1e30]),
            limit_damping=np.array([0.0, 0.0]),
            mu_static=np.zeros(2),
            mu_kinetic=np.zeros(2),
            stiction_band=np.zeros(2),
        )
        robot = _robot()
        model = ArmModel(
            joints=hot,
            G=robot.model.G,
            l0=robot.model.l0,
            links=robot.model.links,
            gravity_g=0.0,
        )
        bad = Robot(
            model=model,
            muscles=robot.muscles,
            joint_names=robot.joint_names,
            muscle_names=robot.muscle_names,
            groups=robot.groups,
        )
        sc = _scenario(theta0=np.array([1.0, 0.0]))
        with pytest.raises(SimulationDiverged) as exc, np.errstate(over="ignore"):
            run(sc, bad)
        assert exc.value.tick is not None and exc.value.tick >= 0
        assert "tick" in str(exc.value)


class TestFamily:
    """run_family forks each reflex-on run off the reflex-off run; every log
    it yields must be the one a standalone run makes, bit for bit."""

    @staticmethod
    def _same(got, want):
        for name in ("t", "theta", "omega", "l_motor", "l_ref_commanded", "l_ref_effective", "f",
                     "df", "reflex_offset", "reflex_fired", "limit_force", "saturated", "slack"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert got.dt == want.dt
        assert got.reflex_events == want.reflex_events
        assert got.scripted_events == want.scripted_events

    # e1-e3 first fire at 1.01 s, so 2.5 s runs fork; e4 first fires at 7.42 s
    @pytest.mark.parametrize("name, duration", [("e1", 2.5), ("e2", 2.5), ("e3", 2.5),
                                                ("e4", None), ("e4-frictionless", None)])
    def test_paper_sweep_logs_equal_standalone_runs(self, name, duration):
        from reflex_sim.acceptance import zero_friction
        from reflex_sim.config import default_robot
        from reflex_sim.experiments import builtin_experiments

        robot = default_robot()
        if name == "e4-frictionless":
            name, robot = "e4", zero_friction(robot)
        exp = builtin_experiments(robot)[name]
        sc = exp.scenario if duration is None else replace(exp.scenario, duration=duration)
        reflexes = [exp.reflex_params(v, robot.groups) for v in exp.paper_sweep]
        for reflex, log in zip(reflexes, run_family(sc, robot, exp.feedback, reflexes), strict=True):
            self._same(log, run(sc, robot, reflex, exp.feedback))

    @pytest.mark.parametrize("extra", [(), (replace(REFLEX, c_stretch=1e9),)],
                             ids=["all-fork", "one-never-fires"])
    def test_reflex_on_runs_without_the_off_run(self, extra):
        # no reflex-off run is asked for: the shared run ends at the last fork,
        # or runs on when some reflex never fires, whose log it then is
        robot = _robot()
        sc = _scenario(duration=0.6, impulses=(Impulse(t=0.1, joint=1, delta_omega=-6.0),))
        reflexes = [REFLEX, *extra, replace(REFLEX, dl_stretch=5.0, dt_loose=0.2)]
        for reflex, log in zip(reflexes, run_family(sc, robot, None, reflexes), strict=True):
            self._same(log, run(sc, robot, reflex))
        assert run(sc, robot, REFLEX).reflex_events  # the fork is exercised

    @pytest.mark.parametrize("first", ["off", "on"])
    def test_divergence_is_raised_where_the_standalone_run_raises(self, first):
        robot = _robot()
        hot = replace(
            robot.model.joints, inertia=np.array([1e-9, 1e-9]),
            limit_lo=np.array([-0.01, -0.01]), limit_hi=np.array([0.01, 0.01]),
            limit_stiffness=np.array([1e30, 1e30]), limit_damping=np.zeros(2),
            mu_static=np.zeros(2), mu_kinetic=np.zeros(2), stiction_band=np.zeros(2),
        )
        bad = replace(robot, model=replace(robot.model, joints=hot))
        sc = _scenario(theta0=np.array([1.0, 0.0]))
        reflexes = [None, REFLEX] if first == "off" else [REFLEX, None]
        with np.errstate(over="ignore"):
            with pytest.raises(SimulationDiverged) as alone:
                run(sc, bad, reflexes[0])
            with pytest.raises(SimulationDiverged) as family:
                next(run_family(sc, bad, None, reflexes))
        assert str(family.value) == str(alone.value)
