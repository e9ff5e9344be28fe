"""Trajectories: spacing families, tuned-time containers, serialization."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steptuner import (
    ContractError,
    DomainError,
    NoiseSchedule,
    Trajectory,
    TunedTrajectory,
    baseline_tuned,
    make_trajectory,
    midpoint_time,
    tuned_from_json,
    tuned_to_json,
)
from steptuner.trajectory import evaluations_per_step


def test_uniform_k4_exact(schedule):
    traj = make_trajectory("uniform", 4, schedule)
    assert traj.points.tolist() == [0.0, 250.0, 500.0, 750.0, 1000.0]


def test_quadratic_k4_exact(schedule):
    traj = make_trajectory("quadratic", 4, schedule)
    assert traj.points.tolist() == [0.0, 62.5, 250.0, 562.5, 1000.0]


def test_log_snr_equal_lambda_spacing(schedule):
    traj = make_trajectory("log-snr", 4, schedule)
    assert traj.points[0] == 0.0
    assert traj.points[-1] == schedule.T
    lam_hi = schedule.log_snr(schedule.t_eps)
    lam_lo = schedule.log_snr(schedule.T)
    expected = lam_hi + (lam_lo - lam_hi) * np.arange(5) / 4
    lam_interior = np.array([schedule.log_snr(t) for t in traj.points[1:-1]])
    assert np.max(np.abs(lam_interior - expected[1:-1])) < 1e-6


def test_log_snr_respects_t_min(schedule):
    traj = make_trajectory("log-snr", 6, schedule, t_min=5.0)
    assert traj.points[0] == 5.0
    assert traj.points[-1] == schedule.T
    assert np.all(np.diff(traj.points) > 0)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["uniform", "quadratic", "log-snr"]),
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=0.0, max_value=500.0),
)
@example("log-snr", 1, 1.25)  # lambda_K rounded below log_snr(T)
def test_trajectory_invariants(kind, K, t_min):
    schedule = NoiseSchedule()
    traj = make_trajectory(kind, K, schedule, t_min=t_min)
    assert traj.points.shape == (K + 1,)
    assert traj.points[0] == t_min
    assert traj.points[-1] == schedule.T
    assert np.all(np.diff(traj.points) > 0)


def test_make_trajectory_errors(schedule):
    with pytest.raises(DomainError):
        make_trajectory("uniform", 0, schedule)
    with pytest.raises(DomainError):
        make_trajectory("cubic", 4, schedule)
    with pytest.raises(DomainError):
        make_trajectory("uniform", 4, schedule, t_min=schedule.T)
    with pytest.raises(DomainError):
        make_trajectory("uniform", 4, schedule, t_min=-1.0)


def test_points_must_increase():
    with pytest.raises(ContractError):
        Trajectory(points=np.array([0.0, 5.0, 5.0, 10.0]), kind="uniform", K=3)
    with pytest.raises(ContractError):
        Trajectory(points=np.array([0.0, 5.0]), kind="uniform", K=3)


def test_evaluations_per_step():
    assert evaluations_per_step("ddim-family") == 1
    assert evaluations_per_step("dpm-solver-2") == 2
    with pytest.raises(DomainError):
        evaluations_per_step("heun")


def test_baseline_tuned_single_eval(schedule):
    traj = make_trajectory("quadratic", 5, schedule)
    tuned = baseline_tuned(traj, schedule, "ddim-family")
    assert np.array_equal(tuned.taus, traj.points[1:])
    assert tuned.taus_for_step(1).tolist() == [traj.points[1]]
    assert tuned.taus_for_step(5).tolist() == [traj.points[5]]


def test_baseline_tuned_two_eval(schedule):
    traj = make_trajectory("uniform", 4, schedule, t_min=1.0)
    tuned = baseline_tuned(traj, schedule, "dpm-solver-2")
    assert tuned.taus.shape == (8,)
    for i in range(1, 5):
        a, b = tuned.taus_for_step(i)
        t_from, t_to = traj.points[i], traj.points[i - 1]
        assert a == t_from
        assert t_to < b < t_from


def test_midpoint_time_halves_log_snr(schedule):
    for t_from, t_to in [(1000.0, 640.0), (250.0, 62.5), (40.0, 0.0)]:
        s = midpoint_time(schedule, t_from, t_to)
        lam_from = schedule.log_snr(t_from)
        lam_to = schedule.log_snr(max(t_to, schedule.t_eps))
        assert schedule.log_snr(s) == pytest.approx(
            0.5 * (lam_from + lam_to), abs=1e-7
        )
        assert max(t_to, schedule.t_eps) <= s <= t_from


def test_tuned_count_validation(schedule):
    traj = make_trajectory("uniform", 3, schedule)
    with pytest.raises(ContractError):
        TunedTrajectory(base=traj, taus=np.array([1.0, 2.0]), sampler_kind="ddim-family")
    with pytest.raises(ContractError):
        TunedTrajectory(
            base=traj, taus=np.array([1.0, 2.0, 3.0]), sampler_kind="dpm-solver-2"
        )
    # bounds must be absent or one per tau
    with pytest.raises(ContractError, match="2 bounds for 3 taus"):
        TunedTrajectory(
            base=traj,
            taus=np.array([100.0, 500.0, 900.0]),
            bounds=[(0.0, 1000.0), (0.0, 1000.0)],
            sampler_kind="ddim-family",
        )


def test_tuned_bounds_validation(schedule):
    traj = make_trajectory("uniform", 2, schedule)
    with pytest.raises(ContractError):
        TunedTrajectory(
            base=traj,
            taus=np.array([700.0, 900.0]),
            bounds=[(0.0, 500.0), (500.0, 1000.0)],
            sampler_kind="ddim-family",
        )


def test_json_round_trip(schedule):
    traj = make_trajectory("quadratic", 4, schedule)
    tuned = TunedTrajectory(
        base=traj,
        taus=np.array([30.0, 120.0, 400.0, 800.0]),
        bounds=[(0.0, 62.5), (62.5, 250.0), (250.0, 562.5), (562.5, 1000.0)],
        sampler_kind="ddim-family",
    )
    text = tuned_to_json(tuned, schedule)
    back = tuned_from_json(text)
    assert np.array_equal(back.taus, tuned.taus)
    assert np.array_equal(back.base.points, traj.points)
    assert back.base.kind == traj.kind
    assert back.sampler_kind == tuned.sampler_kind
    assert back.bounds == list(tuned.bounds)
    # serialization is stable
    assert tuned_to_json(back, schedule) == text


def test_json_document_shape(schedule):
    traj = make_trajectory("uniform", 2, schedule, t_min=1.0)
    tuned = baseline_tuned(traj, schedule, "dpm-solver-2")
    doc = json.loads(tuned_to_json(tuned, schedule))
    assert set(doc) == {"sampler_kind", "trajectory", "pairs", "bounds"}
    assert len(doc["pairs"]) == 4
    assert [p["step"] for p in doc["pairs"]] == [1, 1, 2, 2]
    for p in doc["pairs"]:
        assert set(p) == {"step", "t", "tau"}
