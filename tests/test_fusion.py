"""Fusion algebra, limiting behaviour, and the trajectory simulator."""

import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from herdweight import fusion
from herdweight.config import build_config
from herdweight.errors import ConfigError, InvalidSchedule, NonFiniteInput
from herdweight.fusion import (
    CENTER_METHODS,
    FusionParams,
    SimulationConfig,
    ViewUpdateSet,
    agreement_fuse,
    average_fuse,
    consensus_center,
    constant_schedule,
    deviations,
    geometric_schedule,
    simulate_trajectory,
)

TINY = 1e-30  # stands in for epsilon -> 0


def fuse_oracle(u, beta, eps):
    """Direct, shift-free transcription of the fusion definition."""
    m = u.mean(axis=0)
    d = np.sqrt(((u - m[None]) ** 2).mean(axis=2) + eps)
    a = np.exp(-beta * d)
    w = a / a.sum(axis=0)
    return m, d, a, w, (w[:, :, None] * u).sum(axis=0)


def kernel_reference(u, params, uniform=False):
    """The kernel with one whole-array expression per quantity; the library
    must match it bit for bit."""
    center = u.mean(axis=0) if params.center == "mean" else np.median(u, axis=0)
    diff = u - center[None]
    dev = np.sqrt((diff * diff).mean(axis=2) + params.epsilon)
    if uniform:
        weights = np.full(dev.shape, 1.0 / len(dev))
    else:
        logits = -params.beta * dev
        shifted = np.exp(logits - logits.max(axis=0, keepdims=True))
        weights = shifted / shifted.sum(axis=0, keepdims=True)
    fused = np.einsum("vl,vld->ld", weights, u)
    return fused, weights, np.exp(-params.beta * dev), dev, center


def _views(*scalars):
    return ViewUpdateSet(np.array(scalars, dtype=float).reshape(len(scalars), 1, 1))


def test_consensus_center_examples():
    assert consensus_center(_views(1.0, 3.0))[0, 0] == 2.0
    u = ViewUpdateSet(np.tile(np.arange(6.0).reshape(1, 2, 3), (4, 1, 1)))
    np.testing.assert_array_equal(consensus_center(u), np.arange(6.0).reshape(2, 3))
    assert consensus_center(_views(0.0, 0.0, 3.0))[0, 0] == 1.0


def test_deviation_floor_is_sqrt_epsilon():
    u = _views(2.0, 2.0)
    d = deviations(u, consensus_center(u), epsilon=1e-8)
    assert (d == math.sqrt(1e-8)).all()


def test_deviation_is_absolute_difference_for_one_channel():
    u = _views(3.0, -1.0)  # m = 1
    d = deviations(u, consensus_center(u), epsilon=TINY)
    np.testing.assert_array_equal(d.ravel(), [2.0, 2.0])


def test_deviation_is_rms_not_l2():
    u = ViewUpdateSet(np.stack([np.ones((1, 4)), -np.ones((1, 4))]))  # m = 0
    d = deviations(u, consensus_center(u), epsilon=TINY)
    assert d[0, 0] == pytest.approx(1.0, abs=1e-15)  # RMS of (1,1,1,1), not 2


def test_agreement_fuse_hand_example():
    u = _views(0.0, 0.0, 3.0)
    res = agreement_fuse(u, FusionParams(beta=1.0, epsilon=TINY))
    np.testing.assert_allclose(res.deviations.ravel(), [1.0, 1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(res.agreement.ravel(),
                               [math.exp(-1), math.exp(-1), math.exp(-2)], atol=1e-12)
    np.testing.assert_allclose(res.weights.ravel(), [0.42232, 0.42232, 0.15536], atol=1e-4)
    assert res.fused[0, 0] == pytest.approx(0.46608, abs=1e-4)


def test_agreement_fuse_matches_direct_oracle():
    rng = np.random.default_rng(17)
    u = ViewUpdateSet(rng.normal(size=(5, 7, 3)))
    params = FusionParams(beta=2.5, epsilon=1e-8)
    res = agreement_fuse(u, params)
    m, d, a, w, fused = fuse_oracle(u.updates, params.beta, params.epsilon)
    np.testing.assert_allclose(res.consensus, m, atol=1e-14)
    np.testing.assert_allclose(res.deviations, d, atol=1e-14)
    np.testing.assert_allclose(res.agreement, a, atol=1e-14)
    np.testing.assert_allclose(res.weights, w, atol=1e-13)
    np.testing.assert_allclose(res.fused, fused, atol=1e-12)


@pytest.mark.parametrize("shape", [(1, 3, 2), (5, 7, 3), (4, 6, 129), (3, 5, 1000)])
@pytest.mark.parametrize("layout", ["C", "F", "strided", "views-inner"])
@pytest.mark.parametrize("center", CENTER_METHODS)
def test_kernel_matches_reference_bit_for_bit(shape, layout, center):
    raw = np.random.default_rng(27).normal(size=shape) * 3.0
    if layout == "F":
        raw = np.asfortranarray(raw)
    elif layout == "strided":
        raw = np.concatenate([raw, raw], axis=2)[:, :, ::2]
    elif layout == "views-inner":
        raw = np.ascontiguousarray(raw.transpose(1, 0, 2)).transpose(1, 0, 2)
    u = ViewUpdateSet(raw)
    params = FusionParams(beta=2.5, epsilon=1e-8, center=center)
    for res, uniform in ((agreement_fuse(u, params), False), (average_fuse(u, params), True)):
        got = (res.fused, res.weights, res.agreement, res.deviations, res.consensus)
        for a, b in zip(got, kernel_reference(raw, params, uniform)):
            np.testing.assert_array_equal(a, b)


def test_beta_zero_equals_average_bit_exact():
    rng = np.random.default_rng(18)
    u = ViewUpdateSet(rng.normal(size=(4, 6, 5)))
    flat = agreement_fuse(u, FusionParams(beta=0.0, epsilon=1e-8))
    avg = average_fuse(u)
    np.testing.assert_array_equal(flat.fused, avg.fused)
    np.testing.assert_array_equal(flat.weights, avg.weights)


def test_identical_views_identity():
    rng = np.random.default_rng(19)
    one = rng.normal(size=(6, 4))
    u = ViewUpdateSet(np.stack([one, one, one]))
    params = FusionParams(beta=1.5, epsilon=1e-8)
    res = agreement_fuse(u, params)
    assert (res.weights == 1.0 / 3.0).all()
    np.testing.assert_allclose(res.fused, one, atol=1e-15)
    assert (res.agreement == math.exp(-params.beta * math.sqrt(params.epsilon))).all()


def test_single_view_passthrough():
    rng = np.random.default_rng(20)
    one = rng.normal(size=(3, 2))
    res = average_fuse(ViewUpdateSet(one[None]))
    np.testing.assert_allclose(res.fused, one, atol=1e-15)
    assert (res.weights == 1.0).all()


def test_average_fuse_example():
    assert average_fuse(_views(0.0, 0.0, 3.0)).fused[0, 0] == 1.0


def test_weights_normalised_and_positive():
    rng = np.random.default_rng(21)
    u = ViewUpdateSet(rng.normal(size=(6, 9, 4)))
    res = agreement_fuse(u, FusionParams(beta=4.0))
    np.testing.assert_allclose(res.weights.sum(axis=0), 1.0, atol=1e-12)
    assert (res.weights > 0).all()
    assert ((res.agreement > 0) & (res.agreement <= 1)).all()


def test_weight_monotone_in_deviation():
    rng = np.random.default_rng(22)
    u = ViewUpdateSet(rng.normal(size=(5, 8, 3)))
    res = agreement_fuse(u, FusionParams(beta=3.0))
    for loc in range(8):
        d = res.deviations[:, loc]
        w = res.weights[:, loc]
        order = np.argsort(d)
        assert all(w[order[i]] >= w[order[i + 1]] for i in range(4))


def test_fused_update_is_convex_combination():
    rng = np.random.default_rng(23)
    u = ViewUpdateSet(rng.normal(size=(4, 5, 6)))
    res = agreement_fuse(u, FusionParams(beta=2.0))
    lo = u.updates.min(axis=0) - 1e-12
    hi = u.updates.max(axis=0) + 1e-12
    assert ((res.fused >= lo) & (res.fused <= hi)).all()


def test_large_beta_concentrates_on_argmin():
    rng = np.random.default_rng(24)
    u = ViewUpdateSet(rng.normal(size=(5, 6, 3)))
    res = agreement_fuse(u, FusionParams(beta=1e6))
    winners = res.deviations.argmin(axis=0)
    for loc in range(6):
        expected = np.zeros(5)
        expected[winners[loc]] = 1.0
        np.testing.assert_allclose(res.weights[:, loc], expected, atol=1e-6)


def test_large_beta_ties_split_equally():
    one = np.full((1, 2), 5.0)
    other = np.zeros((1, 2))
    u = ViewUpdateSet(np.stack([one, one, other]))
    res = agreement_fuse(u, FusionParams(beta=1e6))
    np.testing.assert_allclose(res.weights[:, 0], [0.5, 0.5, 0.0], atol=1e-6)


def test_permutation_equivariance():
    rng = np.random.default_rng(25)
    raw = rng.normal(size=(5, 4, 3))
    perm = rng.permutation(5)
    params = FusionParams(beta=1.7)
    base = agreement_fuse(ViewUpdateSet(raw), params)
    permuted = agreement_fuse(ViewUpdateSet(raw[perm]), params)
    np.testing.assert_allclose(permuted.weights, base.weights[perm], atol=1e-12)
    np.testing.assert_allclose(permuted.fused, base.fused, atol=1e-12)


def test_shift_stability():
    rng = np.random.default_rng(26)
    raw = rng.normal(size=(4, 5, 2))
    params = FusionParams(beta=2.2)
    base = agreement_fuse(ViewUpdateSet(raw), params)
    shifted = agreement_fuse(ViewUpdateSet(raw + 3.75), params)
    np.testing.assert_allclose(shifted.deviations, base.deviations, atol=1e-12)
    np.testing.assert_allclose(shifted.agreement, base.agreement, atol=1e-12)
    np.testing.assert_allclose(shifted.weights, base.weights, atol=1e-12)
    np.testing.assert_allclose(shifted.fused, base.fused + 3.75, atol=1e-12)
    np.testing.assert_allclose(shifted.consensus, base.consensus + 3.75, atol=1e-12)


def test_median_center_switch():
    u = _views(0.0, 0.0, 3.0)
    res = agreement_fuse(u, FusionParams(beta=1.0, center="median"))
    assert res.consensus[0, 0] == 0.0  # median of {0, 0, 3}


def test_schedule_validation():
    with pytest.raises(InvalidSchedule):
        SimulationConfig(steps=3, schedule=np.array([1.0, -0.5, 0.1]))
    with pytest.raises(InvalidSchedule):
        SimulationConfig(steps=3, schedule=np.array([0.1, 0.5, 0.2]))
    with pytest.raises(InvalidSchedule):
        SimulationConfig(steps=3, schedule=np.array([1.0, 0.5]))
    with pytest.raises(InvalidSchedule):
        geometric_schedule(-1.0, 0.5, 4)


def test_schedule_helpers():
    np.testing.assert_allclose(geometric_schedule(2.0, 0.5, 4), [2.0, 1.0, 0.5, 0.25])
    np.testing.assert_array_equal(constant_schedule(0.3, 3), [0.3, 0.3, 0.3])


@pytest.mark.parametrize("schedule, unread", [
    ({"kind": "constant", "sigma0": 0.3, "decay": 0.5}, "decay"),
    ({"kind": "geometric", "sigma0": 0.3, "values": [1.0, 0.5]}, "values"),
    ({"sigma0": 0.3, "values": [1.0, 0.5]}, "values"),   # geometric by default
    ({"kind": "explicit", "values": [1.0, 0.5], "sigma0": 0.3}, "sigma0"),
    ({"kind": "explicit", "values": [1.0, 0.5], "decay": 0.5}, "decay"),
])
def test_schedule_key_the_kind_does_not_read_is_refused(schedule, unread):
    kind = schedule.get("kind", "geometric")
    message = rf"simulation.schedule: a {kind} schedule does not read key '{unread}'"
    with pytest.raises(ConfigError, match=message):
        build_config({"simulation": {"steps": 2, "schedule": schedule}})
    read = {key: value for key, value in schedule.items() if key != unread}
    config = build_config({"simulation": {"steps": 2, "schedule": read}})
    resolved = config.resolved_dict()
    assert resolved["simulation"]["schedule"]["kind"] == "explicit"
    assert build_config(resolved).resolved_dict() == resolved


def test_default_schedule_is_one_schedule():
    schedules = [SimulationConfig().schedule, build_config({}).simulation.schedule,
                 build_config({"simulation": {"schedule": {"kind": "geometric"}}}).simulation.schedule]
    assert len({s.tobytes() for s in schedules}) == 1


def test_zero_noise_trajectory_agreement_floor(monkeypatch):
    params = FusionParams(beta=1.0, epsilon=1e-8)
    cfg = SimulationConfig(views=3, locations=8, channels=4, steps=10,
                           schedule=constant_schedule(0.0, 10), params=params, seed=5)
    results = []

    def recording_fuse(updates, p):
        results.append(agreement_fuse(updates, p))
        return results[-1]

    monkeypatch.setattr(fusion, "agreement_fuse", recording_fuse)
    trace = simulate_trajectory(cfg)
    expected = math.exp(-params.beta * math.sqrt(params.epsilon))
    assert len(results) == 10
    for res in results:
        assert (res.agreement == expected).all()  # exact per location/view
    np.testing.assert_allclose(trace.mean_agreement, expected, rtol=1e-14)
    np.testing.assert_allclose(trace.mean_weight, 1.0 / 3.0, atol=1e-15)


def test_trajectory_memory_does_not_grow_with_steps():
    def peak_bytes(steps):
        cfg = SimulationConfig(views=4, locations=512, channels=16, steps=steps, seed=3)
        tracemalloc.start()
        try:
            simulate_trajectory(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_update_set = 4 * 512 * 16 * 8
    assert peak_bytes(40) - peak_bytes(5) <= one_update_set


def test_decaying_noise_converges_smoke():
    for seed in (0, 1, 2):
        cfg = SimulationConfig(steps=60, seed=seed)
        trace = simulate_trajectory(cfg)
        assert trace.mean_agreement[-1].mean() >= 0.99
        # state homes in on the target as the noise dies away
        rng = np.random.default_rng(seed)
        target = cfg.target_scale * rng.normal(size=(cfg.locations, cfg.channels))
        assert np.abs(trace.final_state - target).mean() < 0.05


def test_biased_view_gets_downweighted():
    cfg = SimulationConfig(views=3, locations=16, channels=4, steps=30,
                           schedule=constant_schedule(0.02, 30),
                           view_bias=np.array([0.6, 0.0, 0.0]), seed=9)
    trace = simulate_trajectory(cfg)
    assert (trace.mean_weight[:, 0] < 1.0 / 3.0).all()


def test_trajectory_determinism_and_csv(tmp_path):
    cfg = SimulationConfig(steps=20, seed=7)
    t1 = simulate_trajectory(cfg)
    t2 = simulate_trajectory(cfg)
    np.testing.assert_array_equal(t1.mean_agreement, t2.mean_agreement)
    np.testing.assert_array_equal(t1.mean_weight, t2.mean_weight)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    t1.write_csv(p1)
    t2.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0].startswith("#") and "beta=" in lines[0] and "seed=7" in lines[0]
    assert lines[1].startswith("# schedule=")
    assert lines[2] == "step,view,mean_agreement,mean_weight"
    assert len(lines) == 3 + 20 * 3


def test_view_update_set_validation():
    with pytest.raises(ValueError):
        ViewUpdateSet(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ViewUpdateSet(np.full((2, 2, 2), np.nan))
    with pytest.raises(ValueError):
        FusionParams(beta=-1.0)
    with pytest.raises(ValueError):
        FusionParams(epsilon=0.0)
    with pytest.raises(ValueError):
        SimulationConfig(view_bias=np.array([1.0, 2.0]))  # 2 biases for 3 views
    for bad in ({"views": 2.5}, {"steps": True}, {"locations": np.float64(4.0)},
                {"seed": -1}, {"seed": 1.5}, {"target_scale": math.nan},
                {"view_bias": np.array([math.inf, 0.0, 0.0])}):
        with pytest.raises(ValueError):
            SimulationConfig(**bad)
    assert SimulationConfig(views=np.int64(2), steps=np.int32(3)).views == 2


def serial_trajectory(cfg):
    """The simulator as one serial loop, each step drawing its own noise:
    the oracle for the pipelined simulate_trajectory. Returns the mean
    curves and the final state."""
    rng = np.random.default_rng(cfg.seed)
    bias = np.zeros(cfg.views) if cfg.view_bias is None else cfg.view_bias
    state = np.zeros((cfg.locations, cfg.channels))
    mean_agreement = np.empty((cfg.steps, cfg.views))
    mean_weight = np.empty((cfg.steps, cfg.views))
    noise = np.empty((cfg.views, cfg.locations, cfg.channels))
    with np.errstate(over="ignore", invalid="ignore"):
        target = cfg.target_scale * rng.normal(size=(cfg.locations, cfg.channels))
        for t in range(cfg.steps):
            clean = cfg.contraction * (target - state)
            rng.standard_normal(out=noise)
            noise *= cfg.schedule[t]
            for v in range(cfg.views):
                noise[v] += clean + bias[v]
            try:
                updates = ViewUpdateSet(noise)
            except ValueError as exc:
                raise NonFiniteInput(f"simulation step {t}: {exc}") from None
            res = agreement_fuse(updates, cfg.params)
            state += res.fused
            if not np.isfinite(state).all():
                raise NonFiniteInput(f"simulation step {t}: state overflowed to NaN or Inf")
            mean_agreement[t] = res.agreement.mean(axis=1)
            mean_weight[t] = res.weights.mean(axis=1)
    return mean_agreement, mean_weight, state


@pytest.mark.parametrize("settings", [
    {"views": 1},
    {"steps": 1},
    {"steps": 2},
    {"params": FusionParams(center="median")},
    {"params": FusionParams(beta=0.0)},
    {"views": 8, "locations": 512, "channels": 16, "steps": 6, "seed": 1},  # the bench shape, scaled
    {"view_bias": np.array([0.3, 0.0, -0.2]), "schedule": constant_schedule(0.05, 60)},
], ids=["views-1", "steps-1", "steps-2", "median", "beta-0", "bench-scaled", "bias"])
def test_pipelined_trajectory_matches_serial_loop_bit_for_bit(settings):
    cfg = SimulationConfig(**{"seed": 4, **settings})
    trace = simulate_trajectory(cfg)
    mean_agreement, mean_weight, state = serial_trajectory(cfg)
    np.testing.assert_array_equal(trace.mean_agreement, mean_agreement)
    np.testing.assert_array_equal(trace.mean_weight, mean_weight)
    np.testing.assert_array_equal(trace.final_state, state)


@pytest.mark.parametrize("settings", [
    {"view_bias": np.array([1e306, 0.0])},
    {"view_bias": np.array([4e307, 4e307, 4e307])},
    {"schedule": constant_schedule(1e308, 40)},
], ids=["bias-fails-at-step-0", "bias-fails-at-step-10", "schedule-overflows"])
def test_failing_step_matches_serial_loop_and_stops_the_worker(settings):
    """The same step fails with the same message, and no drawing thread
    outlives the error. Warnings are errors here, as in the suite's
    settings, so an overflow warning from arithmetic on the drawing thread,
    which np.errstate does not reach, would fail the step with a
    RuntimeWarning instead."""
    cfg = SimulationConfig(**{"views": len(settings.get("view_bias", [0] * 3)), "locations": 8,
                              "channels": 4, "steps": 40, "seed": 2, **settings})
    with pytest.raises(NonFiniteInput) as expected:
        serial_trajectory(cfg)
    threads = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput) as got:
            simulate_trajectory(cfg)
    assert str(got.value) == str(expected.value)
    assert threading.active_count() == threads
