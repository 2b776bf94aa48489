"""Agreement-weighted fusion of per-view latent updates.

Several views each propose an update tensor over L latent locations and
D channels. Per location, the views' proposals are pooled into a
consensus centre; each view's RMS deviation from that centre (channel
count normalised, floored by a stability constant) is turned into an
agreement score exp(-beta * deviation), and a softmax over views yields
fusion weights. Views that sit close to the consensus dominate the fused
update; beta sharpens or flattens that selection.

A surrogate trajectory simulator drives the kernel over a decaying noise
schedule and emits per-step, per-view mean agreement and weight curves
as a CSV trace. One worker thread draws the next step's noise while the
current step fuses, so two (V, L, D) update sets are resident at a time.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import (
    HerdWeightError,
    InvalidSchedule,
    NonFiniteInput,
    as_numbers,
    check_number,
    check_settings,
    setting,
)
from .files import output

CENTER_METHODS = ("mean", "median")
# The noise schedule of a simulation that names none: geometric_schedule's
# arguments, and the config defaults of the geometric and constant kinds.
DEFAULT_SCHEDULE = MappingProxyType({"sigma0": 1.0, "decay": 0.88})


@dataclass(frozen=True)
class ViewUpdateSet:
    """Per-view update tensors, stacked as a (V, L, D) float64 array."""

    updates: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.updates, dtype=np.float64)
        if u.ndim != 3 or min(u.shape) < 1:
            raise ValueError(f"expected a (V, L, D) array with positive dims, got shape {u.shape}")
        if not np.isfinite(u).all():
            raise ValueError("updates contain NaN or Inf")
        object.__setattr__(self, "updates", u)

    @property
    def n_locations(self) -> int:
        return self.updates.shape[1]


@dataclass(frozen=True)
class FusionParams:
    """beta: selection sharpness >= 0; epsilon: stability floor > 0.

    ``center`` picks the consensus statistic; the coordinate-wise median
    is an optional robust alternative, off by default.
    """

    beta: float = setting(1.0, low=0)
    epsilon: float = setting(1e-8, low=0, open_low=True)
    center: str = setting("mean", choices=CENTER_METHODS)

    __post_init__ = check_settings


@dataclass(frozen=True)
class FusionResult:
    """Fused update plus the per-view diagnostics behind it."""

    fused: np.ndarray       # (L, D)
    weights: np.ndarray     # (V, L), rows sum to 1 per location
    agreement: np.ndarray   # (V, L), in (0, 1]
    deviations: np.ndarray  # (V, L)
    consensus: np.ndarray   # (L, D)


def consensus_center(updates: ViewUpdateSet, method: str = "mean") -> np.ndarray:
    """Per-location centre of the view proposals."""
    if method == "mean":
        return updates.updates.mean(axis=0)
    if method == "median":
        return np.median(updates.updates, axis=0)
    raise ValueError(f"center must be one of {CENTER_METHODS}, got {method!r}")


def deviations(updates: ViewUpdateSet, consensus: np.ndarray, epsilon: float) -> np.ndarray:
    """Per-view, per-location RMS distance from the consensus.

    Channel-count normalised (an RMS, not an L2 norm) and floored at
    sqrt(epsilon) so downstream scores stay finite. Works one view at a
    time, so its temporaries are (L, D), not (V, L, D). The result keeps
    the memory layout of the updates, which fixes the summation order of
    the fused update downstream.
    """
    mean_sq = np.empty_like(updates.updates[:, :, 0])
    for v, view in enumerate(updates.updates):
        diff = view - consensus
        diff *= diff
        mean_sq[v] = diff.mean(axis=1)
    return np.sqrt(mean_sq + epsilon)


def _fuse(updates: ViewUpdateSet, params: FusionParams, weigh) -> FusionResult:
    """Centre, deviations and agreement logits -beta * deviation, then the
    fused update under the (V, L) weights that ``weigh`` makes of the logits."""
    center = consensus_center(updates, params.center)
    dev = deviations(updates, center, params.epsilon)
    logits = -params.beta * dev
    weights = weigh(logits)
    fused = np.einsum("vl,vld->ld", weights, updates.updates)
    return FusionResult(fused=fused, weights=weights, agreement=np.exp(logits),
                        deviations=dev, consensus=center)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = np.exp(logits - logits.max(axis=0, keepdims=True))
    return shifted / shifted.sum(axis=0, keepdims=True)


def agreement_fuse(updates: ViewUpdateSet, params: FusionParams) -> FusionResult:
    """Fuse view updates with softmax weights over agreement scores.

    The softmax subtracts the per-location max logit before
    exponentiation (shift-invariant, numerically safe); the reported
    agreement scores are the unshifted exp(-beta * deviation).
    """
    return _fuse(updates, params, _softmax)


def average_fuse(updates: ViewUpdateSet, params: FusionParams | None = None) -> FusionResult:
    """Uniform-weight fusion baseline.

    The fused tensor is bit-identical to agreement_fuse with beta = 0;
    deviation/agreement diagnostics are computed with the given params
    (defaults if omitted).
    """
    return _fuse(updates, params or FusionParams(),
                 lambda logits: np.full(logits.shape, 1.0 / len(logits)))


def geometric_schedule(sigma0: float, decay: float, steps: int) -> np.ndarray:
    """sigma0 * decay**t for t = 0..steps-1."""
    check_number("sigma0", sigma0, low=0, error=InvalidSchedule)
    check_number("decay", decay, low=0, high=1, error=InvalidSchedule)
    return sigma0 * decay ** np.arange(steps, dtype=np.float64)


def constant_schedule(sigma: float, steps: int) -> np.ndarray:
    return geometric_schedule(sigma, 1.0, steps)


def _validate_schedule(schedule: np.ndarray, steps: int) -> np.ndarray:
    sched = np.asarray(schedule, dtype=np.float64)
    if sched.shape != (steps,):
        raise InvalidSchedule(f"schedule must have one value per step ({steps}), got shape {sched.shape}")
    if not np.isfinite(sched).all() or (sched < 0).any():
        raise InvalidSchedule("schedule values must be finite and >= 0")
    if (np.diff(sched) > 0).any():
        raise InvalidSchedule("schedule must be non-increasing")
    return sched


@dataclass(frozen=True)
class SimulationConfig:
    """Surrogate trajectory: contraction toward a random target (a standard
    normal draw times ``target_scale``) plus view noise.

    Each step synthesises per-view updates as contraction * (target -
    state) plus a per-view bias and Gaussian noise of scale schedule[t],
    fuses them, and advances the state by the fused update.
    """

    views: int = setting(3, low=1)
    locations: int = setting(64, low=1)
    channels: int = setting(8, low=1)
    steps: int = setting(60, low=1)
    schedule: np.ndarray = field(default=None)  # defaults to geometric below
    params: FusionParams = field(default_factory=FusionParams)
    seed: int = setting(0, low=0)
    contraction: float = setting(0.2, low=0, high=1, open_low=True)
    view_bias: np.ndarray | None = None
    target_scale: float = setting(1.0)

    def __post_init__(self) -> None:
        check_settings(self)
        sched = self.schedule
        if sched is None:
            sched = geometric_schedule(**DEFAULT_SCHEDULE, steps=self.steps)
        object.__setattr__(self, "schedule", _validate_schedule(sched, self.steps))
        if self.view_bias is not None:
            bias = as_numbers("view_bias", self.view_bias).astype(np.float64)
            if bias.shape != (self.views,):
                raise ValueError(f"view_bias must have one entry per view, got shape {bias.shape}")
            object.__setattr__(self, "view_bias", bias)


@dataclass(frozen=True)
class TrajectoryTrace:
    """Per-step, per-view mean curves and the final state."""

    config: SimulationConfig
    mean_agreement: np.ndarray  # (T, V)
    mean_weight: np.ndarray     # (T, V)
    final_state: np.ndarray     # (L, D)

    def write_csv(self, path: str | Path) -> None:
        """Trace rows (step, view, mean_agreement, mean_weight) with a
        commented header recording every simulation parameter."""
        cfg = self.config
        sched = ",".join(repr(float(s)) for s in cfg.schedule)
        lines = [
            f"# views={cfg.views} locations={cfg.locations} channels={cfg.channels} "
            f"steps={cfg.steps} beta={cfg.params.beta!r} epsilon={cfg.params.epsilon!r} "
            f"seed={cfg.seed} contraction={cfg.contraction!r}",
            f"# schedule={sched}",
            "step,view,mean_agreement,mean_weight",
        ]
        for t in range(cfg.steps):
            for v in range(cfg.views):
                lines.append(f"{t},{v},{float(self.mean_agreement[t, v])!r},"
                             f"{float(self.mean_weight[t, v])!r}")
        with output(path) as fh:
            fh.write("\n".join(lines) + "\n")


def simulate_trajectory(config: SimulationConfig) -> TrajectoryTrace:
    """Run the surrogate update process and fuse every step.

    One worker thread draws step t+1's standard normals into a second
    buffer while this thread scales step t's, adds the clean update and
    the biases, fuses them and advances the state. The drawing is the
    critical path, so the worker does nothing else. The generator is
    drawn in the same order as by a serial loop (target, then each step's
    noise), so the trace is the same to the last bit. Two update sets are
    resident, plus the state; only the mean curves and the state outlive
    a step, so memory does not grow with the step count. A step whose
    updates or state overflow to NaN or Inf raises NonFiniteInput naming
    that step, and the worker has stopped by the time anything is raised.
    """
    views, locations, channels = config.views, config.locations, config.channels
    try:
        # the two noise buffers first: they are the largest allocations
        buffers = [np.empty((views, locations, channels)) for _ in range(2)]
        bias = np.zeros(views) if config.view_bias is None else config.view_bias
        state = np.zeros((locations, channels))
        mean_agreement = np.empty((config.steps, views))
        mean_weight = np.empty((config.steps, views))
    except (MemoryError, ValueError):   # ValueError: more bytes than numpy can address
        raise HerdWeightError(f"simulation of {views} views x {locations} locations x "
                              f"{channels} channels does not fit in memory") from None
    rng = np.random.default_rng(config.seed)
    # Overflow shows up as non-finite values, reported below with the step.
    with np.errstate(over="ignore", invalid="ignore"), ThreadPoolExecutor(1) as drawer:
        target = config.target_scale * rng.normal(size=(locations, channels))
        # from here on only the drawer touches rng, one step at a time
        pending = drawer.submit(rng.standard_normal, out=buffers[0])
        for t in range(config.steps):
            noise = pending.result()
            if t + 1 < config.steps:
                pending = drawer.submit(rng.standard_normal, out=buffers[(t + 1) % 2])
            # (clean + bias) + schedule * noise, built in the noise buffer
            clean = config.contraction * (target - state)
            noise *= config.schedule[t]
            for v in range(views):
                noise[v] += clean + bias[v]
            try:
                updates = ViewUpdateSet(noise)
            except ValueError as exc:
                raise NonFiniteInput(f"simulation step {t}: {exc}") from None
            res = agreement_fuse(updates, config.params)
            state += res.fused
            if not np.isfinite(state).all():
                raise NonFiniteInput(f"simulation step {t}: state overflowed to NaN or Inf")
            mean_agreement[t] = res.agreement.mean(axis=1)
            mean_weight[t] = res.weights.mean(axis=1)
    return TrajectoryTrace(config=config, mean_agreement=mean_agreement,
                           mean_weight=mean_weight, final_state=state)
