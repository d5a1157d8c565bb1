"""Hyperparameter search for the learned detectors.

Proposals come from a tree-structured Parzen estimator: past trials are split
into a good and a bad set by the gamma-quantile of a scalarized objective,
each hyperparameter dimension gets a density model per set (Gaussian kernels
for numeric, smoothed counts for categorical), and the candidate maximizing
the good/bad density ratio wins. A proposal builds those models once, draws
its candidates one at a time from the good-set models, then scores every
candidate with one array step per dimension. Two end-to-end strategies sit
on top:

* transfer: maximize (recall, precision) on labeled cells, keep each cell's
  best Pareto point, and aggregate those configs into one deployable config.
* proxy: no labels needed; each trial's flags define predicted inliers, a
  quadratic trend of every feature over cycle_index is fitted to them, and
  (trend loss, inlier count) span the objective trade-off. The compromise
  config aggregates the most frequently recurring objective pair.

Finite search spaces no larger than the trial budget are enumerated outright
instead of sampled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ml_detect
from .errors import ConfigError, CycleScreenError, DegenerateDataError, InputError
from .evaluation import confusion, metrics
from .ml_detect import DetectorConfig, make_config, validate_config
from .ml_detect.params import (
    DEFAULT_TRIALS,
    PARAM_SPECS,
    CatDomain,
    IntDomain,
    RealDomain,
    check_trials,
)
from .util import (
    as_matrix,
    derive_seed,
    float_policy,
    round_half_up,
    round_sig,
)

GAMMA = 0.25
N_CANDIDATES = 24
N_STARTUP = 5
LOSS_SENTINEL = float("inf")


# ---------------------------------------------------------------------------
# search space


@dataclass
class SearchSpace:
    """Per-hyperparameter domains for one model kind."""

    model: str
    params: dict

    def __post_init__(self):
        if self.model not in PARAM_SPECS:
            raise ConfigError(f"unknown model '{self.model}'")
        spec = PARAM_SPECS[self.model]
        unknown = set(self.params) - set(spec)
        if unknown:
            raise ConfigError(
                f"{self.model}: search space names unknown params {sorted(unknown)}"
            )
        # a range is an interval or a set of choices: its ends, or each of
        # its choices, must pass the param's hard range
        for name, dom in self.params.items():
            if isinstance(dom, RealDomain) and isinstance(spec[name].hard, IntDomain):
                raise ConfigError(
                    f"{self.model}: search range of {name} is real-valued, "
                    f"but {name} takes integers"
                )
            ends = dom.choices if isinstance(dom, CatDomain) else (dom.low, dom.high)
            try:
                for value in ends:
                    spec[name].hard.validate(name, value)
            except ConfigError as err:
                raise ConfigError(
                    f"{self.model}: search range of {name} leaves its hard "
                    f"range: {err}"
                ) from None

    def sample(self, rng) -> dict:
        out = {}
        for name, dom in self.params.items():
            if isinstance(dom, RealDomain):
                out[name] = float(rng.uniform(dom.low, dom.high))
            elif isinstance(dom, IntDomain):
                out[name] = int(rng.integers(dom.low, dom.high + 1))
            else:
                out[name] = dom.choices[rng.integers(len(dom.choices))]
        return out

    def enumerate(self, limit: int):
        """All points of a finite space, or None when the space is continuous
        or larger than the limit."""
        grids = []
        for name, dom in self.params.items():
            if isinstance(dom, RealDomain):
                return None
            if isinstance(dom, IntDomain):
                if dom.high - dom.low + 1 > limit:
                    return None
                grids.append([(name, v) for v in range(dom.low, dom.high + 1)])
            else:
                grids.append([(name, c) for c in dom.choices])
        if math.prod(map(len, grids)) > limit:
            return None
        return [dict(combo) for combo in itertools.product(*grids)]


def default_search_space(model: str, n_features: int = 2) -> SearchSpace:
    """The search ranges declared in PARAM_SPECS, in registry order.

    pca cannot keep more components than there are selected columns, so its
    n_components range follows n_features.
    """
    params = {
        name: p.search
        for name, p in PARAM_SPECS.get(model, {}).items()
        if p.search is not None
    }
    if model == "pca":
        params["n_components"] = IntDomain(1, max(1, n_features))
    return SearchSpace(model=model, params=params)


# ---------------------------------------------------------------------------
# trial records and Pareto utilities


class TrialRecord(NamedTuple):
    """One evaluated configuration and its objective pair."""

    trial_id: int
    config: DetectorConfig
    objectives: tuple[float, float]
    objective_kind: str  # "recall_precision" or "loss_inliers"


def pareto_front(trials, directions) -> list[TrialRecord]:
    """Exact non-dominated subset, stable by trial_id.

    A trial is dropped when another trial is at least as good in both
    objectives and differs from it; trials with equal objectives all stay.
    """
    if len(directions) != 2:
        raise ConfigError("pareto_front expects exactly two directions")
    trials = sorted(trials, key=lambda t: t.trial_id)
    # both objectives oriented so that larger is better
    oriented = [
        tuple(o if d == "max" else -o for o, d in zip(t.objectives, directions))
        for t in trials
    ]
    return [
        t for t, a in zip(trials, oriented)
        if not any(b[0] >= a[0] and b[1] >= a[1] and b != a for b in oriented)
    ]


def aggregate_configs(configs) -> DetectorConfig:
    """Combine several configs for one model into a single deployable one.

    Numeric params average (integers round half up), clamped back into the
    registry range; categorical params take the most frequent value with
    lexicographic tie-breaking. Inputs are re-validated first, which also
    turns layer lists into tuples. The seed is not a tuned quantity and
    resets to zero.
    """
    configs = list(configs)
    if not configs:
        raise ConfigError("no configs to aggregate")
    model = configs[0].model
    if any(c.model != model for c in configs):
        raise ConfigError(
            f"cannot aggregate across models: {sorted({c.model for c in configs})}"
        )
    configs = [validate_config(c) for c in configs]
    merged = {}
    for name, p in PARAM_SPECS[model].items():
        values = [c.params[name] for c in configs]
        hard = p.hard
        if isinstance(hard, RealDomain):
            # equal values pass through: their float mean can be an ulp off
            if len(set(values)) == 1:
                merged[name] = hard.clamp(values[0])
            else:
                merged[name] = hard.clamp(float(np.mean(values)))
        elif isinstance(hard, IntDomain):
            if any(v is None for v in values):
                merged[name] = None
            else:
                merged[name] = hard.clamp(round_half_up(float(np.mean(values))))
        else:
            counts = {}
            for v in values:
                counts[v] = counts.get(v, 0) + 1
            top = max(counts.values())
            merged[name] = sorted(k for k, c in counts.items() if c == top)[0]
    return make_config(model, merged, seed=0)


def compromise_solution(trials) -> DetectorConfig:
    """Aggregate the configs behind the most recurrent objective pair.

    Pairs are compared after rounding each objective to 6 significant
    digits; frequency ties go to the pair containing the lowest trial_id.
    """
    trials = sorted(trials, key=lambda t: t.trial_id)
    if not trials:
        raise ConfigError("no trials to form a compromise from")
    groups: dict[tuple, list[TrialRecord]] = {}
    for t in trials:
        key = (round_sig(t.objectives[0], 6), round_sig(t.objectives[1], 6))
        groups.setdefault(key, []).append(t)
    # each group lists its trials in trial_id order
    best = min(groups.values(), key=lambda g: (-len(g), g[0].trial_id))
    return aggregate_configs([t.config for t in best])


# ---------------------------------------------------------------------------
# TPE proposal


def _scalarize(history, directions, rng) -> np.ndarray:
    """Random weighted Chebyshev scalarization, oriented so lower is better.
    Non-finite objectives scalarize to +inf and sink into the bad set."""
    obj = np.asarray([t.objectives for t in history], dtype=float)
    # orient to minimize
    for j, d in enumerate(directions):
        if d == "max":
            obj[:, j] = -obj[:, j]
    weights = rng.dirichlet(np.ones(obj.shape[1]))
    scalars = np.full(obj.shape[0], np.inf)
    finite_rows = np.all(np.isfinite(obj), axis=1)
    if finite_rows.any():
        sub = obj[finite_rows]
        lo = sub.min(axis=0)
        span = sub.max(axis=0) - lo
        span[span == 0.0] = 1.0
        normed = (sub - lo) / span
        scalars[finite_rows] = np.max(weights * normed, axis=1)
    return scalars


def _parzen_logpdf(x: np.ndarray, obs: np.ndarray, bandwidth: float, width: float):
    # log density at each point of x of a Parzen mixture of Gaussians around
    # past observations plus one uniform component over the domain; the
    # uniform share keeps far-from-cluster candidates scoreable and decays as
    # observations accumulate. Row i of z is point i against every observation.
    z = (x[:, None] - obs) / bandwidth
    kern = np.exp(-0.5 * z**2) / (bandwidth * np.sqrt(2.0 * np.pi))
    dens = (kern.sum(axis=1) + 1.0 / width) / (obs.size + 1.0)
    return np.log(np.maximum(dens, 1e-300))


def _numeric_bandwidth(obs: np.ndarray, width: float) -> float:
    # Scott's rule, clipped to [width/(n+1), width]: wide kernels while few
    # observations exist, narrowing as evidence accumulates
    sd = float(np.std(obs))
    h = sd * obs.size ** (-0.2)
    floor = width / min(100.0, obs.size + 1.0)
    return float(min(max(h, floor, 1e-12), width))


def _cat_probs(values, choices) -> np.ndarray:
    counts = np.ones(len(choices))  # +1 smoothing
    index = {c: i for i, c in enumerate(choices)}
    for v in values:
        counts[index[v]] += 1.0
    return counts / counts.sum()


def tpe_propose(history, space: SearchSpace, seed: int, directions) -> dict:
    """Propose the next hyperparameter point.

    Deterministic given (history, seed). With fewer than N_STARTUP past
    trials the draw is uniform; afterwards candidates are sampled from the
    good-set density and ranked by the good/bad log-density ratio.
    """
    rng = np.random.default_rng(seed)
    if len(history) < N_STARTUP:
        return space.sample(rng)

    scalars = _scalarize(history, directions, rng)
    order = np.argsort(scalars, kind="stable")
    n_good = max(1, int(np.ceil(GAMMA * len(history))))
    good_idx = set(order[:n_good].tolist())
    good = [history[i] for i in range(len(history)) if i in good_idx]
    bad = [history[i] for i in range(len(history)) if i not in good_idx]
    if not bad:
        bad = good

    # what every candidate shares: a categorical's draw cdf (Generator.choice's
    # own) and log-ratio table, a numeric's observations and bandwidths
    shared = {}
    for name, dom in space.params.items():
        if isinstance(dom, CatDomain):
            p_good = _cat_probs([t.config.params[name] for t in good], dom.choices)
            p_bad = _cat_probs([t.config.params[name] for t in bad], dom.choices)
            cdf = p_good.cumsum()
            cdf /= cdf[-1]
            shared[name] = cdf, np.log(p_good) - np.log(p_bad)
        else:
            width = float(dom.high - dom.low)
            g_obs, b_obs = (
                np.asarray([float(t.config.params[name]) for t in trials])
                for trials in (good, bad)
            )
            shared[name] = (
                width, g_obs, _numeric_bandwidth(g_obs, width),
                b_obs, _numeric_bandwidth(b_obs, width),
            )

    candidates = []
    drawn = {name: [] for name in space.params}
    for _ in range(N_CANDIDATES):
        cand = {}
        for name, dom in space.params.items():
            if isinstance(dom, CatDomain):
                idx = int(shared[name][0].searchsorted(rng.random(), side="right"))
                cand[name] = dom.choices[idx]
                drawn[name].append(idx)
                continue
            _, g_obs, h_good, _, _ = shared[name]
            # draw from the good-set mixture; the extra index is the
            # uniform prior component
            comp = int(rng.integers(g_obs.size + 1))
            if comp == g_obs.size:
                value = float(rng.uniform(dom.low, dom.high))
            else:
                value = float(g_obs[comp]) + float(rng.normal(0.0, h_good))
            value = min(max(value, dom.low), dom.high)
            if isinstance(dom, IntDomain):
                value = int(min(max(round_half_up(value), dom.low), dom.high))
            cand[name] = value
            drawn[name].append(float(value))
        candidates.append(cand)

    # every candidate's log-density ratio, one param at a time in param order
    ratio = np.zeros(N_CANDIDATES)
    for name, dom in space.params.items():
        if isinstance(dom, CatDomain):
            ratio += shared[name][1][drawn[name]]
        else:
            width, g_obs, h_good, b_obs, h_bad = shared[name]
            x = np.asarray(drawn[name])
            ratio += _parzen_logpdf(x, g_obs, h_good, width) - _parzen_logpdf(
                x, b_obs, h_bad, width
            )
    return candidates[int(np.argmax(ratio))]


# ---------------------------------------------------------------------------
# objective evaluation


def recall_precision(flags: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    scores = metrics(confusion(labels, flags))
    return scores.recall, scores.precision


def regression_proxy_objectives(
    cycle_index, X, flags
) -> tuple[float, int]:
    """Label-free objective pair for one trial's flags.

    Fits a quadratic trend of every feature column over cycle_index using
    only predicted inliers; the loss is the mean of the per-column mean
    squared residuals, and the count is how many inliers remain. Fewer than
    3 inliers cannot pin down a quadratic, so their loss is LOSS_SENTINEL.
    X is shaped by util.as_matrix, as the detectors shape it.
    """
    t = np.asarray(cycle_index, dtype=float)
    X = as_matrix(X)
    _check_rows("cycle_index", t, X)
    flags = np.asarray(flags, dtype=bool)
    inliers = ~flags
    count = int(inliers.sum())
    if count < 3:
        return LOSS_SENTINEL, count
    ti = t[inliers]
    design = np.column_stack([np.ones_like(ti), ti, ti**2])
    losses = []
    for j in range(X.shape[1]):
        y = X[inliers, j]
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ beta
        losses.append(float(np.mean(resid**2)))
    return float(np.mean(losses)), count


# ---------------------------------------------------------------------------
# strategies


class CellTuning(NamedTuple):
    """Per-cell outcome of the transfer strategy."""

    cell_id: str
    trials: list
    front: list
    best: TrialRecord

    @property
    def perfect_recall_fraction(self) -> float:
        return float(
            np.mean([1.0 if t.objectives[0] == 1.0 else 0.0 for t in self.trials])
        )


class TransferResult(NamedTuple):
    per_cell: dict
    aggregated: DetectorConfig


class ProxyResult(NamedTuple):
    trials: list
    front: list
    compromise: DetectorConfig


#: each objective kind's directions, and the objectives a trial records
#: when its config cannot be fitted or scored
_KINDS = {
    "recall_precision": (("max", "max"), (0.0, 0.0)),
    "loss_inliers": (("min", "max"), (LOSS_SENTINEL, 0)),
}


def _check_rows(name, values, X):
    """values must hold one entry per row of X."""
    if np.shape(values)[:1] != X.shape[:1]:
        raise InputError(
            f"{name} has shape {np.shape(values)}, but features have "
            f"{X.shape[0]} rows"
        )


def _run_trials(
    model, space, n_trials, base_seed, X, threshold, objective, kind, per_row
):
    """The trials, enumerated when the space is small, else proposed by TPE,
    and their Pareto front. The trial budget, the threshold, X and the
    per_row vectors the objective reads (name -> one entry per row of X) are
    checked once, before the first trial, so an input no config can use
    raises. A trial's objectives are objective(flags) on the rows it flags
    in X, or its kind's sentinel when its fit, score or objective raises,
    under util.float_policy. When no trial is usable, none raising and its
    objectives finite, DegenerateDataError names the model, the trial count
    and, if a trial raised, the first such trial and its error. Every trial
    shares one seed, so a config TPE proposes again is not refitted: its
    trial repeats the first one's objectives."""
    check_trials(n_trials)
    ml_detect.check_threshold(threshold)
    X = as_matrix(X)
    for name, values in per_row.items():
        _check_rows(name, values, X)
    directions, sentinel = _KINDS[kind]
    enumerated = space.enumerate(n_trials)
    model_seed = derive_seed(base_seed, "model", model)
    trials: list[TrialRecord] = []
    # by repr, so configs equal only as numbers (0.0 and -0.0, 1 and 1.0)
    # are fitted apart
    seen: dict[str, tuple] = {}
    usable = False
    failure = ""
    # an enumerated space has at most n_trials points
    points = [None] * n_trials if enumerated is None else enumerated
    for trial_id, preset in enumerate(points):
        if preset is None:
            params = tpe_propose(
                trials, space, derive_seed(base_seed, "tpe", trial_id), directions
            )
        else:
            params = preset
        config = make_config(model, params, seed=model_seed)
        key = repr(sorted(config.params.items()))
        if key not in seen:
            try:
                with float_policy(model):
                    fitted = ml_detect.fit(config, X)
                    probs = ml_detect.normalize_scores(ml_detect.score(fitted, X))
                    flags = ml_detect.predict_outliers(probs, threshold)
                    seen[key] = objective(flags)
            except CycleScreenError as err:
                seen[key] = sentinel
                failure = failure or f"; trial {trial_id}: {err}"
            else:
                usable = usable or bool(np.isfinite(seen[key]).all())
        trials.append(TrialRecord(trial_id, config, seen[key], kind))
    if not usable:
        raise DegenerateDataError(
            f"{model}: none of {len(trials)} trials gave a usable objective{failure}"
        )
    return trials, pareto_front(trials, directions)


def transfer_cell(
    cell_id, X, labels, model, space, n_trials, seed, threshold
) -> CellTuning:
    """Transfer tuning on one labeled cell, seeded from seed and the cell id.

    labels is a 0/1 vector aligned with the rows of X and must hold at least
    one positive cycle. The cell's winner is the Pareto point with maximum
    recall, precision breaking ties, earliest trial breaking what remains.
    """
    labels = np.asarray(labels, dtype=int)
    if labels.sum() == 0:
        raise InputError(f"cell {cell_id} has no positive cycles; cannot score recall")
    trials, front = _run_trials(
        model, space, n_trials, derive_seed(seed, "cell", cell_id), X, threshold,
        lambda flags: recall_precision(flags, labels), "recall_precision",
        {"labels": labels},
    )
    best = min(front, key=lambda t: (-t.objectives[0], -t.objectives[1], t.trial_id))
    return CellTuning(cell_id=cell_id, trials=trials, front=front, best=best)


def optimize_transfer(
    cells: dict,
    model: str,
    space: SearchSpace | None = None,
    n_trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    threshold: float = ml_detect.DEFAULT_PROBABILITY_THRESHOLD,
) -> TransferResult:
    """Tune on labeled cells and aggregate each cell's best config.

    cells maps cell_id -> (X, labels), each cell tuned by transfer_cell; the
    winners aggregate in cell_id order.
    """
    if not cells:
        raise InputError("transfer tuning needs at least one labeled cell")
    space = space if space is not None else default_search_space(model)
    per_cell = {
        c: transfer_cell(c, *cells[c], model, space, n_trials, seed, threshold)
        for c in sorted(cells)
    }
    aggregated = aggregate_configs([ct.best.config for ct in per_cell.values()])
    return TransferResult(per_cell=per_cell, aggregated=aggregated)


def optimize_proxy(
    cycle_index,
    X,
    model: str,
    space: SearchSpace | None = None,
    n_trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    threshold: float = ml_detect.DEFAULT_PROBABILITY_THRESHOLD,
) -> ProxyResult:
    """Label-free tuning for one cell via the trend-regression proxy.

    Each trial minimizes the quadratic-trend loss over predicted inliers
    while maximizing how many inliers survive; the returned compromise
    config aggregates the most recurrent objective pair.
    """
    space = space if space is not None else default_search_space(model)
    trials, front = _run_trials(
        model, space, n_trials, derive_seed(seed, "proxy"), X, threshold,
        lambda flags: regression_proxy_objectives(cycle_index, X, flags),
        "loss_inliers", {"cycle_index": cycle_index},
    )
    compromise = compromise_solution(trials)
    return ProxyResult(trials=trials, front=front, compromise=compromise)
