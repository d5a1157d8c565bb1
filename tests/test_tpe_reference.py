"""The vectorized TPE proposal against the per-candidate original.

reference_tpe_propose is the earlier tpe_propose, kept byte for byte: it
rebuilds each numeric param's observation arrays and bandwidths for every
candidate and scores one candidate at a time through _reference_kde_logpdf.
The module's tpe_propose must return the same point and leave its generator
in the same state.
"""

import numpy as np
import pytest

from cyclescreen import tune
from cyclescreen.features import build_feature_matrix
from cyclescreen.ml_detect import make_config
from cyclescreen.ml_detect.params import ML_MODELS
from cyclescreen.synth import AnomalySpec, generate_cell
from cyclescreen.tune import (
    CatDomain,
    IntDomain,
    RealDomain,
    SearchSpace,
    TrialRecord,
    default_search_space,
    optimize_proxy,
)
from cyclescreen.util import round_half_up


def _reference_kde_logpdf(x, obs, bandwidth, width):
    z = (x - obs) / bandwidth
    kern = np.exp(-0.5 * z**2) / (bandwidth * np.sqrt(2.0 * np.pi))
    dens = (float(np.sum(kern)) + 1.0 / width) / (obs.size + 1.0)
    return float(np.log(max(dens, 1e-300)))


def reference_tpe_propose(history, space, seed, directions):
    rng = np.random.default_rng(seed)
    if len(history) < tune.N_STARTUP:
        return space.sample(rng)

    scalars = tune._scalarize(history, directions, rng)
    order = np.argsort(scalars, kind="stable")
    n_good = max(1, int(np.ceil(tune.GAMMA * len(history))))
    good_idx = set(order[:n_good].tolist())
    good = [history[i] for i in range(len(history)) if i in good_idx]
    bad = [history[i] for i in range(len(history)) if i not in good_idx]
    if not bad:
        bad = good

    choices_cache = {}
    for name, dom in space.params.items():
        if isinstance(dom, CatDomain):
            choices_cache[name] = (
                tune._cat_probs([t.config.params[name] for t in good], dom.choices),
                tune._cat_probs([t.config.params[name] for t in bad], dom.choices),
            )

    candidates = []
    scores = []
    for _ in range(tune.N_CANDIDATES):
        cand = {}
        ratio = 0.0
        for name, dom in space.params.items():
            if isinstance(dom, CatDomain):
                p_good, p_bad = choices_cache[name]
                idx = int(rng.choice(len(dom.choices), p=p_good))
                cand[name] = dom.choices[idx]
                ratio += float(np.log(p_good[idx]) - np.log(p_bad[idx]))
                continue
            width = float(dom.high - dom.low)
            g_obs = np.asarray(
                [float(t.config.params[name]) for t in good], dtype=float
            )
            b_obs = np.asarray(
                [float(t.config.params[name]) for t in bad], dtype=float
            )
            h_good = tune._numeric_bandwidth(g_obs, width)
            h_bad = tune._numeric_bandwidth(b_obs, width)
            comp = int(rng.integers(g_obs.size + 1))
            if comp == g_obs.size:
                value = float(rng.uniform(dom.low, dom.high))
            else:
                value = float(g_obs[comp]) + float(rng.normal(0.0, h_good))
            value = min(max(value, dom.low), dom.high)
            if isinstance(dom, IntDomain):
                value = int(min(max(round_half_up(value), dom.low), dom.high))
                x = float(value)
            else:
                x = value
            cand[name] = value
            ratio += _reference_kde_logpdf(
                x, g_obs, h_good, width
            ) - _reference_kde_logpdf(x, b_obs, h_bad, width)
        candidates.append(cand)
        scores.append(ratio)
    return candidates[int(np.argmax(scores))]


@pytest.fixture
def generators(monkeypatch):
    """Every generator np.random.default_rng makes, in creation order."""
    made = []
    original = np.random.default_rng

    def recording(seed=None):
        made.append(original(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    return made


def _history(space, model, n, seed, inf_every=0):
    """n trials of random points with random objectives; every inf_every-th
    trial records the infinite-loss sentinel."""
    rng = np.random.default_rng(seed)
    hist = []
    for tid in range(n):
        params = space.sample(rng)
        loss = float(rng.uniform(0.0, 5.0))
        if inf_every and tid % inf_every == inf_every - 1:
            loss = tune.LOSS_SENTINEL
        inliers = int(rng.integers(0, 40))
        hist.append(
            TrialRecord(
                tid, make_config(model, params), (loss, inliers), "loss_inliers"
            )
        )
    return hist


SPACES = {
    "real": ("knn", {"minkowski_p": RealDomain(0.001, 10.0)}),
    "int": ("knn", {"n_neighbors": IntDomain(1, 60)}),
    "categorical": ("knn", {"method": CatDomain(("largest", "mean", "median"))}),
    "mixed": (
        "knn",
        {
            "n_neighbors": IntDomain(2, 30),
            "method": CatDomain(("largest", "mean", "median")),
            "minkowski_p": RealDomain(1.0, 4.0),
        },
    ),
    **{
        f"default_{model}": (model, default_search_space(model).params)
        for model in ML_MODELS
    },
}


def _same_proposals(generators, history, space, seed, directions):
    expect = reference_tpe_propose(history, space, seed, directions)
    expect_state = generators[-1].bit_generator.state
    got = tune.tpe_propose(history, space, seed, directions)
    got_state = generators[-1].bit_generator.state
    assert repr(got) == repr(expect)
    assert got_state == expect_state


@pytest.mark.parametrize("name", sorted(SPACES))
@pytest.mark.parametrize("inf_every", [0, 3])
def test_tpe_propose_matches_per_candidate_reference(generators, name, inf_every):
    model, params = SPACES[name]
    space = SearchSpace(model, params)
    for n in (5, 6, 9, 17, 30):
        history = _history(space, model, n, n + 100 * inf_every, inf_every)
        for seed in range(4):
            for directions in (("min", "max"), ("max", "max")):
                _same_proposals(generators, history, space, seed, directions)


def test_tpe_propose_matches_reference_when_bad_is_good(generators, monkeypatch):
    # with gamma 1 every trial is good and the bad set falls back to it
    monkeypatch.setattr(tune, "GAMMA", 1.0)
    for name in ("mixed", "default_autoencoder"):
        model, params = SPACES[name]
        space = SearchSpace(model, params)
        history = _history(space, model, 7, seed=5, inf_every=4)
        for seed in range(3):
            _same_proposals(generators, history, space, seed, ("min", "max"))


def test_optimize_proxy_proposals_match_reference(generators, monkeypatch):
    # every proposal of 3 seeds x 6 models x 20 proxy trials, each checked
    # against the reference on the history the real trial loop built
    records, _ = generate_cell(
        36, samples_per_cycle=16, seed=3, cell_id="p",
        anomalies=(AnomalySpec("point", (20,), 0.5),),
    )
    matrix, _ = build_feature_matrix(records, "custom")
    X = np.column_stack([matrix.column("dv_max"), matrix.column("dq_max")])
    t = np.asarray(matrix.cycle_index, dtype=float)
    proposals = []
    propose = tune.tpe_propose

    def checked(history, space, seed, directions):
        expect = reference_tpe_propose(history, space, seed, directions)
        expect_state = generators[-1].bit_generator.state
        got = propose(history, space, seed, directions)
        assert repr(got) == repr(expect)
        assert generators[-1].bit_generator.state == expect_state
        proposals.append(len(history) >= tune.N_STARTUP)
        return got

    monkeypatch.setattr(tune, "tpe_propose", checked)
    for seed in range(3):
        for model in ML_MODELS:
            optimize_proxy(t, X, model, n_trials=20, seed=seed)
    # pca's one-int space is enumerated; the other five models use TPE
    assert sum(proposals) == 3 * 5 * (20 - tune.N_STARTUP)
