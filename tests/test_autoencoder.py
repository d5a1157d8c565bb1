import numpy as np
import pytest

from cyclescreen.ml_detect import (
    fit,
    make_config,
    score,
)
from cyclescreen.ml_detect.autoencoder import (
    Mlp,
    fit_autoencoder,
    mirror_dims,
    score_autoencoder,
)

from oracles import gradient_check


def test_mirror_dims():
    assert mirror_dims(5, (4, 2)) == [5, 4, 2, 4, 5]
    assert mirror_dims(3, (2,)) == [3, 2, 3]
    assert mirror_dims(6, (5, 3, 2)) == [6, 5, 3, 2, 3, 5, 6]


def test_forward_shapes(rng):
    mlp = Mlp(mirror_dims(4, (3, 2)), "tanh", rng)
    X = rng.normal(size=(7, 4))
    out, caches = mlp.forward(X)
    assert out.shape == (7, 4)
    assert len(caches) == len(mlp.weights)


def test_gradient_check_smooth_activations(rng):
    # analytic backprop against central differences; smooth activations
    # should agree to near machine precision at step 1e-5
    X = rng.uniform(0.1, 0.9, size=(12, 3))
    for act in ("tanh", "sigmoid"):
        mlp = Mlp(mirror_dims(3, (4, 2)), act, np.random.default_rng(0))
        err = gradient_check(mlp, X)
        assert err < 1e-6, act


def test_gradient_check_relu(rng):
    # relu has a kink at zero; random data keeps pre-activations away from
    # it almost surely, so the check still passes at a looser bound
    X = rng.uniform(0.1, 0.9, size=(12, 3))
    mlp = Mlp(mirror_dims(3, (4,)), "relu", np.random.default_rng(1))
    assert gradient_check(mlp, X) < 1e-5


def test_training_reduces_loss(rng):
    X = rng.normal(size=(40, 3))
    state = fit_autoencoder(
        make_config(
            "autoencoder", {"epoch_num": 60, "learning_rate": 0.02}
        ).params,
        X,
        np.random.default_rng(3),
    )
    trace = np.asarray(state.loss_trace)
    assert trace.shape == (60,)
    assert trace[-1] < trace[0]
    assert np.all(np.isfinite(trace))


def test_all_optimizers_train(rng):
    X = rng.normal(size=(30, 3))
    for opt in ("sgd", "momentum", "adam"):
        state = fit_autoencoder(
            make_config(
                "autoencoder",
                {"optimizer_name": opt, "epoch_num": 40, "learning_rate": 0.05},
            ).params,
            X,
            np.random.default_rng(4),
        )
        trace = state.loss_trace
        assert trace[-1] < trace[0], opt


def test_inputs_scaled_from_fit_bounds(rng):
    X = rng.uniform(5.0, 9.0, size=(25, 2))
    state = fit_autoencoder(
        make_config("autoencoder", {"epoch_num": 5}).params,
        X,
        np.random.default_rng(0),
    )
    np.testing.assert_allclose(state.lo, X.min(axis=0))
    np.testing.assert_allclose(state.span, X.max(axis=0) - X.min(axis=0))


def test_scoring_deterministic_despite_dropout(rng):
    X = rng.normal(size=(30, 2))
    config = make_config(
        "autoencoder", {"dropout_rate": 0.3, "epoch_num": 20}, seed=9
    )
    fitted = fit(config, X)
    a = score(fitted, X)
    b = score(fitted, X)
    np.testing.assert_array_equal(a, b)


def test_same_seed_same_model(rng):
    X = rng.normal(size=(30, 2))
    a = score(fit(make_config("autoencoder", seed=5), X), X)
    b = score(fit(make_config("autoencoder", seed=5), X), X)
    np.testing.assert_array_equal(a, b)
    c = score(fit(make_config("autoencoder", seed=6), X), X)
    assert not np.array_equal(a, c)


def test_reconstruction_error_targets_off_pattern_row(rng):
    # strongly correlated data, one row breaks the correlation; the
    # bottleneck must match the 1-d manifold or the spare latent axis
    # just memorizes the outlier
    t = rng.uniform(0, 1, size=50)
    X = np.column_stack([t, t * 2.0, t * -1.0])
    X[13] = [0.9, 0.1, 0.9]
    config = make_config(
        "autoencoder",
        {"epoch_num": 200, "learning_rate": 0.05, "hidden_neuron_list": (1,)},
        seed=2,
    )
    s = score(fit(config, X), X)
    assert int(np.argmax(s)) == 13


def test_activation_catalog_rejects_unknown():
    from cyclescreen.errors import ConfigError

    with pytest.raises(ConfigError):
        make_config("autoencoder", {"hidden_activation_name": "swish"})
    with pytest.raises(ConfigError):
        make_config("autoencoder", {"optimizer_name": "lbfgs"})
