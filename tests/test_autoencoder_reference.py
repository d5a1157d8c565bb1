"""The flat-buffer autoencoder against the list-of-layers original.

ReferenceMlp, ReferenceOptimizer and reference_fit_autoencoder are the
earlier network, optimizer and training loop, kept byte for byte: every step
concatenates the layers into a fresh parameter vector, flattens the
gradients, builds new optimizer arrays and copies every layer back, and each
batch gathers its rows from the permutation. The module's fit must give the
same weights, biases, loss trace, scores and generator state.
"""

import numpy as np
import pytest

from cyclescreen.ml_detect import make_config
from cyclescreen.ml_detect.autoencoder import (
    ACTIVATIONS,
    Mlp,
    fit_autoencoder,
    mirror_dims,
    score_autoencoder,
)

from oracles import gradient_check


class ReferenceMlp:
    def __init__(self, dims, activation, rng):
        self.dims = list(dims)
        self.activation = activation
        self.weights = []
        self.biases = []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(6.0 / (d_in + d_out))
            self.weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
            self.biases.append(np.zeros(d_out))

    def forward(self, X, dropout_rate=0.0, rng=None):
        act, _ = ACTIVATIONS[self.activation]
        a = np.asarray(X, dtype=float)
        cache = []
        last = len(self.weights) - 1
        for idx, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ W + b
            if idx == last:
                cache.append((a, z, z, None))
                a = z
            else:
                h_pre = act(z)
                mask = None
                h = h_pre
                if dropout_rate > 0.0 and rng is not None:
                    keep = 1.0 - dropout_rate
                    mask = (rng.uniform(size=h_pre.shape) < keep) / keep
                    h = h_pre * mask
                cache.append((a, z, h_pre, mask))
                a = h
        return a, cache

    def loss_and_grads(self, X, target, dropout_rate=0.0, rng=None):
        _, act_grad = ACTIVATIONS[self.activation]
        out, cache = self.forward(X, dropout_rate=dropout_rate, rng=rng)
        target = np.asarray(target, dtype=float)
        n, d_out = out.shape
        resid = out - target
        loss = float(np.mean(resid**2))
        delta = 2.0 * resid / (n * d_out)
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        last = len(self.weights) - 1
        for idx in range(last, -1, -1):
            a_in, z, h_pre, mask = cache[idx]
            if idx != last:
                if mask is not None:
                    delta = delta * mask
                delta = delta * act_grad(z, h_pre)
            grads_w[idx] = a_in.T @ delta
            grads_b[idx] = delta.sum(axis=0)
            if idx > 0:
                delta = delta @ self.weights[idx].T
        return loss, grads_w, grads_b

    def flat_params(self):
        parts = []
        for W, b in zip(self.weights, self.biases):
            parts.append(W.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def set_flat_params(self, theta):
        pos = 0
        for idx, (W, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[idx] = theta[pos : pos + W.size].reshape(W.shape).copy()
            pos += W.size
            self.biases[idx] = theta[pos : pos + b.size].reshape(b.shape).copy()
            pos += b.size


class ReferenceOptimizer:
    def __init__(self, name, lr, n_params):
        self.name = name
        self.lr = lr
        self.velocity = np.zeros(n_params)
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0

    def step(self, theta, grad):
        if self.name == "sgd":
            return theta - self.lr * grad
        if self.name == "momentum":
            self.velocity = 0.9 * self.velocity - self.lr * grad
            return theta + self.velocity
        self.t += 1
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self.m = beta1 * self.m + (1.0 - beta1) * grad
        self.v = beta2 * self.v + (1.0 - beta2) * grad**2
        m_hat = self.m / (1.0 - beta1**self.t)
        v_hat = self.v / (1.0 - beta2**self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + eps)


def _reference_flatten_grads(grads_w, grads_b):
    parts = []
    for gw, gb in zip(grads_w, grads_b):
        parts.append(gw.ravel())
        parts.append(gb.ravel())
    return np.concatenate(parts)


def reference_fit_autoencoder(params, X, rng):
    """(mlp, lo, span, loss_trace) of the earlier training loop."""
    n, d = X.shape
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span = np.where(span == 0.0, 1.0, span)
    scaled = (np.asarray(X, dtype=float) - lo) / span
    dims = mirror_dims(d, tuple(params["hidden_neuron_list"]))
    mlp = ReferenceMlp(dims, params["hidden_activation_name"], rng)
    opt = ReferenceOptimizer(
        params["optimizer_name"], params["learning_rate"],
        mlp.flat_params().size,
    )
    loss_trace = []
    batch = min(params["batch_size"], n)
    dropout = params["dropout_rate"]
    for _epoch in range(params["epoch_num"]):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, batch):
            rows = scaled[order[start : start + batch]]
            loss, gw, gb = mlp.loss_and_grads(
                rows, rows, dropout_rate=dropout, rng=rng
            )
            theta = opt.step(mlp.flat_params(), _reference_flatten_grads(gw, gb))
            mlp.set_flat_params(theta)
            epoch_loss += loss
            n_batches += 1
        loss_trace.append(epoch_loss / max(n_batches, 1))
    return mlp, lo, span, loss_trace


def reference_gradient_check(mlp, X, step=1e-5):
    X = np.asarray(X, dtype=float)
    _, gw, gb = mlp.loss_and_grads(X, X)
    analytic = _reference_flatten_grads(gw, gb)
    theta = mlp.flat_params()
    numeric = np.empty_like(theta)
    for i in range(theta.size):
        bumped = theta.copy()
        bumped[i] = theta[i] + step
        mlp.set_flat_params(bumped)
        hi, _, _ = mlp.loss_and_grads(X, X)
        bumped[i] = theta[i] - step
        mlp.set_flat_params(bumped)
        lo, _, _ = mlp.loss_and_grads(X, X)
        numeric[i] = (hi - lo) / (2.0 * step)
    mlp.set_flat_params(theta)
    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))


def _bytes(arrays):
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("n", [2, 20, 37, 449, 500])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
@pytest.mark.parametrize("optimizer", ["sgd", "momentum", "adam"])
def test_fit_matches_list_of_layers_reference(optimizer, activation, dropout, n):
    local = np.random.default_rng(n)
    d = 2 if n % 2 else 3
    X = local.normal(size=(n, d)) * [1.0, 5.0, 0.2][:d] + 3.0
    Q = np.vstack([X, local.normal(size=(7, d)) * 4.0])
    params = make_config(
        "autoencoder",
        {
            "epoch_num": 3 if n > 100 else 6,
            # 16 splits 20, 37, 449 and 500 unevenly; 2 rows are below it
            "batch_size": 16,
            "dropout_rate": dropout,
            "hidden_activation_name": activation,
            "optimizer_name": optimizer,
            "learning_rate": 0.03,
            "hidden_neuron_list": (4, 2) if n % 2 else (8, 4),
        },
    ).params
    seed = 7 * n + len(optimizer)
    ref_rng = np.random.default_rng(seed)
    ref, lo, span, ref_trace = reference_fit_autoencoder(params, X, ref_rng)
    rng = np.random.default_rng(seed)
    state = fit_autoencoder(params, X, rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert _bytes(state.mlp.weights) == _bytes(ref.weights)
    assert _bytes(state.mlp.biases) == _bytes(ref.biases)
    assert repr(state.loss_trace) == repr(ref_trace)
    assert state.lo.tobytes() == lo.tobytes()
    assert state.span.tobytes() == span.tobytes()
    scaled = (Q - lo) / span
    out, _ = ref.forward(scaled)
    expect = np.mean((out - scaled) ** 2, axis=1)
    assert score_autoencoder(state, Q).tobytes() == expect.tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
def test_gradients_match_list_of_layers_reference(activation):
    local = np.random.default_rng(5)
    X = local.uniform(-1.0, 1.0, size=(12, 4))
    for hidden in ((3, 2), (4,)):
        dims = mirror_dims(4, hidden)
        mlp = Mlp(dims, activation, np.random.default_rng(3))
        ref = ReferenceMlp(dims, activation, np.random.default_rng(3))
        loss, grad = mlp.loss_and_grads(X)
        ref_loss, gw, gb = ref.loss_and_grads(X, X)
        assert loss == ref_loss
        assert grad.tobytes() == _reference_flatten_grads(gw, gb).tobytes()
        assert gradient_check(mlp, X) == reference_gradient_check(ref, X)
        # the check leaves the parameters as it found them
        assert mlp.theta.tobytes() == ref.flat_params().tobytes()
