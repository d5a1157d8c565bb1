"""Reconstruction autoencoder: a small fully connected network trained to
reproduce its input, scored by per-row reconstruction error.

The decoder mirrors the encoder widths, the final layer is linear, and
inputs are min-max scaled per column to [0, 1] using bounds captured at fit
time. Gradients are hand-derived, which keeps the network checkable against
central finite differences.

The parameters are one flat vector with per-layer views, and backprop fills
a gradient vector of the same layout, so a training step updates the vector
in place, with no per-layer copies. Each epoch gathers its permuted rows once
and trains on contiguous slices of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, InputError


def _relu(z):
    return np.maximum(z, 0.0)


def _relu_grad(z, a):
    return (z > 0.0).astype(float)


def _tanh(z):
    return np.tanh(z)


def _tanh_grad(z, a):
    return 1.0 - a**2


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sigmoid_grad(z, a):
    return a * (1.0 - a)


ACTIVATIONS = {
    "relu": (_relu, _relu_grad),
    "tanh": (_tanh, _tanh_grad),
    "sigmoid": (_sigmoid, _sigmoid_grad),
}


class Mlp:
    """Dense network with one activation on hidden layers, linear output.

    theta holds every parameter; self.weights / self.biases are its per-layer
    views. loss_and_grads returns the mean-squared reconstruction loss and
    its exact gradient in self.grad, laid out like theta, so the training
    loop and the finite-difference check share one code path.
    """

    def __init__(self, dims: list[int], activation: str, rng):
        if activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation '{activation}'")
        if len(dims) < 2:
            raise ConfigError("network needs at least input and output dims")
        self.dims = list(dims)
        self.activation = activation
        size = sum(d_in * d_out + d_out for d_in, d_out in zip(dims, dims[1:]))
        self.theta = np.zeros(size)
        self.grad = np.zeros(size)
        self.weights, self.biases = self._layers(self.theta)
        self._grads_w, self._grads_b = self._layers(self.grad)
        for W in self.weights:
            bound = np.sqrt(6.0 / sum(W.shape))
            W[...] = rng.uniform(-bound, bound, size=W.shape)

    def _layers(self, flat):
        """Per-layer (weights, biases) views of a flat parameter vector."""
        weights, biases, pos = [], [], 0
        for d_in, d_out in zip(self.dims, self.dims[1:]):
            weights.append(flat[pos : pos + d_in * d_out].reshape(d_in, d_out))
            pos += d_in * d_out
            biases.append(flat[pos : pos + d_out])
            pos += d_out
        return weights, biases

    def forward(self, X, dropout_rate: float = 0.0, rng=None):
        """Output plus the per-layer cache backprop needs.

        Dropout (inverted scaling) applies to hidden activations only, and
        only when an rng is supplied; scoring passes none.
        """
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
                    mask = (rng.random(h_pre.shape) < keep) / keep
                    h = h_pre * mask
                cache.append((a, z, h_pre, mask))
                a = h
        return a, cache

    def loss_and_grads(self, X, target, dropout_rate: float = 0.0, rng=None):
        """Mean-squared loss and self.grad, overwritten with its exact
        gradient.

        delta bookkeeping: entering layer idx, delta holds dL/d(layer
        output); hidden layers peel off the dropout mask, then the
        activation derivative evaluated at the pre-dropout activation.
        """
        _, act_grad = ACTIVATIONS[self.activation]
        out, cache = self.forward(X, dropout_rate=dropout_rate, rng=rng)
        target = np.asarray(target, dtype=float)
        n, d_out = out.shape
        resid = out - target
        # np.mean's sum and division, without its per-call wrapper
        loss = float(np.add.reduce(resid**2, axis=None)) / resid.size
        delta = 2.0 * resid / (n * d_out)
        last = len(self.weights) - 1
        for idx in range(last, -1, -1):
            a_in, z, h_pre, mask = cache[idx]
            if idx != last:
                if mask is not None:
                    delta = delta * mask
                delta = delta * act_grad(z, h_pre)
            np.matmul(a_in.T, delta, out=self._grads_w[idx])
            np.add.reduce(delta, axis=0, out=self._grads_b[idx])
            if idx > 0:
                delta = delta @ self.weights[idx].T
        return loss, self.grad


def mirror_dims(d_in: int, hidden: tuple[int, ...]) -> list[int]:
    """Encoder widths reflected around the bottleneck: [d, h1..hk, ..h1, d]."""
    hidden = list(hidden)
    return [d_in] + hidden + hidden[-2::-1] + [d_in]


def _optimizer_step(name: str, lr: float, theta: np.ndarray, grad: np.ndarray):
    """A no-argument step that applies an sgd, momentum(0.9) or
    adaptive-moment update (Kingma & Ba, 2015) from grad to theta; `-=` and
    `+=` update theta in place, the array the network's layers view."""
    if name == "sgd":
        def step():
            nonlocal theta
            theta -= lr * grad
        return step
    if name == "momentum":
        velocity = np.zeros_like(theta)

        def step():
            nonlocal theta, velocity
            velocity = 0.9 * velocity - lr * grad
            theta += velocity
        return step
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m, v, t = np.zeros_like(theta), np.zeros_like(theta), 0

    def step():
        nonlocal theta, m, v, t
        t += 1
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad**2
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return step


@dataclass
class AutoencoderState:
    mlp: Mlp
    lo: np.ndarray
    span: np.ndarray
    loss_trace: list = field(default_factory=list)


def _scale(X, lo, span):
    return (np.asarray(X, dtype=float) - lo) / span


def fit_autoencoder(params: dict, X: np.ndarray, rng) -> AutoencoderState:
    n, d = X.shape
    if n < 2:
        raise InputError("need at least 2 rows to train the network")
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span = np.where(span == 0.0, 1.0, span)
    scaled = _scale(X, lo, span)

    dims = mirror_dims(d, tuple(params["hidden_neuron_list"]))
    mlp = Mlp(dims, params["hidden_activation_name"], rng)
    step = _optimizer_step(
        params["optimizer_name"], params["learning_rate"], mlp.theta, mlp.grad
    )
    state = AutoencoderState(mlp=mlp, lo=lo, span=span)
    batch = min(params["batch_size"], n)
    dropout = params["dropout_rate"]
    for _epoch in range(params["epoch_num"]):
        shuffled = scaled[rng.permutation(n)]
        starts = range(0, n, batch)
        epoch_loss = 0.0
        for start in starts:
            rows = shuffled[start : start + batch]
            loss, _ = mlp.loss_and_grads(rows, rows, dropout_rate=dropout, rng=rng)
            step()
            epoch_loss += loss
        state.loss_trace.append(epoch_loss / len(starts))
    return state


def score_autoencoder(state: AutoencoderState, X: np.ndarray) -> np.ndarray:
    scaled = _scale(X, state.lo, state.span)
    out, _ = state.mlp.forward(scaled)
    return np.mean((out - scaled) ** 2, axis=1)

