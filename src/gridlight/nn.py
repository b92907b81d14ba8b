"""Minimal dense-network engine: forward pass, reverse-mode gradients,
optimizers, the minibatch training loop, and finite-difference gradient
checking.

Networks are plain MLPs (ReLU hidden layers, identity or softplus output)
stored as a single flat float64 parameter vector. All operations are
functional: ``forward`` and ``grad`` never mutate a net, and optimizer steps
return new parameter vectors. That lets training loops hold several
parameter versions of the same architecture at once, which the meta-training
inner loop relies on.

The softplus output is log1p(e) + max(z, 0) with e = e^-|z|, one
exponential that its gradient reuses. numpy's exp and log1p take SIMD loops
where the CPU has them (AVX-512 on x86-64), whose last bits can differ from
libm's by a few ULP, so trained parameters differ in their last bits between
the two math paths.

Loss functions follow one convention: ``loss_fn(pred, target)`` receives
2-D arrays (batch x out) and returns ``(mean_loss, d mean_loss / d pred)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, ShapeError

OUTPUT_ACTIVATIONS = ("identity", "softplus")

LossFn = Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]


@dataclass
class Net:
    """A dense MLP: layer sizes plus a flat parameter vector."""

    layer_sizes: tuple[int, ...]
    output_activation: str
    params: np.ndarray

    def with_params(self, params: np.ndarray) -> "Net":
        params = np.asarray(params, dtype=np.float64)
        if params.shape != self.params.shape:
            raise ShapeError(
                f"parameter vector has length {params.size}, "
                f"net expects {self.params.size}"
            )
        if not np.all(np.isfinite(params)):
            raise ConfigurationError("parameter vector contains NaN or Inf")
        return replace(self, params=params)


def param_count(layer_sizes: Sequence[int]) -> int:
    """Number of parameters: sum of (fan_in + 1) * fan_out over layers."""
    return sum((i + 1) * o for i, o in zip(layer_sizes[:-1], layer_sizes[1:]))


def net_new(layer_sizes: Sequence[int], output_activation: str = "identity",
            seed: int = 0) -> Net:
    """Build a net with deterministic Glorot-uniform weights and zero biases."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) == 0:
        raise ConfigurationError("layer_sizes must contain at least one size")
    if any(s < 1 for s in sizes):
        raise ConfigurationError(f"layer sizes must be >= 1, got {sizes}")
    if output_activation not in OUTPUT_ACTIVATIONS:
        raise ConfigurationError(
            f"unknown output_activation {output_activation!r}; "
            f"expected one of {OUTPUT_ACTIVATIONS}"
        )
    rng = np.random.default_rng(seed)
    params = np.zeros(param_count(sizes), dtype=np.float64)
    off = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        n_w = fan_in * fan_out
        params[off:off + n_w] = rng.uniform(-limit, limit, size=n_w)
        off += n_w + fan_out  # biases stay zero
    return Net(sizes, output_activation, params)


def _layer_views(sizes: tuple[int, ...], params: np.ndarray):
    views = []
    off = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = params[off:off + fan_in * fan_out].reshape(fan_out, fan_in)
        off += fan_in * fan_out
        b = params[off:off + fan_out]
        off += fan_out
        views.append((w, b))
    return views


def _softplus(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(1 + e^z) as log1p(e) + max(z, 0), with e = e^-|z| returned too:
    the output gradient reuses it. e never overflows, and numpy's SIMD
    exp and log1p do the work."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    a = np.maximum(z, 0.0)
    a += np.log1p(e)
    return a, e


def _sigmoid(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    # e is e^-|z|: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _affine(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    z = a @ w.T
    z += b
    return z


def _forward_cached(net: Net, x2: np.ndarray, params: np.ndarray):
    """Forward pass keeping pre-activations and activations per layer,
    and the output softplus's e^-|z| (None for an identity output)."""
    views = _layer_views(net.layer_sizes, params)
    acts = [x2]
    pre = []
    a = x2
    e = None
    for k, (w, b) in enumerate(views):
        z = _affine(a, w, b)
        pre.append(z)
        if k < len(views) - 1:
            a = np.maximum(z, 0.0)
        elif net.output_activation == "softplus":
            a, e = _softplus(z)
        else:
            a = z
        acts.append(a)
    return acts, pre, e


def _as_batch(net: Net, x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x2 = x[None, :] if single else x
    if x2.ndim != 2 or x2.shape[1] != net.layer_sizes[0]:
        raise ShapeError(
            f"input has shape {x.shape}, net expects inner size "
            f"{net.layer_sizes[0]}"
        )
    return x2, single


def forward(net: Net, x) -> np.ndarray:
    """Evaluate the net on a vector or a (batch x in) matrix."""
    x2, single = _as_batch(net, x)
    views = _layer_views(net.layer_sizes, net.params)
    a = x2
    for k, (w, b) in enumerate(views):
        a = _affine(a, w, b)
        if k < len(views) - 1:
            np.maximum(a, 0.0, out=a)
        elif net.output_activation == "softplus":
            a = _softplus(a)[0]
    return a[0] if single else a


def loss_and_grad(net: Net, loss_fn: LossFn, inputs, targets,
                  params: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Mean batch loss and its reverse-mode gradient w.r.t. all parameters."""
    p = net.params if params is None else np.asarray(params, dtype=np.float64)
    x2, _ = _as_batch(net, inputs)
    if x2.shape[0] == 0:
        raise ShapeError("batch must be nonempty")
    t2 = np.asarray(targets, dtype=np.float64)
    if t2.ndim == 1:
        t2 = t2[None, :]
    acts, pre, e = _forward_cached(net, x2, p)
    loss, d_out = loss_fn(acts[-1], t2)
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != acts[-1].shape:
        raise ShapeError(
            f"loss gradient has shape {d_out.shape}, outputs have "
            f"shape {acts[-1].shape}"
        )
    grad_vec = np.empty_like(p)
    views = _layer_views(net.layer_sizes, grad_vec)
    w_views = _layer_views(net.layer_sizes, p)
    dz = d_out
    if e is not None:
        dz = _sigmoid(pre[-1], e)
        dz *= d_out
    for k in range(len(views) - 1, -1, -1):
        gw, gb = views[k]
        np.matmul(dz.T, acts[k], out=gw)
        np.sum(dz, axis=0, out=gb)
        if k:  # the first layer's input gradient is never used
            dz = dz @ w_views[k][0]
            dz *= pre[k - 1] > 0
    return float(loss), grad_vec


def _step_operands(params, grad_vec) -> tuple[np.ndarray, np.ndarray]:
    params = np.asarray(params, dtype=np.float64)
    grad_vec = np.asarray(grad_vec, dtype=np.float64)
    if params.shape != grad_vec.shape:
        raise ShapeError(
            f"params length {params.size} != grad length {grad_vec.size}"
        )
    return params, grad_vec


def _check_lr(lr: float) -> None:
    # zero is allowed: a zero outer_lr leaves MAML's start where it is
    if not (np.isfinite(lr) and lr >= 0):
        raise ConfigurationError(
            f"learning rate must be finite and >= 0, got {lr}")


@dataclass
class SGD:
    """Plain gradient descent with functional steps."""

    lr: float

    def __post_init__(self):
        _check_lr(self.lr)

    def step(self, params: np.ndarray, grad_vec: np.ndarray) -> np.ndarray:
        params, grad_vec = _step_operands(params, grad_vec)
        return params - self.lr * grad_vec


@dataclass
class Adam:
    """Adam optimizer with functional steps; holds first/second moments."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    _m: np.ndarray | None = field(default=None, repr=False)
    _v: np.ndarray | None = field(default=None, repr=False)
    _t: int = field(default=0, repr=False)

    def __post_init__(self):
        _check_lr(self.lr)
        for name in ("beta1", "beta2"):
            beta = getattr(self, name)
            if not (np.isfinite(beta) and 0 <= beta < 1):
                raise ConfigurationError(
                    f"{name} must be finite and in [0, 1), got {beta}")
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ConfigurationError(
                f"eps must be finite and > 0, got {self.eps}")

    def step(self, params: np.ndarray, grad_vec: np.ndarray) -> np.ndarray:
        """Update the moments in place and return new parameters, in a
        vector of their own: callers keep earlier parameter versions."""
        params, grad_vec = _step_operands(params, grad_vec)
        if self._m is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        self._t += 1
        out = np.multiply(grad_vec, 1 - self.beta1)
        self._m *= self.beta1
        self._m += out
        np.square(grad_vec, out=out)
        out *= 1 - self.beta2
        self._v *= self.beta2
        self._v += out
        den = np.divide(self._v, 1 - self.beta2 ** self._t)
        np.sqrt(den, out=den)
        den += self.eps
        np.divide(self._m, 1 - self.beta1 ** self._t, out=out)
        out *= self.lr
        out /= den
        return np.subtract(params, out, out=out)


def epoch_batches(rng: np.random.Generator, m: int, batch_size: int,
                  epochs: int):
    """Index batches over ``m`` samples for ``epochs`` passes, one
    permutation per epoch."""
    for _ in range(epochs):
        order = rng.permutation(m)
        for lo in range(0, m, batch_size):
            yield order[lo:lo + batch_size]


def sampled_batches(rng: np.random.Generator, m: int, batch_size: int,
                    steps: int):
    """``steps`` batches of min(batch_size, m) distinct samples each."""
    for _ in range(steps):
        yield rng.choice(m, size=min(batch_size, m), replace=False)


def fit(net: Net, loss_fn: LossFn, x: np.ndarray, y: np.ndarray, opt,
        batches) -> Net:
    """One optimizer step per index batch; returns the trained net.

    ``x`` and ``y`` hold one sample per leading index. A sample may span
    several net rows (one per lane): the last axis is the net's width.
    """
    for idx in batches:
        _, g = loss_and_grad(net, loss_fn, x[idx].reshape(-1, x.shape[-1]),
                             y[idx].reshape(-1, y.shape[-1]))
        net = net.with_params(opt.step(net.params, g))
    return net


def squared_error_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over the batch of the per-sample sum of squared residuals."""
    r = pred - target
    b = pred.shape[0]
    return float((r * r).sum() / b), (2.0 / b) * r


def _nudge_from_kinks(net: Net, x2: np.ndarray, params: np.ndarray,
                      eps: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    # A +-eps parameter perturbation shifts a pre-activation by at most
    # eps * max|activation|; keep every hidden pre-activation clear of the
    # ReLU kink by more than that so central differences stay valid. Input
    # nudging alone cannot fix a sample whose hidden layer is entirely dead
    # (pre-activation exactly equals a zero bias), so parameters are
    # jittered too when proximity persists.
    x2 = x2.copy()
    params = params.copy()
    rng = np.random.default_rng(seed)
    for attempt in range(40):
        acts, pre, _ = _forward_cached(net, x2, params)
        if len(pre) <= 1:
            break
        scale = max(1.0, max(float(np.abs(a).max(initial=0.0)) for a in acts))
        margin = 8.0 * eps * scale
        hidden_min = min(
            float(np.abs(z).min(initial=np.inf)) for z in pre[:-1]
        )
        if hidden_min > margin:
            break
        x2 = x2 * (1.0 + 3e-3) + 2e-3
        if attempt >= 1:
            jitter = rng.uniform(50 * eps, 200 * eps, size=params.size)
            params = params + jitter * rng.choice([-1.0, 1.0], size=params.size)
    return x2, params


def grad_check(net: Net, loss_fn: LossFn, inputs, targets, eps: float = 1e-5,
               seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Checks every parameter of a net of up to 400, or a random subset of 200
    for larger ones. Inputs are nudged slightly if a hidden ReLU
    pre-activation sits within a kink margin of zero.
    """
    if eps <= 0:
        raise ConfigurationError(f"eps must be > 0, got {eps}")
    if net.params.size == 0:
        return 0.0
    x2, _ = _as_batch(net, inputs)
    t2 = np.asarray(targets, dtype=np.float64)
    if t2.ndim == 1:
        t2 = t2[None, :]
    x2, p = _nudge_from_kinks(net, x2, net.params, eps, seed)
    _, analytic = loss_and_grad(net, loss_fn, x2, t2, params=p)
    if p.size <= 400:
        idx = np.arange(p.size)
    else:
        rng = np.random.default_rng(seed)
        idx = rng.choice(p.size, size=200, replace=False)

    def f(pv: np.ndarray) -> float:
        acts, _, _ = _forward_cached(net, x2, pv)
        return loss_fn(acts[-1], t2)[0]

    floor = 1e-4 * max(1e-8, float(np.abs(analytic).max()))
    worst = 0.0
    for i in idx:
        pp = p.copy()
        pp[i] += eps
        up = f(pp)
        pp[i] -= 2 * eps
        down = f(pp)
        fd = (up - down) / (2 * eps)
        a = analytic[i]
        err = abs(a - fd) / max(abs(a), abs(fd), floor)
        if err > worst:
            worst = err
    return float(worst)
