"""Network engine tests: initialization, forward, gradients vs finite
differences, optimizer steps, and purity."""

import numpy as np
import pytest

from gridlight import nn
from gridlight.errors import ConfigurationError, ShapeError


def grad(net, loss_fn, inputs, targets):
    """Gradient of the mean batch loss w.r.t. all parameters."""
    return nn.loss_and_grad(net, loss_fn, inputs, targets)[1]


def test_param_counts():
    assert nn.param_count([4, 1]) == 5
    assert nn.param_count([3, 5, 2]) == 32
    assert nn.param_count([7]) == 0


def test_init_deterministic():
    a = nn.net_new([2, 3, 1], "identity", seed=1)
    b = nn.net_new([2, 3, 1], "identity", seed=1)
    assert np.array_equal(a.params, b.params)
    c = nn.net_new([2, 3, 1], "identity", seed=2)
    assert not np.array_equal(a.params, c.params)


def test_init_bounds_and_zero_biases():
    net = nn.net_new([4, 8], "identity", seed=3)
    w = net.params[:32].reshape(8, 4)
    b = net.params[32:]
    limit = np.sqrt(6.0 / 12.0)
    assert np.all(np.abs(w) <= limit)
    assert np.all(b == 0.0)


def test_empty_layer_list_rejected():
    with pytest.raises(ConfigurationError):
        nn.net_new([], "identity", seed=0)
    with pytest.raises(ConfigurationError):
        nn.net_new([3, 0], "identity", seed=0)
    with pytest.raises(ConfigurationError):
        nn.net_new([3, 2], "tanh", seed=0)


def test_forward_single_linear_layer():
    net = nn.net_new([2, 1], "identity", seed=0)
    net = net.with_params(np.array([1.0, 1.0, 0.0]))
    out = nn.forward(net, np.array([2.0, 3.0]))
    assert out.shape == (1,)
    assert out[0] == pytest.approx(5.0)


def test_forward_zero_params_identity_output():
    net = nn.net_new([3, 4, 2], "identity", seed=0)
    net = net.with_params(np.zeros_like(net.params))
    out = nn.forward(net, np.array([1.0, -2.0, 3.0]))
    assert np.array_equal(out, np.zeros(2))


def test_softplus_output_strictly_positive():
    net = nn.net_new([3, 8, 4], "softplus", seed=5)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 3)) * 10
    out = nn.forward(net, x)
    assert np.all(out > 0.0)


def test_forward_shape_error():
    net = nn.net_new([3, 2], "identity", seed=0)
    with pytest.raises(ShapeError):
        nn.forward(net, np.zeros(4))


def test_grad_hand_case():
    # f(x) = w*x + b, loss (f - y)^2 with x=1, y=0, w=3, b=0: dL/dw = 6
    net = nn.net_new([1, 1], "identity", seed=0).with_params(np.array([3.0, 0.0]))
    g = grad(net, nn.squared_error_loss, np.array([[1.0]]), np.array([[0.0]]))
    assert g[0] == pytest.approx(6.0)
    assert g[1] == pytest.approx(6.0)


def test_grad_constant_loss_is_zero():
    net = nn.net_new([2, 4, 2], "identity", seed=1)

    def constant_loss(pred, target):
        return 3.0, np.zeros_like(pred)

    g = grad(net, constant_loss, np.zeros((4, 2)), np.zeros((4, 2)))
    assert np.all(g == 0.0)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(42)
    for i in range(5):
        sizes = [3, int(rng.integers(4, 16)), int(rng.integers(4, 32)), 2]
        act = "softplus" if i % 2 else "identity"
        net = nn.net_new(sizes, act, seed=i)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(6, 2))
        err = nn.grad_check(net, nn.squared_error_loss, x, y, eps=1e-5)
        assert err < 1e-4, f"net {sizes} ({act}) grad check failed: {err}"


def test_grad_check_zero_param_net():
    net = nn.net_new([4], "identity", seed=0)
    assert nn.grad_check(net, nn.squared_error_loss,
                         np.zeros((2, 4)), np.zeros((2, 4))) == 0.0


def test_grad_linearity():
    net = nn.net_new([3, 8, 2], "identity", seed=7)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 3))
    y1 = rng.normal(size=(5, 2))
    y2 = rng.normal(size=(5, 2))
    a, b = 0.7, -1.3

    def l1(pred, t):
        return nn.squared_error_loss(pred, y1)

    def l2(pred, t):
        return nn.squared_error_loss(pred, y2)

    def combined(pred, t):
        v1, g1 = l1(pred, t)
        v2, g2 = l2(pred, t)
        return a * v1 + b * v2, a * g1 + b * g2

    g_comb = grad(net, combined, x, y1)
    g_sep = a * grad(net, l1, x, y1) + b * grad(net, l2, x, y1)
    assert np.max(np.abs(g_comb - g_sep)) < 1e-10


def test_forward_and_grad_do_not_mutate():
    net = nn.net_new([2, 4, 1], "softplus", seed=0)
    before = net.params.copy()
    nn.forward(net, np.ones(2))
    grad(net, nn.squared_error_loss, np.ones((3, 2)), np.zeros((3, 1)))
    assert np.array_equal(net.params, before)


def test_sgd_step():
    out = nn.SGD(lr=1.0).step(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    assert np.allclose(out, [0.5, 1.5])
    same = nn.SGD(lr=0.0).step(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    assert np.array_equal(same, [1.0, 2.0])


def test_sgd_step_roundtrip():
    rng = np.random.default_rng(0)
    p = rng.normal(size=20)
    g = rng.normal(size=20)
    sgd = nn.SGD(0.3)
    back = sgd.step(sgd.step(p, g), -g)
    assert np.max(np.abs(back - p)) < 1e-12


def test_sgd_step_is_functional():
    p = np.array([1.0, 2.0])
    out = nn.SGD(0.1).step(p, np.array([1.0, 1.0]))
    assert np.array_equal(p, [1.0, 2.0])
    assert out is not p


def test_sgd_step_length_mismatch():
    with pytest.raises(ShapeError):
        nn.SGD(0.1).step(np.zeros(3), np.zeros(4))


def test_with_params_rejects_nonfinite():
    net = nn.net_new([2, 1], "identity", seed=0)
    bad = net.params.copy()
    bad[0] = np.nan
    with pytest.raises(ConfigurationError):
        net.with_params(bad)


def test_adam_moves_toward_minimum():
    # minimize (p - 3)^2 elementwise
    opt = nn.Adam(lr=0.1)
    p = np.zeros(4)
    for _ in range(500):
        p = opt.step(p, 2 * (p - 3.0))
    assert np.max(np.abs(p - 3.0)) < 1e-3


class AdamByFormula:
    """The Adam step ``nn.Adam`` took before it updated its moments in
    place; kept as its oracle."""

    def __init__(self, lr):
        self.lr, self.beta1, self.beta2, self.eps = lr, 0.9, 0.999, 1e-8
        self.m = self.v = 0.0
        self.t = 0

    def step(self, params, grad_vec):
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad_vec
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad_vec ** 2
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def test_adam_in_place_matches_the_formula_bit_for_bit():
    rng = np.random.default_rng(0)
    opt, oracle = nn.Adam(lr=1e-2), AdamByFormula(lr=1e-2)
    p = ref = rng.normal(size=1000)
    returned = [(p, p.copy())]
    for _ in range(250):
        g = rng.normal(size=p.size) * 10.0 ** rng.integers(-8, 3)
        g[rng.integers(p.size)] = 0.0
        p, ref = opt.step(p, g), oracle.step(ref, g)
        assert p.tobytes() == ref.tobytes()
        assert opt._m.tobytes() == oracle.m.tobytes()
        assert opt._v.tobytes() == oracle.v.tobytes()
        for other in (opt._m, opt._v, *(r for r, _ in returned)):
            assert not np.shares_memory(p, other)
        returned.append((p, p.copy()))
    # no step wrote into a vector an earlier step returned
    assert all(r.tobytes() == kept.tobytes() for r, kept in returned)


@pytest.mark.parametrize("activation", ["identity", "softplus"])
def test_forward_matches_the_cached_forward_bit_for_bit(activation):
    rng = np.random.default_rng(1)
    net = nn.net_new((152, 128, 128, 144), activation, seed=3)
    for rows in (1, 48, 1080):
        x = rng.normal(size=(rows, 152)) * 3.0
        cached = nn._forward_cached(net, x, net.params)[0][-1]
        assert nn.forward(net, x).tobytes() == cached.tobytes()
    one = nn._forward_cached(net, x[:1], net.params)[0][-1]
    assert nn.forward(net, x[0]).tobytes() == one[0].tobytes()


def _sigmoid_masked(z):
    """The masked sigmoid ``nn._sigmoid`` replaced, kept as its oracle."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_masked_form_bit_for_bit():
    rng = np.random.default_rng(0)
    z = np.concatenate([rng.normal(0.0, 4.0, 200_000),
                        rng.normal(0.0, 300.0, 50_000),
                        [0.0, -0.0, 1e-300, -1e-300, 709.0, -745.0, 800.0,
                         -800.0, np.inf, -np.inf]])
    assert np.array_equal(nn._sigmoid(z), _sigmoid_masked(z))
    z2 = z[:1200].reshape(40, 30)
    assert np.array_equal(nn._sigmoid(z2), _sigmoid_masked(z2))



def _loss_and_grad_every_layer(net, loss_fn, inputs, targets):
    """The backward loop ``nn.loss_and_grad`` had before it stopped
    forming the first layer's input gradient; kept as its oracle."""
    x2 = np.asarray(inputs, dtype=np.float64)
    acts, pre = nn._forward_cached(net, x2, net.params)
    loss, d_out = loss_fn(acts[-1], np.asarray(targets, dtype=np.float64))
    grad_vec = np.zeros_like(net.params)
    views = nn._layer_views(net.layer_sizes, grad_vec)
    w_views = nn._layer_views(net.layer_sizes, net.params)
    da = d_out
    for k in range(len(views) - 1, -1, -1):
        z = pre[k]
        if k == len(views) - 1:
            if net.output_activation == "softplus":
                dz = da * nn._sigmoid(z)
            else:
                dz = da
        else:
            dz = da * (z > 0)
        gw, gb = views[k]
        gw += dz.T @ acts[k]
        gb += dz.sum(axis=0)
        da = dz @ w_views[k][0]
    return float(loss), grad_vec


def _mse(pred, target):
    diff = pred - target
    return float(np.mean(diff ** 2)), 2.0 * diff / diff.size


@pytest.mark.parametrize("sizes,batches", [
    ((152, 128, 128, 144), (1, 128, 256)),  # desk dynamics net
    ((3, 32, 32, 12), (1, 96, 1536)),       # desk estimator net
    ((5, 4), (1, 7)),                       # one layer
])
def test_loss_and_grad_matches_every_layer_backward_bit_for_bit(sizes,
                                                                batches):
    net = nn.net_new(sizes, output_activation="softplus", seed=3)
    rng = np.random.default_rng(0)
    for b in batches:
        x = rng.normal(size=(b, sizes[0]))
        y = rng.uniform(0.0, 3.0, size=(b, sizes[-1]))
        loss, g = nn.loss_and_grad(net, _mse, x, y)
        ref_loss, ref_g = _loss_and_grad_every_layer(net, _mse, x, y)
        assert loss == ref_loss
        assert g.tobytes() == ref_g.tobytes()
