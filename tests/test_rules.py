"""Learning rules: losses vs transcription oracles, gradients vs finite
differences, plan thresholding, float sign descent."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memgrad.rules import (CFParams, LayerSpec, SFFParams, bp_gradients,
                           cf_batch_loss, cf_goodness_loss, cf_gradient,
                           cluster_labels, cross_entropy_loss, sff_batch_loss,
                           sff_goodness_loss, sff_gradient,
                           sign_descent_step_float, softmax,
                           threshold_sign_plan)
from memgrad.trainer import NetworkLayer, _forward, _pos_neg_batch


# ---------------------------------------------------------------- oracles

def _loss_from_margins(a_pos, a_neg):
    # transcription in 50-digit arithmetic: the float formula loses digits to
    # cancellation in 1 - sigma for large margins, the implementation must not
    import mpmath
    with mpmath.workdps(50):
        sig = lambda z: 1 / (1 + mpmath.exp(-mpmath.mpf(z)))
        val = -mpmath.mpf("0.5") * (mpmath.log(sig(a_pos))
                                    + mpmath.log(1 - sig(a_neg)))
        return float(val)


def sff_loss_oracle(h_pos, h_neg, params, n_h):
    """Direct transcription of the SFF per-example loss definition."""
    g = lambda h: params.eta * np.sum(np.square(h))
    a_pos = g(h_pos) - params.eta * params.theta_plus * n_h
    a_neg = g(h_neg) - params.eta * params.theta_minus * n_h
    return _loss_from_margins(a_pos, a_neg)


def cf_loss_oracle(h, z, params):
    """Direct transcription of the CF loss, both variants."""
    g = lambda v: params.eta * np.sum(np.square(v))
    if params.variant == "temperature":
        a_pos = params.theta_plus * g(h * z)
        a_neg = params.theta_minus * g(h * (1 - z))
    else:
        a_pos = g(h * z) - params.eta * params.theta_plus
        a_neg = g(h * (1 - z)) - params.eta * params.theta_minus
    return _loss_from_margins(a_pos, a_neg)


def fd_grad(loss_fn, w, eps=1e-5):
    """Independent central-difference gradient (test-side oracle)."""
    out = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            orig = w[i, j]
            w[i, j] = orig + eps
            up = loss_fn()
            w[i, j] = orig - eps
            down = loss_fn()
            w[i, j] = orig
            out[i, j] = (up - down) / (2 * eps)
    return out


def off_kink_inputs(rng, n, d, w, margin=1e-3):
    while True:
        x = rng.normal(0, 1, (n, d))
        if np.all(np.abs(x @ w.T) > margin):
            return x


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-5)
    return np.max(np.abs(a - b) / denom)


# ---------------------------------------------------------------- goodness

def sff_goodness(h_pos, h_neg, eta):
    """Per-sample goodness of both passes, as sff_gradient reports it."""
    x = np.ones((len(h_pos), 1))
    g = sff_gradient(x, h_pos, x, h_neg, SFFParams(eta=eta))
    return g.goodness_pos, g.goodness_neg


class TestGoodness:
    # goodness g = eta * sum(h^2), per sample and pass
    def test_zero(self):
        g_pos, g_neg = sff_goodness(np.zeros((1, 5)), np.zeros((1, 5)), 1.0)
        assert g_pos[0] == 0.0 and g_neg[0] == 0.0

    def test_hand_value(self):
        g_pos, g_neg = sff_goodness(np.array([[3.0, 4.0]]), np.array([[1.0, 2.0]]), 1.0)
        assert g_pos[0] == pytest.approx(25.0)
        assert g_neg[0] == pytest.approx(5.0)

    def test_eta_negates(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            h_pos, h_neg = rng.normal(0, 1, (2, 1, 7))
            for eta in (1.0, -1.0):
                g_pos, g_neg = sff_goodness(h_pos, h_neg, eta)
                assert g_pos[0] == pytest.approx(eta * np.sum(h_pos ** 2))
                assert g_neg[0] == pytest.approx(eta * np.sum(h_neg ** 2))


# ---------------------------------------------------------------- pos/neg

class TestBuildPosNeg:
    # the batched label tokens that SFF training appends
    def test_construction(self):
        x = np.arange(32, dtype=float)[None]
        x_pos, x_neg = _pos_neg_batch(x, np.array([2]), 4, 0.7,
                                      np.random.default_rng(0))
        x_pos, x_neg = x_pos[0], x_neg[0]
        assert len(x_pos) == len(x_neg) == 36
        assert x_pos[34] == 0.7
        assert np.all(x_pos[[32, 33, 35]] == 0)
        wrong = int(np.argmax(x_neg[32:]))
        assert wrong != 2
        assert x_neg[32 + wrong] == 0.7
        assert np.array_equal(x_pos[:32], x[0]) and np.array_equal(x_neg[:32], x[0])

    def test_wrong_labels_uniform(self):
        rng = np.random.default_rng(1)
        _, x_neg = _pos_neg_batch(np.zeros((10_000, 4)), np.full(10_000, 2), 4,
                                  1.0, rng)
        counts = (x_neg[:, 4:] == 1.0).sum(axis=0)
        assert counts.sum() == 10_000
        assert counts[2] == 0
        freq = counts / 10_000
        for c in (0, 1, 3):
            assert freq[c] == pytest.approx(1 / 3, abs=0.02)


# ---------------------------------------------------------------- sff loss

class TestSffLoss:
    def test_zero_margin_gives_log2(self):
        # goodness exactly at the thresholds on both sides
        params = SFFParams(theta_plus=25.0 / 2, theta_minus=25.0 / 2, eta=1.0)
        h = np.array([3.0, 4.0])
        loss = sff_batch_loss(h[None], h[None], params)
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    def test_saturation_limit(self):
        # positive margin -> +inf, negative margin -> -inf: loss -> 0
        params = SFFParams(theta_plus=0.0, theta_minus=1000.0, eta=1.0)
        loss = sff_batch_loss(np.full((1, 4), 100.0), np.zeros((1, 4)), params)
        assert loss < 1e-6

    def test_matches_transcription_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n_h = int(rng.integers(2, 10))
            params = SFFParams(theta_plus=float(rng.normal(0, 1)),
                               theta_minus=float(rng.normal(0, 1)),
                               eta=1.0 if rng.random() < 0.5 else -1.0)
            h_pos = np.abs(rng.normal(0, 1, n_h))
            h_neg = np.abs(rng.normal(0, 1, n_h))
            assert sff_batch_loss(h_pos[None], h_neg[None], params) == pytest.approx(
                sff_loss_oracle(h_pos, h_neg, params, n_h), rel=1e-12, abs=1e-12)

    def test_batch_loss_is_mean(self):
        rng = np.random.default_rng(3)
        params = SFFParams()
        h_pos = np.abs(rng.normal(0, 1, (8, 5)))
        h_neg = np.abs(rng.normal(0, 1, (8, 5)))
        per_sample = [sff_loss_oracle(h_pos[k], h_neg[k], params, 5) for k in range(8)]
        assert sff_batch_loss(h_pos, h_neg, params) == pytest.approx(
            np.mean(per_sample), rel=1e-12)


class TestSffGradient:
    def test_dead_units_give_zero(self):
        params = SFFParams()
        g = sff_gradient(np.ones((4, 3)), np.zeros((4, 5)),
                         np.ones((4, 3)), np.zeros((4, 5)), params)
        assert np.array_equal(g.grad, np.zeros((5, 3)))

    @pytest.mark.parametrize("n_b", [1, 16])
    @pytest.mark.parametrize("eta", [1.0, -1.0])
    def test_matches_finite_differences(self, n_b, eta):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n_in, n_h = 4, 6
            w = rng.normal(0, 0.7, (n_h, n_in))
            params = SFFParams(theta_plus=float(rng.normal(0, 0.5)),
                               theta_minus=float(rng.normal(0, 0.5)), eta=eta)
            x_pos = off_kink_inputs(rng, n_b, n_in, w)
            x_neg = off_kink_inputs(rng, n_b, n_in, w)

            def loss():
                return sff_batch_loss(np.maximum(x_pos @ w.T, 0),
                                      np.maximum(x_neg @ w.T, 0), params)

            analytic = sff_gradient(x_pos, np.maximum(x_pos @ w.T, 0),
                                    x_neg, np.maximum(x_neg @ w.T, 0), params).grad
            assert rel_err(analytic, fd_grad(loss, w)) < 1e-5

    def test_duplication_invariance(self):
        rng = np.random.default_rng(5)
        params = SFFParams()
        w = rng.normal(0, 0.5, (4, 3))
        x_pos = rng.normal(0, 1, (6, 3))
        x_neg = rng.normal(0, 1, (6, 3))
        h_pos = np.maximum(x_pos @ w.T, 0)
        h_neg = np.maximum(x_neg @ w.T, 0)
        single = sff_gradient(x_pos, h_pos, x_neg, h_neg, params).grad
        doubled = sff_gradient(np.vstack([x_pos, x_pos]), np.vstack([h_pos, h_pos]),
                               np.vstack([x_neg, x_neg]), np.vstack([h_neg, h_neg]),
                               params).grad
        assert np.allclose(single, doubled, rtol=1e-12)

    def test_memory_accounting(self):
        params = SFFParams()
        n_b, n_x, n_h = 16, 36, 48
        g = sff_gradient(np.ones((n_b, n_x)), np.ones((n_b, n_h)),
                         np.ones((n_b, n_x)), np.ones((n_b, n_h)), params)
        assert g.buffered_scalars == n_b * (2 + 2 * n_x + 2 * n_h)

    def test_locality(self):
        # permuting activations of other output units (which preserves the
        # goodness and hence D+) must leave a row's gradient bit-identical
        rng = np.random.default_rng(6)
        params = SFFParams()
        x_pos = rng.normal(0, 1, (4, 3))
        x_neg = rng.normal(0, 1, (4, 3))
        h_pos = np.abs(rng.normal(0, 1, (4, 6)))
        h_neg = np.abs(rng.normal(0, 1, (4, 6)))
        base = sff_gradient(x_pos, h_pos, x_neg, h_neg, params).grad
        h_pos_perm = h_pos.copy()
        h_pos_perm[:, [1, 2]] = h_pos_perm[:, [2, 1]]   # swap units 1 and 2
        perm = sff_gradient(x_pos, h_pos_perm, x_neg, h_neg, params).grad
        assert np.array_equal(base[0], perm[0])
        assert np.array_equal(base[3:], perm[3:])


# ---------------------------------------------------------------- clusters

class TestClusterMask:
    # the mask of class y is cluster_labels(spec) == y, as cf_gradient builds it
    def test_first_cluster(self):
        spec = LayerSpec(8, 48, clusters=(4, 12))
        z = cluster_labels(spec) == 0
        assert np.array_equal(np.nonzero(z)[0], np.arange(12))
        assert z.sum() == 12

    def test_last_cluster(self):
        spec = LayerSpec(8, 48, clusters=(4, 12))
        z = cluster_labels(spec) == 3
        assert np.array_equal(np.nonzero(z)[0], np.arange(36, 48))

    def test_partition(self):
        spec = LayerSpec(8, 48, clusters=(4, 12))
        total = sum((cluster_labels(spec) == y).astype(int) for y in range(4))
        assert np.array_equal(total, np.ones(48))

    def test_requires_clusters(self):
        with pytest.raises(ValueError):
            cluster_labels(LayerSpec(8, 48))

    def test_bad_tiling(self):
        with pytest.raises(ValueError):
            LayerSpec(8, 48, clusters=(5, 12))


class TestCfLoss:
    def test_zero_activations_give_log2(self):
        params = CFParams(variant="temperature", theta_plus=0.3, theta_minus=0.3)
        z = np.zeros(8)
        z[:4] = 1
        assert cf_batch_loss(np.zeros((1, 8)), z[None], params) == pytest.approx(
            np.log(2.0))

    def test_target_cluster_saturation(self):
        # all activity on the target cluster with a huge positive argument:
        # the positive term vanishes, the negative term sits at zero goodness
        params = CFParams(variant="temperature", theta_plus=50.0, theta_minus=1.0)
        h = np.zeros(8)
        h[:4] = 5.0
        z = np.zeros(8)
        z[:4] = 1
        assert cf_batch_loss(h[None], z[None], params) == pytest.approx(
            0.5 * np.log(2.0), rel=1e-6)

    @pytest.mark.parametrize("variant", ["temperature", "offset"])
    def test_matches_transcription_oracle(self, variant):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n_h = 12
            params = CFParams(variant=variant,
                              theta_plus=float(rng.uniform(0.05, 2.0)),
                              theta_minus=float(rng.uniform(0.05, 2.0)),
                              eta=1.0 if rng.random() < 0.5 else -1.0)
            h = np.abs(rng.normal(0, 1, n_h))
            z = np.zeros(n_h)
            z[rng.integers(0, 3) * 4:][:4] = 1
            assert cf_batch_loss(h[None], z[None], params) == pytest.approx(
                cf_loss_oracle(h, z, params), rel=1e-12, abs=1e-12)


class TestCfGradient:
    def test_zero_batch(self):
        spec = LayerSpec(3, 8, clusters=(2, 4))
        g = cf_gradient(np.ones((4, 3)), np.zeros((4, 8)), np.zeros(4, dtype=int),
                        CFParams(), spec)
        assert np.array_equal(g.grad, np.zeros((8, 3)))

    @pytest.mark.parametrize("n_b", [1, 16])
    @pytest.mark.parametrize("eta", [1.0, -1.0])
    @pytest.mark.parametrize("variant", ["temperature", "offset"])
    def test_matches_finite_differences(self, n_b, eta, variant):
        rng = np.random.default_rng(8)
        spec = LayerSpec(4, 8, eta=eta, clusters=(2, 4))
        cls = cluster_labels(spec)
        for _ in range(5):
            w = rng.normal(0, 0.7, (8, 4))
            params = CFParams(variant=variant,
                              theta_plus=float(rng.uniform(0.05, 1.0)),
                              theta_minus=float(rng.uniform(0.05, 1.0)), eta=eta)
            x = off_kink_inputs(rng, n_b, 4, w)
            y = rng.integers(0, 2, n_b)
            z = (cls[None, :] == y[:, None]).astype(float)

            def loss():
                return cf_batch_loss(np.maximum(x @ w.T, 0), z, params)

            analytic = cf_gradient(x, np.maximum(x @ w.T, 0), y, params, spec).grad
            assert rel_err(analytic, fd_grad(loss, w)) < 1e-5

    def test_each_row_uses_one_branch(self):
        rng = np.random.default_rng(9)
        spec = LayerSpec(3, 8, clusters=(2, 4))
        params = CFParams()
        x = rng.normal(0, 1, (1, 3))
        h = np.abs(rng.normal(0, 1, (1, 8)))
        g = cf_gradient(x, h, np.array([0]), params, spec)
        # target rows scale with 1/D+, others with 1/D-; reconstruct directly
        # (temperature variant, one sample: D = (1 + exp(+-a)) / (eta theta))
        target = np.arange(8) < 4
        a_pos = params.theta_plus * params.eta * np.sum(h[0, target] ** 2)
        a_neg = params.theta_minus * params.eta * np.sum(h[0, ~target] ** 2)
        coef_pos = params.eta * params.theta_plus / (1.0 + np.exp(a_pos))
        coef_neg = params.eta * params.theta_minus / (1.0 + np.exp(-a_neg))
        expected = np.empty((8, 3))
        for i in range(8):
            c = coef_pos if i < 4 else -coef_neg
            expected[i] = -h[0, i] * c * x[0]
        assert np.allclose(g.grad, expected, rtol=1e-12)

    def test_eta_sign_flip_on_target_rows(self):
        # same |goodness| arguments, opposite eta: the target-cluster rows of
        # the per-sample contribution flip sign
        rng = np.random.default_rng(10)
        spec_pos = LayerSpec(3, 8, eta=1.0, clusters=(2, 4))
        spec_neg = LayerSpec(3, 8, eta=-1.0, clusters=(2, 4))
        x = rng.normal(0, 1, (1, 3))
        h = np.abs(rng.normal(0, 1, (1, 8)))
        y = np.array([0])
        g_pos = cf_gradient(x, h, y, CFParams(eta=1.0), spec_pos).grad
        g_neg = cf_gradient(x, h, y, CFParams(eta=-1.0), spec_neg).grad
        target_rows = slice(0, 4)
        assert np.all(np.sign(g_pos[target_rows]) == -np.sign(g_neg[target_rows]))

    def test_memory_accounting(self):
        spec = LayerSpec(32, 48, clusters=(4, 12))
        g = cf_gradient(np.ones((16, 32)), np.ones((16, 48)),
                        np.zeros(16, dtype=int), CFParams(), spec)
        assert g.buffered_scalars == 16 * (3 + 32 + 48)

    def test_locality(self):
        rng = np.random.default_rng(11)
        spec = LayerSpec(3, 8, clusters=(2, 4))
        params = CFParams()
        x = rng.normal(0, 1, (4, 3))
        h = np.abs(rng.normal(0, 1, (4, 8)))
        y = rng.integers(0, 2, 4)
        base = cf_gradient(x, h, y, params, spec).grad
        h_perm = h.copy()
        h_perm[:, [1, 2]] = h_perm[:, [2, 1]]   # within the same cluster
        perm = cf_gradient(x, h_perm, y, params, spec).grad
        assert np.array_equal(base[0], perm[0])
        assert np.array_equal(base[4:], perm[4:])

    def test_temperature_requires_nonzero_theta(self):
        with pytest.raises(ValueError):
            CFParams(variant="temperature", theta_plus=0.0)


# ---------------------------------------------------------------- backprop

class TestLossFromGradientGoodness:
    """A step's loss comes from its gradient's goodness, bit for bit."""

    def test_sff(self):
        rng = np.random.default_rng(16)
        params = SFFParams(theta_plus=0.3, theta_minus=0.2, eta=-1.0)
        x_pos, x_neg = rng.normal(0, 1, (2, 16, 5))
        h_pos, h_neg = np.abs(rng.normal(0, 1, (2, 16, 7)))
        grad = sff_gradient(x_pos, h_pos, x_neg, h_neg, params)
        assert (sff_goodness_loss(grad.goodness_pos, grad.goodness_neg, params, 7)
                == sff_batch_loss(h_pos, h_neg, params))

    @pytest.mark.parametrize("variant", ["temperature", "offset"])
    def test_cf(self, variant):
        rng = np.random.default_rng(17)
        spec = LayerSpec(5, 12, clusters=(4, 3))
        params = CFParams(variant=variant, eta=-1.0)
        x, h = rng.normal(0, 1, (16, 5)), np.abs(rng.normal(0, 1, (16, 12)))
        y = rng.integers(0, 4, 16)
        z = (cluster_labels(spec)[None, :] == y[:, None]).astype(float)
        grad = cf_gradient(x, h, y, params, spec)
        assert (cf_goodness_loss(grad.goodness_pos, grad.goodness_neg, params)
                == cf_batch_loss(h, z, params))


def bp_reference(weights, acts, y):
    """Transcription of the backward pass over every layer of the net."""
    logits = acts[-1] - acts[-1].max(axis=1, keepdims=True)
    delta = np.exp(logits)
    delta = delta / delta.sum(axis=1, keepdims=True)
    delta[np.arange(len(y)), y] -= 1.0
    delta /= len(y)
    grads = [None] * len(weights)
    for k in range(len(weights) - 1, -1, -1):
        grads[k] = delta.T @ acts[k]
        if k > 0:
            delta = (delta @ weights[k]) * (acts[k] > 0)
    return grads


def mlp_forward(weights, x):
    """``[x, h, ..., logits]``: ReLU hidden layers, linear output."""
    acts = [x]
    for k, w in enumerate(weights):
        pre = acts[-1] @ w.T
        acts.append(np.maximum(pre, 0.0) if k < len(weights) - 1 else pre)
    return acts


class TestBpGradients:
    def test_uniform_softmax_identity(self):
        # all-equal logits: output gradient rows are (1/C - onehot) x / N
        x = np.ones((1, 3))
        w = [np.zeros((4, 3))]
        g = bp_gradients(w, mlp_forward(w, x), np.array([1]), 0).grad
        expected = np.outer(np.full(4, 0.25) - np.eye(4)[1], x[0])
        assert np.allclose(g, expected, rtol=1e-12)

    def test_matches_finite_differences_two_layer(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            w1 = rng.normal(0, 0.7, (6, 4))
            w2 = rng.normal(0, 0.7, (3, 6))
            x = off_kink_inputs(rng, 8, 4, w1)
            y = rng.integers(0, 3, 8)

            def loss():
                return cross_entropy_loss(np.maximum(x @ w1.T, 0) @ w2.T, y)

            acts = mlp_forward([w1, w2], x)
            for layer, w in enumerate((w1, w2)):
                grad = bp_gradients([w1, w2], acts, y, layer).grad
                assert rel_err(grad, fd_grad(loss, w)) < 1e-5

    def test_frozen_layer_masked(self):
        # training the output layer reads nothing of the frozen layer below
        rng = np.random.default_rng(13)
        w1 = rng.normal(0, 0.5, (6, 4))
        w2 = rng.normal(0, 0.5, (3, 6))
        x = rng.normal(0, 1, (4, 4))
        y = rng.integers(0, 3, 4)
        acts = mlp_forward([w1, w2], x)
        grad = bp_gradients([w1, w2], acts, y, 1).grad
        masked = bp_gradients([np.full_like(w1, np.nan), w2], acts, y, 1).grad
        assert np.array_equal(grad, masked)
        assert grad.shape == w2.shape and np.isfinite(grad).all()

    @settings(max_examples=100)
    @given(n_layers=st.integers(1, 2), n_b=st.integers(1, 16), n_in=st.integers(1, 6),
           n_hidden=st.integers(1, 6), n_classes=st.integers(2, 5),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_any_layer_matches_reference(self, n_layers, n_b, n_in, n_hidden,
                                         n_classes, seed, data):
        rng = np.random.default_rng(seed)
        shapes = ([(n_hidden, n_in), (n_classes, n_hidden)] if n_layers == 2
                  else [(n_classes, n_in)])
        weights = [rng.normal(0, 0.7, shape) for shape in shapes]
        x = rng.normal(0, 1, (n_b, n_in))
        y = rng.integers(0, n_classes, n_b)
        acts = mlp_forward(weights, x)
        layer = data.draw(st.integers(0, n_layers - 1))
        grad = bp_gradients(weights, acts, y, layer).grad
        assert np.array_equal(grad, bp_reference(weights, acts, y)[layer])

    @pytest.mark.parametrize("trainable", [[True, True], [False, True], [True, False]])
    def test_given_activations_match_own_forward(self, trainable):
        # the trainer hands over the forward it already ran; the gradient of
        # every layer it trains must equal the one from a forward made here
        rng = np.random.default_rng(15)
        w1, w2 = rng.normal(0, 0.5, (6, 4)), rng.normal(0, 0.5, (3, 6))
        x = rng.normal(0, 1, (16, 4))
        y = rng.integers(0, 3, 16)
        layers = [NetworkLayer(spec=LayerSpec(4, 6), weights=w1),
                  NetworkLayer(spec=LayerSpec(6, 3, activation="identity"), weights=w2)]
        given = _forward(layers, x)
        own = mlp_forward([w1, w2], x)
        for k in (k for k in range(2) if trainable[k]):
            grad = bp_gradients([w1, w2], given, y, k).grad
            assert np.array_equal(grad, bp_gradients([w1, w2], own, y, k).grad)
            assert grad.any()
        with pytest.raises(ValueError, match="activation"):
            bp_gradients([w1, w2], given[:2], y, 1)

    def test_refusals(self):
        rng = np.random.default_rng(15)
        w1, w2 = rng.normal(0, 0.5, (6, 4)), rng.normal(0, 0.5, (3, 6))
        x = rng.normal(0, 1, (16, 4))
        y = rng.integers(0, 3, 16)
        acts = mlp_forward([w1, w2], x)
        with pytest.raises(ValueError, match="activation"):
            bp_gradients([w1, w2], acts[:2], y, 1)
        for layer in (-1, 2):
            with pytest.raises(ValueError, match="out of range"):
                bp_gradients([w1, w2], acts, y, layer)

    def test_perceptron_separable_toy(self):
        # two linearly separable points: plain gradient descent must drive
        # the cross-entropy below 1e-2
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1])
        w = np.zeros((2, 2))
        for _ in range(500):
            g = bp_gradients([w], [x, x @ w.T], y, 0).grad
            w = w - 1.0 * g
        assert cross_entropy_loss(x @ w.T, y) < 1e-2

    def test_argmax_scale_invariance(self):
        rng = np.random.default_rng(14)
        logits = rng.normal(0, 1, (50, 4))
        assert np.array_equal(softmax(logits).argmax(1),
                              softmax(3.7 * logits).argmax(1))


# ---------------------------------------------------------------- planner

class TestThresholdSignPlan:
    # side 0 pulses G+ (weight down), side 1 pulses G- (weight up)
    def test_rule_definition(self):
        grad = np.array([[0.5, -0.5, 0.01]])
        mask, side = threshold_sign_plan(grad, tau=0.1, mode="descent")
        assert mask.tolist() == [[True, True, False]]
        assert side[mask].tolist() == [0, 1]

    def test_all_below_threshold(self):
        mask, _ = threshold_sign_plan(np.full((3, 3), 0.05), tau=0.1, mode="descent")
        assert not mask.any()

    def test_strict_exceedance(self):
        # |grad| == tau is not an update; exact zeros never fire at tau = 0
        mask, _ = threshold_sign_plan(np.array([[0.1, 0.0]]), tau=0.1, mode="descent")
        assert not mask.any()
        mask, _ = threshold_sign_plan(np.array([[0.0, 1e-300]]), tau=0.0, mode="descent")
        assert not mask[0, 0] and mask[0, 1]

    def test_scale_invariance(self):
        rng = np.random.default_rng(15)
        grad = rng.normal(0, 1, (5, 4))
        mask_a, side_a = threshold_sign_plan(grad, tau=0.3, mode="descent")
        mask_b, side_b = threshold_sign_plan(grad * 7.3, tau=0.3 * 7.3, mode="descent")
        assert np.array_equal(mask_a, mask_b)
        assert np.array_equal(side_a[mask_a], side_b[mask_b])

    def test_paper_literal_mode_swaps(self):
        grad = np.array([[0.5, -0.5]])
        mask, side = threshold_sign_plan(grad, tau=0.1, mode="paper_literal")
        assert mask.tolist() == [[True, True]]
        assert side[mask].tolist() == [1, 0]

    def test_pure_function(self):
        grad = np.array([[0.5, -0.5, 0.0]])
        mask_a, side_a = threshold_sign_plan(grad, 0.1, "descent")
        mask_b, side_b = threshold_sign_plan(grad, 0.1, "descent")
        assert np.array_equal(mask_a, mask_b) and np.array_equal(side_a, side_b)


class TestSignDescentFloat:
    def test_zero_gradient_noop(self):
        w = np.ones((2, 2))
        assert np.array_equal(sign_descent_step_float(w, np.zeros((2, 2)), 0.1), w)

    def test_adam_limit_identity(self):
        # without momentum, m/sqrt(v) = g/|g| = sign(g)
        rng = np.random.default_rng(16)
        g = rng.normal(0, 1, (3, 3))
        m, v = g, g * g
        adam_dir = m / np.sqrt(v)
        w = np.zeros((3, 3))
        stepped = sign_descent_step_float(w, g, lr=0.1)
        assert np.allclose(stepped, -0.1 * adam_dir, rtol=1e-12)

    def test_convex_quadratic_descent(self):
        target = np.array([[1.0, -2.0], [0.5, 3.0]])
        w = np.zeros((2, 2))
        prev = np.inf
        for _ in range(100):
            loss = 0.5 * np.sum((w - target) ** 2)
            assert loss <= prev + 1e-12
            prev = loss
            w = sign_descent_step_float(w, w - target, lr=0.01)
        assert prev < 0.5 * np.sum(target ** 2)

    def test_threshold_gates(self):
        w = np.zeros((1, 2))
        g = np.array([[0.5, 0.05]])
        out = sign_descent_step_float(w, g, lr=0.1, tau=0.1)
        assert out[0, 0] == -0.1 and out[0, 1] == 0.0
