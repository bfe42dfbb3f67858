"""Gradient producers and the sign-only update planner.

Three rules are implemented for bias-free ReLU layers:

* layer-wise backpropagation (softmax + cross-entropy head): the backward
  pass reuses the activations of the step's forward and stops at the one
  layer being trained,
* supervised Forward-Forward (SFF): two passes per example, one with the
  true label token appended to the features and one with a wrong token; the
  layer pushes the goodness g = eta * ||h||^2 of positive examples above a
  threshold and of negative examples below one,
* competitive forward (CF): a single pass through layers whose units are
  partitioned into per-class clusters; the target cluster's goodness is
  pushed one way and the complement's the other way.

All gradients here are the exact analytic gradients of the corresponding
batch-mean losses (verified against finite differences), so a float
optimizer can follow them directly.  The hardware path only consumes their
signs: `threshold_sign_plan` turns a gradient into at most one single-pulse
action per weight, as a (mask, side) pair of arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LayerSpec",
    "SFFParams",
    "CFParams",
    "GradientBatch",
    "sff_batch_loss",
    "sff_goodness_loss",
    "sff_gradient",
    "cluster_labels",
    "cf_batch_loss",
    "cf_goodness_loss",
    "cf_gradient",
    "softmax",
    "cross_entropy_loss",
    "bp_gradients",
    "threshold_sign_plan",
    "sign_descent_step_float",
]

_EXP_CLIP = 700.0   # exp() overflow guard; saturated terms are exactly 0/inf anyway


@dataclass
class LayerSpec:
    """Shape and rule metadata of one layer."""

    n_in: int
    n_out: int
    activation: str = "relu"          # "relu" | "identity"
    eta: float = 1.0                  # goodness sign, +1 or -1
    clusters: tuple[int, int] | None = None   # (n_classes, cluster_size)

    def __post_init__(self):
        if self.activation not in ("relu", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.eta not in (1.0, -1.0, 1, -1):
            raise ValueError("eta must be +1 or -1")
        if self.clusters is not None:
            n_classes, size = self.clusters
            if n_classes * size != self.n_out:
                raise ValueError(
                    f"clusters {n_classes}x{size} do not tile {self.n_out} outputs")


@dataclass
class SFFParams:
    theta_plus: float = 2.0
    theta_minus: float = 1.0
    eta: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.theta_plus) and np.isfinite(self.theta_minus)):
            raise ValueError("theta offsets must be finite")
        if self.eta not in (1.0, -1.0, 1, -1):
            raise ValueError("eta must be +1 or -1")


@dataclass
class CFParams:
    variant: str = "temperature"   # "temperature" | "offset"
    theta_plus: float = 0.15
    theta_minus: float = 0.15
    eta: int = 1

    def __post_init__(self):
        if self.variant not in ("temperature", "offset"):
            raise ValueError(f"unknown CF variant {self.variant!r}")
        if self.variant == "temperature" and (self.theta_plus == 0 or self.theta_minus == 0):
            raise ValueError("temperature variant needs non-zero thetas")
        if self.eta not in (1.0, -1.0, 1, -1):
            raise ValueError("eta must be +1 or -1")


@dataclass
class GradientBatch:
    """Gradient of a batch-mean loss plus per-sample diagnostics."""

    grad: np.ndarray                  # (n_out, n_in)
    goodness_pos: np.ndarray | None = None
    goodness_neg: np.ndarray | None = None
    buffered_scalars: int = 0         # working-memory cost of the rule


def _softplus(z):
    # log(1 + e^z), stable for large |z|
    return np.logaddexp(0.0, z)


def _margin_loss(a_pos, a_neg) -> float:
    """Mean of 1/2 [softplus(-a+) + softplus(a-)]: the loss tail of both rules."""
    return float(np.mean(0.5 * (_softplus(-a_pos) + _softplus(a_neg))))


def _sff_margins(g_pos, g_neg, params: SFFParams, n_h: int):
    a_pos = g_pos - params.eta * params.theta_plus * n_h
    a_neg = g_neg - params.eta * params.theta_minus * n_h
    return a_pos, a_neg


def sff_goodness_loss(g_pos, g_neg, params: SFFParams, n_h: int) -> float:
    """Mean SFF loss from per-sample goodness, e.g. a gradient's goodness_pos/neg."""
    return _margin_loss(*_sff_margins(g_pos, g_neg, params, n_h))


def sff_batch_loss(h_pos, h_neg, params: SFFParams) -> float:
    """Mean SFF loss over a batch of activations, shapes (N, n_h).

    Per example -1/2 [log sigma(g(h+) - eta theta+ N_h) + log(1 - sigma(g(h-)
    - eta theta- N_h))], evaluated through softplus for numerical stability.
    """
    h_pos = np.atleast_2d(np.asarray(h_pos, dtype=float))
    h_neg = np.atleast_2d(np.asarray(h_neg, dtype=float))
    return sff_goodness_loss(params.eta * np.sum(h_pos ** 2, axis=1),
                             params.eta * np.sum(h_neg ** 2, axis=1),
                             params, h_pos.shape[1])


def sff_gradient(x_pos, h_pos, x_neg, h_neg, params: SFFParams) -> GradientBatch:
    """Exact gradient of the batch-mean SFF loss for a ReLU layer.

    grad_ij = -sum_n [h+_{n,i} x+_{n,j} / D+_n  -  h-_{n,i} x-_{n,j} / D-_n]
    with D+_n = N_B (1 + exp(a+_n)) / eta and D-_n = N_B (1 + exp(-a-_n)) / eta.
    ReLU gating is implicit: gated units have h = 0 and contribute nothing.
    """
    x_pos = np.atleast_2d(np.asarray(x_pos, dtype=float))
    x_neg = np.atleast_2d(np.asarray(x_neg, dtype=float))
    h_pos = np.atleast_2d(np.asarray(h_pos, dtype=float))
    h_neg = np.atleast_2d(np.asarray(h_neg, dtype=float))
    n_b, n_x = x_pos.shape
    n_h = h_pos.shape[1]
    if x_neg.shape != (n_b, n_x) or h_pos.shape != (n_b, n_h) or h_neg.shape != (n_b, n_h):
        raise ValueError("batch shape mismatch")
    g_pos = params.eta * np.sum(h_pos ** 2, axis=1)
    g_neg = params.eta * np.sum(h_neg ** 2, axis=1)
    a_pos, a_neg = _sff_margins(g_pos, g_neg, params, n_h)
    d_pos = n_b * (1.0 + np.exp(np.clip(a_pos, -_EXP_CLIP, _EXP_CLIP))) / params.eta
    d_neg = n_b * (1.0 + np.exp(np.clip(-a_neg, -_EXP_CLIP, _EXP_CLIP))) / params.eta
    grad = -((h_pos / d_pos[:, None]).T @ x_pos - (h_neg / d_neg[:, None]).T @ x_neg)
    return GradientBatch(grad=grad, goodness_pos=g_pos, goodness_neg=g_neg,
                         buffered_scalars=n_b * (2 + 2 * n_x + 2 * n_h))


def cluster_labels(spec: LayerSpec) -> np.ndarray:
    """Class id C(i) of every output unit."""
    if spec.clusters is None:
        raise ValueError("layer has no cluster structure")
    n_classes, size = spec.clusters
    return np.repeat(np.arange(n_classes), size)


def _cf_margins(g_target, g_rest, params: CFParams):
    if params.variant == "temperature":
        return params.theta_plus * g_target, params.theta_minus * g_rest
    return g_target - params.eta * params.theta_plus, g_rest - params.eta * params.theta_minus


def cf_goodness_loss(g_target, g_rest, params: CFParams) -> float:
    """Mean CF loss from per-sample goodness, e.g. a gradient's goodness_pos/neg."""
    return _margin_loss(*_cf_margins(g_target, g_rest, params))


def cf_batch_loss(h, z, params: CFParams) -> float:
    """Mean CF loss over a batch; h and z shaped (N, n_h)."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    z = np.atleast_2d(np.asarray(z, dtype=float))
    return cf_goodness_loss(params.eta * np.sum((h * z) ** 2, axis=1),
                            params.eta * np.sum((h * (1.0 - z)) ** 2, axis=1), params)


def cf_gradient(x, h, y, params: CFParams, spec: LayerSpec) -> GradientBatch:
    """Exact gradient of the batch-mean CF loss for a ReLU cluster layer.

    grad_ij = -sum_n h_{n,i} x_{n,j} [ delta(C(i)=Y_n)/D+_n - delta(C(i)!=Y_n)/D-_n ]
    with D+_n = N_B (1 + exp(a+_n)) / k+ and D-_n = N_B (1 + exp(-a-_n)) / k-.
    Temperature variant: a+- = theta+- g+-, k+- = eta theta+-; offset variant:
    a+- = g+- - eta theta+-, k+- = eta; g+ is the target cluster's goodness
    and g- the rest's.  Each output row uses exactly one branch per sample.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    h = np.atleast_2d(np.asarray(h, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=int))
    n_b, n_x = x.shape
    n_h = h.shape[1]
    if h.shape[0] != n_b or y.shape != (n_b,) or n_h != spec.n_out:
        raise ValueError("batch shape mismatch")
    cls = cluster_labels(spec)
    z = (cls[None, :] == y[:, None]).astype(float)      # (N, n_h)
    g_target = params.eta * np.sum((h * z) ** 2, axis=1)
    g_rest = params.eta * np.sum((h * (1.0 - z)) ** 2, axis=1)
    a_pos, a_neg = _cf_margins(g_target, g_rest, params)
    gain_pos = params.eta * (params.theta_plus if params.variant == "temperature" else 1.0)
    gain_neg = params.eta * (params.theta_minus if params.variant == "temperature" else 1.0)
    d_pos = n_b * (1.0 + np.exp(np.clip(a_pos, -_EXP_CLIP, _EXP_CLIP))) / gain_pos
    d_neg = n_b * (1.0 + np.exp(np.clip(-a_neg, -_EXP_CLIP, _EXP_CLIP))) / gain_neg
    coef = z / d_pos[:, None] - (1.0 - z) / d_neg[:, None]
    grad = -(h * coef).T @ x
    return GradientBatch(grad=grad, goodness_pos=g_target, goodness_neg=g_rest,
                         buffered_scalars=n_b * (3 + n_x + n_h))


def softmax(z):
    z = np.asarray(z, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_loss(logits, y) -> float:
    """Mean softmax cross-entropy; logits (N, C), labels (N,)."""
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=int))
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    return float(np.mean(log_z - shifted[np.arange(len(y)), y]))


def bp_gradients(weights: list[np.ndarray], acts: list[np.ndarray], y,
                 layer: int) -> GradientBatch:
    """Analytic softmax cross-entropy gradient of one layer of a bias-free net.

    ``acts`` are the activations of the step's own forward pass, ``[x, h,
    ..., logits]``: hidden layers are ReLU, the output layer is linear.  The
    backward pass runs from the output down to ``layer`` and returns that
    layer's gradient; the layers below it are not visited.
    """
    if len(acts) != len(weights) + 1:
        raise ValueError("need one activation per layer plus the input")
    if not 0 <= layer < len(weights):
        raise ValueError(f"layer {layer} out of range for {len(weights)} layer(s)")
    y = np.atleast_1d(np.asarray(y, dtype=int))
    n_b = len(acts[0])
    delta = softmax(acts[-1])
    delta[np.arange(n_b), y] -= 1.0
    delta /= n_b
    for k in range(len(weights) - 1, layer, -1):
        delta = (delta @ weights[k]) * (acts[k] > 0)
    return GradientBatch(grad=delta.T @ acts[layer])


def threshold_sign_plan(grad, tau: float, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Turn a gradient matrix into single-pulse actions.

    Returns ``(mask, side)``, both shaped like ``grad``: ``mask`` marks the
    entries that get a pulse, and ``side`` names the device it goes to,
    0 for G+ (weight down) and 1 for G- (weight up).  An entry gets an
    action only when |grad| strictly exceeds tau.  In descent mode the pulse
    moves the weight along -sign(grad): grad > tau pulses G+, grad < -tau
    pulses G-.  The "paper_literal" mode swaps the mapping ("a positive
    gradient pulses the negative device"), which reads the triggering signal
    as the update -dL/dw rather than the derivative; see the planner docs.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if mode not in ("descent", "paper_literal"):
        raise ValueError(f"unknown plan mode {mode!r}")
    grad = np.atleast_2d(np.asarray(grad, dtype=float))
    mask = np.abs(grad) > tau
    side = (grad > 0) if mode == "paper_literal" else (grad < 0)
    return mask, side.astype(np.int8)


def sign_descent_step_float(w, grad, lr: float, tau: float = 0.0) -> np.ndarray:
    """Floating-point twin of the pulse rule: w - lr * sign(grad) * [|grad| > tau]."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    w = np.asarray(w, dtype=float)
    grad = np.asarray(grad, dtype=float)
    return w - lr * np.sign(grad) * (np.abs(grad) > tau)
