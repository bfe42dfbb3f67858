"""Finite-difference verification of every analytic gradient.

Randomized configurations (both goodness signs, batch sizes 1 and 16) are
drawn with pre-activations kept away from the ReLU kink by a margin, since
the analytic expressions are exact only off the kink set.  Central
differences of the batch-mean loss are compared entry-wise at a relative
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .rules import (CFParams, LayerSpec, SFFParams, bp_gradients, cf_batch_loss,
                    cf_gradient, cluster_labels, cross_entropy_loss,
                    sff_batch_loss, sff_gradient)

__all__ = ["SuiteResult", "SUITES", "check_sff", "check_cf", "check_bp", "run_all"]

FD_STEP = 1e-5
RTOL = 1e-5
ATOL = 1e-10
KINK_MARGIN = 1e-3


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: int
    worst_rel_err: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _central_diff(loss_fn, w: np.ndarray) -> np.ndarray:
    fd = np.empty_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            orig = w[i, j]
            w[i, j] = orig + FD_STEP
            up = loss_fn()
            w[i, j] = orig - FD_STEP
            down = loss_fn()
            w[i, j] = orig
            fd[i, j] = (up - down) / (2.0 * FD_STEP)
    return fd


def _max_rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), ATOL / RTOL)
    return float(np.max(np.abs(analytic - fd) / denom))


def _sample_off_kink(rng, n_b, n_in, w):
    """Inputs whose pre-activations avoid the ReLU kink by KINK_MARGIN."""
    for _ in range(200):
        x = rng.normal(0.0, 1.0, (n_b, n_in))
        pre = x @ w.T
        if np.all(np.abs(pre) > KINK_MARGIN):
            return x
    raise RuntimeError("could not sample inputs off the ReLU kink set")


def _suite(name: str, trials: int, seed: int, cases) -> SuiteResult:
    """Compare each ``(analytic grad, loss, weights)`` case that
    ``cases(rng, trial, n_b, eta)`` yields with central differences."""
    rng = np.random.default_rng(seed)
    failures, worst = 0, 0.0
    for trial in range(trials):
        n_b = 1 if trial % 2 == 0 else 16
        eta = 1.0 if trial % 4 < 2 else -1.0
        for grad, loss, w in cases(rng, trial, n_b, eta):
            err = _max_rel_err(grad, _central_diff(loss, w))
            worst = max(worst, err)
            failures += err > RTOL
    return SuiteResult(name, trials, failures, worst)


def _sff_cases(rng, trial, n_b, eta):
    n_in = int(rng.integers(3, 7))
    n_h = int(rng.integers(4, 9))
    params = SFFParams(theta_plus=float(rng.normal(0.0, 0.5)),
                       theta_minus=float(rng.normal(0.0, 0.5)), eta=eta)
    w = rng.normal(0.0, 0.7, (n_h, n_in))
    x_pos = _sample_off_kink(rng, n_b, n_in, w)
    x_neg = _sample_off_kink(rng, n_b, n_in, w)

    def loss():
        return sff_batch_loss(np.maximum(x_pos @ w.T, 0.0),
                              np.maximum(x_neg @ w.T, 0.0), params)

    grad = sff_gradient(x_pos, np.maximum(x_pos @ w.T, 0.0),
                        x_neg, np.maximum(x_neg @ w.T, 0.0), params).grad
    yield grad, loss, w


def _cf_cases(variant, rng, trial, n_b, eta):
    n_in = int(rng.integers(3, 7))
    n_classes = int(rng.integers(2, 5))
    size = int(rng.integers(2, 5))
    theta_p = float(rng.uniform(0.05, 1.0)) * (1 if rng.random() < 0.5 else -1)
    theta_m = float(rng.uniform(0.05, 1.0)) * (1 if rng.random() < 0.5 else -1)
    params = CFParams(variant=variant, theta_plus=theta_p, theta_minus=theta_m, eta=eta)
    spec = LayerSpec(n_in, n_classes * size, eta=eta, clusters=(n_classes, size))
    w = rng.normal(0.0, 0.7, (spec.n_out, n_in))
    x = _sample_off_kink(rng, n_b, n_in, w)
    y = rng.integers(0, n_classes, size=n_b)
    z = (cluster_labels(spec)[None, :] == y[:, None]).astype(float)

    def loss():
        return cf_batch_loss(np.maximum(x @ w.T, 0.0), z, params)

    yield cf_gradient(x, np.maximum(x @ w.T, 0.0), y, params, spec).grad, loss, w


def _bp_cases(rng, trial, n_b, eta):
    n_in = int(rng.integers(3, 7))
    n_hidden = int(rng.integers(4, 8))
    n_classes = int(rng.integers(2, 5))
    if trial % 3 != 0:
        weights = [rng.normal(0.0, 0.7, (n_hidden, n_in)),
                   rng.normal(0.0, 0.7, (n_classes, n_hidden))]
        x = _sample_off_kink(rng, n_b, n_in, weights[0])
    else:
        weights = [rng.normal(0.0, 0.7, (n_classes, n_in))]
        x = rng.normal(0.0, 1.0, (n_b, n_in))
    y = rng.integers(0, n_classes, size=n_b)

    def forward():
        acts = [x]
        for k, w in enumerate(weights):
            pre = acts[-1] @ w.T
            acts.append(np.maximum(pre, 0.0) if k < len(weights) - 1 else pre)
        return acts

    def loss():
        return cross_entropy_loss(forward()[-1], y)

    acts = forward()
    for k, w in enumerate(weights):
        yield bp_gradients(weights, acts, y, k).grad, loss, w


def check_sff(trials: int = 100, seed: int = 0) -> SuiteResult:
    return _suite("sff", trials, seed, _sff_cases)


def check_cf(variant: str = "temperature", trials: int = 100,
             seed: int = 0) -> SuiteResult:
    return _suite(f"cf_{variant}", trials, seed, partial(_cf_cases, variant))


def check_bp(trials: int = 50, seed: int = 0) -> SuiteResult:
    return _suite("bp", trials, seed, _bp_cases)


# every suite by the name it reports, in the order `run_all` runs them
SUITES = {
    "sff": check_sff,
    "cf_temperature": partial(check_cf, "temperature"),
    "cf_offset": partial(check_cf, "offset"),
    "bp": check_bp,
}


def run_all(trials: int = 100, seed: int = 0) -> list[SuiteResult]:
    """Every suite; bp runs half the trials, at least 10."""
    return [check(max(trials // 2, 10) if name == "bp" else trials, seed)
            for name, check in SUITES.items()]
