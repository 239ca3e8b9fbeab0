"""Synthetic training tasks for the simulator.

A task owns M devices' local data, and training on it always starts at
w = 0.  It is data plus two methods; the attributes are set once, when the
task is built:

    d, M                      problem and population sizes
    grad_bound                l2 bound on one device's gradient, from w = 0 on
    smoothness                smoothness constant of the average loss
    loss(w)                   population-average loss
    device_gradients(w, ks)   stacked local gradients, shape (len(ks), d)
"""

from __future__ import annotations

import numpy as np


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1/(1 + exp(-z)) for z >= 0 and exp(z)/(1 + exp(z)) below, in one
    # pass: each element sees the same IEEE operations on the same values
    # as on its own branch (a NaN keeps its sign), without masked gathers
    # and scatters
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    return np.where(pos, 1.0, e) / (1.0 + e)


class QuadraticBowlTask:
    """Per-device quadratic f_k(w) = 0.5 * sum_j a_j (w_j - c_kj)^2.

    Deterministic sanity workhorse: with a step below 1/L plain gradient
    descent on the average must never increase the loss.

    ``grad_bound`` is max_k ||a * (e + |c_k|)||_2, e_j = max_k |c_kj|: from
    w = 0 a plain step gamma <= 1/L keeps |w_j| <= e_j (a convex combination
    of w_j and a mean of centers), so |a_j (w_j - c_kj)| <= a_j (e_j + |c_kj|).
    ``smoothness`` is max_j a_j.
    """

    def __init__(self, d: int, M: int, seed: int):
        if d < 1 or M < 1:
            raise ValueError("d and M must be >= 1")
        rng = np.random.default_rng(seed)
        self.d = d
        self.M = M
        self.curvatures = rng.uniform(0.2, 1.0, size=d)
        self.centers = rng.normal(0.0, 1.0, size=(M, d))
        reach = self.curvatures * (np.max(np.abs(self.centers), axis=0) + np.abs(self.centers))
        self.grad_bound = float(np.max(np.linalg.norm(reach, axis=1)))
        self.smoothness = float(np.max(self.curvatures))

    def loss(self, w: np.ndarray) -> float:
        diff = w[None, :] - self.centers
        return float(0.5 * np.mean(np.sum(self.curvatures * diff * diff, axis=1)))

    def device_gradients(self, w: np.ndarray, devices) -> np.ndarray:
        return self.curvatures * (w[None, :] - self.centers[np.asarray(devices)])


class LogisticRegressionTask:
    """Binary logistic regression on synthetic per-device datasets.

    Features are Gaussian with unit-norm rows in expectation; labels come
    from a shared ground-truth separator, so devices are statistically
    identical but hold disjoint samples.  An L2 term keeps the problem
    strongly convex.
    """

    def __init__(self, d: int, M: int, samples_per_device: int = 25,
                 seed: int = 0, l2: float = 0.05):
        if d < 1 or M < 1 or samples_per_device < 1:
            raise ValueError("d, M and samples_per_device must be >= 1")
        if l2 < 0.0:
            raise ValueError("l2 must be >= 0")
        rng = np.random.default_rng(seed)
        self.d = d
        self.M = M
        self.l2 = l2
        self.n_per = samples_per_device
        # unit-variance logits regardless of d: |w_true| ~ 2/sqrt(d) per coord
        self.w_true = rng.normal(0.0, 2.0, size=d) / np.sqrt(d)
        self.X = rng.normal(0.0, 1.0, size=(M, samples_per_device, d))
        logits = self.X @ self.w_true
        self.y = (rng.random(logits.shape) < _sigmoid(logits)).astype(np.float64)
        gram_top = max(
            float(np.linalg.eigvalsh(x.T @ x / samples_per_device)[-1]) for x in self.X
        )
        # l2 bound: |resid| <= 1, so ||X_k^T resid|| / S <= sigma_max(X_k) / sqrt(S)
        # <= sqrt(gram_top); the l2 term assumes the iterates keep ||w|| <= 3 ||w_true||
        self.grad_bound = float(np.sqrt(gram_top)) + self.l2 * 3.0 * float(np.linalg.norm(self.w_true))
        self.smoothness = 0.25 * gram_top + self.l2

    def loss(self, w: np.ndarray) -> float:
        logits = self.X @ w
        # stable log(1 + exp(z)) - y*z
        ce = np.logaddexp(0.0, logits) - self.y * logits
        # ce.mean() without its wrapper chain: the same sum and division
        return float(np.add.reduce(ce, axis=None) / ce.size) + 0.5 * self.l2 * float(w @ w)

    def device_gradients(self, w: np.ndarray, devices) -> np.ndarray:
        ks = np.asarray(devices)
        X = self.X[ks]
        resid = _sigmoid(X @ w) - self.y[ks]
        return np.einsum("kij,ki->kj", X, resid) / self.n_per + self.l2 * w[None, :]
