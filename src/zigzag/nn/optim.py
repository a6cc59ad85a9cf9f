"""The Adam update rule over named tensor dicts.

Adam updates only the keys present in the gradient dict, so a training
phase freezes parameters simply by not computing their gradients.
Non-finite gradients or parameters abort the run instead of silently
corrupting the model.
"""
from __future__ import annotations

import numpy as np


class TrainingDiverged(Exception):
    pass


def _check_finite(name: str, arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise TrainingDiverged(f"non-finite {what} in {name!r}")


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, int] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, g in grads.items():
            _check_finite(name, g, "gradient")
            if name not in self.m:
                self.m[name] = np.zeros_like(params[name])
                self.v[name] = np.zeros_like(params[name])
                self.t[name] = 0
            self.t[name] += 1
            t = self.t[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            mhat = self.m[name] / (1.0 - self.beta1**t)
            vhat = self.v[name] / (1.0 - self.beta2**t)
            params[name] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
            _check_finite(name, params[name], "parameter")
