"""The Adam update rule over one flat parameter buffer.

On its first step an `Adam` adopts the params dict it is given: it
copies the tensors, in dict order, into one float64 buffer and rebinds
each entry to a reshaped view of that buffer. The moments `m` and `v`
are flat buffers with the same layout. Every later step must pass the
same dict object, so the moment state of one model never mixes with
another's.

Adam updates only the keys present in the gradient dict, so a training
phase freezes parameters simply by not computing their gradients. The
keys of a step fall into runs of tensors that sit next to each other in
the buffer; `init_params` lays out the feature tensors and then the two
heads, so a joint, classifier or feature step of the trainer is one run.
Each run is updated by one vectorized pass over its slice, with the
per-element arithmetic of a per-tensor loop. Each tensor keeps its own
step count, and its bias corrections stay the Python floats
`1.0 - beta**t`.

Non-finite gradients or parameters abort the run instead of silently
corrupting the model. The whole step's gradient is checked before any
tensor moves.
"""
from __future__ import annotations

from itertools import accumulate

import numpy as np


class TrainingDiverged(Exception):
    pass


# tensors first..last-1 of the buffer, at elements lo..hi-1, and their
# names; a plain tuple, since a NamedTuple class adds about 1 ms to import
_Run = tuple[int, int, int, int, tuple[str, ...]]


def _first_non_finite(names: tuple[str, ...], arrays: dict[str, np.ndarray], what: str) -> TrainingDiverged:
    bad = next(n for n in names if not np.isfinite(arrays[n]).all())
    return TrainingDiverged(f"non-finite {what} in {bad!r}")


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._params: dict[str, np.ndarray] | None = None
        self._runs: dict[tuple[str, ...], list[_Run]] = {}

    def _adopt(self, params: dict[str, np.ndarray]) -> None:
        """Move the tensors of `params` into one buffer, rebinding each entry
        to its view, and start every tensor's moments and step count at 0."""
        self._names = list(params)
        self._index = {name: i for i, name in enumerate(self._names)}
        self._sizes = [params[name].size for name in self._names]
        self._offsets = [0, *accumulate(self._sizes)]
        self._flat = np.concatenate(list(params.values()), axis=None, dtype=np.float64)
        for name, lo, hi in zip(self._names, self._offsets, self._offsets[1:]):
            params[name] = self._flat[lo:hi].reshape(params[name].shape)
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._t = [0] * len(self._names)
        self._params = params

    def _plan(self, keys: tuple[str, ...]) -> list[_Run]:
        """The runs of adjacent tensors that the gradient keys cover, in buffer order."""
        spans: list[list[int]] = []
        for i in sorted(self._index[k] for k in keys):
            if spans and spans[-1][1] == i:
                spans[-1][1] = i + 1
            else:
                spans.append([i, i + 1])
        return [(i, j, self._offsets[i], self._offsets[j], tuple(self._names[i:j])) for i, j in spans]

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        if self._params is None:
            self._adopt(params)
        elif params is not self._params:
            raise ValueError("Adam.step got another params dict than the one it adopted on its first step")
        keys = tuple(grads)
        runs = self._runs.get(keys)
        if runs is None:
            runs = self._runs[keys] = self._plan(keys)
        flat_grads = []
        for *_, names in runs:
            g = np.concatenate([grads[n] for n in names], axis=None)
            if not np.isfinite(g).all():
                raise _first_non_finite(names, grads, "gradient")
            flat_grads.append(g)
        for run, g in zip(runs, flat_grads):
            self._update(run, g)

    def _update(self, run: _Run, g: np.ndarray) -> None:
        first, last, lo, hi, names = run
        t = self._t
        for i in range(first, last):
            t[i] += 1
        counts = t[first:last]
        if counts.count(counts[0]) == len(counts):
            c1 = 1.0 - self.beta1 ** counts[0]
            c2 = 1.0 - self.beta2 ** counts[0]
        else:
            # each tensor's own Python-float correction, repeated over its
            # elements; an array power might round differently
            sizes = self._sizes[first:last]
            c1 = np.repeat([1.0 - self.beta1**n for n in counts], sizes)
            c2 = np.repeat([1.0 - self.beta2**n for n in counts], sizes)
        m = self._m[lo:hi]
        v = self._v[lo:hi]
        m[:] = self.beta1 * m + (1.0 - self.beta1) * g
        v[:] = self.beta2 * v + (1.0 - self.beta2) * g * g
        mhat = m / c1
        vhat = v / c2
        p = self._flat[lo:hi]
        p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
        if not np.isfinite(p).all():
            raise _first_non_finite(names, self._params, "parameter")
