"""k-nearest-neighbour regression on standardised features."""

from __future__ import annotations

import numpy as np

from .base import FittedModel, ModelSpec


class KNNModel(FittedModel):
    """Mean of the k nearest training targets (Euclidean distance).

    Distance ties resolve to the lower training-sample index. k larger
    than the training set is clamped, which makes knn with k >= n the
    training-mean predictor.
    """

    kind = "knn"
    _state = {"train_std": ("n", "d"), "targets": ("n",), "k": int}

    def _predict_std(self, Xs):
        k_eff = min(self.k, self.train_std.shape[0])
        diff = Xs[:, None, :] - self.train_std[None, :, :]
        d2 = np.einsum("qnd,qnd->qn", diff, diff)
        order = np.argsort(d2, axis=1, kind="stable")[:, :k_eff]
        return self.targets[order].mean(axis=1)

    def _check_state(self):
        super()._check_state()
        if self.k < 1 or self.targets.size < 1:
            raise ValueError(f"k is {self.k} with {self.targets.size} targets; both must be >= 1")


def fit_knn(spec: ModelSpec, Xs, y, mean, scale, *, k: int) -> KNNModel:
    return KNNModel(spec, mean, scale, Xs.copy(), y.copy(), k)
