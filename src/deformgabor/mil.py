"""Weakly supervised bag classification heads and losses.

An image is a bag of patch instances: a shared logistic head scores
every patch, the bag probability is the maximum patch probability, and
the cross-entropy loss backpropagates only through each bag's argmax
patch (ties broken by lowest flat index, so gradients are reproducible).
Every head, loss and weight runs over label channels: the multi-label
task has one independent max-pooled problem per channel, and the
single-label task is its one-channel case, with a [C_feat] head and [K]
patch vectors viewed as one row. Class-frequency weights correct label
imbalance per channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ioutils import save_pgm, upscale_nearest
from .tensor import as_tensor, dump_csv

__all__ = [
    "PatchProbabilities",
    "sigmoid",
    "patch_probs",
    "head_backward",
    "bag_prob",
    "mil_loss",
    "class_weights",
    "weighted_mil_loss",
    "miml_loss",
    "save_heatmap",
]

PROB_EPS = 1e-12  # probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before log


@dataclass
class PatchProbabilities:
    """Per-patch sigmoid outputs, flattened row-major; grid is (rows, cols)."""

    p: np.ndarray  # [K] or [C_labels, K]
    grid: tuple


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def patch_probs(features: np.ndarray, w: np.ndarray, b):
    """Score every patch: p_lij = sigmoid(w_l . F[:, i, j] + b_l), flattened row-major.

    The logistic head is shared across patch positions: w is [C_labels,
    C_feat], one row per label channel, and the single-label task's [C_feat]
    is one row; b is [C_labels] (a scalar also serves one row). features: a
    batch [B, C_feat, rows, cols] of bags; returns a list of B
    PatchProbabilities, scored with one einsum and one sigmoid for the
    whole batch. Each bag's p is [L, K], or [K] for a 1-D head. A bag's
    probabilities do not depend on the other bags in its batch, bit for
    bit; one bag is scored as `patch_probs(f[None], w, b)[0]`.
    """
    features = as_tensor(features)
    w = as_tensor(w)
    if features.ndim != 4:
        raise ValueError(f"features must be a batch [B, C, rows, cols], got {features.shape}")
    n_bags, c_feat, rows, cols = features.shape
    if w.shape[-1] != c_feat:
        raise ValueError(f"head expects {w.shape[-1]} feature channels, got {c_feat}")
    z = np.einsum("lc,bcrk->blrk", w.reshape(-1, c_feat), features)
    z += np.asarray(b, dtype=np.float64).reshape(-1, 1, 1)
    p = sigmoid(z).reshape((n_bags,) + w.shape[:-1] + (-1,))
    return [PatchProbabilities(p=pb, grid=(rows, cols)) for pb in p]


def head_backward(grad_ps, features: np.ndarray, w: np.ndarray, probs):
    """Backprop a pass through the sigmoid head, per bag.

    grad_ps and probs hold one d(loss)/d(p) and one PatchProbabilities per
    bag of the pass whose features are [B, C_feat, rows, cols]. Returns
    (grad_w [B, *w.shape], grad_b [B, L], grad_features [B, C_feat, rows,
    cols]); bag b's slices equal a one-bag call on that bag, bit for bit.
    """
    features = as_tensor(features)
    w = as_tensor(w)
    rows_w = w.reshape(-1, w.shape[-1])
    p = np.stack([pr.p for pr in probs]).reshape((len(probs), len(rows_w)) + features.shape[-2:])
    gz = np.reshape(grad_ps, p.shape) * p * (1.0 - p)
    grad_w = np.einsum("blrk,bcrk->blc", gz, features).reshape((len(probs),) + w.shape)
    grad_b = gz.sum(axis=(2, 3))
    grad_f = np.einsum("lc,blrk->bcrk", rows_w, gz)
    return grad_w, grad_b, grad_f


def bag_prob(probs: PatchProbabilities) -> float:
    """Bag-level positive probability: the maximum patch probability."""
    p = np.asarray(probs.p)
    if p.size == 0:
        raise ValueError("empty bag has no probability")
    return float(p.max())


def mil_loss(bags):
    """Cross-entropy over bag maxima: bags is a sequence of (PatchProbabilities, y).

    Returns (loss, grads) where grads[i] matches bags[i]'s patch vector and
    is nonzero only at the argmax patch.
    """
    return weighted_mil_loss(bags)


def class_weights(labels) -> np.ndarray:
    """Inverse-frequency weights w[y] = N / count(y), per label channel.

    labels [N] gives [2]; labels [N, L] give [L, 2], indexed (channel, class).
    Every channel must see both classes.
    """
    labels = np.asarray(labels)
    counts = np.stack([np.sum(labels == y, axis=0) for y in (0, 1)], axis=-1)
    if (counts == 0).any():
        channel, y = np.argwhere(counts.reshape(-1, 2) == 0)[0]
        raise ValueError(f"label {channel} is never {y}; weights undefined")
    return len(labels) / counts


def weighted_mil_loss(bags, weights=None):
    """Bag cross-entropy with each label channel's term scaled by weights[channel, y].

    bags is a sequence of (PatchProbabilities, y): p [K] with a label y, or
    p [L, K] with a label vector [L], one independent max-pooled problem per
    channel. weights is `class_weights`' [2] or [L, 2], a {0: w0, 1: w1}
    dict for one channel, or None for unit weights. Returns (loss, grads)
    with grads[i] shaped like bags[i]'s p and nonzero only at each channel's
    argmax patch (ties: lowest index).
    """
    if len(bags) == 0:
        raise ValueError("need at least one bag")
    if isinstance(weights, dict):
        table = ((weights[0], weights[1]),)
    else:
        table = None if weights is None else np.asarray(weights).reshape(-1, 2)
    total = 0.0
    grads = []
    for probs, y in bags:
        p = np.asarray(probs.p)
        channels = p.reshape(-1, p.shape[-1])  # [L, K]; a [K] bag is one channel
        ys = (y,) if np.isscalar(y) else np.reshape(y, -1)
        n_rows = len(channels) if table is None else len(table)
        if not len(ys) == n_rows == len(channels):
            raise ValueError(f"{len(channels)} label channels need as many labels and "
                             f"weight rows, got {len(ys)} and {n_rows}")
        grad = np.zeros_like(channels)
        for c in range(len(channels)):
            yc = int(ys[c])
            weight = 1.0 if table is None else float(table[c][yc])
            k = int(channels[c].argmax())
            pm = min(max(float(channels[c, k]), PROB_EPS), 1.0 - PROB_EPS)
            if yc == 1:
                total += -weight * np.log(pm)
                grad[c, k] = -weight / pm
            else:
                total += -weight * np.log(1.0 - pm)
                grad[c, k] = weight / (1.0 - pm)
        grads.append(grad.reshape(p.shape))
    return total, grads


def miml_loss(bags, weights: np.ndarray | None = None):
    """Multi-label bag loss: `weighted_mil_loss` on bags whose p is [C, K].

    weights, if given, is [C, 2] indexed by (label channel, class). Returns
    (loss, grads) with grads[i] of shape [C, K], one nonzero patch per channel.
    """
    if any(np.ndim(probs.p) != 2 for probs, _ in bags):
        raise ValueError("multi-label bags need per-channel patch probabilities [C, K]")
    return weighted_mil_loss(bags, weights)


def save_heatmap(path_stem: str, probs: PatchProbabilities, channel: int | None = None,
                 upscale: int = 16) -> None:
    """Write one bag's patch-probability grid as CSV plus a viewable PGM.

    Multi-label probabilities need an explicit channel. Probabilities map to
    gray levels on the fixed [0, 1] scale.
    """
    p = np.asarray(probs.p)
    if p.ndim == 2:
        if channel is None:
            raise ValueError("multi-label heatmap needs a channel index")
        p = p[channel]
    grid = p.reshape(probs.grid)
    dump_csv(f"{path_stem}.csv", grid)
    save_pgm(f"{path_stem}.pgm", upscale_nearest(grid, upscale), lo=0.0, hi=1.0)
