"""Weakly supervised bag classification heads and losses.

An image is a bag of patch instances: a shared logistic head scores
every patch, the bag probability is the maximum patch probability, and
the cross-entropy loss backpropagates only through each bag's argmax
patch (ties broken by lowest flat index, so gradients are reproducible).
The multi-label variant runs one independent max-pooled problem per
label channel. Class-frequency weights correct label imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ioutils import save_pgm, upscale_nearest
from .tensor import as_tensor, dump_csv

__all__ = [
    "MILHead",
    "PatchProbabilities",
    "sigmoid",
    "patch_probs",
    "head_backward",
    "bag_prob",
    "mil_loss",
    "class_weights",
    "weighted_mil_loss",
    "miml_class_weights",
    "miml_loss",
    "save_heatmap",
]

PROB_EPS = 1e-12  # probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before log


@dataclass
class MILHead:
    """Logistic weights shared across patch positions.

    w is [C_feat] for the single-label task or [C_labels, C_feat] for the
    multi-label task; b is a scalar or [C_labels] to match.
    """

    w: np.ndarray
    b: np.ndarray | float


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


def patch_probs(features: np.ndarray, head: MILHead):
    """Score every patch: p_ij = sigmoid(w . F[:, i, j] + b), flattened row-major.

    features: a batch [B, C_feat, rows, cols] of bags; returns a list of B
    PatchProbabilities, scored with one einsum and one sigmoid for the
    whole batch. A bag's probabilities do not depend on the other bags in
    its batch, bit for bit; one bag is scored as `patch_probs(f[None], head)[0]`.
    """
    features = as_tensor(features)
    w = as_tensor(head.w)
    if features.ndim != 4:
        raise ValueError(f"features must be a batch [B, C, rows, cols], got {features.shape}")
    n_bags, c_feat, rows, cols = features.shape
    if w.shape[-1] != c_feat:
        raise ValueError(f"head expects {w.shape[-1]} feature channels, got {c_feat}")
    if w.ndim == 1:
        z = np.einsum("c,bcrk->brk", w, features) + float(np.asarray(head.b))
        p = sigmoid(z).reshape(n_bags, -1)
    else:
        z = (np.einsum("lc,bcrk->blrk", w, features)
             + np.asarray(head.b, dtype=np.float64)[:, None, None])
        p = sigmoid(z).reshape(n_bags, w.shape[0], -1)
    return [PatchProbabilities(p=pb, grid=(rows, cols)) for pb in p]


def head_backward(grad_p: np.ndarray, features: np.ndarray, head: MILHead,
                  probs: PatchProbabilities):
    """Backprop through the sigmoid head: returns (grad_w, grad_b, grad_features)."""
    features = as_tensor(features)
    rows, cols = probs.grid
    w = as_tensor(head.w)
    if w.ndim == 1:
        gz = (grad_p * probs.p * (1.0 - probs.p)).reshape(rows, cols)
        grad_w = np.einsum("rk,crk->c", gz, features)
        grad_b = float(gz.sum())
        grad_f = w[:, None, None] * gz[None]
    else:
        gz = (grad_p * probs.p * (1.0 - probs.p)).reshape(w.shape[0], rows, cols)
        grad_w = np.einsum("lrk,crk->lc", gz, features)
        grad_b = gz.sum(axis=(1, 2))
        grad_f = np.einsum("lc,lrk->crk", w, gz)
    return grad_w, grad_b, grad_f


def bag_prob(probs: PatchProbabilities) -> float:
    """Bag-level positive probability: the maximum patch probability."""
    p = np.asarray(probs.p)
    if p.size == 0:
        raise ValueError("empty bag has no probability")
    return float(p.max())


def _bag_term(p: np.ndarray, y: int, weight: float):
    """Loss term and patch gradient for one bag (or one label channel of one bag)."""
    k = int(np.argmax(p))  # ties: lowest flat index
    pm = min(max(float(p[k]), PROB_EPS), 1.0 - PROB_EPS)
    grad = np.zeros_like(p)
    if y == 1:
        loss = -weight * np.log(pm)
        grad[k] = -weight / pm
    else:
        loss = -weight * np.log(1.0 - pm)
        grad[k] = weight / (1.0 - pm)
    return loss, grad


def mil_loss(bags):
    """Cross-entropy over bag maxima: bags is a sequence of (PatchProbabilities, y).

    Returns (loss, grads) where grads[i] matches bags[i]'s patch vector and
    is nonzero only at the argmax patch.
    """
    return weighted_mil_loss(bags, {0: 1.0, 1: 1.0})


def class_weights(labels) -> dict:
    """Inverse-frequency weights w(c) = N / count(c); both classes must appear."""
    labels = np.asarray(labels)
    n = labels.size
    out = {}
    for c in (0, 1):
        cnt = int(np.sum(labels == c))
        if cnt == 0:
            raise ValueError(f"class {c} never occurs; weights undefined")
        out[c] = n / cnt
    return out


def weighted_mil_loss(bags, weights):
    """mil_loss with each bag's term scaled by weights[y]."""
    if len(bags) == 0:
        raise ValueError("need at least one bag")
    total = 0.0
    grads = []
    for probs, y in bags:
        loss, grad = _bag_term(np.asarray(probs.p), int(y), float(weights[int(y)]))
        total += loss
        grads.append(grad)
    return total, grads


def miml_class_weights(label_matrix: np.ndarray) -> np.ndarray:
    """Per-label inverse-frequency weights: returns [C, 2] with weights[c, y]."""
    labels = np.asarray(label_matrix)
    n, c = labels.shape
    out = np.empty((c, 2))
    for ci in range(c):
        for y in (0, 1):
            cnt = int(np.sum(labels[:, ci] == y))
            if cnt == 0:
                raise ValueError(f"label {ci} is never {y}; weights undefined")
            out[ci, y] = n / cnt
    return out


def miml_loss(bags, weights: np.ndarray | None = None):
    """Multi-label bag loss: one independent max-pooled problem per label channel.

    bags is a sequence of (PatchProbabilities with p [C, K], label vector [C]);
    weights, if given, is [C, 2] indexed by (label channel, class). Returns
    (loss, grads) with grads[i] of shape [C, K], one nonzero patch per channel.
    """
    if len(bags) == 0:
        raise ValueError("need at least one bag")
    total = 0.0
    grads = []
    for probs, yvec in bags:
        p = np.asarray(probs.p)
        if p.ndim != 2:
            raise ValueError("multi-label bags need per-channel patch probabilities [C, K]")
        yvec = np.asarray(yvec).astype(int)
        grad = np.zeros_like(p)
        for c in range(p.shape[0]):
            w = 1.0 if weights is None else float(weights[c, yvec[c]])
            loss_c, grad_c = _bag_term(p[c], int(yvec[c]), w)
            total += loss_c
            grad[c] = grad_c
        grads.append(grad)
    return total, grads


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
