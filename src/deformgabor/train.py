"""Optimizers, the finite-difference gradient harness, and the training loop.

Mask parameters (names ending `.masks`) train under their own learning
rate; every other parameter, including the offset predictor, uses the
filter rate. Runs are bitwise reproducible: one seed determines
initialization, shuffling, and augmentation, and all reductions are
ordered.

Training steps and validation run the model on passes of PASS_BAGS bags
of equal shape (`Model.forward_batch`), not one bag at a time: a bag
costs a few hundred small numpy calls whatever its size, and a pass
shares them among its bags. Larger passes still run faster per bag,
but a step's peak memory grows with its pass: four bags per pass keep
a 16-bag step's peak within 4x a one-bag step's
(`test_pass_working_set_stays_small`), where passes of 8 or 16 would
not. The model returns per-bag gradients and they are added in bag
order into zeroed accumulators, so a step's loss and gradients equal
those of a bag-by-bag loop bit for bit.

`grad_check` composes the two finite-difference primitives the tests use
too, `fd_grad` and `rel_err`; a non-finite loss or gradient reads as a
NaN error, which no tolerance passes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .data import AugmentConfig, augment
from .metrics import auc
from .mil import class_weights, weighted_mil_loss
from .model import Model, save_checkpoint

__all__ = [
    "OptimizerConfig",
    "NumericsError",
    "sgd_step",
    "adam_step",
    "fd_grad",
    "rel_err",
    "grad_check",
    "gradcheck_problem",
    "batch_loss_and_grads",
    "evaluate",
    "train_model",
]


# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class NumericsError(FloatingPointError):
    """Loss or gradients went non-finite during training."""


@dataclass
class OptimizerConfig:
    kind: str = "adam"            # "adam" or "sgd_momentum"
    lr_masks: float = 1e-4
    lr_filters: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 0.0
    epochs: int = 50
    batch_size: int = 16
    lr_decay_every: int = 100     # adam: multiply rates by lr_decay_factor this often
    lr_decay_factor: float = 0.1
    plateau_patience: int = 10    # sgd: decay after this many epochs without val improvement
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.lr_decay_every < 1:
            raise ValueError(f"lr_decay_every must be >= 1, got {self.lr_decay_every}")
        if self.plateau_patience < 1:
            raise ValueError(f"plateau_patience must be >= 1, got {self.plateau_patience}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ValueError(f"lr_decay_factor must lie in (0, 1], got {self.lr_decay_factor}")
        if self.lr_masks < 0:
            raise ValueError("mask learning rate must be >= 0")
        if self.lr_filters <= 0:
            raise ValueError("filter learning rate must be > 0")
        if self.kind not in ("adam", "sgd_momentum"):
            raise ValueError(f"unknown optimizer {self.kind!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _lr(name: str, cfg: OptimizerConfig) -> float:
    return cfg.lr_masks if name.split(".")[-1] == "masks" else cfg.lr_filters


def sgd_step(params: dict, grads: dict, state: dict, cfg: OptimizerConfig,
             lr_scale: float = 1.0) -> None:
    """In-place momentum step: v <- mu v + g; theta <- theta - lr v - lr wd theta."""
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} mismatches {name} {p.shape}")
        v = state.setdefault(name, np.zeros_like(p))
        v *= cfg.momentum
        v += g
        lr = _lr(name, cfg) * lr_scale
        p -= lr * v + lr * cfg.weight_decay * p


def adam_step(params: dict, grads: dict, state: dict, cfg: OptimizerConfig,
              lr_scale: float = 1.0) -> None:
    """In-place bias-corrected Adam; weight decay enters as an L2 gradient term."""
    t = state.get("t", 0) + 1
    state["t"] = t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} mismatches {name} {p.shape}")
        if cfg.weight_decay:
            g = g + cfg.weight_decay * p
        m = state.setdefault(f"{name}.m", np.zeros_like(p))
        v = state.setdefault(f"{name}.v", np.zeros_like(p))
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        mhat = m / (1 - ADAM_BETA1 ** t)
        vhat = v / (1 - ADAM_BETA2 ** t)
        p -= _lr(name, cfg) * lr_scale * mhat / (np.sqrt(vhat) + ADAM_EPS)


def optimizer_step(params, grads, state, cfg: OptimizerConfig, lr_scale: float = 1.0) -> None:
    if cfg.kind == "adam":
        adam_step(params, grads, state, cfg, lr_scale)
    else:
        sgd_step(params, grads, state, cfg, lr_scale)


# ---------------------------------------------------------------------------
# Gradient verification.
# ---------------------------------------------------------------------------

def fd_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of the scalar f() with respect to the array x.

    Entry by entry, x is moved up by eps, then down, and restored; f reads
    x itself. x must be C-contiguous: a flat view of any other layout is a
    copy, the moves would never reach f, and every difference would be 0.
    """
    if not isinstance(x, np.ndarray) or not x.flags.c_contiguous:
        raise ValueError("fd_grad perturbs x in place and needs a C-contiguous array")
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f()
        flat[i] = orig - eps
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return g


def rel_err(a, b, floor: float = 1e-8) -> float:
    """Largest |a - b| / max(|a|, |b|, floor) over the entries of two equal-shape arrays.

    NaN when any entry is not finite, so a non-finite gradient never passes.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"rel_err compares equal shapes, got {a.shape} and {b.shape}")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def grad_check(loss_and_grads, loss_only, params: dict, eps: float = 1e-5) -> dict:
    """Central finite differences against analytic gradients, per parameter block.

    `loss_and_grads()` returns (loss, grads dict) at the current parameter
    values; `loss_only()` just the loss. Parameters are perturbed in place
    and restored (`fd_grad`). Returns {name: max relative error (`rel_err`)},
    NaN where a loss or gradient is not finite; never raises on
    disagreement, only reports.
    """
    _, analytic = loss_and_grads()
    return {name: rel_err(analytic[name], fd_grad(loss_only, p, eps))
            for name, p in params.items()}


def gradcheck_problem(model_cfg, seed: int = 0, image_size: int = 8, mode: str = "exact"):
    """Instance for verifying a whole model's gradients by finite differences.

    Finite differences resolve a gradient entry only when it clears the
    roundoff floor of the loss, so the instance avoids degenerate operating
    points: offsets sit at fractional coordinates, offset weights and the
    head are non-zero, inputs are scaled up, and the loss mixes a positive
    and a negative bag. Returns (model, loss_and_grads, loss_only); each
    call runs both bags as one pass (`Model.forward_batch`) and adds their
    losses and gradients in bag order, so the results equal those of two
    single-image forwards bit for bit.

    That does not make every seed well conditioned. On the `gradcheck`
    command's default model, seeds 8, 15, 23, 44, 57, 63, 75, 83, 98 and
    100 of 0-119 exceed its 1e-4 tolerance on `block1.offset_weight`.
    Seeds 75 and 100 are bilinear kinks: a block1 tap sits 9.3e-6 and
    1.05e-5 from an integer coordinate, within reach of the 1e-5 step, and
    their errors fall as the step shrinks. Seed 75 fails worst (2.8e-2,
    and also on `block1.offset_bias` and `block0.weight`). The other eight
    are roundoff: every tap sits at least 3.6e-4 from an integer, their
    errors grow as the step shrinks, and the failing entries checked are
    gradients of only 9e-8 to 5.4e-7, on which central differences at
    1e-5 carry an absolute roundoff of 2e-11 to 3e-10. Seed 205 is
    another kink, with a tap 9.7e-6 from an integer.
    """
    rng = np.random.default_rng(seed)
    model = Model(model_cfg, rng)
    r2 = np.random.default_rng([seed, 17])
    for name, p in model.params.items():
        if name.endswith("offset_bias"):
            p[:] = r2.uniform(0.15, 0.35, size=p.shape)
        elif name.endswith("offset_weight"):
            p[:] = 0.1 * r2.standard_normal(p.shape)
        elif name == "head.w":
            p[:] = 2.0 * r2.standard_normal(p.shape)
    images = 3.0 * rng.random((2, model_cfg.in_channels, image_size, image_size))
    if model_cfg.task == "mil":
        labels = [1, 0]
        weights = {0: 2.0, 1: 3.0}
    else:
        labels = [[1] + [0] * (model_cfg.n_labels - 1),
                  [0] * (model_cfg.n_labels - 1) + [1]]
        weights = None

    def loss_and_grads(mode=mode):
        acc = {k: np.zeros_like(v) for k, v in model.params.items()}
        total = 0.0
        for loss in _add_pass(model, images, labels, weights, mode, acc):
            total += loss
        return total, acc

    def loss_only():
        probs, _ = model.forward_batch(images, keep_cache=False)
        return sum(_bag_loss(p, y, weights)[0] for p, y in zip(probs, labels))

    return model, loss_and_grads, loss_only


# ---------------------------------------------------------------------------
# Batched loss/gradients and evaluation.
# ---------------------------------------------------------------------------

PASS_BAGS = 4  # bags per forward/backward pass (see the module docstring)


def _passes(order, images):
    """Split the bag indices `order` into runs of at most PASS_BAGS equal-shape bags."""
    run = []
    for i in order:
        if run and (len(run) == PASS_BAGS or np.shape(images[i]) != np.shape(images[run[0]])):
            yield run
            run = []
        run.append(i)
    if run:
        yield run


def _bag_loss(probs, y, weights):
    """(loss, d loss / d patch probabilities) of one bag."""
    loss, grads_p = weighted_mil_loss([(probs, y)], weights)
    return loss, grads_p[0]


def _add_pass(model: Model, images, labels, weights, mode: str, acc: dict):
    """Run one pass and add its bags' gradients into acc in bag order; returns their losses."""
    probs, cache = model.forward_batch(np.stack(images))
    losses, grads_p = zip(*(_bag_loss(p, y, weights) for p, y in zip(probs, labels)))
    for name, per_bag in model.backward_batch(cache, grads_p, mode=mode).items():
        for g in per_bag:
            acc[name] += g
    return losses


def batch_loss_and_grads(model: Model, images, labels, weights, mode: str = "exact"):
    """Mean loss and mean parameter gradients over a batch of bags.

    Runs the batch as passes of up to PASS_BAGS bags and sums losses and
    gradients in bag order.
    """
    n = len(images)
    total = 0.0
    acc = {name: np.zeros_like(p) for name, p in model.params.items()}
    for run in _passes(range(n), images):
        for loss in _add_pass(model, [images[i] for i in run], [labels[i] for i in run],
                              weights, mode, acc):
            total += loss
    for g in acc.values():
        g /= n
    return total / n, acc


def evaluate(model: Model, bags, weights=None):
    """Bag-level scores, labels, and mean loss over a dataset.

    Scores are bag maxima: [n] for the single-label task, [n, C] per-class
    maxima for the multi-label one. The loss is `weighted_mil_loss` with
    weights, unit weights when None. Bags of equal shape are scored in
    forward-only passes of up to PASS_BAGS.
    """
    images = [img for img, _ in bags]
    by_shape: dict[tuple, list] = {}
    for i, img in enumerate(images):
        by_shape.setdefault(np.shape(img), []).append(i)
    scores = [None] * len(bags)
    losses = [0.0] * len(bags)
    for run in _passes([i for group in by_shape.values() for i in group], images):
        probs, _ = model.forward_batch(np.stack([images[i] for i in run]), keep_cache=False)
        for i, p in zip(run, probs):
            scores[i] = p.p.max(axis=-1)
            losses[i] = _bag_loss(p, bags[i][1], weights)[0]
    total = 0.0
    for loss in losses:  # in bag order; the built-in sum compensates from Python 3.12 on
        total += loss
    return np.asarray(scores), np.asarray([y for _, y in bags]), total / max(len(bags), 1)


def train_model(model: Model, train_bags, val_bags, cfg: OptimizerConfig,
                out_dir: str | None = None, mode: str = "exact",
                augment_cfg: AugmentConfig | None = None):
    """Deterministic training run; returns the per-epoch history.

    Writes `train_log.csv`, `initial.ckpt`, `best.ckpt` (by validation AUC)
    and `last.ckpt` under out_dir when given. Adam decays both rates by
    lr_decay_factor every lr_decay_every epochs; SGD decays on a validation
    plateau. Raises NumericsError if the loss goes non-finite.
    """
    weights = class_weights([y for _, y in train_bags])

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(os.path.join(out_dir, "initial.ckpt"), model)

    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    state: dict = {}
    lr_scale = 1.0
    best_val_auc = -1.0
    best_val_loss = np.inf
    plateau = 0
    history = []

    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(train_bags))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch_idx = order[start:start + cfg.batch_size]
            images = []
            labels = []
            for j in batch_idx:
                img, y = train_bags[j]
                if augment_cfg is not None:
                    img = augment(img, augment_cfg,
                                  seed=np.random.SeedSequence([cfg.seed, 2, epoch, int(j)]))
                images.append(img)
                labels.append(y)
            loss, grads = batch_loss_and_grads(model, images, labels, weights, mode=mode)
            if not np.isfinite(loss):
                raise NumericsError(f"non-finite training loss at epoch {epoch}")
            epoch_loss += loss * len(batch_idx)
            optimizer_step(model.params, grads, state, cfg, lr_scale)
        train_loss = epoch_loss / len(train_bags)

        val_scores, val_labels, val_loss = evaluate(model, val_bags, weights)
        # mean over label channels: columns of [n, C], or the one row of [n]
        val_auc = float(np.mean([auc(s, y) for s, y in zip(np.atleast_2d(val_scores.T),
                                                            np.atleast_2d(val_labels.T))]))
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "val_loss": val_loss, "val_auc": val_auc})

        if cfg.kind == "adam":
            if (epoch + 1) % cfg.lr_decay_every == 0:
                lr_scale *= cfg.lr_decay_factor
        else:
            if val_loss < best_val_loss - 1e-12:
                best_val_loss = val_loss
                plateau = 0
            else:
                plateau += 1
                if plateau >= cfg.plateau_patience:
                    lr_scale *= cfg.lr_decay_factor
                    plateau = 0

        if out_dir is not None and val_auc > best_val_auc:
            save_checkpoint(os.path.join(out_dir, "best.ckpt"), model)
        best_val_auc = max(best_val_auc, val_auc)

    if out_dir is not None:
        if cfg.epochs > 0:
            save_checkpoint(os.path.join(out_dir, "last.ckpt"), model)
        with open(os.path.join(out_dir, "train_log.csv"), "w") as fh:
            fh.write("epoch,train_loss,val_loss,val_auc\n")
            for row in history:
                fh.write(f"{row['epoch']},{float(row['train_loss'])!r},"
                         f"{float(row['val_loss'])!r},{float(row['val_auc'])!r}\n")
    return history
