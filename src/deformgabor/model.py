"""Small image-classification stacks built from the layer primitives.

A model is a sequence of blocks (plain convolution for the low stages,
deformable Gabor convolution for the high stages, each followed by ReLU
and 2x2 average pooling) topped by a shared logistic patch head. All
convolutions run stride 1 with "same" padding; pooling does the
downsampling, so a W-pixel input yields a (W / 2^blocks) patch grid.

Widths are per-orientation channel counts for the Gabor blocks: a Gabor
block of width M costs the same filter parameters as a plain block of
width M*sqrt(U). `matched_plain_config` uses that rule, then pads the
final width until the plain baseline's total parameter count reaches
the Gabor model's, so robustness comparisons never favor the smaller
model.

Parameters live in a flat name -> array dict; names ending in `.masks`
are the modulation masks (they get their own learning rate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import layer as dg
from .gabor import GaborBank, make_bank
from .mil import head_backward, patch_probs
from .tensor import as_tensor, conv2d, conv2d_backward, load_container, save_container

__all__ = [
    "ModelConfig",
    "Model",
    "ShapeMismatchError",
    "matched_plain_config",
    "param_table",
    "total_params",
    "save_checkpoint",
    "load_checkpoint",
]


class ShapeMismatchError(ValueError):
    """Checkpoint or input shapes do not match the configured model."""


@dataclass(frozen=True)
class ModelConfig:
    widths: tuple = (4, 8)
    plain_blocks: int = 1          # the first k stages stay plain convolutions
    in_channels: int = 1
    U: int = 4
    V: int = 2
    H: int = 3
    sigma: float | None = None
    lam: float | None = None
    task: str = "mil"              # "mil" or "miml"
    n_labels: int = 1

    def __post_init__(self):
        if not 0 <= self.plain_blocks <= len(self.widths):
            raise ValueError("plain_blocks must be between 0 and the number of stages")
        if self.task not in ("mil", "miml"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.H < 3 or self.H % 2 == 0:
            raise ValueError(f"kernel_size must be odd and >= 3, got {self.H}")
        if self.U < 1 or self.V < 1:
            raise ValueError(f"orientations and mask_count must be >= 1, got U={self.U}, V={self.V}")
        if self.in_channels < 1:
            raise ValueError(f"in_channels must be >= 1, got {self.in_channels}")
        if self.n_labels < 1:
            raise ValueError(f"n_labels must be >= 1, got {self.n_labels}")
        if self.task == "mil" and self.n_labels != 1:
            raise ValueError(f"task mil has one label, so n_labels must be 1, got {self.n_labels}")
        for key, value in (("sigma", self.sigma), ("lambda", self.lam)):
            if value is not None and not value > 0:
                raise ValueError(f"{key} must be > 0 or auto, got {value}")

    @property
    def n_blocks(self) -> int:
        return len(self.widths)

    def block_kind(self, i: int) -> str:
        return "plain" if i < self.plain_blocks else "gabor"

    def head_channels(self) -> int:
        last = self.widths[-1]
        return last if self.block_kind(self.n_blocks - 1) == "plain" else last * self.U

    def head_shape(self) -> tuple:
        """Shape of head.w: [C] for the single-label task, [n_labels, C] for the multi-label one."""
        c_feat = self.head_channels()
        return (c_feat,) if self.task == "mil" else (self.n_labels, c_feat)


def _avgpool2(x):
    h, w = x.shape[-2:]
    if h % 2 or w % 2:
        raise ShapeMismatchError(f"2x2 pooling needs even spatial dims, got {(h, w)}")
    return 0.25 * (x[..., 0::2, 0::2] + x[..., 0::2, 1::2]
                   + x[..., 1::2, 0::2] + x[..., 1::2, 1::2])


def _avgpool2_backward(grad, in_shape):
    out = np.zeros(in_shape)
    for dy in (0, 1):
        for dx in (0, 1):
            out[..., dy::2, dx::2] = 0.25 * grad
    return out


class Model:
    """Configured stack with explicit forward/backward and a flat parameter dict."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.bank: GaborBank | None = None
        if cfg.plain_blocks < cfg.n_blocks:
            self.bank = make_bank(cfg.U, cfg.H, cfg.sigma, cfg.lam)
        self.params: dict[str, np.ndarray] = {}
        self.dg_params: dict[int, dg.DGConvParams] = {}

        cin = cfg.in_channels
        for i, width in enumerate(cfg.widths):
            if cfg.block_kind(i) == "plain":
                bound = math.sqrt(1.0 / (cin * cfg.H * cfg.H))
                w = rng.uniform(-bound, bound, size=(width, cin, cfg.H, cfg.H))
                self.params[f"block{i}.weight"] = w
                cin = width
            else:
                shape = dg.LayerShape(U=cfg.U, V=cfg.V, H=cfg.H, N=cin, M=width,
                                      N0=cin, M0=width)
                p = dg.init_params(rng, shape, self.bank)
                self.dg_params[i] = p
                self.params[f"block{i}.conv_filters"] = p.conv_filters
                self.params[f"block{i}.masks"] = p.masks
                self.params[f"block{i}.offset_weight"] = p.offset_pred.weight
                self.params[f"block{i}.offset_bias"] = p.offset_pred.bias
                cin = width

        self.params["head.w"] = 0.01 * rng.standard_normal(cfg.head_shape())
        self.params["head.b"] = np.zeros(cfg.n_labels)

    def forward(self, image: np.ndarray):
        """image: [in_channels, W, W] -> (PatchProbabilities, cache for backward).

        The B = 1 case of `forward_batch`.
        """
        x = as_tensor(image)
        if x.shape[0] != self.cfg.in_channels:
            raise ShapeMismatchError(f"expected {self.cfg.in_channels} input channels, got {x.shape[0]}")
        probs, cache = self.forward_batch(x[None])
        return probs[0], cache

    def forward_batch(self, images: np.ndarray, keep_cache: bool = True):
        """images: [B, in_channels, W, W] -> (B PatchProbabilities, cache for backward).

        Bag b's probabilities equal `forward(images[b])` bit for bit. With
        keep_cache=False no block keeps its backward state and the cache is None.
        """
        cfg = self.cfg
        x = as_tensor(images)
        if x.ndim != 4 or x.shape[1] != cfg.in_channels:
            raise ShapeMismatchError(
                f"expected a batch [B, {cfg.in_channels}, W, W], got shape {x.shape}")
        pad = (cfg.H - 1) // 2
        caches = []
        for i in range(cfg.n_blocks):
            if cfg.block_kind(i) == "plain":
                w = self.params[f"block{i}.weight"]
                pre = conv2d(x, w, stride=1, pad=pad)
                block_cache = x
            else:
                # A block entering the oriented part of the stack gets the plain
                # [B, N, h, w] maps, which all U orientations read; the layer returns
                # [B, U, M, h, w] either way.
                pre, block_cache = dg.dgconv_forward_batch(x, self.dg_params[i], stride=1, pad=pad)
            x = _avgpool2(np.maximum(pre, 0.0))
            if keep_cache:
                caches.append((i, block_cache, pre))
        feat = x.reshape(x.shape[0], -1, x.shape[-2], x.shape[-1])  # [B, U*M, h, w] if oriented
        probs = patch_probs(feat, self.params["head.w"], self.params["head.b"])
        return probs, ((caches, feat, probs) if keep_cache else None)

    def backward(self, cache, grad_p: np.ndarray, mode: str = "exact") -> dict:
        """Gradients for every parameter given d(loss)/d(patch probabilities).

        The B = 1 case of `backward_batch`.
        """
        return {name: g[0] for name, g in self.backward_batch(cache, [grad_p], mode).items()}

    def backward_batch(self, cache, grad_ps, mode: str = "exact") -> dict:
        """Per-bag gradients {name: [B, *param.shape]} given each bag's d(loss)/d(probs).

        Bag b's slice equals `backward` on that bag alone; summing over bags
        is the caller's. Block 0's input gradient, the gradient with respect
        to the images, is never formed.
        """
        caches, feat, probs = cache
        grad_w, grad_b, g = head_backward(grad_ps, feat, self.params["head.w"], probs)
        grads = {"head.w": grad_w, "head.b": grad_b}
        pad = (self.cfg.H - 1) // 2
        for i, block_cache, pre in reversed(caches):
            if g.ndim < pre.ndim:  # arrived flattened from the head
                g = g.reshape(pre.shape[:2] + (-1,) + g.shape[-2:])
            g = _avgpool2_backward(g, pre.shape)
            g = g * (pre > 0)
            if self.cfg.block_kind(i) == "plain":
                g, gw = conv2d_backward(g, block_cache, self.params[f"block{i}.weight"],
                                        stride=1, pad=pad, need_input=i > 0)
                grads[f"block{i}.weight"] = gw
            else:
                block_grads = dg.dgconv_backward_batch(g, block_cache, mode=mode,
                                                       need_input=i > 0)
                for name in ("conv_filters", "masks", "offset_weight", "offset_bias"):
                    grads[f"block{i}.{name}"] = block_grads[name]
                g = block_grads["input"]
        return grads


# ---------------------------------------------------------------------------
# Parameter accounting and the matched plain baseline.
# ---------------------------------------------------------------------------

def param_table(cfg: ModelConfig) -> list:
    """Per-block parameter breakdown rows: (name, kind, dict of counts)."""
    rows = []
    cin = cfg.in_channels
    hh = cfg.H * cfg.H
    for i, width in enumerate(cfg.widths):
        if cfg.block_kind(i) == "plain":
            rows.append((f"block{i}", "plain", {"filters": width * cin * hh}))
        else:
            shape = dg.LayerShape(U=cfg.U, V=cfg.V, H=cfg.H, N=cin, M=width, N0=cin, M0=width)
            rows.append((f"block{i}", "gabor", dg.param_count(shape)))
        cin = width
    rows.append(("head", "head", {"filters": math.prod(cfg.head_shape()), "bias": cfg.n_labels}))
    return rows


def total_params(cfg: ModelConfig) -> int:
    return sum(sum(counts.values()) for _, _, counts in param_table(cfg))


def matched_plain_config(cfg: ModelConfig) -> ModelConfig:
    """Plain-convolution baseline sized to at least the Gabor model's total parameters.

    Gabor-stage widths are scaled by sqrt(U) (the filter-matching rule), then
    the last width grows until the totals cross, compensating the mask and
    offset parameters the plain stack does not have.
    """
    root = math.sqrt(cfg.U)
    widths = [w if cfg.block_kind(i) == "plain" else max(1, round(w * root))
              for i, w in enumerate(cfg.widths)]
    target = total_params(cfg)
    plain = replace(cfg, widths=tuple(widths), plain_blocks=len(widths))
    while total_params(plain) < target:
        widths[-1] += 1
        plain = replace(cfg, widths=tuple(widths), plain_blocks=len(widths))
    return plain


# ---------------------------------------------------------------------------
# Checkpoints: named tensor sections in the binary container.
# ---------------------------------------------------------------------------

def _bank_config(bank: GaborBank) -> np.ndarray:
    return np.array([bank.U, bank.H, bank.sigma, bank.lam])


def _describe_bank(config) -> str:
    u, h, sigma, lam = config
    return f"U={u:g}, H={h:g}, sigma={sigma:g}, lambda={lam:g}"


def save_checkpoint(path, model: Model) -> None:
    sections = dict(model.params)
    if model.bank is not None:
        sections["bank.filters"] = model.bank.filters
        sections["bank.config"] = _bank_config(model.bank)
    save_container(path, sections)


def load_checkpoint(path, model: Model) -> None:
    """Copy saved parameters into an already-configured model, strict on shapes.

    A file that cannot be opened as a container, or whose Gabor bank differs
    from the model's (U, H, sigma and lambda exactly, the filters to 1e-12,
    which allows for a different libm), raises ShapeMismatchError like a
    missing or misshapen parameter. Nothing is copied unless all checks pass.
    """
    try:
        sections = load_container(path)
    except (OSError, ValueError) as exc:
        raise ShapeMismatchError(f"cannot read checkpoint {path}: {exc}") from None
    for name, arr in model.params.items():
        if name not in sections:
            raise ShapeMismatchError(f"checkpoint is missing parameter {name!r}")
        if sections[name].shape != arr.shape:
            raise ShapeMismatchError(
                f"checkpoint {name!r} has shape {sections[name].shape}, model wants {arr.shape}")
    if model.bank is not None:
        want = _bank_config(model.bank)
        config = sections.get("bank.config")
        filters = sections.get("bank.filters")
        if config is None or filters is None:
            raise ShapeMismatchError("checkpoint has no Gabor bank, the model has one "
                                     f"({_describe_bank(want)})")
        if (config.shape != want.shape or not np.array_equal(config, want)
                or filters.shape != model.bank.filters.shape
                or not np.allclose(filters, model.bank.filters, rtol=0.0, atol=1e-12)):
            saved = _describe_bank(config) if config.shape == want.shape else "unreadable"
            raise ShapeMismatchError(f"checkpoint Gabor bank ({saved}) does not match "
                                     f"the model's ({_describe_bank(want)})")
    for name, arr in model.params.items():
        arr[...] = sections[name]
