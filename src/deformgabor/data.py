"""Synthetic lesion bags and the corruption protocols used to probe robustness.

Real mammogram/x-ray corpora are license-gated, so experiments run on
generated images: a noisy background, plus (for positives) one or more
bright blobs carrying oriented Gabor-like stripes. Ground-truth lesion
geometry is kept for heatmap sanity checks only.

Corruptions mirror the two test-time protocols: random rotate+scale
resampling of whole images, and salt noise that saturates random pixels.
Everything is a pure function of (spec, index, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deform import _gather, _interp
from .tensor import as_tensor

__all__ = [
    "SynthLesionSpec",
    "gen_bag",
    "build_bags",
    "affine_resample",
    "deform_transform",
    "salt_noise",
    "AugmentConfig",
    "augment",
]

STRIPE_WAVELENGTH = 4.0  # pixels, at generation scale


@dataclass(frozen=True)
class SynthLesionSpec:
    """Recipe for one dataset; (spec, index) fully determines an image."""

    image_size: int = 32
    lesion_count: tuple = (1, 2)      # inclusive range, min >= 1
    lesion_radius: tuple = (4.0, 7.0)
    contrast: float = 0.5
    oriented_texture: bool = True
    noise_std: float = 0.1
    positive_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.lesion_count[0] < 1:
            raise ValueError("positive bags must contain at least one lesion")
        if not 0.0 <= self.positive_fraction <= 1.0:
            raise ValueError("positive_fraction must lie in [0, 1]")
        if self.lesion_radius[1] > self.image_size / 2:
            raise ValueError("largest lesion radius must fit inside the image")
        if not self.lesion_radius[0] > 0:
            raise ValueError(f"lesion radius_min must be > 0, got {self.lesion_radius[0]}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")


def gen_bag(spec: SynthLesionSpec, index: int):
    """Generate bag `index`: returns (image [1, W, W], label, lesion truth list).

    Truth entries are (cy, cx, radius, angle); negatives have an empty list.
    """
    rng = np.random.default_rng([spec.seed, int(index)])
    w = spec.image_size
    img = 0.35 + spec.noise_std * rng.standard_normal((w, w))
    label = int(rng.random() < spec.positive_fraction)
    truth = []
    if label == 1:
        yy, xx = np.mgrid[0:w, 0:w].astype(np.float64)
        count = int(rng.integers(spec.lesion_count[0], spec.lesion_count[1] + 1))
        for _ in range(count):
            r = rng.uniform(*spec.lesion_radius)
            cy = rng.uniform(r, w - r)
            cx = rng.uniform(r, w - r)
            ang = rng.uniform(0.0, np.pi)
            d2 = (yy - cy) ** 2 + (xx - cx) ** 2
            env = np.exp(-d2 / (2.0 * (r / 2.0) ** 2))
            if spec.oriented_texture:
                t = (xx - cx) * np.cos(ang) + (yy - cy) * np.sin(ang)
                env = env * (0.5 + 0.5 * np.cos(2.0 * np.pi * t / STRIPE_WAVELENGTH))
            img += spec.contrast * env
            truth.append((cy, cx, r, ang))
    return np.clip(img, 0.0, 1.0)[None], label, truth


def build_bags(spec: SynthLesionSpec, n: int, start_index: int = 0):
    """Materialize n consecutive bags as (image, label) pairs (truth dropped)."""
    bags = []
    for i in range(start_index, start_index + n):
        img, label, _ = gen_bag(spec, i)
        bags.append((img, label))
    return bags


# ---------------------------------------------------------------------------
# Geometric and noise corruptions.
# ---------------------------------------------------------------------------

def affine_resample(image: np.ndarray, scale: float = 1.0, angle: float = 0.0,
                    shift_y: float = 0.0, shift_x: float = 0.0) -> np.ndarray:
    """Rotate-then-scale about the center, then translate; bilinear, zero fill."""
    image = as_tensor(image)
    squeeze = image.ndim == 2
    planes = image[None] if squeeze else image
    h, w = planes.shape[-2:]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    ry = (yy - cy - shift_y) / scale
    rx = (xx - cx - shift_x) / scale
    ca, sa = np.cos(angle), np.sin(angle)
    # inverse rotation by `angle`
    y_in = -rx * sa + ry * ca + cy
    x_in = rx * ca + ry * sa + cx
    out = _interp(_gather(planes[None], y_in[None], x_in[None]))[0]
    return out[0] if squeeze else out


def deform_transform(image: np.ndarray, scale: float, angle: float) -> np.ndarray:
    """The test-time deformation: rotation composed with isotropic scaling."""
    return affine_resample(image, scale=scale, angle=angle)


def salt_noise(image: np.ndarray, prob: float = 0.01, value: float = 1.0,
               seed: int = 0) -> np.ndarray:
    """Saturate each pixel to `value` independently with probability `prob`."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError("prob must lie in [0, 1]")
    image = as_tensor(image)
    rng = np.random.default_rng(seed)
    mask = rng.random(image.shape) < prob
    out = image.copy()
    out[mask] = value
    return out


@dataclass(frozen=True)
class AugmentConfig:
    """Training-time augmentation recipe; all probabilities zero is the identity."""

    flip_prob: float = 0.5
    rotate_prob: float = 1.0
    max_rotate_deg: float = 90.0
    shift_prob: float = 1.0
    shift_frac: float = 0.1
    cutout_prob: float = 1.0
    cutout_frac: float = 50.0 / 224.0  # box side as a fraction of image size


def augment(image: np.ndarray, cfg: AugmentConfig = AugmentConfig(), seed: int = 0) -> np.ndarray:
    """Random horizontal flip, bounded rotation, fractional shift, one zero cutout box."""
    image = as_tensor(image)
    rng = np.random.default_rng(seed)
    out = image
    w = image.shape[-1]
    if rng.random() < cfg.flip_prob:
        out = out[..., ::-1].copy()
    angle = 0.0
    if rng.random() < cfg.rotate_prob:
        angle = np.deg2rad(rng.uniform(-cfg.max_rotate_deg, cfg.max_rotate_deg))
    ty = tx = 0.0
    if rng.random() < cfg.shift_prob:
        ty = rng.uniform(-cfg.shift_frac, cfg.shift_frac) * w
        tx = rng.uniform(-cfg.shift_frac, cfg.shift_frac) * w
    if angle != 0.0 or ty != 0.0 or tx != 0.0:
        out = affine_resample(out, scale=1.0, angle=angle, shift_y=ty, shift_x=tx)
    if rng.random() < cfg.cutout_prob:
        side = max(1, round(cfg.cutout_frac * w))
        top = int(rng.integers(0, out.shape[-2] - side + 1))
        left = int(rng.integers(0, out.shape[-1] - side + 1))
        out = out.copy()
        out[..., top:top + side, left:left + side] = 0.0
    return out
