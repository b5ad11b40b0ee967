"""Deformable convolution: offset prediction, bilinear sampling, gradients.

A deformable convolution reads each kernel tap at a displaced, fractional
location and interpolates bilinearly. Reads outside the (virtually
zero-padded) input contribute zero, which keeps both the forward map and
its gradients well defined everywhere.

Offset fields are plain arrays of shape [2*H*H, Ho, Wo]: the first H*H
channels are dy displacements per tap, the next H*H are dx. One field is
shared by all input and output channels.

At exactly-integer sampling coordinates the bilinear kernel is not
differentiable; the floor-based corner weights below give the right
derivative there, and gradient checks stay away from integer points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import as_tensor, conv2d, _out_size

__all__ = [
    "OffsetPredictor",
    "zero_predictor",
    "predict_offsets",
    "bilinear_sample",
    "sample_grid",
    "sample_values",
    "sample_backward",
    "deform_conv_forward",
    "deform_conv_backward",
]


@dataclass
class OffsetPredictor:
    """Convolution that maps input features to a per-position offset field."""

    weight: np.ndarray  # [2*H*H, Cin, H, H]
    bias: np.ndarray    # [2*H*H]

    def __post_init__(self):
        h = self.weight.shape[2]
        if self.weight.shape[3] != h or self.weight.shape[0] != 2 * h * h:
            raise ValueError(
                f"offset predictor must emit exactly 2*H*H channels, got weight {self.weight.shape}"
            )
        if self.bias.shape != (2 * h * h,):
            raise ValueError(f"offset bias must have shape ({2 * h * h},)")


def zero_predictor(cin: int, H: int) -> OffsetPredictor:
    """Zero-initialized predictor: a fresh layer starts exactly non-deformable."""
    return OffsetPredictor(weight=np.zeros((2 * H * H, cin, H, H)), bias=np.zeros(2 * H * H))


def predict_offsets(x: np.ndarray, pred: OffsetPredictor, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Offset field on the same spatial grid as the main convolution output."""
    out = conv2d(x, pred.weight, stride=stride, pad=pad)
    return out + pred.bias[:, None, None]


# ---------------------------------------------------------------------------
# Bilinear sampling over a stack of planes at shared fractional coordinates.
# ---------------------------------------------------------------------------

@dataclass
class _SampleCache:
    """Corner bookkeeping for a batch of bilinear reads, kept for backward."""

    y0: np.ndarray  # floor row index, clipped into range
    x0: np.ndarray
    y1: np.ndarray
    x1: np.ndarray
    fy: np.ndarray  # fractional parts
    fx: np.ndarray
    m00: np.ndarray  # 1.0 where the corner is a real pixel, else 0.0
    m01: np.ndarray
    m10: np.ndarray
    m11: np.ndarray
    v00: np.ndarray  # corner values per plane, already masked to zero outside
    v01: np.ndarray
    v10: np.ndarray
    v11: np.ndarray
    plane_shape: tuple


def _gather(planes: np.ndarray, yy: np.ndarray, xx: np.ndarray) -> _SampleCache:
    hi, wi = planes.shape[-2:]
    y0f = np.floor(yy)
    x0f = np.floor(xx)
    fy = yy - y0f
    fx = xx - x0f
    y0 = y0f.astype(np.int64)
    x0 = x0f.astype(np.int64)
    y1 = y0 + 1
    x1 = x0 + 1

    def inside(y, x):
        return ((y >= 0) & (y < hi) & (x >= 0) & (x < wi)).astype(np.float64)

    m00, m01, m10, m11 = inside(y0, x0), inside(y0, x1), inside(y1, x0), inside(y1, x1)
    y0c = np.clip(y0, 0, hi - 1)
    x0c = np.clip(x0, 0, wi - 1)
    y1c = np.clip(y1, 0, hi - 1)
    x1c = np.clip(x1, 0, wi - 1)
    v00 = planes[..., y0c, x0c] * m00
    v01 = planes[..., y0c, x1c] * m01
    v10 = planes[..., y1c, x0c] * m10
    v11 = planes[..., y1c, x1c] * m11
    return _SampleCache(y0c, x0c, y1c, x1c, fy, fx, m00, m01, m10, m11,
                        v00, v01, v10, v11, (hi, wi))


def _interp(c: _SampleCache) -> np.ndarray:
    return ((1 - c.fy) * (1 - c.fx) * c.v00 + (1 - c.fy) * c.fx * c.v01
            + c.fy * (1 - c.fx) * c.v10 + c.fy * c.fx * c.v11)


def bilinear_sample(plane: np.ndarray, y: float, x: float) -> float:
    """Interpolated read of a single plane at fractional (y, x); zero outside."""
    plane = as_tensor(plane)
    c = _gather(plane, np.asarray(float(y)), np.asarray(float(x)))
    return float(_interp(c))


# ---------------------------------------------------------------------------
# Deformable convolution proper.
# ---------------------------------------------------------------------------

def _tap_coords(H: int, offsets: np.ndarray, stride: int, pad: int):
    hh = H * H
    if offsets.shape[0] != 2 * hh:
        raise ValueError(f"offset field needs {2 * hh} channels, got {offsets.shape[0]}")
    ho, wo = offsets.shape[1], offsets.shape[2]
    k = np.arange(hh) // H
    l = np.arange(hh) % H
    base_y = (np.arange(ho) * stride - pad)[None, :, None] + k[:, None, None]
    base_x = (np.arange(wo) * stride - pad)[None, None, :] + l[:, None, None]
    yy = base_y + offsets[:hh]
    xx = base_x + offsets[hh:]
    return yy, xx


def sample_grid(x: np.ndarray, offsets: np.ndarray, H: int,
                stride: int = 1, pad: int = 0) -> _SampleCache:
    """Bilinear-read every kernel tap of every output position at once.

    Returns the corner cache; `sample_values` yields the [Cin, H*H, Ho, Wo]
    tensor of interpolated reads, and `sample_backward` routes gradients to
    the input planes and the offset field.
    """
    x = as_tensor(x)
    yy, xx = _tap_coords(H, offsets, stride, pad)
    return _gather(x, yy, xx)


def sample_values(cache: _SampleCache) -> np.ndarray:
    return _interp(cache)


def sample_backward(cache: _SampleCache, grad_samples: np.ndarray):
    """Gradients of the sampled values: returns (grad_input, grad_offsets).

    grad_samples: [Cin, H*H, Ho, Wo]. The offset gradient uses the
    piecewise-linear corner weights (slopes +/-1 between neighbors).
    """
    c = cache
    hi, wi = c.plane_shape
    cin = grad_samples.shape[0]

    dvdy = (1 - c.fx) * (c.v10 - c.v00) + c.fx * (c.v11 - c.v01)
    dvdx = (1 - c.fy) * (c.v01 - c.v00) + c.fy * (c.v11 - c.v10)
    # one offset field serves every plane: reduce over the plane axis
    grad_offsets = np.concatenate([(grad_samples * dvdy).sum(axis=0),
                                   (grad_samples * dvdx).sum(axis=0)], axis=0)

    grad_input_flat = np.zeros(cin * hi * wi)
    chan = (np.arange(cin) * (hi * wi))[:, None]
    for w_c, m_c, yc, xc in (
        ((1 - c.fy) * (1 - c.fx), c.m00, c.y0, c.x0),
        ((1 - c.fy) * c.fx, c.m01, c.y0, c.x1),
        (c.fy * (1 - c.fx), c.m10, c.y1, c.x0),
        (c.fy * c.fx, c.m11, c.y1, c.x1),
    ):
        vals = grad_samples * (w_c * m_c)
        idx = chan + (yc * wi + xc).reshape(-1)[None, :]
        grad_input_flat += np.bincount(
            idx.reshape(cin, -1).ravel(),
            weights=vals.reshape(cin, -1).ravel(),
            minlength=cin * hi * wi,
        )
    return grad_input_flat.reshape(cin, hi, wi), grad_offsets


def deform_conv_forward(x: np.ndarray, w: np.ndarray, offsets: np.ndarray,
                        stride: int = 1, pad: int = 0) -> np.ndarray:
    """Deformable cross-correlation: each tap reads input at its displaced location.

    x: [Cin, Hi, Wi], w: [Cout, Cin, H, H], offsets: [2*H*H, Ho, Wo] with
    (Ho, Wo) matching the plain convolution output grid. With an all-zero
    offset field this equals conv2d_naive(x, w, stride, pad).
    """
    x = as_tensor(x)
    w = as_tensor(w)
    cout, cin, H, H2 = w.shape
    if H != H2:
        raise ValueError("deformable kernels must be square")
    if cin != x.shape[0]:
        raise ValueError(f"input has {x.shape[0]} channels but weight expects {cin}")
    ho = _out_size(x.shape[1], H, stride, pad)
    wo = _out_size(x.shape[2], H, stride, pad)
    if offsets.shape[1:] != (ho, wo):
        raise ValueError(f"offset grid {offsets.shape[1:]} does not match output grid {(ho, wo)}")
    cache = sample_grid(x, offsets, H, stride, pad)
    v = sample_values(cache)
    return np.einsum("cnhw,ocn->ohw", v, w.reshape(cout, cin, H * H), optimize=True)


def deform_conv_backward(grad_out: np.ndarray, x: np.ndarray, w: np.ndarray,
                         offsets: np.ndarray, stride: int = 1, pad: int = 0):
    """Exact gradients of deform_conv_forward: (grad_input, grad_weight, grad_offsets)."""
    grad_out = as_tensor(grad_out)
    x = as_tensor(x)
    w = as_tensor(w)
    cout, cin, H, _ = w.shape
    cache = sample_grid(x, offsets, H, stride, pad)
    v = sample_values(cache)
    w2 = w.reshape(cout, cin, H * H)
    grad_w = np.einsum("ohw,cnhw->ocn", grad_out, v, optimize=True).reshape(w.shape)
    grad_samples = np.einsum("ocn,ohw->cnhw", w2, grad_out, optimize=True)
    grad_x, grad_offsets = sample_backward(cache, grad_samples)
    return grad_x, grad_w, grad_offsets
