"""Deformable convolution: offset prediction, bilinear sampling, gradients.

A deformable convolution reads each kernel tap at a displaced, fractional
location and interpolates bilinearly. Reads outside the (virtually
zero-padded) input contribute zero, which keeps both the forward map and
its gradients well defined everywhere.

Offset fields are plain arrays of shape [2*H*H, Ho, Wo]: the first H*H
channels are dy displacements per tap, the next H*H are dx. One field is
shared by all input and output channels.

`predict_offsets`, `sample_grid`, `sample_values` and `sample_backward`
also run on a batch of bags: input [B, Cin, Hi, Wi] with one offset
field per bag, [B, 2*H*H, Ho, Wo]. A single image is the B = 1 case of
the same code. Each bag's taps are read with one flat `np.take` per
corner, shared by its planes, and scattered back with one `np.bincount`
per corner, so a bag's result does not depend on the others in its
batch, bit for bit.

At exactly-integer sampling coordinates the bilinear kernel is not
differentiable; the floor-based corner weights below give the right
derivative there, and gradient checks stay away from integer points.
"""

from __future__ import annotations

import functools
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
    """Offset field on the same spatial grid as the main convolution output.

    x: [Cin, Hi, Wi] gives [2*H*H, Ho, Wo]; a batch [B, Cin, Hi, Wi] gives
    one field per bag, [B, 2*H*H, Ho, Wo].
    """
    out = conv2d(x, pred.weight, stride=stride, pad=pad)
    return out + pred.bias[:, None, None]


# ---------------------------------------------------------------------------
# Bilinear sampling over a stack of planes at shared fractional coordinates.
# ---------------------------------------------------------------------------

@dataclass
class _SampleCache:
    """Corner bookkeeping for a batch of bilinear reads, kept for backward.

    Per-tap arrays are [B, 1, *grid], so they broadcast over the plane
    axis of the corner values [B, C, *grid].
    """

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
    single: bool = False  # built from one unbatched image: results drop the bag axis


def _gather(planes: np.ndarray, yy: np.ndarray, xx: np.ndarray) -> _SampleCache:
    """Bilinear corners of planes [B, C, Hi, Wi] at fractional coordinates [B, *grid]."""
    b, cin, hi, wi = planes.shape
    grid = yy.shape[1:]
    yy = yy.reshape((b, 1) + grid)
    xx = xx.reshape((b, 1) + grid)
    y0f = np.floor(yy)
    x0f = np.floor(xx)
    fy = yy - y0f
    fx = xx - x0f
    y0 = y0f.astype(np.int64)
    x0 = x0f.astype(np.int64)
    y1 = y0 + 1
    x1 = x0 + 1
    # clip into range (np.clip costs far more than these two ufuncs on small
    # arrays); a corner is a real pixel where clipping left it unchanged
    y0c = np.minimum(np.maximum(y0, 0), hi - 1)
    x0c = np.minimum(np.maximum(x0, 0), wi - 1)
    y1c = np.minimum(np.maximum(y1, 0), hi - 1)
    x1c = np.minimum(np.maximum(x1, 0), wi - 1)
    my0 = (y0c == y0).astype(np.float64)
    my1 = (y1c == y1).astype(np.float64)
    mx0 = (x0c == x0).astype(np.float64)
    mx1 = (x1c == x1).astype(np.float64)
    m00, m01, m10, m11 = my0 * mx0, my0 * mx1, my1 * mx0, my1 * mx1

    # all four corners in one flat take per bag: one index per tap, shared by the planes
    row0, row1 = y0c * wi, y1c * wi
    idx = np.concatenate([(row0 + x0c).reshape(b, -1), (row0 + x1c).reshape(b, -1),
                          (row1 + x0c).reshape(b, -1), (row1 + x1c).reshape(b, -1)], axis=1)
    flat = planes.reshape(b, cin, hi * wi)
    corners = np.empty((b, cin, 4) + grid)
    taken = corners.reshape(b, cin, idx.shape[1])
    for i in range(b):
        np.take(flat[i], idx[i], axis=1, out=taken[i], mode="clip")
    v00, v01, v10, v11 = (corners[:, :, k] for k in range(4))  # views of one buffer
    for v, m in ((v00, m00), (v01, m01), (v10, m10), (v11, m11)):
        v *= m
    return _SampleCache(y0c, x0c, y1c, x1c, fy, fx, m00, m01, m10, m11,
                        v00, v01, v10, v11, (hi, wi))


def _interp(c: _SampleCache) -> np.ndarray:
    gy = 1 - c.fy
    gx = 1 - c.fx
    return gy * gx * c.v00 + gy * c.fx * c.v01 + c.fy * gx * c.v10 + c.fy * c.fx * c.v11


def bilinear_sample(plane: np.ndarray, y: float, x: float) -> float:
    """Interpolated read of a single plane at fractional (y, x); zero outside."""
    plane = as_tensor(plane)
    c = _gather(plane[None, None], np.full((1, 1), float(y)), np.full((1, 1), float(x)))
    return float(_interp(c)[0, 0, 0])


# ---------------------------------------------------------------------------
# Deformable convolution proper.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _tap_base(H: int, ho: int, wo: int, stride: int, pad: int):
    """Undisplaced tap rows [H*H, Ho, 1] and columns [H*H, 1, Wo]; read-only, shared."""
    k = np.arange(H * H) // H
    l = np.arange(H * H) % H
    base_y = (np.arange(ho) * stride - pad)[None, :, None] + k[:, None, None]
    base_x = (np.arange(wo) * stride - pad)[None, None, :] + l[:, None, None]
    base_y.setflags(write=False)
    base_x.setflags(write=False)
    return base_y, base_x


def _tap_coords(H: int, offsets: np.ndarray, stride: int, pad: int):
    """Sampling rows and columns [B, H*H, Ho, Wo] of the offset fields [B, 2*H*H, Ho, Wo]."""
    hh = H * H
    if offsets.shape[1] != 2 * hh:
        raise ValueError(f"offset field needs {2 * hh} channels, got {offsets.shape[1]}")
    base_y, base_x = _tap_base(H, offsets.shape[2], offsets.shape[3], stride, pad)
    return base_y + offsets[:, :hh], base_x + offsets[:, hh:]


def sample_grid(x: np.ndarray, offsets: np.ndarray, H: int,
                stride: int = 1, pad: int = 0) -> _SampleCache:
    """Bilinear-read every kernel tap of every output position at once.

    x: [Cin, Hi, Wi] with offsets [2*H*H, Ho, Wo], or a batch
    [B, Cin, Hi, Wi] with one field per bag, [B, 2*H*H, Ho, Wo].
    Returns the corner cache; `sample_values` yields the [Cin, H*H, Ho, Wo]
    tensor of interpolated reads ([B, Cin, H*H, Ho, Wo] for a batch), and
    `sample_backward` routes gradients to the input planes and the offset
    field.
    """
    x = as_tensor(x)
    single = x.ndim == 3
    if single:
        x, offsets = x[None], offsets[None]
    if x.ndim != 4 or offsets.ndim != 4 or len(offsets) != len(x):
        raise ValueError(f"input {x.shape} and offset fields {offsets.shape} "
                         "need one field per bag")
    yy, xx = _tap_coords(H, offsets, stride, pad)
    cache = _gather(x, yy, xx)
    cache.single = single
    return cache


def sample_values(cache: _SampleCache) -> np.ndarray:
    v = _interp(cache)
    return v[0] if cache.single else v


def _offset_grad(c: _SampleCache, grad_samples: np.ndarray) -> np.ndarray:
    """[B, 2*H*H, Ho, Wo]: one offset field serves every plane of a bag, so
    the slopes are reduced over the plane axis."""
    dvdy = (1 - c.fx) * (c.v10 - c.v00) + c.fx * (c.v11 - c.v01)
    dvdx = (1 - c.fy) * (c.v01 - c.v00) + c.fy * (c.v11 - c.v10)
    return np.concatenate([(grad_samples * dvdy).sum(axis=1),
                           (grad_samples * dvdx).sum(axis=1)], axis=1)


def sample_backward(cache: _SampleCache, grad_samples: np.ndarray, need_input: bool = True):
    """Gradients of the sampled values: returns (grad_input, grad_offsets).

    grad_samples has the shape `sample_values` returned. The offset gradient
    uses the piecewise-linear corner weights (slopes +/-1 between
    neighbors). With need_input=False grad_input is None and the scatter
    back to the planes is skipped.
    """
    c = cache
    hi, wi = c.plane_shape
    if c.single:
        grad_samples = grad_samples[None]
    b, cin = grad_samples.shape[:2]
    grad_offsets = _offset_grad(c, grad_samples)
    grad_input = None
    if need_input:
        grad_input_flat = np.zeros(b * cin * hi * wi)
        chan = (np.arange(b * cin) * (hi * wi)).reshape(b, cin, 1)
        for w_c, m_c, yc, xc in (
            ((1 - c.fy) * (1 - c.fx), c.m00, c.y0, c.x0),
            ((1 - c.fy) * c.fx, c.m01, c.y0, c.x1),
            (c.fy * (1 - c.fx), c.m10, c.y1, c.x0),
            (c.fy * c.fx, c.m11, c.y1, c.x1),
        ):
            grad_input_flat += np.bincount((chan + (yc * wi + xc).reshape(b, 1, -1)).ravel(),
                                           weights=(grad_samples * (w_c * m_c)).ravel(),
                                           minlength=b * cin * hi * wi)
        grad_input = grad_input_flat.reshape(b, cin, hi, wi)
    if c.single:
        return (None if grad_input is None else grad_input[0]), grad_offsets[0]
    return grad_input, grad_offsets


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
