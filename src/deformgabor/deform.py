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
field per bag, [B, 2*H*H, Ho, Wo]. A single image runs as a batch of
one: `predict_offsets` reshapes around the batched `conv2d`, and the
sampling functions drop the bag axis again on the way out. The gather
reads a copy of the planes framed by a zero border two pixels wide: each
tap's top-left corner is clipped into the frame while still a float, so
a tap's two rows (and two columns) are both real or both border, and a
read outside the image is a read of the border, with no corner masks and
no integer cast of a far coordinate. Each bag's taps are read with one
flat `np.take` for all four corners, shared by its planes, into one
corner buffer that the interpolation and the offset slopes both read.
Gradients to the planes are scattered back into framed planes with one
`np.bincount` per corner before the frame is cropped, so a bag's result
does not depend on the others in its batch, bit for bit.

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

    A batch x [B, Cin, Hi, Wi] gives one field per bag, [B, 2*H*H, Ho, Wo];
    one image [Cin, Hi, Wi] runs as a batch of one and gives [2*H*H, Ho, Wo].
    """
    x = as_tensor(x)
    out = conv2d(x.reshape((-1,) + x.shape[-3:]), pred.weight, stride=stride, pad=pad)
    return out.reshape(x.shape[:-3] + out.shape[1:]) + pred.bias[:, None, None]


# ---------------------------------------------------------------------------
# Bilinear sampling over a stack of planes at shared fractional coordinates.
# ---------------------------------------------------------------------------

FRAME = 2  # zero border of the framed planes the gather reads, in pixels


@dataclass
class _SampleCache:
    """Corner bookkeeping for a batch of bilinear reads, kept for backward.

    Per-tap arrays are [B, 1, *grid], so they broadcast over the plane
    axis of the corner buffer [B, C, 4, *grid].
    """

    base: np.ndarray     # flat index of the top-left corner in a framed plane
    fy: np.ndarray       # fractional parts
    fx: np.ndarray
    corners: np.ndarray  # [B, C, 4, *grid]: values at corners 00, 01, 10, 11, zero outside
    plane_shape: tuple
    single: bool = False  # built from one unbatched image: results drop the bag axis


def _framed_shape(plane_shape) -> tuple:
    return tuple(n + 2 * FRAME for n in plane_shape)


def _gather(planes: np.ndarray, yy: np.ndarray, xx: np.ndarray) -> _SampleCache:
    """Bilinear corners of planes [B, C, Hi, Wi] at fractional coordinates [B, *grid].

    The corners are read from a copy of the planes inside a zero frame
    FRAME pixels wide. Each tap's top-left corner is clipped into
    [-FRAME, size] while still a float, so a tap's two rows (and two
    columns) are either the true ones or both in the frame, which reads
    zero: no corner needs a mask, and no coordinate, however far out,
    reaches an integer cast.
    """
    b, cin, hi, wi = planes.shape
    hp, wp = _framed_shape((hi, wi))
    grid = yy.shape[1:]
    yy = yy.reshape((b, 1) + grid)
    xx = xx.reshape((b, 1) + grid)
    y0 = np.floor(yy)
    x0 = np.floor(xx)
    fy = yy - y0
    fx = xx - x0
    # np.clip costs far more than these two ufuncs on small arrays
    y0 = np.minimum(np.maximum(y0, -FRAME, out=y0), hi, out=y0)
    x0 = np.minimum(np.maximum(x0, -FRAME, out=x0), wi, out=x0)
    base = ((y0 + FRAME) * wp + (x0 + FRAME)).astype(np.intp)

    framed = np.zeros((b, cin, hp, wp))
    framed[:, :, FRAME:FRAME + hi, FRAME:FRAME + wi] = planes
    # all four corners in one flat take per bag: one index per tap, shared by the planes
    flat_base = base.reshape(b, 1, -1)
    idx = (flat_base + np.array([0, 1, wp, wp + 1])[:, None]).reshape(b, -1)
    flat = framed.reshape(b, cin, hp * wp)
    corners = np.empty((b, cin, 4) + grid)
    taken = corners.reshape(b, cin, idx.shape[1])
    for i in range(b):
        np.take(flat[i], idx[i], axis=1, out=taken[i], mode="clip")
    return _SampleCache(base, fy, fx, corners, (hi, wi))


def _interp(c: _SampleCache) -> np.ndarray:
    """Interpolated reads [B, C, *grid], read from the corner buffer: the
    four bilinear weights are stacked per tap ([B, 4, *grid], shared by
    the planes) and contracted with the buffer in one einsum."""
    fy, fx = c.fy[:, 0], c.fx[:, 0]
    gy, gx = 1 - fy, 1 - fx
    weights = np.stack([gy * gx, gy * fx, fy * gx, fy * fx], axis=1)
    return np.einsum("bk...,bck...->bc...", weights, c.corners)


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
    """[B, 2*H*H, Ho, Wo]: one offset field serves every plane of a bag.

    The slopes are linear in the corner values, so the plane axis is
    reduced first: the upstream gradient and the corner buffer contract
    to four per-tap sums s_k = sum_c g * v_k, and the dy/dx slopes are
    formed on those [B, 4, *grid] sums alone.
    """
    sums = np.einsum("bc...,bck...->bk...", grad_samples, c.corners)
    s00, s01, s10, s11 = (sums[:, k] for k in range(4))
    fy, fx = c.fy[:, 0], c.fx[:, 0]
    return np.concatenate([(1 - fx) * (s10 - s00) + fx * (s11 - s01),
                           (1 - fy) * (s01 - s00) + fy * (s11 - s10)], axis=1)


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
        # scatter into framed planes, one bincount per corner, then crop the frame
        hp, wp = _framed_shape((hi, wi))
        size = b * cin * hp * wp
        grad_framed = np.zeros(size)
        tap = ((np.arange(b * cin) * (hp * wp)).reshape(b, cin, 1)
               + c.base.reshape(b, 1, -1)).ravel()
        for w_c, shift in (
            ((1 - c.fy) * (1 - c.fx), 0),
            ((1 - c.fy) * c.fx, 1),
            (c.fy * (1 - c.fx), wp),
            (c.fy * c.fx, wp + 1),
        ):
            grad_framed += np.bincount(tap + shift, weights=(grad_samples * w_c).ravel(),
                                       minlength=size)
        grad_input = grad_framed.reshape(b, cin, hp, wp)[:, :, FRAME:FRAME + hi,
                                                          FRAME:FRAME + wi]
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
