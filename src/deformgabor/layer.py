"""The deformable Gabor convolution layer.

One layer owns M*N*U learnable square filters, V learnable modulation
masks, and an offset-predicting convolution; it shares an immutable
orientation bank with every other layer. The forward pass runs in two
stages:

  1. deformable stage: the input's U orientation slices are flattened
     into N*U channels, offsets are predicted from them, and each of the
     V mask-modulated filter sets produces one intermediate map per
     output channel. A layer entering the oriented part of a stack takes
     a shared 3-D [N, Hi, Wi] map that every orientation reads: as all U
     slices would be identical, the filters and the offset predictor's
     weights are summed over u and only the N planes are gathered, which
     equals running on U copies up to roundoff;
  2. Gabor stage: the V intermediate maps are combined by a plain
     "same"-padded convolution with the mask-modulated orientation
     filters, restoring U orientation slices.

Stage 1 is an im2col contraction: the sampled taps already form the
column matrix, and one matrix product with the modulated filters, rows
ordered (m, v), gives the intermediate maps as [M, V, Ho, Wo]. Stage 2
is `tensor.conv2d` (and `tensor.conv2d_backward`) with every output
channel m of every bag as one batch entry of V planes.

`dgconv_forward_batch`/`dgconv_backward_batch` run the layer on a batch
of bags, [B, U, N, Hi, Wi] or a shared [B, N, Hi, Wi], with one offset
field per bag; the weight-only products (stage-1 weights, modulated
Gabor filters) are formed once per batch. Each contraction is one
matrix product per bag (per bag and output channel in stage 2) on the
operands that bag alone would give, and the parameter gradients come
back per bag, [B, *param.shape], for the caller to sum in its own
order. `dgconv_forward`/`dgconv_backward` run one image as a batch of
one; the cache between them keeps the bag axis.

Backward supports two modes. `exact` is the true gradient of the
composed map (the masks receive contributions through both stages, and
the offset branch feeds the input gradient). `paper` replaces the mask
and filter gradients with the approximate update directions

    dS = (dL/dGhat summed over orientations) o (sum_u G_u)
    dC = (dL/dDhat summed over masks)        o (sum_v S_v)

which ignore the masks' deformable-path term; offset and input
gradients stay exact in both modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deform import (OffsetPredictor, predict_offsets, sample_backward,
                     sample_grid, sample_values, zero_predictor)
from .gabor import GaborBank
# The Gabor stage calls `tensor.conv2d`/`tensor.conv2d_backward` through the
# module, so the bare name `conv2d_backward` here is the offset branch's alone:
# a probe that patches `layer.conv2d_backward` sees that branch and nothing else.
from . import tensor
from .tensor import as_tensor, conv2d_backward

__all__ = [
    "LayerShape",
    "DGConvParams",
    "init_params",
    "expand_orientation",
    "modulate_conv",
    "modulate_gabor",
    "dgconv_forward",
    "dgconv_forward_batch",
    "dgconv_backward",
    "dgconv_backward_batch",
    "param_count",
]


@dataclass(frozen=True)
class LayerShape:
    """Channel bookkeeping for one layer.

    N and M are per-orientation input/output channel counts; N0 and M0 are
    the plain-convolution reference widths they were derived from (equal to
    N, M when the layer was sized directly).
    """

    U: int
    V: int
    H: int
    N: int
    M: int
    N0: int
    M0: int

    def __post_init__(self):
        if min(self.U, self.V, self.H, self.N, self.M) < 1:
            raise ValueError("all layer dimensions must be >= 1")
        if self.H % 2 == 0:
            raise ValueError("kernel side must be odd")

    @classmethod
    def from_reference(cls, N0: int, M0: int, U: int, V: int, H: int) -> "LayerShape":
        """Size the layer so filter parameters match a plain conv of widths N0, M0.

        Divides both widths by sqrt(U) (rounded), which cancels the U-fold
        filter replication.
        """
        root = math.sqrt(U)
        return cls(U=U, V=V, H=H, N=max(1, round(N0 / root)), M=max(1, round(M0 / root)),
                   N0=N0, M0=M0)


@dataclass
class DGConvParams:
    """Learnable state of one layer plus its shared orientation bank."""

    conv_filters: np.ndarray  # C: [M, N, U, H, H]
    masks: np.ndarray         # S: [V, H, H]
    offset_pred: OffsetPredictor
    gabor: GaborBank

    def scalar_counts(self) -> dict:
        """Actual learnable scalar counts, for cross-checking param_count."""
        return {
            "filters": self.conv_filters.size,
            "masks": self.masks.size,
            "offset": self.offset_pred.weight.size,
            "offset_bias": self.offset_pred.bias.size,
        }


def init_params(rng: np.random.Generator, shape: LayerShape, bank: GaborBank) -> DGConvParams:
    """Fresh layer: fan-in uniform filters, identity masks, zero offsets.

    With masks at one and a zero offset predictor the first forward pass is
    exactly a non-deformable Gabor-modulated convolution.
    """
    if bank.U != shape.U or bank.H != shape.H:
        raise ValueError(f"bank (U={bank.U}, H={bank.H}) does not match layer shape {shape}")
    bound = math.sqrt(1.0 / (shape.N * shape.U * shape.H * shape.H))
    filters = rng.uniform(-bound, bound, size=(shape.M, shape.N, shape.U, shape.H, shape.H))
    return DGConvParams(
        conv_filters=filters,
        masks=np.ones((shape.V, shape.H, shape.H)),
        offset_pred=zero_predictor(shape.N * shape.U, shape.H),
        gabor=bank,
    )


def expand_orientation(x: np.ndarray, U: int) -> np.ndarray:
    """Duplicate an [N, Hi, Wi] feature map into U orientation slices."""
    if U < 1:
        raise ValueError("need at least one orientation slice")
    x = as_tensor(x)
    return np.repeat(x[None], U, axis=0)


def modulate_conv(C: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Elementwise filter modulation: Dhat[m,n,u,v] = C[m,n,u] o S[v]."""
    C = as_tensor(C)
    S = as_tensor(S)
    if C.shape[-2:] != S.shape[-2:]:
        raise ValueError(f"filter side {C.shape[-2:]} differs from mask side {S.shape[-2:]}")
    return C[:, :, :, None] * S[None, None, None]


def modulate_gabor(bank: GaborBank, S: np.ndarray) -> np.ndarray:
    """Adaptive orientation filters: Ghat[v,u] = S[v] o G[u]."""
    S = as_tensor(S)
    if bank.H != S.shape[-1]:
        raise ValueError(f"bank side {bank.H} differs from mask side {S.shape[-1]}")
    return S[:, None] * bank.filters[None]


@dataclass
class DGConvCache:
    """What backward needs of a forward pass.

    The arrays carry a leading bag axis, which e folds with the output
    channels, also in the B = 1 cache `dgconv_forward` returns.
    """

    params: DGConvParams
    stride: int
    pad: int
    in_shape: tuple           # one bag's input: [U, N, Hi, Wi], or [N, Hi, Wi] if shared
    flat: np.ndarray          # [B, C, Hi, Wi] planes stage 1 reads: C = U*N, or N if shared
    offsets: np.ndarray       # [B, 2*H*H, Ho, Wo]
    samples: object           # bilinear corner cache
    v: np.ndarray             # sampled taps [B, C, H*H, Ho, Wo]
    e: np.ndarray             # intermediate maps, stage 2's input [B*M, V, Ho, Wo]
    out_grid: tuple


def _stage1_weights(p: DGConvParams, shared: bool):
    """Stage 1's weights over its C planes: filters c_flat [M, C, H*H], the
    mask-modulated filters [M*V, C*H*H] with rows in (m, v) order, and the
    offset weights [2*H*H, C, H, H].

    Unshared, C = U*N in u-major order, matching the [U, N] -> U*N input
    flattening. Shared, C = N: every orientation reads the same plane, so
    the U per-orientation weights of a plane add up.
    """
    m, n, u, h, _ = p.conv_filters.shape
    w_off = p.offset_pred.weight
    if shared:
        c_flat = p.conv_filters.sum(axis=2).reshape(m, n, h * h)
        w_off = w_off.reshape(w_off.shape[0], u, n, h, h).sum(axis=1)
    else:
        c_flat = np.ascontiguousarray(
            p.conv_filters.transpose(0, 2, 1, 3, 4)).reshape(m, u * n, h * h)
    w_mod = c_flat[:, None] * p.masks.reshape(-1, 1, h * h)  # [M, V, C, H*H]
    return c_flat, w_mod.reshape(m * w_mod.shape[1], -1), w_off


def dgconv_forward(x: np.ndarray, p: DGConvParams, stride: int = 1, pad: int = 0):
    """Run the two-stage layer on an oriented feature map.

    x: [U, N, Hi, Wi], or a shared [N, Hi, Wi] map that all U orientations
    read. Returns (y, cache) with y: [U, M, Ho, Wo]; the Gabor stage uses
    "same" zero padding so y keeps the deformable stage's grid. This is
    `dgconv_forward_batch` on a batch of one, whose cache it returns.
    """
    x = as_tensor(x)
    if x.ndim not in (3, 4):
        raise ValueError(f"input must be [U, N, Hi, Wi] or [N, Hi, Wi], got shape {x.shape}")
    y, cache = dgconv_forward_batch(x[None], p, stride=stride, pad=pad)
    return y[0], cache


def dgconv_forward_batch(x: np.ndarray, p: DGConvParams, stride: int = 1, pad: int = 0):
    """Run the layer on a batch of bags: x [B, U, N, Hi, Wi] or shared [B, N, Hi, Wi].

    Returns (y, cache) with y: [B, U, M, Ho, Wo]; bag b's slice equals
    `dgconv_forward(x[b], p)` bit for bit.
    """
    x = as_tensor(x)
    m, n_p, u, h, _ = p.conv_filters.shape
    shared = x.ndim == 4
    if shared:
        b, n, hi, wi = x.shape
    elif x.ndim == 5:
        b, u_x, n, hi, wi = x.shape
        if u_x != u:
            raise ValueError(f"input [U={u_x}, N={n}] does not match filters [U={u}, N={n_p}]")
    else:
        raise ValueError(f"batch must be [B, U, N, Hi, Wi] or [B, N, Hi, Wi], got shape {x.shape}")
    if n != n_p:
        raise ValueError(f"input has N={n} channels but filters expect N={n_p}")
    if p.gabor.U != u or p.gabor.H != h:
        raise ValueError("orientation bank does not match the layer")

    flat = x if shared else x.reshape(b, u * n, hi, wi)
    _, w_mod, w_off = _stage1_weights(p, shared)
    offsets = predict_offsets(flat, OffsetPredictor(w_off, p.offset_pred.bias),
                              stride=stride, pad=pad)
    samples = sample_grid(flat, offsets, h, stride=stride, pad=pad)
    vals = sample_values(samples)  # [B, C, H*H, Ho, Wo]
    ho, wo = vals.shape[-2:]

    # deformable stage, all V mask variants at once: [M*V, C*H*H] @ [B, C*H*H, Ho*Wo]
    e = (w_mod @ vals.reshape(b, w_mod.shape[1], ho * wo)).reshape(b * m, -1, ho, wo)

    # Gabor stage: each bag's output channel m is one batch entry of V planes
    ghat = modulate_gabor(p.gabor, p.masks).transpose(1, 0, 2, 3)  # [U, V, H, H]
    y = tensor.conv2d(e, ghat, pad=(h - 1) // 2).reshape(b, m, u, ho, wo)

    cache = DGConvCache(params=p, stride=stride, pad=pad, in_shape=x.shape[1:],
                        flat=flat, offsets=offsets, samples=samples, v=vals,
                        e=e, out_grid=(ho, wo))
    return np.ascontiguousarray(y.transpose(0, 2, 1, 3, 4)), cache


def dgconv_backward(grad_y: np.ndarray, cache: DGConvCache, mode: str = "exact") -> dict:
    """Gradients of the layer given upstream grad_y: [U, M, Ho, Wo].

    Returns {'conv_filters', 'masks', 'offset_weight', 'offset_bias', 'input'};
    'input' has the forward input's shape, so a shared [N, Hi, Wi] input
    gets the sum of the U orientation slices' gradients.
    mode='exact' gives true gradients; mode='paper' swaps the mask and
    filter gradients for the approximate update directions (see module
    docstring) while keeping offsets and input exact. This is
    `dgconv_backward_batch` on a batch of one.
    """
    grads = dgconv_backward_batch(as_tensor(grad_y)[None], cache, mode=mode)
    return {name: g[0] for name, g in grads.items()}


def dgconv_backward_batch(grad_y: np.ndarray, cache: DGConvCache, mode: str = "exact",
                          need_input: bool = True) -> dict:
    """Per-bag gradients of `dgconv_forward_batch` given grad_y: [B, U, M, Ho, Wo].

    Every entry has a leading bag axis: bag b's slice equals
    `dgconv_backward(grad_y[b], ...)` on that bag alone. With
    need_input=False 'input' is None and its two scatters are skipped.
    """
    if mode not in ("exact", "paper"):
        raise ValueError(f"unknown backward mode {mode!r}")
    p = cache.params
    m, n, u, h, _ = p.conv_filters.shape
    v_cnt = p.masks.shape[0]
    ho, wo = cache.out_grid
    b = len(cache.flat)
    grad_y = as_tensor(grad_y)
    if grad_y.shape != (b, u, m, ho, wo):
        raise ValueError(f"grad_y shape {grad_y.shape} does not match cached forward")
    shared = len(cache.in_shape) == 3
    c_flat, w_mod, w_off = _stage1_weights(p, shared)
    cin = c_flat.shape[1]

    g = p.gabor.filters
    s_flat = p.masks.reshape(v_cnt, h * h)

    # Gabor stage on the forward's batch of B*M entries; the filters' gradient sums over m
    ghat = modulate_gabor(p.gabor, p.masks).transpose(1, 0, 2, 3)  # [U, V, H, H]
    grad_e, grad_ghat = tensor.conv2d_backward(
        grad_y.transpose(0, 2, 1, 3, 4).reshape(b * m, u, ho, wo), cache.e, ghat,
        pad=(h - 1) // 2)
    grad_ghat = grad_ghat.reshape(b, m, u, v_cnt, h, h).sum(axis=1)  # [B, U, V, H, H]

    # deformable stage
    grad_e = grad_e.reshape(b, m * v_cnt, ho * wo)
    vals = cache.v.reshape(b, cin * h * h, ho * wo)
    grad_wfull = (grad_e @ vals.transpose(0, 2, 1)).reshape(b, m, v_cnt, cin, h * h)
    grad_samples = (w_mod.T @ grad_e).reshape(b, cin, h * h, ho, wo)
    grad_flat, grad_offsets = sample_backward(cache.samples, grad_samples, need_input)

    # offset branch: predictor parameters plus its contribution to the input
    grad_flat_off, grad_pred_w = conv2d_backward(
        grad_offsets, cache.flat, w_off, stride=cache.stride, pad=cache.pad,
        need_input=need_input)
    grad_pred_b = grad_offsets.sum(axis=(2, 3))
    grad_input = None
    if need_input:
        grad_input = (grad_flat + grad_flat_off).reshape((b,) + tuple(cache.in_shape))

    if mode == "exact":
        grad_c_flat = (grad_wfull * s_flat[:, None]).sum(axis=2)
        grad_s = ((grad_ghat * g[:, None]).sum(axis=1)
                  + (grad_wfull * c_flat[:, None]).sum(axis=(1, 3)).reshape(b, v_cnt, h, h))
    else:
        grad_c_flat = grad_wfull.sum(axis=2) * s_flat.sum(axis=0)
        grad_s = grad_ghat.sum(axis=1) * g.sum(axis=0)

    if shared:  # every orientation's copy of a weight gets the shared plane's gradient
        grad_c = np.repeat(grad_c_flat.reshape(b, m, n, 1, h, h), u, axis=3)
        grad_pred_w = np.tile(grad_pred_w, (1, 1, u, 1, 1))
    else:
        grad_c = np.ascontiguousarray(
            grad_c_flat.reshape(b, m, u, n, h, h).transpose(0, 1, 3, 2, 4, 5))
    return {
        "conv_filters": grad_c,
        "masks": grad_s,
        "offset_weight": grad_pred_w,
        "offset_bias": grad_pred_b,
        "input": grad_input,
    }


def param_count(shape: LayerShape) -> dict:
    """Closed-form learnable scalar counts for one layer.

    filters: M*N*U*H^2, masks: V*H^2, offset: (2*H^2)*(N*U)*H^2, plus the
    offset bias 2*H^2 reported separately.
    """
    hh = shape.H * shape.H
    return {
        "filters": shape.M * shape.N * shape.U * hh,
        "masks": shape.V * hh,
        "offset": 2 * hh * shape.N * shape.U * hh,
        "offset_bias": 2 * hh,
    }
