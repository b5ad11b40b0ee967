"""Dense float64 arrays, reference convolution, and on-disk formats.

Everything in this library moves through plain C-contiguous float64
numpy arrays in channel-first [C, H, W] layout (batches prepend a dim).
Arrays are treated as immutable values once constructed; only optimizer
steps mutate parameters, and they do so explicitly.

`conv2d_naive` is the slow, loop-ordered reference used as an oracle by
the deformable and Gabor paths. `conv2d` is the fast path the layers
actually run: im2col, i.e. the sliding windows copied into a
[Cin*kh*kw, Ho*Wo] column matrix, then one matrix product with the
weights flattened to [Cout, Cin*kh*kw]. Its backward is two more
products with the same columns, and the input gradient's col2im is one
`np.bincount` of the column gradient over a cached flat index.

`conv2d` and `conv2d_backward` take only a batch [B, Cin, Hi, Wi] of
bags; a single image is a batch of one, `x[None]`. The columns keep the
bag axis ([B, Cin*kh*kw, Ho*Wo]), so every product is one matrix
product per bag on exactly the operands that bag alone would give, and
the batch size changes no bit of any result. The weight gradient comes
back per bag, [B, *w.shape]: summing over bags is the caller's, in
whatever order it needs.
"""

from __future__ import annotations

import functools
import math
import os
import struct

import numpy as np

__all__ = [
    "as_tensor",
    "conv2d_naive",
    "conv2d",
    "conv2d_backward",
    "save_container",
    "load_container",
    "dump_csv",
]

_MAGIC = b"DGT1"


def as_tensor(data) -> np.ndarray:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(data, dtype=np.float64)


def _out_size(size: int, k: int, stride: int, pad: int) -> int:
    span = size + 2 * pad - k
    if span < 0 or span % stride != 0:
        raise ValueError(
            f"input size {size} with kernel {k}, stride {stride}, pad {pad} "
            "does not tile to an integral output size"
        )
    return span // stride + 1


def conv2d_naive(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Direct cross-correlation, quadruple loop over output and kernel taps.

    x: [Cin, Hi, Wi], w: [Cout, Cin, kh, kw]. No kernel flip (deep-learning
    convention). Deliberately slow and deterministic: this is the oracle
    the fast paths are checked against.
    """
    x = as_tensor(x)
    w = as_tensor(w)
    cin, hi, wi = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ValueError(f"input has {cin} channels but weight expects {cin_w}")
    ho = _out_size(hi, kh, stride, pad)
    wo = _out_size(wi, kw, stride, pad)
    xp = np.zeros((cin, hi + 2 * pad, wi + 2 * pad))
    xp[:, pad:pad + hi, pad:pad + wi] = x
    out = np.zeros((cout, ho, wo))
    for o in range(cout):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for c in range(cin):
                    patch = xp[c, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    acc += float(np.sum(patch * w[o, c]))
                out[o, i, j] = acc
    return out


def _windows(xp: np.ndarray, kh: int, kw: int, ho: int, wo: int, stride: int = 1) -> np.ndarray:
    """Read-only view [..., kh, kw, Ho, Wo] of the windows over xp's last two axes.

    xp is already padded and owns its C-contiguous buffer; window (i, j)
    starts at (i*stride, j*stride). Built with `np.ndarray` rather than
    `as_strided`, which costs several times more per call.
    """
    sy, sx = xp.strides[-2:]
    view = np.ndarray(xp.shape[:-2] + (kh, kw, ho, wo), xp.dtype, xp, 0,
                      xp.strides[:-2] + (sy, sx, sy * stride, sx * stride))
    view.setflags(write=False)
    return view


def _columns(x: np.ndarray, w: np.ndarray, stride: int, pad: int):
    """im2col per bag: zero-pad and copy the sliding windows of x [B, Cin, Hi, Wi]
    into [B, Cin*kh*kw, Ho*Wo] for the weights w [Cout, Cin, kh, kw]."""
    if x.ndim != 4:
        raise ValueError(f"conv2d input must be a batch [B, C, H, W], got shape {x.shape}")
    b, cin, hi, wi = x.shape
    _, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ValueError(f"input has {cin} channels but weight expects {cin_w}")
    ho = _out_size(hi, kh, stride, pad)
    wo = _out_size(wi, kw, stride, pad)
    xp = np.zeros((b, cin, hi + 2 * pad, wi + 2 * pad))
    xp[:, :, pad:pad + hi, pad:pad + wi] = x
    return _windows(xp, kh, kw, ho, wo, stride).reshape(b, cin * kh * kw, ho * wo), (ho, wo)


def conv2d(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Fast cross-correlation via im2col + one matmul per bag.

    x: [B, Cin, Hi, Wi], w: [Cout, Cin, kh, kw] (bag b gives what
    conv2d_naive(x[b], w) gives); returns [B, Cout, Ho, Wo].
    """
    x = as_tensor(x)
    w = as_tensor(w)
    cols, (ho, wo) = _columns(x, w, stride, pad)
    return (w.reshape(w.shape[0], -1) @ cols).reshape(len(x), w.shape[0], ho, wo)


@functools.lru_cache(maxsize=64)
def _col2im_index(planes: int, hi: int, wi: int, kh: int, kw: int,
                  stride: int, pad: int) -> np.ndarray:
    """Flat pixel of every column entry [planes, kh, kw, Ho, Wo]; read-only, shared.

    Entry (p, k, l, y, x) is tap (k, l) of output position (y, x) on plane
    p, i.e. input pixel (y*stride + k - pad, x*stride + l - pad) of that
    plane, flattened over [planes, Hi, Wi]. Taps that land in the padding
    all go to the one extra bin planes*Hi*Wi, which the caller drops.
    """
    ho = _out_size(hi, kh, stride, pad)
    wo = _out_size(wi, kw, stride, pad)
    rows = (np.arange(kh)[:, None] + stride * np.arange(ho) - pad)[:, None, :, None]
    cols = (np.arange(kw)[:, None] + stride * np.arange(wo) - pad)[None, :, None, :]
    inside = (rows >= 0) & (rows < hi) & (cols >= 0) & (cols < wi)  # [kh, kw, Ho, Wo]
    plane = (np.arange(planes) * (hi * wi))[:, None, None, None, None]
    index = np.where(inside, plane + rows * wi + cols, planes * hi * wi).ravel()
    index.setflags(write=False)
    return index


def conv2d_backward(grad_out: np.ndarray, x: np.ndarray, w: np.ndarray,
                    stride: int = 1, pad: int = 0, need_input: bool = True):
    """Gradients of conv2d: returns (grad_x, grad_w).

    grad_w multiplies the upstream gradient by the forward's columns;
    grad_x maps it back to columns and sums them into the input (col2im)
    with one `np.bincount` over a cached index. The index runs in column
    order, so each pixel adds its taps in (k, l) order starting from
    zero, as a tap-by-tap loop of strided adds would, bit for bit, and
    padding taps land in a bin that is dropped. grad_x is
    [B, Cin, Hi, Wi] like x, and grad_w is per bag,
    [B, Cout, Cin, kh, kw]. With need_input=False grad_x is None and
    neither step runs.
    """
    x = as_tensor(x)
    w = as_tensor(w)
    cout, cin, kh, kw = w.shape
    cols, (ho, wo) = _columns(x, w, stride, pad)
    b, _, hi, wi = x.shape
    g2 = as_tensor(grad_out).reshape(b, cout, ho * wo)
    grad_w = (g2 @ cols.transpose(0, 2, 1)).reshape((b,) + w.shape)
    grad_x = None
    if need_input:
        # tap contribution: grad wrt the window pixel (k,l) of every output position
        gcols = w.reshape(cout, -1).T @ g2  # [B, Cin*kh*kw, Ho*Wo]
        size = b * cin * hi * wi
        index = _col2im_index(b * cin, hi, wi, kh, kw, stride, pad)
        grad_x = np.bincount(index, weights=gcols.ravel(),
                             minlength=size + 1)[:size].reshape(b, cin, hi, wi)
    return grad_x, grad_w


# ---------------------------------------------------------------------------
# Containers, little-endian binary: magic b"DGT1", u32 section count, then
# per section a u16 name length, the UTF-8 name, u32 rank, u32 dims and the
# f64 payload.
# ---------------------------------------------------------------------------

def _write_tensor(fh, a: np.ndarray) -> None:
    a = as_tensor(a)
    fh.write(struct.pack("<I", a.ndim))
    fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
    fh.write(a.astype("<f8").tobytes())


def _read_exact(fh, n: int) -> bytes:
    """Read n bytes, checking first that the file holds them: a length field
    read from a foreign or damaged file can ask for far more than it has."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise ValueError(f"truncated file: wanted {n} bytes, {left} are left")
    return fh.read(n)


def _read_tensor(fh) -> np.ndarray:
    (rank,) = struct.unpack("<I", _read_exact(fh, 4))
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank))
    # Python ints: the product of u32 dims can overflow np.prod's int64
    payload = _read_exact(fh, 8 * math.prod(dims))
    return np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)


def save_container(path, sections: dict) -> None:
    """Write named tensor sections; used for layer and model checkpoints."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(sections)))
        for name, a in sections.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            _write_tensor(fh, a)


def load_container(path) -> dict:
    """Read the named sections back; a truncated or foreign file raises ValueError."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path} is not a tensor container")
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        sections = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(fh, 2))
            name = _read_exact(fh, nlen).decode("utf-8")
            sections[name] = _read_tensor(fh)
        return sections


def dump_csv(path, a: np.ndarray) -> None:
    """Human-readable dump of a 2-D slice."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"csv dump needs a 2-D array, got shape {a.shape}")
    np.savetxt(path, a, delimiter=",", fmt="%.17g")
