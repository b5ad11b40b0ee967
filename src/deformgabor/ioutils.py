"""Small-format image output: ASCII PGM grids for inspection."""

from __future__ import annotations

import numpy as np

__all__ = ["save_pgm", "upscale_nearest"]


def save_pgm(path, a: np.ndarray, lo: float | None = None, hi: float | None = None) -> None:
    """Write a 2-D array as ASCII PGM, mapping [lo, hi] to [0, 255].

    Defaults map the array's own min/max; a flat array becomes mid-gray.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"PGM wants a 2-D array, got shape {a.shape}")
    lo = float(a.min()) if lo is None else float(lo)
    hi = float(a.max()) if hi is None else float(hi)
    if hi <= lo:
        pix = np.full(a.shape, 128, dtype=np.int64)
    else:
        pix = np.clip(np.rint((a - lo) / (hi - lo) * 255.0), 0, 255).astype(np.int64)
    lines = [f"P2\n{a.shape[1]} {a.shape[0]}\n255\n"]
    for row in pix:
        lines.append(" ".join(str(v) for v in row) + "\n")
    with open(path, "w") as fh:
        fh.writelines(lines)


def upscale_nearest(a: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbor upscale of a 2-D grid, for viewable heatmaps."""
    if factor < 1:
        raise ValueError("upscale factor must be >= 1")
    return np.repeat(np.repeat(a, factor, axis=0), factor, axis=1)
