"""Circular smooth labels at 1-degree granularity and the multi-scale cell grid.

A pose angle is encoded as a 180-bin soft label: the bin at the rounded angle
is exactly 1 and neighbors within a window fall off as a Gaussian, with
distances wrapping at the 180-degree period. The grid covers a square input
with strides 8/16/32; a 640 px input yields 80^2 + 40^2 + 20^2 = 8400 cells.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DecodeError
from .frames import px_to_mm
from .geometry import normalize_angle

CSL_BINS = 180
DEFAULT_WINDOW_RADIUS = 6.0
DEFAULT_SIGMA = 4.0
DEFAULT_STRIDES = (8, 16, 32)


def csl_encode(theta_deg: float, window_radius: float = DEFAULT_WINDOW_RADIUS,
               sigma: float = DEFAULT_SIGMA) -> np.ndarray:
    """Encode an angle as a 180-bin circular smooth label.

    Bins within ``window_radius`` of the peak get exp(-d^2 / (2 sigma^2)) where
    d is the circular bin distance (period 180); everything else is exactly 0.
    """
    if not (1 <= window_radius < 90):
        raise ConfigError(f"window_radius must be in [1, 90), got {window_radius}")
    if not (sigma > 0):
        raise ConfigError(f"sigma must be > 0, got {sigma}")
    theta = normalize_angle(theta_deg)
    peak = int(round(theta)) % CSL_BINS
    bins = np.zeros(CSL_BINS)
    radius = int(window_radius)
    offsets = np.arange(-radius, radius + 1)
    bins[(peak + offsets) % CSL_BINS] = np.exp(-(offsets.astype(float) ** 2) / (2.0 * sigma ** 2))
    return bins


def csl_decode(bins: np.ndarray) -> float:
    """Angle in degrees from a label vector: argmax bin, ties to the smallest index."""
    bins = np.asarray(bins, dtype=float)
    if bins.shape != (CSL_BINS,):
        raise DecodeError(f"expected {CSL_BINS} bins, got shape {bins.shape}")
    if not np.all(np.isfinite(bins)):
        raise DecodeError("label vector contains non-finite bins")
    if np.max(bins) <= 0.0:
        raise DecodeError("cannot decode an all-zero label vector")
    return float(np.argmax(bins))


@dataclass(frozen=True)
class RegionGrid:
    """Flattened multi-scale cell grid, enumerated level-major then row-major."""

    input_size: int
    strides: tuple
    level: np.ndarray      # (n,) index into strides
    stride: np.ndarray     # (n,) stride in px
    row: np.ndarray        # (n,)
    col: np.ndarray        # (n,)
    center_x_px: np.ndarray
    center_y_px: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.level.shape[0]

    def centers_mm(self, scale_mm_per_px: float, cells=slice(None)) -> np.ndarray:
        """Centers of the indexed cells (default all) in the physical frame
        (origin at image center), (n, 2)."""
        x, y = px_to_mm(self.center_x_px[cells] - 0.5, self.center_y_px[cells] - 0.5,
                        scale_mm_per_px, self.input_size * scale_mm_per_px)
        return np.stack([x, y], axis=1)

    def strides_mm(self, scale_mm_per_px: float) -> np.ndarray:
        return self.stride * scale_mm_per_px


def build_region_grid(input_size: int, strides=DEFAULT_STRIDES) -> RegionGrid:
    """Enumerate prediction cells for a square input divisible by every stride."""
    strides = tuple(int(s) for s in strides)
    if input_size <= 0 or any(input_size % s != 0 for s in strides):
        raise ConfigError(
            f"input_size {input_size} is not divisible by strides {strides}")
    level_l, stride_l, row_l, col_l, cx_l, cy_l = [], [], [], [], [], []
    for li, s in enumerate(strides):
        side = input_size // s
        rows, cols = np.divmod(np.arange(side * side), side)
        level_l.append(np.full(side * side, li))
        stride_l.append(np.full(side * side, s))
        row_l.append(rows)
        col_l.append(cols)
        cx_l.append((cols + 0.5) * s)
        cy_l.append((rows + 0.5) * s)
    return RegionGrid(
        input_size=input_size,
        strides=strides,
        level=np.concatenate(level_l),
        stride=np.concatenate(stride_l).astype(float),
        row=np.concatenate(row_l),
        col=np.concatenate(col_l),
        center_x_px=np.concatenate(cx_l).astype(float),
        center_y_px=np.concatenate(cy_l).astype(float),
    )
