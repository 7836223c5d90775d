"""Sensor raster geometry: pixel grid, physical frame, and conversions.

The physical frame has its origin at the image center, +x to the right and
+y up. Array element [iy, ix] covers the square patch centered at
``((ix + 0.5) * scale - extent / 2, (iy + 0.5) * scale - extent / 2)`` in mm.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class SensorConfig:
    """Raster size and physical scale of the simulated sensor."""

    input_size: int = 640
    scale_mm_per_px: float = 0.05

    def __post_init__(self):
        if self.input_size <= 0 or self.input_size % 32 != 0:
            raise ConfigError(
                f"input_size must be a positive multiple of 32, got {self.input_size}"
            )
        if not (self.scale_mm_per_px > 0):
            raise ConfigError("scale_mm_per_px must be > 0")

    @property
    def extent_mm(self) -> float:
        """Side length of the active area in mm."""
        return self.input_size * self.scale_mm_per_px

    def params(self) -> dict:
        return {
            "input_size": self.input_size,
            "scale_mm_per_px": self.scale_mm_per_px,
        }


def px_to_mm(ix, iy, scale_mm_per_px: float, extent_mm: float):
    """Convert fractional pixel indices to physical mm coordinates."""
    half = extent_mm / 2.0
    s = scale_mm_per_px
    return (np.asarray(ix) + 0.5) * s - half, (np.asarray(iy) + 0.5) * s - half


def mm_to_px(x, y, scale_mm_per_px: float, extent_mm: float):
    """Convert physical mm coordinates to fractional pixel indices."""
    half = extent_mm / 2.0
    s = scale_mm_per_px
    return (np.asarray(x) + half) / s - 0.5, (np.asarray(y) + half) / s - 0.5


@dataclass(frozen=True)
class PixelWindow:
    """Rows [y0, y1) and columns [x0, x1) of a square raster n pixels wide."""

    y0: int
    y1: int
    x0: int
    x1: int
    n: int

    @classmethod
    def full(cls, n: int) -> "PixelWindow":
        return cls(0, n, 0, n, n)

    @classmethod
    def around(cls, x_mm: float, y_mm: float, half_mm: float,
               sensor: SensorConfig) -> "PixelWindow":
        """Pixels whose centres lie within half_mm of (x_mm, y_mm) along both
        axes, clipped to the raster; a box wholly off the raster keeps the
        nearest edge pixel, and an infinite half_mm gives the whole raster."""
        n = sensor.input_size
        args = (sensor.scale_mm_per_px, sensor.extent_mm)
        lo_x, lo_y = np.clip(mm_to_px(x_mm - half_mm, y_mm - half_mm, *args), 0, n - 1)
        hi_x, hi_y = np.clip(mm_to_px(x_mm + half_mm, y_mm + half_mm, *args), 0, n - 1)
        return cls(math.ceil(lo_y), math.floor(hi_y) + 1,
                   math.ceil(lo_x), math.floor(hi_x) + 1, n)

    def grow(self, k: int) -> "PixelWindow":
        """This window widened by k pixels on every side, clipped to the raster."""
        n = self.n
        return PixelWindow(max(self.y0 - k, 0), min(self.y1 + k, n),
                           max(self.x0 - k, 0), min(self.x1 + k, n), n)

    @property
    def shape(self) -> tuple:
        return self.y1 - self.y0, self.x1 - self.x0

    @property
    def slices(self) -> tuple:
        return slice(self.y0, self.y1), slice(self.x0, self.x1)

    def slices_in(self, outer: "PixelWindow") -> tuple:
        """This window's slices into an array that covers ``outer``."""
        return (slice(self.y0 - outer.y0, self.y1 - outer.y0),
                slice(self.x0 - outer.x0, self.x1 - outer.x0))


@lru_cache(maxsize=8)
def _pixel_axes(input_size: int, scale: float):
    idx = np.arange(input_size)
    return px_to_mm(idx, idx, scale, input_size * scale)[0]


def pixel_centers_mm(sensor: SensorConfig, window: PixelWindow | None = None):
    """Meshgrid (X, Y) of pixel-center coordinates in mm over the window
    (default: the whole raster), shape (rows, cols) each."""
    coords = _pixel_axes(sensor.input_size, sensor.scale_mm_per_px)
    rows, cols = (window or PixelWindow.full(sensor.input_size)).slices
    return np.meshgrid(coords[cols], coords[rows])
