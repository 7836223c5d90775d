"""Probe libraries and scenario samplers for the standard experiment suites.

Footprint stencils are rasterized analytically at 0.1 mm/px. Class names are
shape words; the screw-grasp suite reuses the shapes under contact-part names
(head, body, top, bottom) with its own dimensions.
"""

from __future__ import annotations

import math

import numpy as np

from .contact import (DEFAULT_FORCE_RANGE, ContactScenario, FootprintProbe, Probe, SphereProbe,
                      check_force_range)
from .errors import ConfigError
from .frames import SensorConfig

STENCIL_SCALE_MM = 0.1

SPHERE_DIAMETERS_MM = (10.0, 15.0, 20.0, 25.0, 30.0)


def _stencil_grid(size_mm: float):
    n = int(round(size_mm / STENCIL_SCALE_MM)) | 1  # odd so the center is a pixel
    c = (np.arange(n) - (n - 1) / 2.0) * STENCIL_SCALE_MM
    return np.meshgrid(c, c)


def stencil_circle(diameter_mm: float) -> np.ndarray:
    X, Y = _stencil_grid(diameter_mm + 1)
    return X ** 2 + Y ** 2 <= (diameter_mm / 2.0) ** 2


def stencil_annulus(outer_mm: float, inner_mm: float) -> np.ndarray:
    X, Y = _stencil_grid(outer_mm + 1)
    r2 = X ** 2 + Y ** 2
    return (r2 <= (outer_mm / 2.0) ** 2) & (r2 >= (inner_mm / 2.0) ** 2)


def stencil_hexagon(across_flats_mm: float) -> np.ndarray:
    X, Y = _stencil_grid(across_flats_mm * 1.3)
    h = across_flats_mm / 2.0
    inside = np.abs(Y) <= h
    for ang in (60.0, 120.0):
        t = math.radians(ang)
        inside &= np.abs(X * math.sin(t) - Y * math.cos(t)) <= h
    return inside


def stencil_cross(length_mm: float, width_mm: float) -> np.ndarray:
    X, Y = _stencil_grid(length_mm + 1)
    bar1 = (np.abs(X) <= length_mm / 2.0) & (np.abs(Y) <= width_mm / 2.0)
    bar2 = (np.abs(Y) <= length_mm / 2.0) & (np.abs(X) <= width_mm / 2.0)
    return bar1 | bar2


def stencil_lshape(long_mm: float, short_mm: float, width_mm: float) -> np.ndarray:
    X, Y = _stencil_grid(long_mm + 1)
    x0, y0 = -long_mm / 2.0, -long_mm / 2.0
    horiz = (X >= x0) & (X <= x0 + long_mm) & (Y >= y0) & (Y <= y0 + width_mm)
    vert = (X >= x0) & (X <= x0 + width_mm) & (Y >= y0) & (Y <= y0 + short_mm)
    return horiz | vert


def stencil_strip(length_mm: float, width_mm: float) -> np.ndarray:
    X, Y = _stencil_grid(length_mm + 1)
    return (np.abs(X) <= length_mm / 2.0) & (np.abs(Y) <= width_mm / 2.0)


def footprint_probes() -> list[Probe]:
    """Six-shape footprint library (flat punches)."""
    s = STENCIL_SCALE_MM
    return [
        FootprintProbe("circle", stencil_circle(8.0), s),
        FootprintProbe("strip", stencil_strip(20.0, 4.0), s),
        FootprintProbe("hexagon", stencil_hexagon(10.0), s),
        FootprintProbe("cross", stencil_cross(14.0, 4.0), s),
        FootprintProbe("annulus", stencil_annulus(12.0, 6.0), s),
        FootprintProbe("lshape", stencil_lshape(14.0, 10.0, 5.0), s),
    ]


def sphere_probes() -> list[Probe]:
    return [SphereProbe(d) for d in SPHERE_DIAMETERS_MM]


def screw_part_probes() -> list[Probe]:
    """Four screw-grasp contact parts as footprint stencils."""
    s = STENCIL_SCALE_MM
    return [
        FootprintProbe("head", stencil_annulus(14.0, 7.0), s),
        FootprintProbe("body", stencil_strip(16.0, 5.0), s),
        FootprintProbe("top", stencil_hexagon(11.0), s),
        FootprintProbe("bottom", stencil_circle(6.0), s),
    ]


def roundtrip_probes() -> list[Probe]:
    """Mixed library: five sphere sizes (one class), then the six footprints
    with the strip first, at draw index 5 as in earlier roundtrip datasets."""
    punches = footprint_probes()
    strip = [p for p in punches if p.class_name == "strip"]
    return sphere_probes() + strip + [p for p in punches if p.class_name != "strip"]


SUITES = {
    "spheres": sphere_probes,
    "six-footprint": footprint_probes,
    "screw": screw_part_probes,
    "roundtrip": roundtrip_probes,
}

# Probes whose deviation pattern has a well-defined principal axis; pose-angle
# metrics are evaluated on these only.
ANISOTROPIC_CLASSES = ("strip", "lshape", "body")


def sample_scenario(rng: np.random.Generator, probes: list[Probe],
                    sensor: SensorConfig, e_star: float,
                    force_range=DEFAULT_FORCE_RANGE, noise_sigma: float = 0.0,
                    edge_margin_mm: float = 2.0) -> ContactScenario:
    """Draw one random scenario from a probe library.

    The probe is placed by its reach at the top of the force range, the
    extent ``height_field`` checks, so every draw is in bounds whenever the
    probe fits the active area at all.
    """
    if not probes:
        raise ConfigError("probe library is empty")
    lo, hi = check_force_range(force_range)
    probe = probes[int(rng.integers(len(probes)))]
    force = float(rng.uniform(lo, hi))
    span = max(sensor.extent_mm / 2.0 - probe.reach_mm(hi, e_star) - edge_margin_mm, 0.0)
    return ContactScenario(
        probe=probe,
        x_mm=float(rng.uniform(-span, span)),
        y_mm=float(rng.uniform(-span, span)),
        theta_deg=float(rng.uniform(0.0, 180.0)),
        force_n=force,
        noise_sigma=noise_sigma,
    )
