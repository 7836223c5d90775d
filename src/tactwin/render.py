"""Gradient-based shading of the membrane and the simulated-image entry points.

Each pixel's intensity comes from the local surface normal: with height f and
unit lights L_k, I = clamp(ambient + diffuse * mean_k max(0, n . L_k)^p, 0, 1)
where n = (-df/dx, -df/dy, 1) normalized. A flat membrane therefore renders to
a uniform baseline, and contact signatures appear as local darkening whose
strength grows with surface slope.

Only sloped pixels are shaded light by light: those where |f_x| or |f_y|
exceeds t = min_k |l_z,k| 2^-56. On any other pixel |f_x l_x| and |f_y l_y|
are at most t, so the rounded -f_x l_x - f_y l_y is at most |l_z| 2^-55,
under a quarter of l_z's ulp, and adding l_z rounds to exactly l_z (also
when l_z is a power of two); 1 + |grad f|^2 rounds to exactly 1. Each
light's term is then the flat membrane's, and the pixel takes the flat
value bit for bit, for every light set and exponent. NaN slopes count as
sloped.

``render_window`` shades only a pixel window around the contact, and
``simulate`` pastes it into the flat reference; every pixel outside the
window is bit-equal to the reference anyway, so the image is the same as a
whole-raster render (see ``contact_window`` for the argument).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contact import (ContactScenario, GroundTruth, MaterialParams, contact_mask,
                      ground_truth, height_field)
from .errors import ConfigError
from .frames import PixelWindow, SensorConfig, pixel_centers_mm


def ring_lights(n: int = 12, elevation_deg: float = 45.0) -> np.ndarray:
    """n unit light directions on a ring at the given elevation, (n, 3).

    A dense ring keeps the shading nearly rotation-invariant, emulating the
    diffused LED ring of the physical sensor; 4 lights leave a few percent of
    orientation dependence at steep slopes.
    """
    el = math.radians(elevation_deg)
    az = np.radians(np.arange(n) * 360.0 / n)
    return np.stack([np.cos(az) * math.cos(el),
                     np.sin(az) * math.cos(el),
                     np.full(n, math.sin(el))], axis=1)


@dataclass(frozen=True)
class IlluminationModel:
    ambient: float = 0.25
    diffuse: float = 0.6
    light_dirs: np.ndarray = field(default_factory=ring_lights)
    exponent: float = 1.0

    def __post_init__(self):
        if not (0 <= self.ambient <= 1 and 0 <= self.diffuse <= 1):
            raise ConfigError("ambient and diffuse must be in [0, 1]")
        if self.ambient + self.diffuse > 1.0 + 1e-12:
            raise ConfigError("ambient + diffuse must not exceed 1")
        if self.exponent < 1:
            raise ConfigError("exponent must be >= 1")
        try:
            dirs = np.asarray(self.light_dirs, dtype=float).reshape(-1, 3)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"light_dirs must be a list of 3-vectors: {exc}") from exc
        if dirs.shape[0] == 0:
            raise ConfigError("at least one light direction is required")
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(norms <= 0):
            raise ConfigError("light directions must be nonzero")
        # Normalize only when needed: renormalizing an already-unit vector
        # perturbs the last bit, which would break parameter-hash round trips.
        if np.any(np.abs(norms - 1.0) > 1e-12):
            dirs = dirs / norms[:, None]
        object.__setattr__(self, "light_dirs", dirs)

    def params(self) -> dict:
        return {
            "ambient": self.ambient,
            "diffuse": self.diffuse,
            "light_dirs": [list(map(float, d)) for d in self.light_dirs],
            "exponent": self.exponent,
        }


def baseline_intensity(illum: IlluminationModel) -> float:
    """Intensity of an undeformed (flat) membrane pixel: a zero slope shaded."""
    zero = np.zeros(1)
    return float(_shade_slopes(zero, zero, illum)[0])


def render(z: np.ndarray, scale_mm_per_px: float, illum: IlluminationModel) -> np.ndarray:
    """Shade a height field (mm) on a raster of this pitch into intensities
    in [0, 1]."""
    fy, fx = np.gradient(z, scale_mm_per_px)
    # The sloped-pixel rule of the module docstring. A zero slope appended
    # to the sloped pixels' gives the flat value for all the others.
    tol = float(np.abs(illum.light_dirs[:, 2]).min()) * 2.0 ** -56
    sloped = ~((np.abs(fx) <= tol) & (np.abs(fy) <= tol))
    values = _shade_slopes(np.append(fx[sloped], 0.0), np.append(fy[sloped], 0.0), illum)
    out = np.full(z.shape, values[-1])
    out[sloped] = values[:-1]
    return out


# Pixels shaded per block: the per-light buffers of one block stay in cache.
_SHADE_BLOCK = 16384


def _shade_slopes(fx: np.ndarray, fy: np.ndarray, illum: IlluminationModel) -> np.ndarray:
    """Intensity of pixels with surface gradient (fx, fy), two 1-D arrays,
    elementwise; computed in place on one block's buffers at a time."""
    out = np.empty(fx.shape)
    buffers = np.empty((5, min(fx.size, _SHADE_BLOCK)))
    for start in range(0, fx.size, _SHADE_BLOCK):
        bx, by = fx[start:start + _SHADE_BLOCK], fy[start:start + _SHADE_BLOCK]
        nx, inv, d, t, sh = buffers[:, :bx.size]   # nx = -fx, inv = 1 / |n|
        np.negative(bx, out=nx)
        np.multiply(bx, bx, out=inv)
        inv += 1.0
        inv += np.multiply(by, by, out=t)
        np.sqrt(inv, out=inv)
        np.divide(1.0, inv, out=inv)
        sh.fill(0.0)
        for lx, ly, lz in illum.light_dirs:
            np.multiply(nx, lx, out=d)
            d -= np.multiply(by, ly, out=t)
            d += lz
            d *= inv
            np.maximum(d, 0.0, out=d)
            if illum.exponent != 1.0:
                d **= illum.exponent
            sh += d
        sh /= illum.light_dirs.shape[0]
        sh *= illum.diffuse
        sh += illum.ambient
        np.clip(sh, 0.0, 1.0, out=out[start:start + bx.size])
    return out


def make_reference(sensor: SensorConfig, illum: IlluminationModel) -> np.ndarray:
    """Reference image of the undeformed membrane."""
    return np.full((sensor.input_size,) * 2, baseline_intensity(illum))


def contact_window(scenario: ContactScenario, material: MaterialParams,
                   illum: IlluminationModel, sensor: SensorConfig) -> PixelWindow:
    """Pixels whose rendering can differ from the flat reference.

    The window reaches ``pad`` beyond the contact reach along both axes, so
    every pixel outside it, and each neighbour its gradient reads, lies at
    least pad - h from the contact (h is the pixel pitch). There the membrane
    tail is below D exp(-(pad - h)^2 / (2 sigma^2)), D being the layer
    thickness, which bounds every accepted depth; heights are >= 0, so each
    central or one-sided difference is below g = that / h. If
    g <= |l_z| 2^-56 for every light, -f_x l_x - f_y l_y is under
    |l_z| 2^-54, less than half an ulp of l_z: the rounded
    -f_x l_x - f_y l_y + l_z is exactly l_z, 1 + |grad f|^2 rounds to exactly
    1, and the pixel shades to the reference value bit for bit. Solving for
    the pad gives h + sigma sqrt(2 ln(D 2^56 / (h min|l_z|))), about 9.4 sigma
    at the default 0.05 mm pitch and 45 degree lights. A light with l_z = 0
    leaves no margin, and the window is then the whole raster.
    """
    h = sensor.scale_mm_per_px
    lz_min = float(np.abs(illum.light_dirs[:, 2]).min())
    if lz_min == 0.0:
        pad = math.inf
    else:
        ratio = material.layer_thickness_mm * 2.0 ** 56 / (h * lz_min)
        pad = h + material.membrane_sigma_mm * math.sqrt(2.0 * max(math.log(ratio), 0.0))
    reach = scenario.probe.reach_mm(scenario.force_n, material.e_star)
    return PixelWindow.around(scenario.x_mm, scenario.y_mm, reach + pad, sensor)


def render_window(scenario: ContactScenario, material: MaterialParams,
                  illum: IlluminationModel,
                  sensor: SensorConfig) -> tuple[PixelWindow, np.ndarray]:
    """``contact_window`` and the noise-free image of its pixels. A one-pixel
    ring is computed too, so that the window's gradients see the same
    neighbours as on the whole raster."""
    window = contact_window(scenario, material, illum, sensor)
    ring = window.grow(1)
    img = render(height_field(scenario, material, sensor, window=ring),
                 sensor.scale_mm_per_px, illum)
    return window, img[window.slices_in(ring)]


def simulate(scenario: ContactScenario, material: MaterialParams,
             illum: IlluminationModel, sensor: SensorConfig,
             seed: int = 0) -> tuple[np.ndarray, GroundTruth]:
    """Forward model: scenario -> (noisy tactile image, ground truth).

    Deterministic in (scenario, parameters, seed); pixel noise is zero-mean
    Gaussian with the scenario's noise_sigma, applied before clamping.
    Only ``render_window`` is computed and pasted into the flat reference.
    """
    window, patch = render_window(scenario, material, illum, sensor)
    if scenario.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        pixels = rng.normal(0.0, scenario.noise_sigma, (sensor.input_size,) * 2)
        noisy = patch + pixels[window.slices]
        pixels += baseline_intensity(illum)
        pixels[window.slices] = noisy
        np.clip(pixels, 0.0, 1.0, out=pixels)
    else:
        pixels = np.full((sensor.input_size,) * 2, baseline_intensity(illum))
        pixels[window.slices] = patch
    return pixels, ground_truth(scenario, material)


# Deviation from the flat baseline that counts toward the deviation area.
DEVIATION_AREA_THRESHOLD = 0.0034
# Width of the band inside the contact edge that contact_band_contrast reads.
CONTACT_BAND_MM = 0.5


def deviation_area_mm2(img: np.ndarray, scale_mm_per_px: float,
                       illum: IlluminationModel) -> float:
    """Area (mm^2) where the image, on a raster of this pitch, deviates from
    the flat baseline."""
    dev = np.abs(img - baseline_intensity(illum))
    return float((dev >= DEVIATION_AREA_THRESHOLD).sum()) * scale_mm_per_px ** 2


def contact_band_contrast(scenario: ContactScenario, material: MaterialParams,
                          illum: IlluminationModel, sensor: SensorConfig) -> float:
    """Peak |I - baseline| on the probe's contact mask within CONTACT_BAND_MM
    of its edge.

    The inside band isolates the indenter's own edge slope from the membrane
    decay outside the contact, which saturates the shading at high loads for
    every probe alike.
    """
    from scipy import ndimage  # on use: see the package docstring
    img = render(height_field(scenario, material, sensor), sensor.scale_mm_per_px, illum)
    dev = np.abs(img - baseline_intensity(illum))
    inside = contact_mask(scenario, material, *pixel_centers_mm(sensor))
    dist = ndimage.distance_transform_edt(inside, sampling=sensor.scale_mm_per_px)
    band = inside & (dist <= CONTACT_BAND_MM)
    if not band.any():
        return 0.0
    return float(dev[band].max())


# ---------------------------------------------------------------------------
# Resolution characterization with a simulated stripe target.
# ---------------------------------------------------------------------------

RESOLVABLE_MODULATION = 0.1


@dataclass(frozen=True)
class SweepRow:
    frequency_lp_mm: float
    modulation: float
    resolvable: bool


@dataclass(frozen=True)
class ResolutionSweep:
    orientation: str
    rows: list
    limit_lp_mm: float | None  # highest frequency with modulation >= 0.1


def nyquist_lp_mm(sensor: SensorConfig) -> float:
    """Sampling bound: one line pair needs at least two pixels."""
    return 1.0 / (2.0 * sensor.scale_mm_per_px)


# Irrational-ish bar phase (in px) keeps the grating from locking to the
# pixel grid, where central differences of an aligned 4 px period degenerate
# to a constant gradient magnitude.
_BAR_PHASE_PX = 0.2347
# Fixed conformance smoothing of the pressed profile, in px.
_BAR_SMOOTH_PX = 1.5
# Pressed depth of the bars and side of the square grating patch, in mm.
_BAR_DEPTH_MM = 0.4
_BAR_PATCH_MM = 24.0


def _bar_coverage(u: np.ndarray, frequency: float, pixel_mm: float) -> np.ndarray:
    """Fraction of each pixel covered by a 50%-duty bar pattern (anti-aliased)."""
    period = 1.0 / frequency
    shifted = u + _BAR_PHASE_PX * pixel_mm
    lo = (shifted - pixel_mm / 2.0) / period
    hi = (shifted + pixel_mm / 2.0) / period

    def ramp(x):
        fl = np.floor(x)
        return 0.5 * fl + np.minimum(x - fl, 0.5)

    return (ramp(hi) - ramp(lo)) / (hi - lo)


def resolution_sweep(frequencies, orientation: str, illum: IlluminationModel,
                     sensor: SensorConfig) -> ResolutionSweep:
    """Press a stripe grating at each frequency and measure image modulation.

    Bars are rasterized by pixel coverage and smoothed by a fixed conformance
    width, so the rolloff reflects sampling rather than rasterization beats.
    Modulation is (Imax - Imin) / (Imax + Imin) over the interior of the
    grating patch. Frequencies beyond the two-pixel sampling bound are
    flagged unresolvable and recorded with modulation 0.
    """
    from scipy import ndimage  # on use: see the package docstring
    if orientation not in ("horizontal", "vertical"):
        raise ConfigError(f"orientation must be horizontal or vertical, got {orientation!r}")
    freqs = [float(f) for f in frequencies]
    if any(f <= 0 for f in freqs):
        raise ConfigError("frequencies must be > 0")
    nyq = nyquist_lp_mm(sensor)
    X, Y = pixel_centers_mm(sensor)
    u = Y if orientation == "horizontal" else X
    half_patch = _BAR_PATCH_MM / 2.0
    patch = (np.abs(X) <= half_patch) & (np.abs(Y) <= half_patch)
    margin = 2.0
    region = (np.abs(X) <= half_patch - margin) & (np.abs(Y) <= half_patch - margin)
    rows = []
    for f in freqs:
        if f > nyq:
            rows.append(SweepRow(f, 0.0, False))
            continue
        cov = _bar_coverage(u, f, sensor.scale_mm_per_px)
        z = np.where(patch, _BAR_DEPTH_MM * cov, 0.0)
        z = ndimage.gaussian_filter(z, sigma=_BAR_SMOOTH_PX)
        vals = render(z, sensor.scale_mm_per_px, illum)[region]
        i_max, i_min = float(vals.max()), float(vals.min())
        m = (i_max - i_min) / (i_max + i_min) if i_max + i_min > 0 else 0.0
        rows.append(SweepRow(f, m, m >= RESOLVABLE_MODULATION))
    limit = None
    for r in rows:
        if r.modulation >= RESOLVABLE_MODULATION:
            limit = r.frequency_lp_mm if limit is None else max(limit, r.frequency_lp_mm)
    return ResolutionSweep(orientation=orientation, rows=rows, limit_lp_mm=limit)
