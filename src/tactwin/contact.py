"""Contact mechanics and membrane deformation for the simulated sensor.

Spherical probes indent following Hertz theory, F = (4/3) E* sqrt(R) d^(3/2)
with contact radius a = sqrt(R d). Flat probes (strips and arbitrary
footprints) use the circular flat-punch stiffness with an equivalent radius,
d = F / (2 E* sqrt(A / pi)). Outside the contact region the membrane height
decays as a Gaussian of the distance to the contact boundary.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ConfigError, ScenarioError
from .frames import PixelWindow, SensorConfig, pixel_centers_mm
from .geometry import OrientedBox, normalize_angle

MAX_FORCE_N = 10.0


@dataclass(frozen=True)
class MaterialParams:
    """Elastic layer parameters.

    e_star is the effective contact modulus in N/mm^2; membrane_sigma_mm is
    the decay length of the height field outside the contact region.
    """

    e_star: float = 0.4
    membrane_sigma_mm: float = 0.35
    layer_thickness_mm: float = 6.0

    def __post_init__(self):
        if not (self.e_star > 0 and self.membrane_sigma_mm > 0 and self.layer_thickness_mm > 0):
            raise ConfigError("material parameters must all be positive")

    def params(self) -> dict:
        return {
            "e_star": self.e_star,
            "membrane_sigma_mm": self.membrane_sigma_mm,
            "layer_thickness_mm": self.layer_thickness_mm,
        }


@dataclass(frozen=True)
class SphereProbe:
    diameter_mm: float

    def __post_init__(self):
        if not (self.diameter_mm > 0):
            raise ConfigError("sphere diameter must be > 0")

    @property
    def class_name(self) -> str:
        return "sphere"

    @property
    def radius_mm(self) -> float:
        return self.diameter_mm / 2.0

    def params(self) -> dict:
        return {"kind": "sphere", "diameter_mm": self.diameter_mm}


@dataclass(frozen=True)
class StripProbe:
    length_mm: float
    width_mm: float

    def __post_init__(self):
        if not (self.length_mm > 0 and self.width_mm > 0):
            raise ConfigError("strip dimensions must be > 0")

    @property
    def class_name(self) -> str:
        return "strip"

    @property
    def area_mm2(self) -> float:
        return self.length_mm * self.width_mm

    @property
    def reach_mm(self) -> float:
        """Largest distance of a contact point from the probe centre."""
        return math.hypot(self.length_mm, self.width_mm) / 2.0

    def params(self) -> dict:
        return {"kind": "strip", "length_mm": self.length_mm, "width_mm": self.width_mm}


@dataclass(frozen=True, eq=False)
class FootprintProbe:
    """Flat probe with an arbitrary binary stencil (True = contact).

    Probes are equal, and hash alike, when name, stencil and scale match.
    """

    name: str
    stencil: np.ndarray
    stencil_scale_mm: float

    def __post_init__(self):
        st = np.asarray(self.stencil, dtype=bool)
        if st.ndim != 2 or not st.any():
            raise ConfigError("stencil must be a nonempty 2-D boolean mask")
        if not (self.stencil_scale_mm > 0):
            raise ConfigError("stencil scale must be > 0")
        object.__setattr__(self, "stencil", st)

    def _key(self) -> tuple:
        return (self.name, self.stencil.shape, self.stencil.tobytes(),
                self.stencil_scale_mm)

    def __eq__(self, other):
        if not isinstance(other, FootprintProbe):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def class_name(self) -> str:
        return self.name

    @property
    def area_mm2(self) -> float:
        return float(self.stencil.sum()) * self.stencil_scale_mm ** 2

    def tight_dims_mm(self):
        """Width/height (mm) of the stencil's tight bounding box at 0 degrees."""
        ys, xs = np.nonzero(self.stencil)
        w = (xs.max() - xs.min() + 1) * self.stencil_scale_mm
        h = (ys.max() - ys.min() + 1) * self.stencil_scale_mm
        return w, h

    @property
    def reach_mm(self) -> float:
        """Largest distance of a contact point from the stencil's array centre.

        A raster point is in contact when its nearest stencil cell is set, so
        the contact region is the union of the set cells' squares and the
        reach is the farthest corner of one of them.
        """
        ys, xs = np.nonzero(self.stencil)
        s = self.stencil_scale_mm
        u = np.abs(xs - (self.stencil.shape[1] - 1) / 2.0) * s + s / 2.0
        v = np.abs(ys - (self.stencil.shape[0] - 1) / 2.0) * s + s / 2.0
        return float(np.hypot(u, v).max())

    def center_offset_mm(self):
        """Tight-box center relative to the stencil origin (asymmetric shapes)."""
        ys, xs = np.nonzero(self.stencil)
        cx = (xs.min() + xs.max()) / 2.0 - (self.stencil.shape[1] - 1) / 2.0
        cy = (ys.min() + ys.max()) / 2.0 - (self.stencil.shape[0] - 1) / 2.0
        return cx * self.stencil_scale_mm, cy * self.stencil_scale_mm

    def params(self) -> dict:
        return {
            "kind": "footprint",
            "name": self.name,
            "stencil_shape": list(self.stencil.shape),
            "stencil_scale_mm": self.stencil_scale_mm,
            "area_mm2": self.area_mm2,
        }


Probe = SphereProbe | StripProbe | FootprintProbe


@dataclass(frozen=True)
class ContactScenario:
    """One contact event: probe, placement, pose, load, and pixel noise."""

    probe: Probe
    x_mm: float = 0.0
    y_mm: float = 0.0
    theta_deg: float = 0.0
    force_n: float = 1.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.force_n <= MAX_FORCE_N):
            raise ScenarioError(
                f"force must be in [0, {MAX_FORCE_N}] N, got {self.force_n}")
        if self.noise_sigma < 0:
            raise ScenarioError("noise_sigma must be >= 0")
        object.__setattr__(self, "theta_deg", normalize_angle(self.theta_deg))

    def params(self) -> dict:
        return {
            "probe": self.probe.params(),
            "x_mm": self.x_mm,
            "y_mm": self.y_mm,
            "theta_deg": self.theta_deg,
            "force_n": self.force_n,
            "noise_sigma": self.noise_sigma,
        }


@dataclass(frozen=True)
class HeightField:
    """Membrane displacement into the sensor (mm, >= 0), same raster as the image."""

    z: np.ndarray
    scale_mm_per_px: float

    @property
    def max_depth(self) -> float:
        return float(self.z.max(initial=0.0))


@dataclass(frozen=True)
class GroundTruth:
    box: OrientedBox
    class_name: str
    theta_deg: float
    force_n: float


def hertz_indentation(force_n: float, probe_radius_mm: float, e_star: float):
    """Indentation depth and contact radius (mm) for a sphere under normal load."""
    if force_n < 0:
        raise ValueError(f"force must be >= 0, got {force_n}")
    if not (probe_radius_mm > 0 and e_star > 0):
        raise ValueError("probe radius and modulus must be > 0")
    if force_n == 0:
        return 0.0, 0.0
    depth = (3.0 * force_n / (4.0 * e_star * math.sqrt(probe_radius_mm))) ** (2.0 / 3.0)
    return depth, math.sqrt(probe_radius_mm * depth)


def punch_indentation(force_n: float, footprint_area_mm2: float, e_star: float) -> float:
    """Flat-punch depth (mm) using the equivalent circular radius sqrt(A/pi)."""
    if force_n < 0:
        raise ValueError(f"force must be >= 0, got {force_n}")
    if not (footprint_area_mm2 > 0 and e_star > 0):
        raise ValueError("area and modulus must be > 0")
    return force_n / (2.0 * e_star * math.sqrt(footprint_area_mm2 / math.pi))


def contact_reach_mm(scenario: ContactScenario, material: MaterialParams) -> float:
    """Largest distance of a contact point from the scenario centre."""
    probe = scenario.probe
    if isinstance(probe, SphereProbe):
        return hertz_indentation(scenario.force_n, probe.radius_mm, material.e_star)[1]
    return probe.reach_mm


def _probe_frame(scenario: ContactScenario, X, Y):
    """Raster coordinates (mm) expressed in the probe's own rotated frame."""
    t = math.radians(scenario.theta_deg)
    c, s = math.cos(t), math.sin(t)
    dx = X - scenario.x_mm
    dy = Y - scenario.y_mm
    return dx * c + dy * s, -dx * s + dy * c


def _strip_inside(probe: StripProbe, scenario: ContactScenario, X, Y):
    u, v = _probe_frame(scenario, X, Y)
    return (np.abs(u) <= probe.length_mm / 2.0) & (np.abs(v) <= probe.width_mm / 2.0)


def _footprint_inside(probe: FootprintProbe, scenario: ContactScenario, X, Y):
    u, v = _probe_frame(scenario, X, Y)
    st = probe.stencil
    iu = np.rint(u / probe.stencil_scale_mm + (st.shape[1] - 1) / 2.0).astype(int)
    iv = np.rint(v / probe.stencil_scale_mm + (st.shape[0] - 1) / 2.0).astype(int)
    ok = (iu >= 0) & (iu < st.shape[1]) & (iv >= 0) & (iv < st.shape[0])
    inside = np.zeros(X.shape, dtype=bool)
    inside[ok] = st[iv[ok], iu[ok]]
    return inside


# Inside ``punch_profile_memo``: {key: profile} of the last punch profile.
_PROFILE_MEMO = contextvars.ContextVar("punch_profile_memo", default=None)


@contextlib.contextmanager
def punch_profile_memo():
    """Reuse punch profiles across the forces of a sweep, within the block.

    A punch's profile depends on its pose and window but not on its force,
    so a sweep over the forces of one probe builds it once. Only the last
    profile is kept, which is all a sweep that runs one probe's forces in a
    row needs, and none outlives the block.
    """
    token = _PROFILE_MEMO.set({})
    try:
        yield
    finally:
        _PROFILE_MEMO.reset(token)


def _punch_profile(scenario: ContactScenario, material: MaterialParams,
                   sensor: SensorConfig, window: PixelWindow | None) -> np.ndarray:
    """1 on the contact and exp(-d^2 / (2 sigma^2)) at distance d off it, so
    that depth times it is the punch's height field."""
    probe = scenario.probe
    sigma = material.membrane_sigma_mm
    key = (probe, scenario.x_mm, scenario.y_mm, scenario.theta_deg, sigma,
           sensor, window)
    memo = _PROFILE_MEMO.get()
    if memo is not None and key in memo:
        return memo[key]
    X, Y = pixel_centers_mm(sensor, window)
    if isinstance(probe, StripProbe):
        inside = _strip_inside(probe, scenario, X, Y)
    else:
        inside = _footprint_inside(probe, scenario, X, Y)
    if not inside.any():
        if isinstance(probe, FootprintProbe):
            raise ScenarioError("footprint does not touch the active area")
        profile = np.zeros(X.shape)
    else:
        dist = ndimage.distance_transform_edt(~inside, sampling=sensor.scale_mm_per_px)
        # exp(-0.0) is exactly 1 on the contact
        profile = np.exp(-(dist ** 2) / (2.0 * sigma ** 2))
    if memo is not None:
        memo.clear()
        memo[key] = profile
    return profile


def height_field(scenario: ContactScenario, material: MaterialParams,
                 sensor: SensorConfig, window: PixelWindow | None = None) -> HeightField:
    """Membrane height field for one scenario. Zero force gives a zero field.

    Only the pixels of ``window`` (default: the whole raster) are computed.
    Each value equals the whole-raster one as long as the window holds the
    whole contact region: the sphere field is pointwise, and the punch
    field's distance transform then sees every contact pixel. A punch field
    is depth times ``_punch_profile``, which ``punch_profile_memo`` lets a
    force sweep reuse.
    """
    probe = scenario.probe
    if scenario.force_n == 0:
        shape = (window or PixelWindow.full(sensor.input_size)).shape
        return HeightField(np.zeros(shape), sensor.scale_mm_per_px)

    if isinstance(probe, SphereProbe):
        X, Y = pixel_centers_mm(sensor, window)
        sigma = material.membrane_sigma_mm
        R = probe.radius_mm
        depth, a = hertz_indentation(scenario.force_n, R, material.e_star)
        if depth >= R:
            raise ScenarioError(
                f"indentation {depth:.2f} mm reaches the probe radius {R} mm; "
                "reduce force or stiffen the material")
        _check_depth(depth, material)
        _check_bounds(scenario, a, sensor)
        r = np.hypot(X - scenario.x_mm, Y - scenario.y_mm)
        z = np.zeros(X.shape)
        inside = r <= a
        z[inside] = depth - (R - np.sqrt(R * R - r[inside] ** 2))
        z_edge = depth - (R - math.sqrt(max(R * R - a * a, 0.0)))
        out = ~inside
        z[out] = z_edge * np.exp(-((r[out] - a) ** 2) / (2.0 * sigma ** 2))
        return HeightField(z, sensor.scale_mm_per_px)

    if isinstance(probe, (StripProbe, FootprintProbe)):
        depth = punch_indentation(scenario.force_n, probe.area_mm2, material.e_star)
        _check_depth(depth, material)
        _check_bounds(scenario, probe.reach_mm, sensor)
        return HeightField(depth * _punch_profile(scenario, material, sensor, window),
                           sensor.scale_mm_per_px)

    raise ConfigError(f"unknown probe type {type(probe).__name__}")


def _check_depth(depth: float, material: MaterialParams):
    if depth > material.layer_thickness_mm:
        raise ScenarioError(
            f"indentation {depth:.2f} mm exceeds layer thickness "
            f"{material.layer_thickness_mm} mm")


def _check_bounds(scenario: ContactScenario, reach_mm: float, sensor: SensorConfig):
    half_extent = sensor.extent_mm / 2.0
    if max(abs(scenario.x_mm), abs(scenario.y_mm)) + reach_mm > half_extent:
        raise ScenarioError(
            f"contact footprint (reach {reach_mm:.2f} mm) leaves the "
            f"{sensor.extent_mm:.0f} mm active area")


def ground_truth_box(scenario: ContactScenario, material: MaterialParams) -> OrientedBox:
    """Tight oriented box around the contact footprint, at the scenario's angle."""
    probe = scenario.probe
    if isinstance(probe, SphereProbe):
        _, a = hertz_indentation(scenario.force_n, probe.radius_mm, material.e_star)
        side = max(2.0 * a, 1e-6)
        return OrientedBox(scenario.x_mm, scenario.y_mm, side, side, scenario.theta_deg)
    if isinstance(probe, StripProbe):
        return OrientedBox(scenario.x_mm, scenario.y_mm, probe.length_mm,
                           probe.width_mm, scenario.theta_deg)
    w, h = probe.tight_dims_mm()
    ox, oy = probe.center_offset_mm()
    t = math.radians(scenario.theta_deg)
    c, s = math.cos(t), math.sin(t)
    return OrientedBox(scenario.x_mm + ox * c - oy * s,
                       scenario.y_mm + ox * s + oy * c,
                       w, h, scenario.theta_deg)


def ground_truth(scenario: ContactScenario, material: MaterialParams) -> GroundTruth:
    return GroundTruth(
        box=ground_truth_box(scenario, material),
        class_name=scenario.probe.class_name,
        theta_deg=scenario.theta_deg,
        force_n=scenario.force_n,
    )
