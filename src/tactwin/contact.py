"""Contact mechanics and membrane deformation for the simulated sensor.

Spherical probes indent following Hertz theory, F = (4/3) E* sqrt(R) d^(3/2)
with contact radius a = sqrt(R d). Flat probes, each a binary footprint
stencil, use the circular flat-punch stiffness with an equivalent radius,
d = F / (2 E* sqrt(A / pi)). Outside the contact region the membrane height
decays as a Gaussian of the distance to the contact boundary.

Both probe kinds, ``SphereProbe`` and ``FootprintProbe``, own the facts
their callers need, so no caller asks which kind it holds:

- ``class_name`` and ``label``, the class and its calibration variant;
- ``reach_mm(force_n, e_star)``, the farthest contact point from the probe
  centre, which bounds placement, the bounds check and the render window;
- ``contact_mask(u, v, force_n, e_star)``, the contact region in the probe's
  own frame, from which the punch profile and the edge band are built;
- ``box_mm(force_n, e_star)``, the tight ground-truth box in that frame.

Only ``height_field`` tells a Hertz sphere from a flat punch.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ScenarioError
from .frames import PixelWindow, SensorConfig, pixel_centers_mm
from .geometry import OrientedBox, normalize_angle

MAX_FORCE_N = 10.0
DEFAULT_FORCE_RANGE = (0.8, MAX_FORCE_N)


def check_force_range(force_range) -> tuple:
    """``(lo, hi)`` if every load between them is one a scenario takes; else,
    also for a NaN bound, a ConfigError."""
    lo, hi = force_range
    if not (0 <= lo < hi <= MAX_FORCE_N):
        raise ConfigError(f"force_range must satisfy 0 <= lo < hi <= {MAX_FORCE_N:g} "
                          f"(generate's --force-range LO:HI), got {lo}:{hi}")
    return lo, hi


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
    def label(self) -> str:
        return f"sphere_d{self.diameter_mm:g}"

    @property
    def radius_mm(self) -> float:
        return self.diameter_mm / 2.0

    def reach_mm(self, force_n: float, e_star: float) -> float:
        """Hertz contact radius under the load."""
        return hertz_indentation(force_n, self.radius_mm, e_star)[1]

    def contact_mask(self, u, v, force_n: float, e_star: float):
        return np.hypot(u, v) <= self.reach_mm(force_n, e_star)

    def box_mm(self, force_n: float, e_star: float) -> tuple:
        side = max(2.0 * self.reach_mm(force_n, e_star), 1e-6)
        return 0.0, 0.0, side, side

    def params(self) -> dict:
        return {"kind": "sphere", "diameter_mm": self.diameter_mm}


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
    def label(self) -> str:
        return self.name

    # Reach, box and area depend on the stencil alone: each probe derives them
    # on first use and keeps them. They are not fields, so __eq__, __hash__
    # and params() still read name, stencil and scale only.
    @cached_property
    def _extents(self) -> tuple:
        ys, xs = np.nonzero(self.stencil)
        s = self.stencil_scale_mm
        du = xs - (self.stencil.shape[1] - 1) / 2.0
        dv = ys - (self.stencil.shape[0] - 1) / 2.0
        reach = np.hypot(np.abs(du) * s + s / 2.0, np.abs(dv) * s + s / 2.0).max()
        box = ((du.min() + du.max()) / 2.0 * s, (dv.min() + dv.max()) / 2.0 * s,
               (du.max() - du.min() + 1) * s, (dv.max() - dv.min() + 1) * s)
        return float(reach), box

    @cached_property
    def area_mm2(self) -> float:
        return float(self.stencil.sum()) * self.stencil_scale_mm ** 2

    def reach_mm(self, force_n: float, e_star: float) -> float:
        """Farthest corner of a set stencil cell from the array centre.

        A raster point is in contact when its nearest stencil cell is set, so
        the contact region is the union of the set cells' squares.
        """
        return self._extents[0]

    def contact_mask(self, u, v, force_n: float, e_star: float):
        st = self.stencil
        iu = np.rint(u / self.stencil_scale_mm + (st.shape[1] - 1) / 2.0).astype(int)
        iv = np.rint(v / self.stencil_scale_mm + (st.shape[0] - 1) / 2.0).astype(int)
        ok = (iu >= 0) & (iu < st.shape[1]) & (iv >= 0) & (iv < st.shape[0])
        inside = np.zeros(np.shape(u), dtype=bool)
        inside[ok] = st[iv[ok], iu[ok]]
        return inside

    def box_mm(self, force_n: float, e_star: float) -> tuple:
        """The stencil's tight box; off the array centre for asymmetric shapes."""
        return self._extents[1]

    def params(self) -> dict:
        return {
            "kind": "footprint",
            "name": self.name,
            "stencil_shape": list(self.stencil.shape),
            "stencil_scale_mm": self.stencil_scale_mm,
            "area_mm2": self.area_mm2,
        }


Probe = SphereProbe | FootprintProbe


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


def contact_mask(scenario: ContactScenario, material: MaterialParams, X, Y) -> np.ndarray:
    """The probe's contact region at the raster points (X, Y) (mm), read in
    the probe's own rotated frame."""
    t = math.radians(scenario.theta_deg)
    c, s = math.cos(t), math.sin(t)
    dx, dy = X - scenario.x_mm, Y - scenario.y_mm
    u, v = dx * c + dy * s, -dx * s + dy * c
    return scenario.probe.contact_mask(u, v, scenario.force_n, material.e_star)


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
    from scipy import ndimage  # on use: see the package docstring
    probe = scenario.probe
    sigma = material.membrane_sigma_mm
    key = (probe, scenario.x_mm, scenario.y_mm, scenario.theta_deg, sigma,
           sensor, window)
    memo = _PROFILE_MEMO.get()
    if memo is not None and key in memo:
        return memo[key]
    inside = contact_mask(scenario, material, *pixel_centers_mm(sensor, window))
    if not inside.any():
        raise ScenarioError(f"{probe.class_name} contact covers no pixel")
    dist = ndimage.distance_transform_edt(~inside, sampling=sensor.scale_mm_per_px)
    # exp(-0.0) is exactly 1 on the contact
    profile = np.exp(-(dist ** 2) / (2.0 * sigma ** 2))
    if memo is not None:
        memo.clear()
        memo[key] = profile
    return profile


def height_field(scenario: ContactScenario, material: MaterialParams,
                 sensor: SensorConfig, window: PixelWindow | None = None) -> np.ndarray:
    """Membrane displacement into the sensor (mm, >= 0) for one scenario, on
    the sensor's raster. Zero force gives a zero field.

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
        return np.zeros(shape)

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
        inside = r <= a
        # The membrane decay, z_edge * exp(-(r - a)^2 / (2 sigma^2)), in
        # place on every pixel; the contact's pixels are then overwritten.
        z_edge = depth - (R - math.sqrt(max(R * R - a * a, 0.0)))
        z = r - a
        z **= 2
        np.negative(z, out=z)
        z /= 2.0 * sigma ** 2
        np.exp(z, out=z)
        z *= z_edge
        z[inside] = depth - (R - np.sqrt(R * R - r[inside] ** 2))
        return z

    depth = punch_indentation(scenario.force_n, probe.area_mm2, material.e_star)
    _check_depth(depth, material)
    _check_bounds(scenario, probe.reach_mm(scenario.force_n, material.e_star), sensor)
    return depth * _punch_profile(scenario, material, sensor, window)


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


def ground_truth(scenario: ContactScenario, material: MaterialParams) -> GroundTruth:
    """The probe's tight box, placed and turned to the scenario's pose."""
    u, v, w, h = scenario.probe.box_mm(scenario.force_n, material.e_star)
    t = math.radians(scenario.theta_deg)
    c, s = math.cos(t), math.sin(t)
    box = OrientedBox(scenario.x_mm + u * c - v * s, scenario.y_mm + u * s + v * c,
                      w, h, scenario.theta_deg)
    return GroundTruth(box=box, class_name=scenario.probe.class_name,
                       theta_deg=scenario.theta_deg, force_n=scenario.force_n)
