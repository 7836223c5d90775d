"""Model-based extraction: invert the forward model image-side.

Pipeline: difference against the flat reference, denoise, threshold into
blobs, estimate pose from second moments, classify by rotation- and
scale-normalized mask correlation against forward-model templates, and invert
a per-class force calibration table (one weighted fit of deviation energy and
radius of gyration over every probe-size variant). The energy, the integral
of |dev| over the blob, is the observable calibration requires to rise
strictly with force: a flat punch's depth grows with the load while its
footprint, and so most of its area, stays put. The |dev|-weighted radius of
gyration tells probe sizes of one energy apart: by Hertz the contact radius
grows as (F R)^(1/3), so at one energy a larger sphere spreads wider.
Detection boxes come from weighted percentile extents along the principal
axes, rescaled by the calibration's measured-vs-true box ratio so they track
the contact footprint rather than the wider deviation band.

Every measurement filters and labels only G: W grown by the denoise kernel's
radius r, where W is the smallest rectangle that holds every pixel whose
|dev| reaches t0 = t (1 - 2^-40), a hair under the threshold t. Each 1-D
pass of the filter is a mean with nonnegative weights that sum to 1 within a
few ulps, so a pixel more than r beyond W, reflected at the raster's edges or
not, reads only |dev| < t0 and filters below t: the whole-raster mask lies in
G. The two passes read, for a pixel of G, only pixels of W grown by 2r. That
crop is filtered; it reflects at the raster's edges as the whole raster
does, so the filtered values on G are equal. A calibration render is
measured on its contact window alone: dev is 0 beyond it, and the crop's
pixels there are padded with zeros. Fragments merge through chains of
neighbouring pixels within half the merge distance of the mask. Clamped into
G, which holds the whole mask, such a chain stays a chain and comes no
farther from any mask pixel, so no zero pad beyond G is needed. Blob pixels,
moments and areas come out bit-equal to a whole-raster measurement. A noisy
image reaches t0 almost everywhere and is measured whole; a noise-free one,
read back from a PGM too, is measured around its contact.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .contact import ContactScenario, MaterialParams, ground_truth, punch_profile_memo
from .errors import CalibrationError, ConfigError, StaleCalibrationError
from .frames import PixelWindow, SensorConfig, mm_to_px, px_to_mm
from .geometry import OrientedBox, normalize_angle
from .render import IlluminationModel, TactileImage, make_reference, render_window
from .runner import run_units

SCHEMA_VERSION = 2
CALIBRATION_FORCES = tuple(np.arange(0.0, 10.0 + 1e-9, 1.0))
TEMPLATE_FORCES = (2.0, 6.0)
MERGE_DIST_MM = 3.0         # fragments closer than this are one signature
LOW_ECCENTRICITY = 0.05     # moment anisotropy below which a pose is not confident
CANONICAL_SIZE = 64         # side of a canonical patch, px
CANONICAL_PAD = 1.15        # patch half-extent over the blob's 99th-percentile radius
ROTATION_STEP_DEG = 10.0    # rotation sweep step for a blob without a confident pose
_GAUSS_TRUNCATE = 3.0


@dataclass(frozen=True)
class DecodeConfig:
    """Decode-side knobs. They and the decode constants above all enter the
    calibration parameter hash."""

    noise_sigma: float = 0.0
    threshold: float | None = None      # None: 0.01 at sigma=0, else 3x filtered noise
    denoise_sigma_mm: float = 0.25
    min_area_mm2: float = 1.0

    def __post_init__(self):
        # Kinds are checked where a config is read (cli._check_section).
        for name in ("noise_sigma", "denoise_sigma_mm", "min_area_mm2"):
            value = getattr(self, name)
            if not (value >= 0):
                raise ConfigError(f"decode.{name} must be >= 0, got {value!r}")

    def denoise_sigma_px(self, sensor: SensorConfig) -> float:
        return self.denoise_sigma_mm / sensor.scale_mm_per_px

    def denoise_radius_px(self, sensor: SensorConfig) -> int:
        """Radius of the denoise filter's kernel: scipy's int(truncate s + 0.5)."""
        s = self.denoise_sigma_px(sensor)
        return int(_GAUSS_TRUNCATE * s + 0.5) if s > 0 else 0

    def filtered_noise_sigma(self, sensor: SensorConfig) -> float:
        """Pixel-noise std after the denoise filter (white-noise propagation)."""
        if self.noise_sigma == 0:
            return 0.0
        s = self.denoise_sigma_px(sensor)
        if s <= 0:
            return self.noise_sigma
        radius = self.denoise_radius_px(sensor)
        x = np.arange(-radius, radius + 1)
        k = np.exp(-x.astype(float) ** 2 / (2 * s * s))
        k /= k.sum()
        return self.noise_sigma * float(np.sum(k ** 2))

    def effective_threshold(self, sensor: SensorConfig) -> float:
        if self.threshold is not None:
            return self.threshold
        if self.noise_sigma == 0:
            return 0.01
        return 3.0 * self.filtered_noise_sigma(sensor)

    def params(self, sensor: SensorConfig) -> dict:
        return {
            "noise_sigma": self.noise_sigma,
            "threshold": self.effective_threshold(sensor),
            "denoise_sigma_mm": self.denoise_sigma_mm,
            "min_area_mm2": self.min_area_mm2,
            "merge_dist_mm": MERGE_DIST_MM,
            "low_eccentricity": LOW_ECCENTRICITY,
            "canonical_size": CANONICAL_SIZE,
            "canonical_pad": CANONICAL_PAD,
            "rotation_step_deg": ROTATION_STEP_DEG,
            "template_forces": list(TEMPLATE_FORCES),
            "calibration_forces": list(map(float, CALIBRATION_FORCES)),
        }


def params_hash(material: MaterialParams, illum: IlluminationModel,
                sensor: SensorConfig, cfg: DecodeConfig) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "material": material.params(),
        "illumination": illum.params(),
        "sensor": sensor.params(),
        "decode": cfg.params(sensor),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def difference_image(img: TactileImage, reference: TactileImage) -> np.ndarray:
    """Signed per-pixel deviation img - reference (no clamping)."""
    if img.pixels.shape != reference.pixels.shape:
        raise ValueError(
            f"image {img.pixels.shape} and reference {reference.pixels.shape} differ")
    if img.scale_mm_per_px != reference.scale_mm_per_px:
        raise ValueError("image and reference scales differ")
    if not reference.is_reference:
        raise ValueError("second argument must be a reference image")
    return img.pixels - reference.pixels


@dataclass
class Blob:
    """One connected deviation signature with weighted moment statistics."""

    area_mm2: float
    n_pixels: int
    centroid_mm: tuple          # (x, y)
    mu20: float                 # weighted central second moments, mm^2
    mu02: float
    mu11: float
    deviation_integral: float   # sum of |dev| times pixel area, intensity mm^2
    ys: np.ndarray              # pixel rows
    xs: np.ndarray              # pixel cols
    weights: np.ndarray         # |dev| at the pixels
    scale_mm_per_px: float
    extent_mm: float

    @property
    def gyration_mm(self) -> float:
        """|dev|-weighted radius of gyration about the centroid."""
        return math.sqrt(self.mu20 + self.mu02)

    def pixel_xy_mm(self):
        return px_to_mm(self.xs, self.ys, self.scale_mm_per_px, self.extent_mm)


def extract_blobs(dev: np.ndarray, scale_mm_per_px: float, threshold: float,
                  min_area_mm2: float = 1.0,
                  window: PixelWindow | None = None) -> list[Blob]:
    """8-connected components of |dev| >= threshold, nearby fragments merged.

    Fragments closer than MERGE_DIST_MM belong to one contact signature (flat
    probes leave separated edge bands); components are merged before the
    minimum-area filter. Moments are weighted by |dev|. ``window`` says where
    dev lies in a larger raster (default: dev is the raster); blob pixels and
    extents are in that raster's frame.
    """
    if not (threshold > 0):
        raise ConfigError("threshold must be > 0")
    mag = np.abs(dev)
    mask = mag >= threshold
    if not mask.any():
        return []
    px_area = scale_mm_per_px ** 2
    eight = np.ones((3, 3), dtype=int)
    labels, n_comp = ndimage.label(mask, structure=eight)
    # Component-level area filter first: isolated specks must not survive by
    # unioning with each other through the merge dilation.
    comp_px = (np.bincount(labels.ravel(), minlength=n_comp + 1) if n_comp > 1
               else np.array([0, np.count_nonzero(mask)]))
    keep = comp_px * px_area >= min_area_mm2
    keep[0] = False
    if not keep.any():
        return []
    if not keep[1:].all():
        mask = keep[labels]
    n_groups = int(keep.sum())
    if n_groups > 1:
        dist = ndimage.distance_transform_edt(~mask, sampling=scale_mm_per_px)
        groups, n_groups = ndimage.label(dist <= MERGE_DIST_MM / 2.0, structure=eight)
    else:
        groups = labels
    ys, xs = np.nonzero(mask)
    w = mag[ys, xs]
    if n_groups == 1:
        bounds = [0, ys.size]
    else:
        gid = groups[ys, xs]
        order = np.argsort(gid, kind="stable")
        ys, xs, gid, w = ys[order], xs[order], gid[order], w[order]
        bounds = np.searchsorted(gid, np.unique(gid))
        bounds = np.append(bounds, gid.size)

    window = window or PixelWindow.full(dev.shape[0])
    ys, xs = ys + window.y0, xs + window.x0
    extent = window.n * scale_mm_per_px
    blobs = []
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        n_px = b1 - b0
        area = n_px * px_area
        gys, gxs, gw = ys[b0:b1], xs[b0:b1], w[b0:b1]
        x_mm, y_mm = px_to_mm(gxs, gys, scale_mm_per_px, extent)
        wsum = gw.sum()
        cx = float((gw * x_mm).sum() / wsum)
        cy = float((gw * y_mm).sum() / wsum)
        dx, dy = x_mm - cx, y_mm - cy
        blobs.append(Blob(
            area_mm2=float(area),
            n_pixels=int(n_px),
            centroid_mm=(cx, cy),
            mu20=float((gw * dx * dx).sum() / wsum),
            mu02=float((gw * dy * dy).sum() / wsum),
            mu11=float((gw * dx * dy).sum() / wsum),
            deviation_integral=float(gw.sum() * px_area),
            ys=gys, xs=gxs, weights=gw,
            scale_mm_per_px=scale_mm_per_px,
            extent_mm=extent,
        ))
    blobs.sort(key=lambda b: (-b.area_mm2, b.centroid_mm))
    return blobs


@dataclass(frozen=True)
class PoseEstimate:
    theta_deg: float
    confident: bool


def estimate_pose(blob: Blob) -> PoseEstimate:
    """Principal-axis orientation of the blob's weighted second moments."""
    trace = blob.mu20 + blob.mu02
    if trace <= 0:
        raise ValueError("degenerate blob moments")
    anisotropy = math.hypot(blob.mu20 - blob.mu02, 2.0 * blob.mu11) / trace
    if anisotropy < LOW_ECCENTRICITY:
        return PoseEstimate(0.0, False)
    theta = 0.5 * math.degrees(math.atan2(2.0 * blob.mu11, blob.mu20 - blob.mu02))
    return PoseEstimate(normalize_angle(theta), True)


# ---------------------------------------------------------------------------
# Template classification.
# ---------------------------------------------------------------------------

def _canonical_patches(blob: Blob, angles_deg) -> np.ndarray:
    """Resample the blob mask into len(angles) square patches of side
    CANONICAL_SIZE, normalized for rotation (by each angle) and scale (by the
    blob's 99th-percentile radius)."""
    xs_mm, ys_mm = blob.pixel_xy_mm()
    cx, cy = blob.centroid_mm
    r99 = np.percentile(np.hypot(xs_mm - cx, ys_mm - cy), 99)
    half_extent = max(CANONICAL_PAD * r99, blob.scale_mm_per_px)
    t = np.radians(np.asarray(angles_deg, dtype=float))[:, None, None]
    c, s = np.cos(t), np.sin(t)
    lin = ((np.arange(CANONICAL_SIZE) + 0.5) / CANONICAL_SIZE * 2.0 - 1.0) * half_extent
    U, V = np.meshgrid(lin, lin)
    px = cx + U[None] * c - V[None] * s
    py = cy + U[None] * s + V[None] * c
    fx, fy = mm_to_px(px, py, blob.scale_mm_per_px, blob.extent_mm)
    ix = np.rint(fx).astype(int)
    iy = np.rint(fy).astype(int)
    n_img = int(round(blob.extent_mm / blob.scale_mm_per_px))
    ok = (ix >= 0) & (ix < n_img) & (iy >= 0) & (iy < n_img)
    flat = np.zeros((n_img, n_img), dtype=bool)
    flat[blob.ys, blob.xs] = True
    out = np.zeros(px.shape, dtype=bool)
    out[ok] = flat[iy[ok], ix[ok]]
    return out


@dataclass
class TemplateVariant:
    mask: np.ndarray
    force_n: float


@dataclass
class TemplateLibrary:
    """Canonical blob masks per class, plus each class's moment-axis offset."""

    classes: list
    variants: dict              # class -> list[TemplateVariant]
    offsets: dict               # class -> moment angle at scenario theta = 0
    canonical_size: int
    params_hash: str

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "params_hash": self.params_hash,
            "canonical_size": self.canonical_size,
            "classes": self.classes,
            "offsets": self.offsets,
            "variants": {
                cls: [{"force_n": v.force_n,
                       "mask": ["".join("1" if b else "0" for b in row)
                                for row in v.mask]}
                      for v in vs]
                for cls, vs in self.variants.items()
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "TemplateLibrary":
        variants = {
            name: [TemplateVariant(
                mask=np.array([[ch == "1" for ch in row] for row in v["mask"]]),
                force_n=v["force_n"]) for v in vs]
            for name, vs in data["variants"].items()
        }
        return cls(classes=data["classes"], variants=variants,
                   offsets=data["offsets"],
                   canonical_size=data["canonical_size"],
                   params_hash=data["params_hash"])


def classify(blob: Blob, templates: TemplateLibrary,
             pose: PoseEstimate | None = None):
    """Best-matching class by mask IoU over candidate rotations.

    Returns (class_name, score). Confident poses need only the principal
    angle and its point reflection; isotropic blobs sweep rotations. Ties
    break toward the lexicographically smallest class name.
    """
    if not templates.classes:
        raise ValueError("template library is empty")
    if pose is not None and pose.confident:
        angles = [pose.theta_deg, pose.theta_deg + 180.0]
    else:
        angles = list(np.arange(0.0, 360.0, ROTATION_STEP_DEG))
    patches = _canonical_patches(blob, angles).reshape(len(angles), -1)
    best_per_class = {}
    for cls in templates.classes:
        best = 0.0
        for variant in templates.variants[cls]:
            t = variant.mask.ravel()
            inter = (patches & t).sum(axis=1)
            union = (patches | t).sum(axis=1)
            with np.errstate(invalid="ignore"):
                scores = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
            best = max(best, float(scores.max()))
        best_per_class[cls] = best
    ranked = sorted(best_per_class.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[0]


# ---------------------------------------------------------------------------
# Force calibration.
# ---------------------------------------------------------------------------

def monotone_cubic(x: np.ndarray, y: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Values at ``at``, in [x[0], x[-1]], of the monotone piecewise cubic
    through the knots (x, y[:, j]) of each column j (Fritsch and Carlson,
    1980), with SciPy's PCHIP slopes at the inner knots and at the ends."""
    h = np.diff(x)[:, None]
    m = np.diff(y, axis=0) / h
    d = np.vstack([m[:1], m[-1:]])      # two knots: a straight line
    if len(x) > 2:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        e = np.where(np.sign(e) != np.sign(m0), 0.0, e)
        e = np.where((np.sign(m0) != np.sign(m1)) & (abs(e) > 3 * abs(m0)), 3 * m0, e)
        d = np.vstack([e[:1], inner, e[1:]])
    i = np.clip(np.searchsorted(x, at, side="right") - 1, 0, len(x) - 2)
    s, h, m = (at - x[i])[:, None], h[i], m[i]
    t = (d[i] + d[i + 1] - 2 * m) / h
    out = y[i] + d[i] * s + ((m - d[i]) / h - t) * (s * s) + t / h * (s * s * s)
    out[at == x[-1]] = y[-1]
    return out


@dataclass
class CalibrationCurve:
    """Forward-model sweep for one probe variant of a class."""

    label: str
    forces: np.ndarray
    energies: np.ndarray        # integrated |dev| per blob, intensity mm^2;
                                # strictly increasing
    gyrations: np.ndarray       # radius of gyration, mm
    raw_ws: np.ndarray          # measured box extents before correction
    raw_hs: np.ndarray
    gt_ws: np.ndarray
    gt_hs: np.ndarray

    @functools.cached_property
    def resampled(self) -> tuple:
        """(grid, columns): 401 forces spanning the curve, and the six columns
        after ``forces`` on them by ``monotone_cubic``; built on first use."""
        grid = np.linspace(float(self.forces[0]), float(self.forces[-1]), 401)
        columns = np.column_stack([self.energies, self.gyrations, self.raw_ws,
                                   self.raw_hs, self.gt_ws, self.gt_hs])
        return grid, monotone_cubic(self.forces, columns, grid).T


@dataclass
class CalibrationTable:
    class_name: str
    curves: list
    params_hash: str

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "class_name": self.class_name,
            "params_hash": self.params_hash,
            "curves": [{
                "label": c.label,
                "forces": list(map(float, c.forces)),
                "energies": list(map(float, c.energies)),
                "gyrations": list(map(float, c.gyrations)),
                "raw_ws": list(map(float, c.raw_ws)),
                "raw_hs": list(map(float, c.raw_hs)),
                "gt_ws": list(map(float, c.gt_ws)),
                "gt_hs": list(map(float, c.gt_hs)),
            } for c in self.curves],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CalibrationTable":
        if data["schema_version"] != SCHEMA_VERSION:  # other columns: stale, not malformed
            raise StaleCalibrationError(SCHEMA_VERSION, data["schema_version"],
                                        what="schema version")
        curves = [CalibrationCurve(
            label=c["label"],
            forces=np.array(c["forces"]),
            energies=np.array(c["energies"]),
            gyrations=np.array(c["gyrations"]),
            raw_ws=np.array(c["raw_ws"]),
            raw_hs=np.array(c["raw_hs"]),
            gt_ws=np.array(c["gt_ws"]),
            gt_hs=np.array(c["gt_hs"]),
        ) for c in data["curves"]]
        return cls(class_name=data["class_name"], curves=curves,
                   params_hash=data["params_hash"])


@dataclass(frozen=True)
class ForceEstimate:
    force_n: float
    variant_label: str
    out_of_range: bool


def _weighted_percentiles(values: np.ndarray, weights: np.ndarray, qs) -> list:
    order = np.argsort(values, kind="stable")
    v, w = values[order], weights[order]
    cum = np.cumsum(w)
    last = v.size - 1
    return [float(v[np.searchsorted(cum, q / 100.0 * cum[-1], side="left").clip(0, last)])
            for q in qs]


def box_extents(blob: Blob, theta_deg: float):
    """Raw oriented extents from 2nd/98th weighted percentile projections.

    Returns (cx, cy, w, h) in mm with the box axis along theta_deg.
    """
    xs_mm, ys_mm = blob.pixel_xy_mm()
    t = math.radians(theta_deg)
    c, s = math.cos(t), math.sin(t)
    u = xs_mm * c + ys_mm * s
    v = -xs_mm * s + ys_mm * c
    u2, u98 = _weighted_percentiles(u, blob.weights, (2, 98))
    v2, v98 = _weighted_percentiles(v, blob.weights, (2, 98))
    cu, cv = (u2 + u98) / 2.0, (v2 + v98) / 2.0
    cx = cu * c - cv * s
    cy = cu * s + cv * c
    return cx, cy, max(u98 - u2, blob.scale_mm_per_px), max(v98 - v2, blob.scale_mm_per_px)


def _decode_measurements(dev: np.ndarray, sensor: SensorConfig, cfg: DecodeConfig,
                         window: PixelWindow | None = None):
    """Blobs of a deviation that covers ``window`` of the raster (default: all
    of it) and is 0 beyond it, labelled around the pixels that can reach the
    threshold and filtered on a crop twice the kernel's radius wider,
    zero-padded (see the module docstring)."""
    window = window or PixelWindow.full(dev.shape[0])
    threshold = cfg.effective_threshold(sensor)
    reaches = np.abs(dev) >= threshold * (1.0 - 2.0 ** -40)
    rows = np.flatnonzero(reaches.any(axis=1))
    if rows.size == 0:
        return []
    cols = np.flatnonzero(reaches.any(axis=0))
    core = PixelWindow(window.y0 + int(rows[0]), window.y0 + int(rows[-1]) + 1,
                       window.x0 + int(cols[0]), window.x0 + int(cols[-1]) + 1,
                       window.n)
    radius = cfg.denoise_radius_px(sensor)
    crop, labelled = core.grow(2 * radius), core.grow(radius)
    given = PixelWindow(max(crop.y0, window.y0), min(crop.y1, window.y1),
                        max(crop.x0, window.x0), min(crop.x1, window.x1), window.n)
    dev = dev[given.slices_in(window)]
    if given != crop:
        dev = np.pad(dev, ((given.y0 - crop.y0, crop.y1 - given.y1),
                           (given.x0 - crop.x0, crop.x1 - given.x1)))
    sp = cfg.denoise_sigma_px(sensor)
    if sp > 0:
        dev = ndimage.gaussian_filter(dev, sigma=sp, truncate=_GAUSS_TRUNCATE)
    return extract_blobs(dev[labelled.slices_in(crop)], sensor.scale_mm_per_px,
                         threshold, cfg.min_area_mm2, window=labelled)


def _calibration_blobs(probe, force: float, material: MaterialParams,
                       illum: IlluminationModel, sensor: SensorConfig,
                       cfg: DecodeConfig, reference: TactileImage):
    """Noise-free forward render of a centred probe and its blobs, measured
    on ``render_window``'s pixels alone."""
    scenario = calibration_scenario(probe, force)
    window, patch = render_window(scenario, material, illum, sensor)
    dev = patch.pixels - reference.pixels[window.slices]
    return _decode_measurements(dev, sensor, cfg, window), ground_truth(scenario, material)


def calibration_scenario(probe, force: float) -> ContactScenario:
    return ContactScenario(probe=probe, x_mm=0.0, y_mm=0.0, theta_deg=0.0,
                           force_n=force, noise_sigma=0.0)


def _sweep_curve(probe, material: MaterialParams, illum: IlluminationModel,
                 sensor: SensorConfig, cfg: DecodeConfig, reference: TactileImage,
                 forces, keep=()):
    """One probe variant's sweep over ``forces``, its punch profile reused
    across them. Returns the curve and, for each force in ``keep``, a list of
    its first blob if it had one.

    Raises CalibrationError if no force gives a blob, if the blob vanishes
    above the visibility floor, or if its deviation energy is not strictly
    increasing in force; such a sweep cannot be inverted for force. The area
    need not rise.
    """
    class_name = probe.class_name
    rows = []   # in CalibrationCurve's column order, force first
    kept = {force: [] for force in keep}
    seen_blob = False
    with punch_profile_memo():
        for force in forces:
            if force == 0:
                rows.append((force, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
                continue
            blobs, gt = _calibration_blobs(probe, force, material, illum,
                                           sensor, cfg, reference)
            if force in kept:
                kept[force] = blobs[:1]
            if not blobs:
                if seen_blob:
                    raise CalibrationError(
                        f"{class_name}: blob vanished at {force} N after "
                        "appearing at a lower force; simulator parameters "
                        "are inconsistent")
                continue  # below the visibility floor: no usable row
            seen_blob = True
            blob = blobs[0]
            _, _, raw_w, raw_h = box_extents(blob, 0.0)
            rows.append((force, blob.deviation_integral, blob.gyration_mm,
                         raw_w, raw_h, gt.box.w, gt.box.h))
    if not seen_blob:
        raise CalibrationError(
            f"{class_name} ({probe.label}): no force in the grid "
            "produces a detectable signature")
    curve = CalibrationCurve(probe.label, *np.array(rows, dtype=float).T)
    drops = np.flatnonzero(np.diff(curve.energies) <= 0)
    if drops.size:
        i = drops[0]
        (f0, f1), (e0, e1) = curve.forces[i:i + 2], curve.energies[i:i + 2]
        raise CalibrationError(
            f"{class_name} ({probe.label}): deviation energy is not "
            f"strictly increasing in force: {e1:.10g} at "
            f"{f1:g} N after {e0:.10g} at {f0:g} N")
    return curve, list(kept.values())


def _class_sweeps(probes: list, material: MaterialParams, illum: IlluminationModel,
                  sensor: SensorConfig, cfg: DecodeConfig) -> dict:
    """Every probe's force sweep, as a list of (curve, kept blobs) per class
    in sorted class order, the probes of a class in their given order.

    Probes sharing a class name are variants of one calibration table (e.g.
    the five sphere diameters). Each sweep is an independent unit of work in
    a forked worker; the sweep of each class's middle probe also keeps its
    blobs at the template forces. Results and errors are taken in the order
    of a serial run, so the output does not depend on how many workers run
    them.
    """
    by_class: dict = {}
    for probe in probes:
        by_class.setdefault(probe.class_name, []).append(probe)
    classes = sorted(by_class)
    reference = make_reference(sensor, illum)
    args = (material, illum, sensor, cfg, reference, CALIBRATION_FORCES)
    results = iter(run_units(
        [functools.partial(_sweep_curve, p, *args,
                           keep=TEMPLATE_FORCES if i == len(by_class[cls]) // 2 else ())
         for cls in classes for i, p in enumerate(by_class[cls])],
        fork=True))
    return {cls: [next(results) for _ in by_class[cls]] for cls in classes}


def build_calibration(class_name: str, probes: list, material: MaterialParams,
                      illum: IlluminationModel, sensor: SensorConfig,
                      cfg: DecodeConfig) -> CalibrationTable:
    """The calibration table ``build_decoder`` builds for ``class_name`` from
    these probes. Kept only because the benchmark's tracer wraps it by name;
    it goes once that tracer sees ``build_decoder``'s worker sweeps."""
    for probe in probes:
        if probe.class_name != class_name:
            raise CalibrationError(
                f"probe class {probe.class_name!r} does not match table class "
                f"{class_name!r}")
    sweeps = _class_sweeps(probes, material, illum, sensor, cfg)
    return CalibrationTable(class_name=class_name,
                            curves=[curve for curve, _ in sweeps.get(class_name, [])],
                            params_hash=params_hash(material, illum, sensor, cfg))


# Observable scales for the weighted fit: an absolute floor plus a relative
# term that absorbs rotation/discretization transfer error.
_ENERGY_SCALE = (0.02, 0.015)    # intensity mm^2 floor, relative
_GYRATION_SCALE = (0.5, 0.01)    # pixel pitches floor, relative


def estimate_force(blob: Blob, class_name: str, table: CalibrationTable) -> ForceEstimate:
    """Invert the force calibration for a blob of a known class.

    The force and the probe-size variant are the pair whose calibrated
    deviation energy and radius of gyration fit the blob's best, in a weighted
    least-squares sense over each variant's full curve. The energy sets the
    force; the radius tells probe sizes of one energy apart, since by Hertz a
    larger sphere spreads wider at the same load. Clamped to the calibrated
    range; an energy more than 2 % past the top of the chosen curve is flagged
    out of range.
    """
    if table.class_name != class_name:
        raise CalibrationError(
            f"calibration table is for {table.class_name!r}, not {class_name!r}")
    energy, r_g = blob.deviation_integral, blob.gyration_mm
    s_e = _ENERGY_SCALE[0] + _ENERGY_SCALE[1] * energy
    s_g = _GYRATION_SCALE[0] * blob.scale_mm_per_px + _GYRATION_SCALE[1] * r_g
    best = None
    for curve in table.curves:
        grid, (energies, gyrations, *_) = curve.resampled
        resid = ((energies - energy) / s_e) ** 2 + ((gyrations - r_g) / s_g) ** 2
        k = int(np.argmin(resid))
        if best is None or resid[k] < best[0]:
            best = (resid[k], float(grid[k]), curve)
    _, force, curve = best
    out_of_range = energy > float(curve.energies[-1]) * 1.02
    return ForceEstimate(force_n=min(max(force, 0.0), float(curve.forces[-1])),
                         variant_label=curve.label,
                         out_of_range=out_of_range)


def corrected_box(blob: Blob, theta_deg: float, force_n: float,
                  curve: CalibrationCurve) -> OrientedBox:
    """Detection box: raw percentile extents rescaled by the calibration's
    measured-to-true ratio at the estimated force."""
    cx, cy, raw_w, raw_h = box_extents(blob, theta_deg)
    grid, (_, _, *boxes) = curve.resampled
    cal_raw_w, cal_raw_h, gt_w, gt_h = (float(np.interp(force_n, grid, c)) for c in boxes)
    w = raw_w * gt_w / cal_raw_w if cal_raw_w > 0 else raw_w
    h = raw_h * gt_h / cal_raw_h if cal_raw_h > 0 else raw_h
    return OrientedBox(cx, cy, max(w, 1e-6), max(h, 1e-6), theta_deg)


# ---------------------------------------------------------------------------
# The assembled decoder.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Detection:
    box: OrientedBox
    class_name: str
    theta_deg: float
    force_n: float
    score: float

    def to_json_dict(self) -> dict:
        return {
            "class": self.class_name,
            "cx_mm": self.box.cx,
            "cy_mm": self.box.cy,
            "w_mm": self.box.w,
            "h_mm": self.box.h,
            "theta_deg": self.theta_deg,
            "force_n": self.force_n,
            "score": self.score,
        }


def _templates(sweeps: dict, phash: str) -> TemplateLibrary:
    """Template library from ``_class_sweeps``' output: the canonical masks
    of each class's middle probe's blobs at the template forces, turned by
    the class's offset, the moment angle at the first force (0 if that pose
    is not confident)."""
    offsets, variants = {}, {}
    for cls, swept in sweeps.items():
        offset, variants[cls] = None, []
        for force, blobs in zip(TEMPLATE_FORCES, swept[len(swept) // 2][1]):
            if not blobs:
                raise CalibrationError(
                    f"template for {cls} at {force} N produced no blob")
            if offset is None:
                pose = estimate_pose(blobs[0])
                offset = pose.theta_deg if pose.confident else 0.0
            mask = _canonical_patches(blobs[0], [offset])[0]
            variants[cls].append(TemplateVariant(mask, force))
        offsets[cls] = offset
    return TemplateLibrary(classes=list(sweeps), variants=variants, offsets=offsets,
                           canonical_size=CANONICAL_SIZE, params_hash=phash)


def build_templates(probes: list, material: MaterialParams,
                    illum: IlluminationModel, sensor: SensorConfig,
                    cfg: DecodeConfig) -> TemplateLibrary:
    """The template library ``build_decoder`` builds from these probes. Kept
    only because the benchmark's tracer wraps it by name; it goes once that
    tracer sees ``build_decoder``'s worker sweeps."""
    return _templates(_class_sweeps(probes, material, illum, sensor, cfg),
                      params_hash(material, illum, sensor, cfg))


class TactileDecoder:
    """Calibrated extraction pipeline bound to one simulator configuration."""

    def __init__(self, material: MaterialParams, illum: IlluminationModel,
                 sensor: SensorConfig, cfg: DecodeConfig,
                 calibrations: dict, templates: TemplateLibrary):
        self.material = material
        self.illum = illum
        self.sensor = sensor
        self.cfg = cfg
        self.calibrations = calibrations
        self.templates = templates
        self.reference = make_reference(sensor, illum)
        expected = params_hash(material, illum, sensor, cfg)
        for table in calibrations.values():
            if table.params_hash != expected:
                raise StaleCalibrationError(expected, table.params_hash)
        if templates.params_hash != expected:
            raise StaleCalibrationError(expected, templates.params_hash)

    def decode(self, image: TactileImage) -> list[Detection]:
        blobs = _decode_measurements(difference_image(image, self.reference),
                                     self.sensor, self.cfg)
        detections = []
        for blob in blobs:
            pose = estimate_pose(blob)
            cls, score = classify(blob, self.templates, pose)
            if pose.confident:
                theta = normalize_angle(pose.theta_deg - self.templates.offsets[cls])
            else:
                theta = 0.0
            if cls not in self.calibrations:
                raise CalibrationError(f"no calibration table for class {cls!r}")
            table = self.calibrations[cls]
            est = estimate_force(blob, cls, table)
            curve = next(c for c in table.curves if c.label == est.variant_label)
            box = corrected_box(blob, theta, est.force_n, curve)
            detections.append(Detection(box=box, class_name=cls, theta_deg=theta,
                                        force_n=est.force_n, score=score))
        detections.sort(key=lambda d: -d.score)
        return detections


def build_decoder(probes: list, material: MaterialParams,
                  illum: IlluminationModel, sensor: SensorConfig,
                  cfg: DecodeConfig) -> TactileDecoder:
    """Calibrate and assemble a decoder for a probe library: one table per
    class from its probes' sweeps, and the templates from the same sweeps
    (see ``_class_sweeps``). Every sweep error comes before any template
    error, as in a serial run that renders the templates last."""
    sweeps = _class_sweeps(probes, material, illum, sensor, cfg)
    phash = params_hash(material, illum, sensor, cfg)
    calibrations = {cls: CalibrationTable(cls, [curve for curve, _ in swept], phash)
                    for cls, swept in sweeps.items()}
    return TactileDecoder(material, illum, sensor, cfg, calibrations,
                          _templates(sweeps, phash))
