"""Model-based extraction: invert the forward model image-side.

Pipeline: difference against the flat reference, denoise, threshold into
blobs, estimate pose from second moments, classify by rotation- and
scale-normalized mask correlation against forward-model templates, and invert
a per-class force calibration table (area first, edge contrast to pick among
probe-size variants whose areas overlap). Detection boxes come from weighted
percentile extents along the principal axes, rescaled by the calibration's
measured-vs-true box ratio so they track the contact footprint rather than
the wider deviation band.

The calibration sweeps render noise-free images whose pixels equal the flat
reference outside ``render.contact_window``, so their deviation is exactly 0
there. They subtract and filter only that window widened by the denoise
filter's radius, beyond which the filtered deviation is exactly 0 too, and
pad the result with zeros by half the merge distance, so that fragment
merging finds every pixel it could join through inside. The filter's
reflected border then reads only zero pixels at the window's inner edges and
reflects as on the whole raster at the raster's edges. Blob pixels, moments
and areas come out bit-equal to a whole-raster measurement.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .contact import (ContactScenario, MaterialParams, Probe, SphereProbe,
                      StripProbe, punch_profile_memo)
from .errors import CalibrationError, ConfigError, StaleCalibrationError
from .frames import PixelWindow, SensorConfig, mm_to_px, px_to_mm
from .geometry import OrientedBox, normalize_angle
from .render import (IlluminationModel, TactileImage, contact_window,
                     make_reference, simulate)

SCHEMA_VERSION = 1
CALIBRATION_FORCES = tuple(np.arange(0.0, 10.0 + 1e-9, 0.25))
_GAUSS_TRUNCATE = 3.0


@dataclass(frozen=True)
class DecodeConfig:
    """Decode-side knobs; all enter the calibration parameter hash."""

    noise_sigma: float = 0.0
    threshold: float | None = None      # None: 0.01 at sigma=0, else 3x filtered noise
    denoise_sigma_mm: float = 0.25
    min_area_mm2: float = 1.0
    merge_dist_mm: float = 3.0
    low_eccentricity: float = 0.05
    canonical_size: int = 64
    canonical_pad: float = 1.15
    rotation_step_deg: float = 10.0
    template_forces: tuple = (2.0, 6.0)

    def denoise_sigma_px(self, sensor: SensorConfig) -> float:
        return self.denoise_sigma_mm / sensor.scale_mm_per_px

    def filtered_noise_sigma(self, sensor: SensorConfig) -> float:
        """Pixel-noise std after the denoise filter (white-noise propagation)."""
        if self.noise_sigma == 0:
            return 0.0
        s = self.denoise_sigma_px(sensor)
        if s <= 0:
            return self.noise_sigma
        radius = int(math.ceil(_GAUSS_TRUNCATE * s))
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
            "merge_dist_mm": self.merge_dist_mm,
            "low_eccentricity": self.low_eccentricity,
            "canonical_size": self.canonical_size,
            "canonical_pad": self.canonical_pad,
            "rotation_step_deg": self.rotation_step_deg,
            "template_forces": list(self.template_forces),
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
    mean_dev: float
    peak_dev: float
    edge_contrast: float        # 98th percentile of |dev| over the blob
    deviation_integral: float   # sum of |dev| times pixel area, intensity mm^2
    ys: np.ndarray              # pixel rows
    xs: np.ndarray              # pixel cols
    weights: np.ndarray         # |dev| at the pixels
    scale_mm_per_px: float
    extent_mm: float

    def pixel_xy_mm(self):
        return px_to_mm(self.xs, self.ys, self.scale_mm_per_px, self.extent_mm)


def extract_blobs(dev: np.ndarray, scale_mm_per_px: float, threshold: float,
                  min_area_mm2: float = 1.0, merge_dist_mm: float = 3.0,
                  window: PixelWindow | None = None) -> list[Blob]:
    """8-connected components of |dev| >= threshold, nearby fragments merged.

    Fragments closer than merge_dist_mm belong to one contact signature (flat
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
    if merge_dist_mm > 0 and n_groups > 1:
        dist = ndimage.distance_transform_edt(~mask, sampling=scale_mm_per_px)
        groups, n_groups = ndimage.label(dist <= merge_dist_mm / 2.0, structure=eight)
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
            mean_dev=float(gw.mean()),
            peak_dev=float(gw.max()),
            edge_contrast=float(np.percentile(gw, 98)),
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


def estimate_pose(blob: Blob, low_eccentricity: float = 0.05) -> PoseEstimate:
    """Principal-axis orientation of the blob's weighted second moments."""
    trace = blob.mu20 + blob.mu02
    if trace <= 0:
        raise ValueError("degenerate blob moments")
    anisotropy = math.hypot(blob.mu20 - blob.mu02, 2.0 * blob.mu11) / trace
    if anisotropy < low_eccentricity:
        return PoseEstimate(0.0, False)
    theta = 0.5 * math.degrees(math.atan2(2.0 * blob.mu11, blob.mu20 - blob.mu02))
    return PoseEstimate(normalize_angle(theta), True)


# ---------------------------------------------------------------------------
# Template classification.
# ---------------------------------------------------------------------------

def _canonical_patches(blob: Blob, angles_deg, size: int, pad: float) -> np.ndarray:
    """Resample the blob mask into (len(angles), size, size) patches,
    normalized for rotation (by each angle) and scale (by the blob's
    99th-percentile radius)."""
    xs_mm, ys_mm = blob.pixel_xy_mm()
    cx, cy = blob.centroid_mm
    r99 = np.percentile(np.hypot(xs_mm - cx, ys_mm - cy), 99)
    half_extent = max(pad * r99, blob.scale_mm_per_px)
    t = np.radians(np.asarray(angles_deg, dtype=float))[:, None, None]
    c, s = np.cos(t), np.sin(t)
    lin = ((np.arange(size) + 0.5) / size * 2.0 - 1.0) * half_extent
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


def _canonical_patch(blob: Blob, angle_deg: float, size: int, pad: float) -> np.ndarray:
    return _canonical_patches(blob, [angle_deg], size, pad)[0]


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
             pose: PoseEstimate | None = None,
             rotation_step_deg: float = 10.0,
             canonical_pad: float = 1.15):
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
        angles = list(np.arange(0.0, 360.0, rotation_step_deg))
    size = templates.canonical_size
    patches = _canonical_patches(blob, angles, size, canonical_pad).reshape(len(angles), -1)
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

@dataclass
class CalibrationCurve:
    """Forward-model sweep for one probe variant of a class."""

    label: str
    forces: np.ndarray
    areas: np.ndarray           # strictly increasing past the zero row
    contrasts: np.ndarray
    energies: np.ndarray        # integrated |dev| per blob, intensity mm^2
    raw_ws: np.ndarray          # measured box extents before correction
    raw_hs: np.ndarray
    gt_ws: np.ndarray
    gt_hs: np.ndarray


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
                "areas": list(map(float, c.areas)),
                "contrasts": list(map(float, c.contrasts)),
                "energies": list(map(float, c.energies)),
                "raw_ws": list(map(float, c.raw_ws)),
                "raw_hs": list(map(float, c.raw_hs)),
                "gt_ws": list(map(float, c.gt_ws)),
                "gt_hs": list(map(float, c.gt_hs)),
            } for c in self.curves],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CalibrationTable":
        curves = [CalibrationCurve(
            label=c["label"],
            forces=np.array(c["forces"]),
            areas=np.array(c["areas"]),
            contrasts=np.array(c["contrasts"]),
            energies=np.array(c["energies"]),
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


def _decode_measurements(image: TactileImage, reference: TactileImage,
                         sensor: SensorConfig, cfg: DecodeConfig,
                         window: PixelWindow | None = None):
    """Blobs of image - reference; ``window``, when given, holds every pixel
    where the two differ (see the module docstring)."""
    sp = cfg.denoise_sigma_px(sensor)
    if window is None:
        dev = _denoised(difference_image(image, reference), sp)
    else:
        # scipy's Gaussian kernel radius, then the merge reach in pixels
        radius = int(_GAUSS_TRUNCATE * sp + 0.5) if sp > 0 else 0
        merge_px = math.ceil(cfg.merge_dist_mm / 2.0 / sensor.scale_mm_per_px)
        inner, window = window.grow(radius), window.grow(radius + merge_px)
        dev = np.zeros(window.shape)
        dev[inner.slices_in(window)] = _denoised(
            difference_image(_crop(image, inner), _crop(reference, inner)), sp)
    return extract_blobs(dev, sensor.scale_mm_per_px,
                         cfg.effective_threshold(sensor),
                         cfg.min_area_mm2, cfg.merge_dist_mm, window=window)


def _denoised(dev: np.ndarray, sigma_px: float) -> np.ndarray:
    if sigma_px <= 0:
        return dev
    return ndimage.gaussian_filter(dev, sigma=sigma_px, truncate=_GAUSS_TRUNCATE)


def _crop(image: TactileImage, window: PixelWindow) -> TactileImage:
    return TactileImage(image.pixels[window.slices], image.scale_mm_per_px,
                        image.is_reference)


def _calibration_blobs(probe: Probe, force: float, material: MaterialParams,
                       illum: IlluminationModel, sensor: SensorConfig,
                       cfg: DecodeConfig, reference: TactileImage):
    """Noise-free forward render of a centred probe, measured on its window."""
    scenario = calibration_scenario(probe, force)
    image, gt = simulate(scenario, material, illum, sensor)
    window = contact_window(scenario, material, illum, sensor)
    return _decode_measurements(image, reference, sensor, cfg, window), gt


def calibration_scenario(probe: Probe, force: float) -> ContactScenario:
    return ContactScenario(probe=probe, x_mm=0.0, y_mm=0.0, theta_deg=0.0,
                           force_n=force, noise_sigma=0.0)


def build_calibration(class_name: str, probes: list, material: MaterialParams,
                      illum: IlluminationModel, sensor: SensorConfig,
                      cfg: DecodeConfig,
                      forces=CALIBRATION_FORCES) -> CalibrationTable:
    """Sweep the forward model over a force grid for each probe variant.

    Raises CalibrationError if the measured area is not strictly increasing;
    a non-monotone sweep means the simulator configuration cannot support
    inverse force lookup.
    """
    reference = make_reference(sensor, illum)
    curves = []
    for probe in probes:
        if probe.class_name != class_name:
            raise CalibrationError(
                f"probe class {probe.class_name!r} does not match table class "
                f"{class_name!r}")
        rows = {"force": [], "area": [], "contrast": [], "energy": [],
                "raw_w": [], "raw_h": [], "gt_w": [], "gt_h": []}
        seen_blob = False
        for force in forces:
            if force == 0:
                vals = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            else:
                blobs, gt = _calibration_blobs(probe, force, material, illum,
                                               sensor, cfg, reference)
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
                vals = (blob.area_mm2, blob.edge_contrast,
                        blob.deviation_integral, raw_w, raw_h,
                        gt.box.w, gt.box.h)
            for key, value in zip(("area", "contrast", "energy", "raw_w",
                                   "raw_h", "gt_w", "gt_h"), vals):
                rows[key].append(value)
            rows["force"].append(force)
        if not seen_blob:
            raise CalibrationError(
                f"{class_name} ({_variant_label(probe)}): no force in the grid "
                "produces a detectable signature")
        areas = np.array(rows["area"])
        drops = np.flatnonzero(np.diff(areas) <= 0)
        if drops.size:
            i = drops[0]
            f0, f1 = rows["force"][i], rows["force"][i + 1]
            raise CalibrationError(
                f"{class_name} ({_variant_label(probe)}): deviation area is not "
                f"strictly increasing in force: {areas[i + 1]:.10g} mm^2 at "
                f"{f1:g} N after {areas[i]:.10g} mm^2 at {f0:g} N")
        curves.append(CalibrationCurve(
            label=_variant_label(probe),
            forces=np.array(rows["force"]),
            areas=areas,
            contrasts=np.array(rows["contrast"]),
            energies=np.array(rows["energy"]),
            raw_ws=np.array(rows["raw_w"]),
            raw_hs=np.array(rows["raw_h"]),
            gt_ws=np.array(rows["gt_w"]),
            gt_hs=np.array(rows["gt_h"]),
        ))
    return CalibrationTable(class_name=class_name, curves=curves,
                            params_hash=params_hash(material, illum, sensor, cfg))


def _variant_label(probe: Probe) -> str:
    if isinstance(probe, SphereProbe):
        return f"sphere_d{probe.diameter_mm:g}"
    if isinstance(probe, StripProbe):
        return f"strip_{probe.length_mm:g}x{probe.width_mm:g}"
    return probe.name


_LOG_CONTRAST_FLOOR = 0.002
# Observable scales for the weighted refinement: an absolute floor plus a
# relative term that absorbs rotation/discretization transfer error.
_AREA_SCALE = (0.5, 0.01)        # mm^2 floor, relative
_CONTRAST_SCALE = (0.002, 0.05)  # intensity floor, relative
_ENERGY_SCALE = (0.02, 0.015)    # intensity mm^2 floor, relative


def estimate_force(blob: Blob, class_name: str, table: CalibrationTable) -> ForceEstimate:
    """Invert the force calibration for a blob of a known class.

    Area is inverted on each variant's monotone curve and edge contrast picks
    the variant (two probe sizes can share an area). The force is then read
    off a sensitivity-weighted fit of area, contrast, and integrated
    deviation over the variant's full curve, so each observable contributes
    only where its curve actually moves. Clamped to the calibrated range.
    """
    if table.class_name != class_name:
        raise CalibrationError(
            f"calibration table is for {table.class_name!r}, not {class_name!r}")
    best = None
    for curve in table.curves:
        f_area = float(np.interp(blob.area_mm2, curve.areas, curve.forces))
        c_pred = float(np.interp(f_area, curve.forces, curve.contrasts))
        resid = abs(math.log((c_pred + _LOG_CONTRAST_FLOOR)
                             / (blob.edge_contrast + _LOG_CONTRAST_FLOOR)))
        if best is None or resid < best[0]:
            best = (resid, curve, f_area)
    _, curve, f_area = best
    grid = np.linspace(float(curve.forces[0]), float(curve.forces[-1]), 401)
    areas = np.interp(grid, curve.forces, curve.areas)
    contrasts = np.interp(grid, curve.forces, curve.contrasts)
    energies = np.interp(grid, curve.forces, curve.energies)
    s_a = _AREA_SCALE[0] + _AREA_SCALE[1] * blob.area_mm2
    s_c = _CONTRAST_SCALE[0] + _CONTRAST_SCALE[1] * blob.edge_contrast
    s_e = _ENERGY_SCALE[0] + _ENERGY_SCALE[1] * blob.deviation_integral
    resid = (((areas - blob.area_mm2) / s_a) ** 2
             + ((contrasts - blob.edge_contrast) / s_c) ** 2
             + ((energies - blob.deviation_integral) / s_e) ** 2)
    force = float(grid[int(np.argmin(resid))])
    out_of_range = blob.area_mm2 > float(curve.areas[-1]) * 1.02
    return ForceEstimate(force_n=min(max(force, 0.0), float(curve.forces[-1])),
                         variant_label=curve.label,
                         out_of_range=out_of_range)


def corrected_box(blob: Blob, theta_deg: float, force_n: float,
                  curve: CalibrationCurve) -> OrientedBox:
    """Detection box: raw percentile extents rescaled by the calibration's
    measured-to-true ratio at the estimated force."""
    cx, cy, raw_w, raw_h = box_extents(blob, theta_deg)
    cal_raw_w = float(np.interp(force_n, curve.forces, curve.raw_ws))
    cal_raw_h = float(np.interp(force_n, curve.forces, curve.raw_hs))
    gt_w = float(np.interp(force_n, curve.forces, curve.gt_ws))
    gt_h = float(np.interp(force_n, curve.forces, curve.gt_hs))
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


def build_templates(probes: list, material: MaterialParams,
                    illum: IlluminationModel, sensor: SensorConfig,
                    cfg: DecodeConfig) -> TemplateLibrary:
    """Render each probe class at the template forces and store canonical masks."""
    reference = make_reference(sensor, illum)
    by_class: dict = {}
    offsets: dict = {}
    for probe in probes:
        cls = probe.class_name
        for force in cfg.template_forces:
            blobs, _ = _calibration_blobs(probe, force, material, illum,
                                          sensor, cfg, reference)
            if not blobs:
                raise CalibrationError(
                    f"template for {cls} at {force} N produced no blob")
            blob = blobs[0]
            pose = estimate_pose(blob, cfg.low_eccentricity)
            if cls not in offsets:
                offsets[cls] = pose.theta_deg if pose.confident else 0.0
            mask = _canonical_patch(blob, offsets[cls], cfg.canonical_size,
                                    cfg.canonical_pad)
            by_class.setdefault(cls, []).append(TemplateVariant(mask, force))
    return TemplateLibrary(
        classes=sorted(by_class),
        variants=by_class,
        offsets=offsets,
        canonical_size=cfg.canonical_size,
        params_hash=params_hash(material, illum, sensor, cfg),
    )


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

    def decode(self, image: TactileImage,
               reference: TactileImage | None = None) -> list[Detection]:
        reference = reference if reference is not None else self.reference
        blobs = _decode_measurements(image, reference, self.sensor, self.cfg)
        detections = []
        for blob in blobs:
            pose = estimate_pose(blob, self.cfg.low_eccentricity)
            cls, score = classify(blob, self.templates, pose,
                                  self.cfg.rotation_step_deg,
                                  self.cfg.canonical_pad)
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
    """Calibrate and assemble a decoder for a probe library.

    Probes sharing a class name become variants of one calibration table
    (e.g. the five sphere diameters).
    """
    by_class: dict = {}
    for probe in probes:
        by_class.setdefault(probe.class_name, []).append(probe)
    template_probes = [plist[len(plist) // 2] for _, plist in sorted(by_class.items())]
    with punch_profile_memo():
        calibrations = {
            cls: build_calibration(cls, plist, material, illum, sensor, cfg)
            for cls, plist in sorted(by_class.items())
        }
        templates = build_templates(template_probes, material, illum, sensor, cfg)
    return TactileDecoder(material, illum, sensor, cfg, calibrations, templates)
