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

SCHEMA_VERSION = 3
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

    The merge distance transform runs on the kept pixels' bounding box alone.
    Its zeros, the kept pixels, all lie in the box, and the transform reads
    only offsets between pixels, so each distance in the box is the whole
    raster's. An 8-connected chain of pixels within half the merge distance
    of the mask, clamped into the box, stays such a chain: clamping keeps
    neighbours neighbours and moves no pixel farther from any point of the
    box. So the kept pixels fall into the whole raster's groups. The groups'
    labels may come in another order, which orders only blobs that tie in
    both area and centroid.
    """
    if not (threshold > 0):
        raise ConfigError("threshold must be > 0")
    mask = dev >= threshold
    mask |= dev <= -threshold
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        return []
    px_area = scale_mm_per_px ** 2
    eight = np.ones((3, 3), dtype=int)
    labels, n_comp = ndimage.label(mask, structure=eight)
    # Component-level area filter first: isolated specks must not survive by
    # unioning with each other through the merge dilation.
    gid = labels[ys, xs] if n_comp > 1 else None
    keep = (np.bincount(gid, minlength=n_comp + 1) if n_comp > 1
            else np.array([0, ys.size])) * px_area >= min_area_mm2
    keep[0] = False
    if not keep.any():
        return []
    if not keep[1:].all():
        kept = keep[gid]
        ys, xs, gid = ys[kept], xs[kept], gid[kept]
    n_groups = int(keep.sum())
    if n_groups > 1:
        y0, x0 = int(ys[0]), int(xs.min())
        box = np.ones((int(ys[-1]) + 1 - y0, int(xs.max()) + 1 - x0), dtype=bool)
        box[ys - y0, xs - x0] = False
        dist = ndimage.distance_transform_edt(box, sampling=scale_mm_per_px)
        groups, n_groups = ndimage.label(dist <= MERGE_DIST_MM / 2.0, structure=eight)
        gid = groups[ys - y0, xs - x0]
    w = np.abs(dev[ys, xs])
    if n_groups == 1:
        bounds = [0, ys.size]
    else:
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

def _canonical_coords(blob: Blob, angles_deg):
    """Fractional pixel coordinates (fx, fy), each of shape (len(angles),
    CANONICAL_SIZE, CANONICAL_SIZE), of the canonical patches' sample points:
    a square grid about the centroid, rotated by each angle and scaled by the
    blob's 99th-percentile radius. Built in place, in the operation order of
    ``cx + U c - V s``, ``cy + U s + V c`` and ``mm_to_px``, so that every
    value equals that of the whole expressions bit for bit."""
    xs_mm, ys_mm = blob.pixel_xy_mm()
    cx, cy = blob.centroid_mm
    r99 = np.percentile(np.hypot(xs_mm - cx, ys_mm - cy), 99)
    half_extent = max(CANONICAL_PAD * r99, blob.scale_mm_per_px)
    t = np.radians(np.asarray(angles_deg, dtype=float))[:, None, None]
    c, s = np.cos(t), np.sin(t)
    lin = ((np.arange(CANONICAL_SIZE) + 0.5) / CANONICAL_SIZE * 2.0 - 1.0) * half_extent
    U, V = np.meshgrid(lin, lin)
    px, py, term = U * c, U * s, V * s
    px += cx        # cx + U c: addition commutes exactly
    px -= term
    py += cy
    py += np.multiply(V, c, out=term)
    return mm_to_px(px, py, blob.scale_mm_per_px, blob.extent_mm, out=(px, py))


def _canonical_patches(blob: Blob, angles_deg) -> np.ndarray:
    """Resample the blob mask into len(angles) square patches of side
    CANONICAL_SIZE, normalized for rotation (by each angle) and scale (by the
    blob's 99th-percentile radius): each sample point takes the mask pixel
    nearest to it, or False off the blob's bounding box."""
    fx, fy = _canonical_coords(blob, angles_deg)
    y0, x0 = blob.ys.min(), blob.xs.min()
    h, w = blob.ys.max() - y0 + 1, blob.xs.max() - x0 + 1
    # The mask's box with a False border, onto which every point off the box
    # is clipped. Rounded coordinates are small integers, so this is exact.
    box = np.zeros((h + 2, w + 2), dtype=bool)
    box[blob.ys - y0 + 1, blob.xs - x0 + 1] = True
    for f, origin, n in ((fx, x0, w), (fy, y0, h)):
        np.rint(f, out=f)
        f -= origin - 1
        np.clip(f, 0, n + 1, out=f)
    fy *= w + 2
    fy += fx
    return box.ravel()[fy.astype(np.intp)]


def classify(blob: Blob, models: dict, pose: PoseEstimate | None = None):
    """Best-matching class of the ``{class: ClassModel}`` models by mask IoU
    over candidate rotations.

    Returns (class_name, score). Confident poses need only the principal
    angle and its point reflection; isotropic blobs sweep rotations. Ties
    break toward the lexicographically smallest class name.
    """
    if not models:
        raise ValueError("no class models")
    if pose is not None and pose.confident:
        angles = [pose.theta_deg, pose.theta_deg + 180.0]
    else:
        angles = list(np.arange(0.0, 360.0, ROTATION_STEP_DEG))
    patches = _canonical_patches(blob, angles).reshape(len(angles), -1)
    masks = np.array([mask.ravel() for model in models.values()
                      for _, mask in model.variants]).reshape(-1, patches.shape[1])
    # Intersections are counts of at most CANONICAL_SIZE^2 pixels, exact in
    # float32; einsum, since a threaded BLAS product costs more than it saves.
    inter = np.einsum("ij,kj->ik", patches.astype(np.float32),
                      masks.astype(np.float32)).astype(np.int64)
    union = patches.sum(axis=1)[:, None] + masks.sum(axis=1) - inter
    scores = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
    ends = np.cumsum([len(model.variants) for model in models.values()])
    best_per_class = {cls: float(s.max(initial=0.0)) for cls, s in
                      zip(models, np.split(scores, ends[:-1], axis=1))}
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


_COLUMNS = ("forces", "energies", "gyrations", "raw_ws", "raw_hs", "gt_ws", "gt_hs")


@dataclass
class CalibrationCurve:
    """Forward-model sweep for one probe variant of a class; the fields after
    ``label`` are the ``_COLUMNS``."""

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


def _finite(value, field: str):
    """``value`` if it is a finite number, else a TypeError naming ``field``."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise TypeError(f"{field} must be a finite number, got {value!r}")
    return value


def _curve_from_json(entry: dict, field: str) -> CalibrationCurve:
    """A curve of the model file, once its columns are lists of finite numbers
    as long as ``forces``, which has at least two, starts at 0 and rises
    strictly, as ``energies`` does (see ``_sweep_curve``)."""
    columns = [entry[k] for k in _COLUMNS]
    for k, values in zip(_COLUMNS, columns):
        if type(values) is not list or not all(
                type(v) in (int, float) and math.isfinite(v) for v in values):
            raise TypeError(f"{field}.{k} must be a list of finite numbers")
        if len(values) != len(columns[0]):
            raise TypeError(f"{field}.{k} has {len(values)} values, "
                            f"forces has {len(columns[0])}")
    forces, energies, *rest = (np.array(c, dtype=float) for c in columns)
    if len(forces) < 2:
        raise TypeError(f"{field}.forces has {len(forces)} values, needs at least 2")
    if forces[0] != 0 or (np.diff(forces) <= 0).any():
        raise TypeError(f"{field}.forces must start at 0 and rise strictly")
    if (np.diff(energies) <= 0).any():
        raise TypeError(f"{field}.energies must rise strictly")
    return CalibrationCurve(entry["label"], forces, energies, *rest)


def _mask_from_json(rows, field: str) -> np.ndarray:
    """A template mask of the model file: CANONICAL_SIZE rows of as many 0s
    and 1s."""
    if (type(rows) is not list or len(rows) != CANONICAL_SIZE
            or any(type(row) is not str or len(row) != CANONICAL_SIZE for row in rows)):
        raise TypeError(f"{field} is not {CANONICAL_SIZE} x {CANONICAL_SIZE}")
    text = "".join(rows)
    if not set(text) <= {"0", "1"}:
        raise TypeError(f"{field} holds characters other than 0 and 1")
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(
        CANONICAL_SIZE, CANONICAL_SIZE) == ord("1")


@dataclass
class ClassModel:
    """One class of the decoder's model, field for field its entry in the
    model file: a forward-model curve per probe variant, the moment angle at
    scenario theta = 0 (its offset), and the canonical template masks with
    the forces they were rendered at."""

    curves: list                # CalibrationCurve per probe variant
    offset: float
    variants: list              # (force_n, mask) per template force

    def to_json(self) -> dict:
        """The class's entry in the model file, each mask as rows of 0s and 1s."""
        return {
            "curves": [{"label": c.label,
                        **{k: list(map(float, getattr(c, k))) for k in _COLUMNS}}
                       for c in self.curves],
            "offset": self.offset,
            "variants": [{"force_n": force,
                          "mask": ["".join("1" if b else "0" for b in row) for row in mask]}
                         for force, mask in self.variants],
        }

    @classmethod
    def from_json(cls, entry: dict, field: str) -> "ClassModel":
        """The class of a model-file entry at ``field``, once it holds what
        ``calibrate`` writes: curves and variants, each curve as
        ``_curve_from_json`` asks, each mask as ``_mask_from_json`` asks, and
        a finite offset and template forces. A field that breaks this is a
        TypeError naming it, which ``read_json`` reports as a malformed file."""
        for key in ("curves", "variants"):
            if not entry[key]:
                raise TypeError(f"{field}.{key} is empty")
        curves = [_curve_from_json(c, f"{field}.curves[{i}]")
                  for i, c in enumerate(entry["curves"])]
        variants = [(_finite(v["force_n"], f"{field}.variants[{i}].force_n"),
                     _mask_from_json(v["mask"], f"{field}.variants[{i}].mask"))
                    for i, v in enumerate(entry["variants"])]
        return cls(curves, _finite(entry["offset"], f"{field}.offset"), variants)


@dataclass(frozen=True)
class ForceEstimate:
    force_n: float
    curve: CalibrationCurve     # the probe variant whose curve fits best
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
    zero-padded (see the module docstring). ``dev`` is consumed: the filter
    writes into it, so callers pass a temporary."""
    window = window or PixelWindow.full(dev.shape[0])
    threshold = cfg.effective_threshold(sensor)
    t0 = threshold * (1.0 - 2.0 ** -40)
    reaches = dev >= t0
    reaches |= dev <= -t0
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
        ndimage.gaussian_filter(dev, sigma=sp, truncate=_GAUSS_TRUNCATE, output=dev)
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


def _class_models(probes: list, material: MaterialParams, illum: IlluminationModel,
                  sensor: SensorConfig, cfg: DecodeConfig) -> dict:
    """Each class's model from its probes' force sweeps, in sorted class order.

    Probes sharing a class name are variants of one class (e.g. the five
    sphere diameters), each giving a curve, in their given order. Each sweep
    is an independent unit of work in a forked worker; the sweep of each
    class's middle probe also keeps its blobs at the template forces. Their
    canonical masks, turned by the class's offset (the moment angle at the
    first template force, 0 if that pose is not confident), are the class's
    template variants. Results and errors are taken in the order of a serial
    run that renders the templates after every sweep, so every sweep error
    comes before any template error, and the output does not depend on how
    many workers run them.
    """
    by_class: dict = {}
    for probe in probes:
        by_class.setdefault(probe.class_name, []).append(probe)
    classes = sorted(by_class)
    args = (material, illum, sensor, cfg, make_reference(sensor, illum), CALIBRATION_FORCES)
    results = iter(run_units(
        [functools.partial(_sweep_curve, p, *args,
                           keep=TEMPLATE_FORCES if i == len(by_class[cls]) // 2 else ())
         for cls in classes for i, p in enumerate(by_class[cls])],
        fork=True))
    del args    # the reference raster, 3.3 MB at 640 px, is freed before the templates
    sweeps = {cls: [next(results) for _ in by_class[cls]] for cls in classes}
    models = {}
    for cls, swept in sweeps.items():
        offset, variants = None, []
        for force, blobs in zip(TEMPLATE_FORCES, swept[len(swept) // 2][1]):
            if not blobs:
                raise CalibrationError(
                    f"template for {cls} at {force} N produced no blob")
            if offset is None:
                pose = estimate_pose(blobs[0])
                offset = pose.theta_deg if pose.confident else 0.0
            variants.append((force, _canonical_patches(blobs[0], [offset])[0]))
        models[cls] = ClassModel([curve for curve, _ in swept], offset, variants)
    return models


def build_calibration(class_name: str, probes: list, material: MaterialParams,
                      illum: IlluminationModel, sensor: SensorConfig,
                      cfg: DecodeConfig) -> ClassModel:
    """The ``ClassModel`` ``build_decoder`` builds for ``class_name`` from
    these probes. Kept only because the benchmark's tracer wraps it by name
    and reads its ``curves``; it goes once that tracer sees ``build_decoder``'s
    worker sweeps."""
    return _class_models(probes, material, illum, sensor, cfg)[class_name]


# Observable scales for the weighted fit: an absolute floor plus a relative
# term that absorbs rotation/discretization transfer error.
_ENERGY_SCALE = (0.02, 0.015)    # intensity mm^2 floor, relative
_GYRATION_SCALE = (0.5, 0.01)    # pixel pitches floor, relative


def estimate_force(blob: Blob, curves: list) -> ForceEstimate:
    """Invert a class's force calibration, its ``curves``, for a blob.

    The force and the probe-size variant are the pair whose calibrated
    deviation energy and radius of gyration fit the blob's best, in a weighted
    least-squares sense over each variant's full curve. The energy sets the
    force; the radius tells probe sizes of one energy apart, since by Hertz a
    larger sphere spreads wider at the same load. Clamped to the calibrated
    range; an energy more than 2 % past the top of the chosen curve is flagged
    out of range.
    """
    energy, r_g = blob.deviation_integral, blob.gyration_mm
    s_e = _ENERGY_SCALE[0] + _ENERGY_SCALE[1] * energy
    s_g = _GYRATION_SCALE[0] * blob.scale_mm_per_px + _GYRATION_SCALE[1] * r_g
    best = None
    for curve in curves:
        grid, (energies, gyrations, *_) = curve.resampled
        resid = ((energies - energy) / s_e) ** 2 + ((gyrations - r_g) / s_g) ** 2
        k = int(np.argmin(resid))
        if best is None or resid[k] < best[0]:
            best = (resid[k], float(grid[k]), curve)
    _, force, curve = best
    out_of_range = energy > float(curve.energies[-1]) * 1.02
    return ForceEstimate(force_n=min(max(force, 0.0), float(curve.forces[-1])),
                         curve=curve, out_of_range=out_of_range)


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


def build_templates(probes: list, material: MaterialParams,
                    illum: IlluminationModel, sensor: SensorConfig,
                    cfg: DecodeConfig) -> dict:
    """The ``{class: ClassModel}`` models ``build_decoder`` builds from these
    probes. Kept only because the benchmark's tracer wraps it by name; it
    goes once that tracer sees ``build_decoder``'s worker sweeps."""
    return _class_models(probes, material, illum, sensor, cfg)


class TactileDecoder:
    """Calibrated extraction pipeline bound to one simulator configuration.
    Its model, a ``ClassModel`` per class, is written by ``to_json`` and read
    back by ``from_json``."""

    def __init__(self, material: MaterialParams, illum: IlluminationModel,
                 sensor: SensorConfig, cfg: DecodeConfig, models: dict):
        self.material = material
        self.illum = illum
        self.sensor = sensor
        self.cfg = cfg
        self.models = models        # class -> ClassModel
        self.reference = make_reference(sensor, illum)

    def to_json(self) -> dict:
        """The model file: the schema version and the parameter hash, then
        each class's entry (see ``ClassModel.to_json``)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "params_hash": params_hash(self.material, self.illum, self.sensor, self.cfg),
            "classes": {cls: model.to_json() for cls, model in self.models.items()},
        }

    @classmethod
    def from_json(cls, data: dict, material: MaterialParams, illum: IlluminationModel,
                  sensor: SensorConfig, cfg: DecodeConfig) -> "TactileDecoder":
        """The decoder of a model file written under this configuration.

        A file in the old layout, a table per class with its own schema
        version beside a templates.json, is stale, as is one of another
        schema version or parameter hash. A file without classes, or with a
        class entry that ``ClassModel.from_json`` rejects, is a TypeError
        naming the field, which ``read_json`` reports as a malformed file.
        """
        if "schema_version" not in data:
            old = {t["schema_version"] for t in data.values()
                   if isinstance(t, dict) and "schema_version" in t}
            if old:
                raise StaleCalibrationError(
                    SCHEMA_VERSION, f"{min(old)} in the old two-file layout "
                    "(calibration.json and templates.json)", what="schema version")
        if data["schema_version"] != SCHEMA_VERSION:
            raise StaleCalibrationError(SCHEMA_VERSION, data["schema_version"],
                                        what="schema version")
        expected = params_hash(material, illum, sensor, cfg)
        if data["params_hash"] != expected:
            raise StaleCalibrationError(expected, data["params_hash"])
        if not data["classes"]:
            raise TypeError("classes is empty")
        return cls(material, illum, sensor, cfg, {
            name: ClassModel.from_json(entry, f"classes.{name}")
            for name, entry in data["classes"].items()})

    def decode(self, image: TactileImage) -> list[Detection]:
        blobs = _decode_measurements(difference_image(image, self.reference),
                                     self.sensor, self.cfg)
        detections = []
        for blob in blobs:
            pose = estimate_pose(blob)
            cls, score = classify(blob, self.models, pose)
            model = self.models[cls]
            theta = normalize_angle(pose.theta_deg - model.offset) if pose.confident else 0.0
            est = estimate_force(blob, model.curves)
            box = corrected_box(blob, theta, est.force_n, est.curve)
            detections.append(Detection(box=box, class_name=cls, theta_deg=theta,
                                        force_n=est.force_n, score=score))
        detections.sort(key=lambda d: -d.score)
        return detections


def build_decoder(probes: list, material: MaterialParams,
                  illum: IlluminationModel, sensor: SensorConfig,
                  cfg: DecodeConfig) -> TactileDecoder:
    """Calibrate and assemble a decoder for a probe library, a ``ClassModel``
    per class (see ``_class_models``)."""
    return TactileDecoder(material, illum, sensor, cfg,
                          _class_models(probes, material, illum, sensor, cfg))
