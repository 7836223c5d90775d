"""Whole-raster references for each stage of the image path.

The image path renders a contact scenario, adds pixel noise, writes the image
as a PGM, measures its deviation from the flat reference into blobs, and
scores each blob against the class templates. Every fast path of that path
(a rendered window, sloped-pixel and blocked shading, in-place noise, a
measured crop, a merge box, canonical patches sampled in place, one product
for every template's intersections) equals its reference here bit for bit:
the same pixels, PGM bytes, blob pixels, weights and moments, calibration
tables, templates, patch coordinates, patches and class scores.

Each reference works on every pixel of the raster, with the expressions the
fast paths replaced: the whole-raster height field, shaded light by light;
the noise added and clipped into new arrays; the whole deviation filtered,
then labelled, merged and measured as whole rasters; each patch's sample
points as whole expressions, rounded to integer indices; and each template
variant scored by boolean ``&`` and ``|`` passes. No reference calls the
stage it checks; the height field, computed on the whole raster, is the one
step a reference shares with the program, so a fault in a fast path cannot
hide in its own reference.

The height field has its own reference, ``frozen_height_field``: the field
from dense X and Y pixel-centre grids, with every step into a new array.

``frozen_fit_inputs`` is the toy head's training set-up as one batch: every
sample's rows concatenated, centred into a copy and standardized together.

``boxes_to_corners`` serves the rotated-IoU tests, which hold the batched
corners to ``OrientedBox.corners``.
"""

import contextlib
import math

import numpy as np
import pytest
from scipy import ndimage

from tactwin import decoder, geometry
from tactwin.assignment import Positives, positive_targets, simota_assign
from tactwin.contact import (SphereProbe, ground_truth, height_field, hertz_indentation,
                             punch_indentation)
from tactwin.dataset import PGM_MAXVAL
from tactwin.decoder import MERGE_DIST_MM, Blob, calibration_scenario
from tactwin.frames import PixelWindow, SensorConfig, px_to_mm
from tactwin.render import TactileImage
from tactwin.toyhead import ToyHead, _distinct_rows

# 160 px over the standard 32 mm active area: windows reach the raster edge
# for edge-placed contacts and for the largest probes' calibration windows.
SENSOR_160 = SensorConfig(input_size=160, scale_mm_per_px=0.2)


def _blob_fields(blobs):
    """Every measured field of each blob, as plain values."""
    return [(b.area_mm2, b.n_pixels, b.centroid_mm, b.mu20, b.mu02, b.mu11,
             b.deviation_integral, b.ys.tolist(), b.xs.tolist(),
             b.weights.tolist(), b.extent_mm)
            for b in blobs]


# ---------------------------------------------------------------------------
# Height field.
# ---------------------------------------------------------------------------

def frozen_pixel_centers_mm(sensor, window=None):
    """Dense (X, Y) pixel-centre grids in mm over the window, (rows, cols)."""
    idx = np.arange(sensor.input_size)
    coords = px_to_mm(idx, idx, sensor.scale_mm_per_px, sensor.extent_mm)[0]
    rows, cols = (window or PixelWindow.full(sensor.input_size)).slices
    return np.meshgrid(coords[cols], coords[rows])


def frozen_height_field(scenario, material, sensor, window=None):
    """The height field's values (no scenario checks) from dense grids."""
    X, Y = frozen_pixel_centers_mm(sensor, window)
    probe, sigma = scenario.probe, material.membrane_sigma_mm
    if scenario.force_n == 0:
        return np.zeros(X.shape)
    if isinstance(probe, SphereProbe):
        R = probe.radius_mm
        depth, a = hertz_indentation(scenario.force_n, R, material.e_star)
        r = np.hypot(X - scenario.x_mm, Y - scenario.y_mm)
        z = np.zeros(X.shape)
        inside = r <= a
        z[inside] = depth - (R - np.sqrt(R * R - r[inside] ** 2))
        z_edge = depth - (R - math.sqrt(max(R * R - a * a, 0.0)))
        z[~inside] = z_edge * np.exp(-((r[~inside] - a) ** 2) / (2.0 * sigma ** 2))
        return z
    t = math.radians(scenario.theta_deg)
    c, s = math.cos(t), math.sin(t)
    dx, dy = X - scenario.x_mm, Y - scenario.y_mm
    inside = probe.contact_mask(dx * c + dy * s, -dx * s + dy * c,
                                scenario.force_n, material.e_star)
    dist = ndimage.distance_transform_edt(~inside, sampling=sensor.scale_mm_per_px)
    depth = punch_indentation(scenario.force_n, probe.area_mm2, material.e_star)
    return depth * np.exp(-(dist ** 2) / (2.0 * sigma ** 2))


# ---------------------------------------------------------------------------
# Render and simulate.
# ---------------------------------------------------------------------------

def frozen_shade(z, scale_mm_per_px, illum):
    """Per-light shading of every pixel of the height field ``z``."""
    fy, fx = np.gradient(z, scale_mm_per_px)
    return frozen_shade_slopes(fx, fy, illum)


def frozen_shade_slopes(fx, fy, illum):
    """Per-light shading of surface gradients (fx, fy), whole arrays at once."""
    inv_norm = 1.0 / np.sqrt(1.0 + fx * fx + fy * fy)
    shade = np.zeros(fx.shape)
    for lx, ly, lz in illum.light_dirs:
        dot = (-fx * lx - fy * ly + lz) * inv_norm
        np.maximum(dot, 0.0, out=dot)
        if illum.exponent != 1.0:
            dot **= illum.exponent
        shade += dot
    shade /= illum.light_dirs.shape[0]
    return np.clip(illum.ambient + illum.diffuse * shade, 0.0, 1.0)


def frozen_render(scenario, material, illum, sensor):
    """The whole-raster height field, shaded per light on every pixel."""
    z = height_field(scenario, material, sensor).z
    return TactileImage(frozen_shade(z, sensor.scale_mm_per_px, illum),
                        sensor.scale_mm_per_px, is_reference=not z.any())


def frozen_simulate(scenario, material, illum, sensor, seed=0):
    """``frozen_render``, then the noise added and clipped into new arrays."""
    image = frozen_render(scenario, material, illum, sensor)
    pixels = image.pixels
    if scenario.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        pixels = np.clip(pixels + rng.normal(0.0, scenario.noise_sigma, pixels.shape),
                         0.0, 1.0)
    return (TactileImage(pixels, image.scale_mm_per_px, is_reference=image.is_reference),
            ground_truth(scenario, material))


# ---------------------------------------------------------------------------
# PGM encoding.
# ---------------------------------------------------------------------------

def frozen_pgm_bytes(image):
    data = np.rint(np.clip(image.pixels, 0.0, 1.0) * PGM_MAXVAL).astype(">u2")
    h, w = data.shape
    return f"P5\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii") + data.tobytes()


# ---------------------------------------------------------------------------
# Measure.
# ---------------------------------------------------------------------------

def frozen_extract_blobs(dev, scale_mm_per_px, threshold, min_area_mm2=1.0, window=None):
    """Blobs of ``dev`` with |dev| and the kept mask as rasters, and the
    merge distance transform over all of dev."""
    mag = np.abs(dev)
    mask = mag >= threshold
    if not mask.any():
        return []
    px_area = scale_mm_per_px ** 2
    eight = np.ones((3, 3), dtype=int)
    labels, n_comp = ndimage.label(mask, structure=eight)
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
        bounds = np.append(np.searchsorted(gid, np.unique(gid)), gid.size)
    window = window or PixelWindow.full(dev.shape[0])
    ys, xs = ys + window.y0, xs + window.x0
    extent = window.n * scale_mm_per_px
    out = []
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        gys, gxs, gw = ys[b0:b1], xs[b0:b1], w[b0:b1]
        x_mm, y_mm = px_to_mm(gxs, gys, scale_mm_per_px, extent)
        wsum = gw.sum()
        cx = float((gw * x_mm).sum() / wsum)
        cy = float((gw * y_mm).sum() / wsum)
        dx, dy = x_mm - cx, y_mm - cy
        out.append(Blob(
            area_mm2=float((b1 - b0) * px_area), n_pixels=int(b1 - b0),
            centroid_mm=(cx, cy),
            mu20=float((gw * dx * dx).sum() / wsum),
            mu02=float((gw * dy * dy).sum() / wsum),
            mu11=float((gw * dx * dy).sum() / wsum),
            deviation_integral=float(gw.sum() * px_area),
            ys=gys, xs=gxs, weights=gw,
            scale_mm_per_px=scale_mm_per_px, extent_mm=extent))
    out.sort(key=lambda b: (-b.area_mm2, b.centroid_mm))
    return out


def frozen_measurements(image, reference, sensor, cfg):
    """The whole deviation filtered, then measured by ``frozen_extract_blobs``."""
    dev = image.pixels - reference.pixels
    sp = cfg.denoise_sigma_px(sensor)
    if sp > 0:
        dev = ndimage.gaussian_filter(dev, sigma=sp, truncate=3.0)
    return frozen_extract_blobs(dev, sensor.scale_mm_per_px,
                                cfg.effective_threshold(sensor), cfg.min_area_mm2)


def frozen_calibration_blobs(probe, force, material, illum, sensor, cfg, reference):
    """Reference for ``decoder._calibration_blobs``: the calibration scenario
    simulated and measured whole."""
    image, gt = frozen_simulate(calibration_scenario(probe, force), material, illum, sensor)
    return frozen_measurements(image, reference, sensor, cfg), gt


@contextlib.contextmanager
def whole_raster_calibration():
    """Make the calibration sweeps, and the templates taken from them,
    render and measure with ``frozen_calibration_blobs``. Forked sweep
    workers inherit the patch."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decoder, "_calibration_blobs", frozen_calibration_blobs)
        yield


# ---------------------------------------------------------------------------
# Classify.
# ---------------------------------------------------------------------------

def frozen_canonical_coords(blob, angles_deg):
    """Reference for ``decoder._canonical_coords``: the fractional pixel
    coordinates of every patch's sample points, each expression into a new
    array, with ``frames.mm_to_px`` written out."""
    xs_mm, ys_mm = blob.pixel_xy_mm()
    cx, cy = blob.centroid_mm
    r99 = np.percentile(np.hypot(xs_mm - cx, ys_mm - cy), 99)
    half_extent = max(decoder.CANONICAL_PAD * r99, blob.scale_mm_per_px)
    t = np.radians(np.asarray(angles_deg, dtype=float))[:, None, None]
    c, s = np.cos(t), np.sin(t)
    size = decoder.CANONICAL_SIZE
    lin = ((np.arange(size) + 0.5) / size * 2.0 - 1.0) * half_extent
    U, V = np.meshgrid(lin, lin)
    px = cx + U[None] * c - V[None] * s
    py = cy + U[None] * s + V[None] * c
    half, scale = blob.extent_mm / 2.0, blob.scale_mm_per_px
    return (px + half) / scale - 0.5, (py + half) / scale - 0.5


def frozen_canonical_patches(blob, angles_deg):
    """Reference for ``decoder._canonical_patches``: the blob's mask sampled
    at the rounded ``frozen_canonical_coords``, with integer indices and one
    mask per bound."""
    fx, fy = frozen_canonical_coords(blob, angles_deg)
    ix = np.rint(fx).astype(int)
    iy = np.rint(fy).astype(int)
    y0, x0 = blob.ys.min(), blob.xs.min()
    box = np.zeros((blob.ys.max() - y0 + 1, blob.xs.max() - x0 + 1), dtype=bool)
    box[blob.ys - y0, blob.xs - x0] = True
    iy -= y0
    ix -= x0
    ok = (ix >= 0) & (ix < box.shape[1]) & (iy >= 0) & (iy < box.shape[0])
    out = np.zeros(fx.shape, dtype=bool)
    out[ok] = box[iy[ok], ix[ok]]
    return out


def frozen_scores(patches, models):
    """Each class's best IoU between the flattened ``patches`` and the masks
    of its template variants, by boolean ``&``/``|`` passes per variant."""
    best_per_class = {}
    for cls, model in models.items():
        best = 0.0
        for _, mask in model.variants:
            t = mask.ravel()
            inter = (patches & t).sum(axis=1)
            union = (patches | t).sum(axis=1)
            with np.errstate(invalid="ignore"):
                scores = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
            best = max(best, float(scores.max()))
        best_per_class[cls] = best
    return best_per_class


# ---------------------------------------------------------------------------
# Toy-head training set-up.
# ---------------------------------------------------------------------------

def frozen_fit_inputs(features_per_sample, gts_per_sample, grid, scale_mm_per_px,
                      classes, init_head=None):
    """Reference for ``toyhead._fit_inputs``: all samples' rows concatenated,
    centred into a copy for the covariance, standardized as one matrix, and
    each sample predicted from its raw features."""
    n_samples = len(features_per_sample)
    stacked = np.concatenate(features_per_sample, axis=0)
    if init_head is not None:
        head = init_head
    else:
        mean = stacked.mean(axis=0)
        centered = stacked - mean
        cov = centered.T @ centered / max(stacked.shape[0] - 1, 1)
        evals, evecs = np.linalg.eigh(cov)
        scale = 1.0 / np.sqrt(np.maximum(evals, 1e-9 * evals.max()))
        transform = (evecs * scale) @ evecs.T
        head = ToyHead.zeros(classes, mean, transform)
    x_all = head.standardize(stacked)
    n_cells = grid.n_cells
    batches = []
    obj_t = np.zeros(n_samples * n_cells)
    for i, (feats, gts) in enumerate(zip(features_per_sample, gts_per_sample)):
        preds = head.predict(feats, grid, scale_mm_per_px)
        asn = simota_assign(preds, gts, classes)
        obj_t[i * n_cells:(i + 1) * n_cells] = asn.obj_targets()
        batches.append(positive_targets(preds, gts, asn, classes))
    positives = Positives(*map(np.concatenate, zip(*batches)))
    x_pos = x_all[np.concatenate([i * n_cells + b.cells
                                  for i, b in enumerate(batches)])]
    x_obj, obj_t, counts = map(np.concatenate, zip(*(
        _distinct_rows(x_all[i * n_cells:(i + 1) * n_cells],
                       obj_t[i * n_cells:(i + 1) * n_cells])
        for i in range(n_samples))))
    return head, x_obj, obj_t, counts, x_pos, positives


# ---------------------------------------------------------------------------
# Box geometry, for the rotated-IoU tests.
# ---------------------------------------------------------------------------

def boxes_to_corners(boxes):
    """Corners of (N, 5) boxes as (N, 4, 2), counter-clockwise, from the
    corner planes that the batched rotated IoU clips."""
    x, y = geometry._corner_planes(np.asarray(boxes, dtype=float))
    return np.stack([x.T, y.T], axis=2)
