"""Oriented boxes, rotated IoU via convex clipping, and the angle-error metric.

Angles are degrees in the half-open range [0, 180); a box is the five-tuple
(cx, cy, w, h, theta) in mm/degrees. All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Vertices closer than this (mm) are merged during clipping.
MERGE_EPS = 1e-9


def normalize_angle(raw: float) -> float:
    """Reduce an angle in degrees to the canonical [0, 180) range."""
    raw = float(raw)
    if not math.isfinite(raw):
        raise ValueError(f"angle must be finite, got {raw}")
    out = math.fmod(raw, 180.0)
    if out < 0.0:
        out += 180.0
    return out if out < 180.0 else 0.0


def rotation_matrix(theta_deg: float) -> np.ndarray:
    """2x2 counter-clockwise rotation matrix for an angle in degrees."""
    t = math.radians(theta_deg)
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


def angle_error(pred_deg: float, gt_deg: float) -> float:
    """Pose-angle error in degrees, in [0, 90].

    Builds the two rotation matrices, forms M = R_pred @ R_gt^-1, and folds
    the 180-degree ambiguity of the box representation by taking absolute
    values, so (1, 179) gives 2 rather than 178. Mathematically this is
    arccos(|trace(M) / 2|); it is evaluated as atan2(|sin|, |cos|) of the
    same matrix entries because arccos loses ~6 digits next to 0 and 90
    degrees where its derivative blows up.
    """
    r_pred = rotation_matrix(normalize_angle(pred_deg))
    r_gt = rotation_matrix(normalize_angle(gt_deg))
    rel = r_pred @ r_gt.T  # inverse of a rotation is its transpose
    cos_d = (rel[0, 0] + rel[1, 1]) / 2.0
    sin_d = (rel[1, 0] - rel[0, 1]) / 2.0
    return math.degrees(math.atan2(abs(sin_d), abs(cos_d)))


@dataclass(frozen=True)
class OrientedBox:
    """Five-parameter oriented rectangle: center (mm), size (mm), angle (deg)."""

    cx: float
    cy: float
    w: float
    h: float
    theta_deg: float

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box dimensions must be positive, got w={self.w} h={self.h}")
        object.__setattr__(self, "theta_deg", normalize_angle(self.theta_deg))

    @property
    def area(self) -> float:
        return self.w * self.h

    def corners(self) -> np.ndarray:
        """Corner coordinates, shape (4, 2), counter-clockwise."""
        t = math.radians(self.theta_deg)
        c, s = math.cos(t), math.sin(t)
        hw, hh = self.w / 2.0, self.h / 2.0
        local = np.array([[hw, hh], [-hw, hh], [-hw, -hh], [hw, -hh]])
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array([self.cx, self.cy])

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h, self.theta_deg])


@dataclass(frozen=True)
class ConvexPolygon:
    """Counter-clockwise convex polygon; may be empty (no vertices)."""

    vertices: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "vertices", v)

    def __len__(self) -> int:
        return self.vertices.shape[0]

    @property
    def area(self) -> float:
        return polygon_area(self)


def box_to_polygon(box: OrientedBox) -> ConvexPolygon:
    return ConvexPolygon(box.corners())


def polygon_area(poly: ConvexPolygon) -> float:
    """Shoelace area; nonnegative for CCW input, clipped at zero."""
    v = poly.vertices
    if v.shape[0] < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    rx, ry = np.roll(x, -1), np.roll(y, -1)
    return max(0.5 * float(np.sum(x * ry - rx * y)), 0.0)


def _dedupe_vertices(verts: list) -> np.ndarray:
    """Drop consecutive (and wrap-around) vertices closer than MERGE_EPS."""
    out = []
    for p in verts:
        if not out or abs(p[0] - out[-1][0]) + abs(p[1] - out[-1][1]) > MERGE_EPS:
            out.append(p)
    while len(out) > 1 and abs(out[0][0] - out[-1][0]) + abs(out[0][1] - out[-1][1]) <= MERGE_EPS:
        out.pop()
    return np.array(out).reshape(-1, 2)


def polygon_clip(subject: ConvexPolygon, clip: ConvexPolygon) -> ConvexPolygon:
    """Intersection of two convex CCW polygons (Sutherland-Hodgman).

    Degenerate contact (shared edges or vertices) yields a zero-area result;
    an empty polygon is returned when the inputs do not overlap.
    """
    verts = [tuple(p) for p in subject.vertices]
    cv = clip.vertices
    n_clip = cv.shape[0]
    if len(verts) == 0 or n_clip < 3:
        return ConvexPolygon()
    for k in range(n_clip):
        if not verts:
            break
        ax, ay = cv[k]
        bx, by = cv[(k + 1) % n_clip]
        ex, ey = bx - ax, by - ay
        out = []
        prev = verts[-1]
        prev_side = ex * (prev[1] - ay) - ey * (prev[0] - ax)
        for cur in verts:
            side = ex * (cur[1] - ay) - ey * (cur[0] - ax)
            if side >= -MERGE_EPS:
                if prev_side < -MERGE_EPS:
                    t = prev_side / (prev_side - side)
                    out.append((prev[0] + t * (cur[0] - prev[0]),
                                prev[1] + t * (cur[1] - prev[1])))
                out.append(cur)
            elif prev_side >= -MERGE_EPS:
                t = prev_side / (prev_side - side)
                out.append((prev[0] + t * (cur[0] - prev[0]),
                            prev[1] + t * (cur[1] - prev[1])))
            prev, prev_side = cur, side
        verts = out
    merged = _dedupe_vertices(verts)
    if merged.shape[0] < 3:
        return ConvexPolygon()
    return ConvexPolygon(merged)


# The clip's cross products could overflow for pairs with a coordinate or
# size above 2**_CLIP_EXP mm, so those are scaled down by a power of two
# first; IoU is scale-invariant.
_CLIP_EXP = 500


def _clip_reach(box: OrientedBox) -> float:
    """Bound on the circumradius of a box grown by the clip's side tolerance,
    which counts a vertex up to MERGE_EPS / (edge length) outside an edge as
    inside."""
    return math.hypot(box.w, box.h) / 2.0 + MERGE_EPS / box.w + MERGE_EPS / box.h


def _scaled(box: OrientedBox, exponent: int) -> OrientedBox | None:
    """The box with its lengths times 2**exponent; None if one reaches 0."""
    w, h = math.ldexp(box.w, exponent), math.ldexp(box.h, exponent)
    if w == 0.0 or h == 0.0:
        return None
    return OrientedBox(math.ldexp(box.cx, exponent), math.ldexp(box.cy, exponent),
                       w, h, box.theta_deg)


def rotated_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection-over-union of two oriented boxes, in [0, 1].

    The pair is ordered canonically before clipping so the result is exactly
    symmetric in its arguments. Boxes whose centres are more than twice
    their summed reach apart score 0.0 without clipping, which is what the
    clip gives them; so do boxes whose size vanishes next to the other's.
    Pairs larger than 2**_CLIP_EXP mm are clipped at a smaller scale.
    """
    if math.hypot(a.cx - b.cx, a.cy - b.cy) > 2.0 * (_clip_reach(a) + _clip_reach(b)):
        return 0.0
    size = max(abs(a.cx), abs(a.cy), a.w, a.h, abs(b.cx), abs(b.cy), b.w, b.h)
    if size > 2.0 ** _CLIP_EXP:
        exponent = _CLIP_EXP - math.frexp(size)[1]
        a, b = _scaled(a, exponent), _scaled(b, exponent)
        if a is None or b is None:
            return 0.0
    first, second = sorted((a, b), key=lambda bx: (bx.cx, bx.cy, bx.w, bx.h, bx.theta_deg))
    pa, pb = box_to_polygon(first), box_to_polygon(second)
    inter = polygon_area(polygon_clip(pa, pb))
    union = polygon_area(pa) + polygon_area(pb) - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Vectorized pairwise path used by the assignment and evaluation hot loops.
# ---------------------------------------------------------------------------

# A rectangle clipped by 4 half-planes has at most 8 vertices, so the clip
# runs in 8 vertex slots. Spurious eps-tolerance crossings at near-degenerate
# contacts can emit more; those rows are clipped again in 16 slots, which is
# the layout the intersection area is summed in.
_WIDTH = 8
_WIDE = 16


def _corner_planes(boxes: np.ndarray) -> tuple:
    """x and y of the corners of (N, 5) boxes, each (4, N), counter-clockwise."""
    t = np.radians(boxes[:, 4])
    c, s = np.cos(t), np.sin(t)
    hw, hh = boxes[:, 2] / 2.0, boxes[:, 3] / 2.0
    lx = np.stack([hw, -hw, -hw, hw])
    ly = np.stack([hh, hh, -hh, -hh])
    return lx * c - ly * s + boxes[:, 0], lx * s + ly * c + boxes[:, 1]


def boxes_to_corners(boxes: np.ndarray) -> np.ndarray:
    """Corners of (N, 5) boxes as (N, 4, 2), counter-clockwise."""
    x, y = _corner_planes(np.asarray(boxes, dtype=float))
    return np.stack([x.T, y.T], axis=2)


def _padded_areas(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Shoelace areas of (N, 16) vertex planes padded with their last vertex."""
    rx = np.concatenate([x[:, 1:], x[:, :1]], axis=1)
    ry = np.concatenate([y[:, 1:], y[:, :1]], axis=1)
    return np.maximum(0.5 * np.sum(x * ry - rx * y, axis=1), 0.0)


def _clip_quads(sx, sy, cx, cy, width: int) -> tuple:
    """Sutherland-Hodgman clip of (4, N) subject quads by (4, N) clip quads.

    The working polygon of each row lives in a slot-major (width + 1, N)
    buffer: row 0 repeats the last vertex as slot 0's predecessor, rows
    1..width hold the vertices, and slots past the row's count are masked.
    Slot j emits an edge crossing and then, if inside, its own vertex; the
    p-th emission lands at flat index (1 + p)*N + row, and inside tests that
    emit nothing write to the row's trash slot, which nothing reads.
    Emissions past ``width`` are dropped and flag the row in ``overflow``.
    Two zero-filled buffer pairs alternate between clip edges, so masked
    slots hold zeros or earlier vertices and stay finite. Returns the result
    as (N, 16) planes padded with the last vertex, the vertex counts and
    ``overflow``.
    """
    n = sx.shape[1]
    rows = np.arange(n)
    size = (2 * width + 2) * n
    trash = size - n + rows
    slots = np.arange(width)[:, None]
    # Corner 3 leads, then corners 0-3; later slots are masked.
    first = np.minimum(np.concatenate([[width - 1], np.arange(width)]), 3)
    x, y = sx[first], sy[first]
    counts = np.full(n, 4)
    overflow = np.zeros(n, dtype=bool)
    buffers = [(np.zeros(size), np.zeros(size)) for _ in range(2)]
    at = np.empty((width + 1, n), dtype=np.intp)
    for k in range(4):
        ax, ay = cx[k], cy[k]
        ex = cx[(k + 1) % 4] - ax
        ey = cy[(k + 1) % 4] - ay
        side = ex * (y - ay) - ey * (x - ax)
        geo = side >= -MERGE_EPS
        valid = slots < counts
        inside = geo[1:] & valid
        crossing = (geo[1:] != geo[:-1]) & valid
        # at[j] = flat index of slot j's first emission, a running sum of
        # what the slots before it emitted.
        at[0] = rows + n
        np.add(crossing, inside, out=at[1:], dtype=np.intp)
        at[1:] *= n
        for j in range(1, width + 1):
            at[j] += at[j - 1]

        # Interpolate at crossings only. Their two sides straddle -MERGE_EPS,
        # so the denominator is at least the float spacing there, never 0.
        cut = np.flatnonzero(crossing)
        prev_side = side[:-1].ravel()[cut]
        t = np.clip(prev_side / (prev_side - side[1:].ravel()[cut]), 0.0, 1.0)
        px, py = x[:-1].ravel()[cut], y[:-1].ravel()[cut]
        x, y = x[1:], y[1:]
        out_x, out_y = buffers[k % 2]
        ix = at[:-1].ravel()[cut]
        out_x[ix] = px + t * (x.ravel()[cut] - px)
        out_y[ix] = py + t * (y.ravel()[cut] - py)
        ix = np.where(inside, at[1:] - n, trash)
        out_x[ix] = x
        out_y[ix] = y

        total = at[-1] // n - 1
        overflow |= total > width
        counts = np.minimum(total, width)
        last = np.maximum(counts, 1) * n + rows
        if k < 3:
            out_x[:n], out_y[:n] = out_x[last], out_y[last]
            x = out_x[:(width + 1) * n].reshape(width + 1, n)
            y = out_y[:(width + 1) * n].reshape(width + 1, n)
    ix = np.minimum(np.arange(1, _WIDE + 1) * n + rows[:, None], last[:, None])
    return out_x[ix], out_y[ix], counts, overflow


def _rescale_huge_rows(boxes_a: np.ndarray, boxes_b: np.ndarray):
    """``rotated_iou``'s overflow guard for the pairs with a finite
    coordinate or size above 2**_CLIP_EXP mm: their lengths are scaled by a
    power of two into range. Returns the scaled copies and a mask of the
    rows that score 0.0, being more than twice their summed reach apart or
    having a size that scales to 0."""
    size = np.fmax.reduce(np.abs(np.concatenate([boxes_a[:, :4], boxes_b[:, :4]], axis=1)),
                          axis=1)    # NaN-blind
    rows = np.flatnonzero(np.isfinite(size) & (size > 2.0 ** _CLIP_EXP))
    a, b = boxes_a.copy(), boxes_b.copy()
    exponent = _CLIP_EXP - np.frexp(size[rows])[1]
    a[rows, :4] = np.ldexp(a[rows, :4], exponent[:, None])
    b[rows, :4] = np.ldexp(b[rows, :4], exponent[:, None])
    # _clip_reach at the new scale, where MERGE_EPS / w scales by 2**(2 exponent)
    eps = np.ldexp(MERGE_EPS, 2 * exponent)
    ra, rb = a[rows], b[rows]
    with np.errstate(divide="ignore", over="ignore"):
        reach = sum(np.hypot(r[:, 2], r[:, 3]) / 2.0 + eps / r[:, 2] + eps / r[:, 3]
                    for r in (ra, rb))
    far = np.hypot(ra[:, 0] - rb[:, 0], ra[:, 1] - rb[:, 1]) > 2.0 * reach
    vanished = np.any(np.concatenate([ra[:, 2:4], rb[:, 2:4]], axis=1) == 0.0, axis=1)
    zero = np.zeros(len(a), dtype=bool)
    zero[rows] = far | vanished
    return a, b, zero


def rotated_iou_pairs(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Elementwise rotated IoU of two (N, 5) box arrays.

    Batched Sutherland-Hodgman over fixed-size vertex buffers, in an 8-slot
    buffer; the rare rows that emit more than 8 vertices at some clip edge
    are clipped again in 16 slots. The result is bit-identical to clipping
    every row in 16 slots, where vertices past the 16th are dropped. Pairs
    with a finite coordinate or size above 2**_CLIP_EXP mm are guarded
    against overflow as ``rotated_iou`` guards them.
    """
    boxes_a = np.asarray(boxes_a, dtype=float).reshape(-1, 5)
    boxes_b = np.asarray(boxes_b, dtype=float).reshape(-1, 5)
    n = boxes_a.shape[0]
    if n == 0:
        return np.zeros(0)
    zero = None
    # a cheap whole-batch test first; the angle column only costs a false alarm
    if (np.abs(boxes_a) > 2.0 ** _CLIP_EXP).any() or (np.abs(boxes_b) > 2.0 ** _CLIP_EXP).any():
        boxes_a, boxes_b, zero = _rescale_huge_rows(boxes_a, boxes_b)
    sx, sy = _corner_planes(boxes_a)
    cx, cy = _corner_planes(boxes_b)
    x, y, counts, overflow = _clip_quads(sx, sy, cx, cy, _WIDTH)
    if overflow.any():
        rows = np.nonzero(overflow)[0]
        x[rows], y[rows], counts[rows], _ = _clip_quads(
            sx[:, rows], sy[:, rows], cx[:, rows], cy[:, rows], _WIDE)

    pad = np.minimum(np.arange(_WIDE), 3)
    inter = np.where(counts >= 3, _padded_areas(x, y), 0.0)
    area_a = _padded_areas(sx.T[:, pad], sy.T[:, pad])
    area_b = _padded_areas(cx.T[:, pad], cy.T[:, pad])
    union = area_a + area_b - inter
    iou = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)
    if zero is not None:
        iou[zero] = 0.0
    return np.clip(iou, 0.0, 1.0)


def points_in_box(points: np.ndarray, box: OrientedBox) -> np.ndarray:
    """Boolean mask of (M, 2) points inside (or on) an oriented box."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    t = math.radians(box.theta_deg)
    c, s = math.cos(t), math.sin(t)
    dx = points[:, 0] - box.cx
    dy = points[:, 1] - box.cy
    u = dx * c + dy * s
    v = -dx * s + dy * c
    return (np.abs(u) <= box.w / 2.0) & (np.abs(v) <= box.h / 2.0)
