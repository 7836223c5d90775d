"""Deterministic synthetic dataset generation with on-disk annotations.

Images are 16-bit big-endian binary PGM (P5, maxval 65535), one per sample at
``{split}/{index:06d}.pgm``. Annotations are JSON Lines with one object per
sample; a single manifest JSON records the generation spec and splits. Every
byte is a pure function of the manifest spec and the master seed: sample i
draws from ``default_rng([master_seed, 0, i])`` and the split permutation from
``default_rng([master_seed, 1])``, so worker count and run order cannot change
the output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .contact import MAX_FORCE_N, ContactScenario, MaterialParams, SphereProbe
from .errors import ConfigError
from .frames import SensorConfig
from .render import IlluminationModel, TactileImage, simulate
from .runner import render_workers, run_units
from .suites import SUITES, sample_scenario

PGM_MAXVAL = 65535
ANNOTATION_KEYS = ("index", "split", "class", "cx_mm", "cy_mm", "w_mm", "h_mm",
                   "theta_deg", "force_n", "probe", "seed")


def pgm_bytes(image: TactileImage) -> bytes:
    data = np.clip(image.pixels, 0.0, 1.0)
    data = np.rint(np.multiply(data, PGM_MAXVAL, out=data), out=data).astype(">u2")
    h, w = data.shape
    return b"".join((f"P5\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii"), data))


def write_pgm(path: Path, image: TactileImage) -> None:
    Path(path).write_bytes(pgm_bytes(image))


def read_pgm(path: Path, scale_mm_per_px: float) -> TactileImage:
    """Read a 16-bit binary PGM as ``write_pgm`` writes it. A malformed header
    or a payload of the wrong length is an IOError naming the file."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        dims = fh.readline().split()
        maxval = fh.readline().strip()
        payload = fh.read()
    if magic != b"P5":
        raise IOError(f"{path}: not a binary PGM file")
    try:
        w, h = (int(v) for v in dims)
        maxval = int(maxval)
    except ValueError as exc:
        raise IOError(f"{path}: malformed PGM header: {exc}") from exc
    if w <= 0 or h <= 0:
        raise IOError(f"{path}: bad PGM dimensions {w}x{h}")
    if maxval != PGM_MAXVAL:
        raise IOError(f"{path}: expected maxval {PGM_MAXVAL}, got {maxval}")
    if len(payload) != w * h * 2:
        raise IOError(f"{path}: PGM payload is {len(payload)} bytes, expected "
                      f"{w * h * 2} for {w}x{h} pixels")
    raw = np.frombuffer(payload, dtype=">u2").reshape(h, w)
    return TactileImage(np.divide(raw, PGM_MAXVAL, dtype=float), scale_mm_per_px)


def json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class DatasetSpec:
    """Generation recipe: sampling distribution, size, and parameters.

    sphere_diameters, when set, overrides the suite with a custom library of
    sphere probes (all one class).
    """

    count: int
    master_seed: int
    suite: str = "roundtrip"
    force_range: tuple = (0.8, 10.0)
    noise_sigma: float = 0.0
    sphere_diameters: tuple | None = None
    sensor: SensorConfig = field(default_factory=SensorConfig)
    material: MaterialParams = field(default_factory=MaterialParams)
    illum: IlluminationModel = field(default_factory=IlluminationModel)

    def __post_init__(self):
        if self.count <= 0:
            raise ConfigError(f"count must be positive, got {self.count}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be nonnegative, got {self.master_seed}")
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; options: {sorted(SUITES)}")
        lo, hi = self.force_range
        # No scenario takes more than MAX_FORCE_N; a NaN bound fails too.
        if not (0 <= lo < hi <= MAX_FORCE_N):
            raise ConfigError(f"force_range must satisfy 0 <= lo < hi <= "
                              f"{MAX_FORCE_N:g}, got {lo}:{hi}")
        if self.sphere_diameters is not None:
            if not self.sphere_diameters or any(d <= 0 for d in self.sphere_diameters):
                raise ConfigError("sphere_diameters must be positive and nonempty")

    @cached_property
    def probes(self) -> list:
        if self.sphere_diameters is not None:
            return [SphereProbe(d) for d in self.sphere_diameters]
        return SUITES[self.suite]()

    def params(self) -> dict:
        return {
            "count": self.count,
            "master_seed": self.master_seed,
            "suite": self.suite,
            "force_range": list(self.force_range),
            "noise_sigma": self.noise_sigma,
            "sphere_diameters": (list(self.sphere_diameters)
                                 if self.sphere_diameters is not None else None),
            "sensor": self.sensor.params(),
            "material": self.material.params(),
            "illumination": self.illum.params(),
        }


def assign_splits(count: int, master_seed: int) -> list[str]:
    """Deterministic 90/10 train/test split with 10% of train held as val."""
    rng = np.random.default_rng([master_seed, 1])
    perm = rng.permutation(count)
    n_test = count // 10
    n_val = (count - n_test) // 10
    split = ["train"] * count
    for i in perm[:n_test]:
        split[i] = "test"
    for i in perm[n_test:n_test + n_val]:
        split[i] = "val"
    return split


def sample_for_index(spec: DatasetSpec, index: int) -> tuple[ContactScenario, int]:
    """Scenario and simulation seed for one sample index."""
    rng = np.random.default_rng([spec.master_seed, 0, index])
    scenario = sample_scenario(
        rng, spec.probes, spec.sensor, spec.material.e_star,
        force_range=spec.force_range, noise_sigma=spec.noise_sigma)
    sim_seed = int(rng.integers(0, 2 ** 31))
    return scenario, sim_seed


def _write_sample(spec: DatasetSpec, index: int, split: str, out: Path) -> dict:
    """Render one sample, write its PGM and return its annotation row."""
    scenario, sim_seed = sample_for_index(spec, index)
    image, gt = simulate(scenario, spec.material, spec.illum, spec.sensor, seed=sim_seed)
    try:
        with open(out / split / f"{index:06d}.pgm", "wb") as fh:
            fh.write(pgm_bytes(image))
    except OSError as exc:
        raise IOError(f"failed writing sample {index} to {out}: {exc}") from exc
    return {
        "index": index,
        "split": split,
        "class": gt.class_name,
        "cx_mm": gt.box.cx,
        "cy_mm": gt.box.cy,
        "w_mm": gt.box.w,
        "h_mm": gt.box.h,
        "theta_deg": gt.theta_deg,
        "force_n": gt.force_n,
        "probe": scenario.probe.params(),
        "seed": sim_seed,
    }


def generate_dataset(spec: DatasetSpec, out_dir, workers: int | None = None) -> dict:
    """Write images, annotations.jsonl, and manifest.json; returns the manifest.
    The images render on ``render_workers``' threads or forked processes,
    each written as soon as it is rendered."""
    out = Path(out_dir)
    splits = assign_splits(spec.count, spec.master_seed)
    for name in ("train", "val", "test"):
        (out / name).mkdir(parents=True, exist_ok=True)

    indices = range(spec.count)
    workers, fork = render_workers(spec.sensor, spec.count, workers)
    annotations = run_units([partial(_write_sample, spec, i, splits[i], out) for i in indices],
                            workers, fork)

    with open(out / "annotations.jsonl", "w") as fh:
        for ann in annotations:
            fh.write(json_line(ann) + "\n")

    manifest = {
        "schema_version": 1,
        "spec": spec.params(),
        "splits": {
            name: sorted(i for i in indices if splits[i] == name)
            for name in ("train", "val", "test")
        },
        "counts": {name: splits.count(name) for name in ("train", "val", "test")},
        "classes": sorted({ann["class"] for ann in annotations}),
        "annotations": "annotations.jsonl",
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return manifest


def read_jsonl(path) -> list[tuple[int, object]]:
    """(line number, value) for each nonblank line of a JSON Lines file. An
    unreadable file or a line that is not JSON is an IOError naming the file
    and line."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IOError(f"cannot read {path}: {exc}") from exc
    rows = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rows.append((lineno, json.loads(line)))
        except json.JSONDecodeError as exc:
            raise IOError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
    return rows


def read_json(path, parse):
    """``parse`` applied to a JSON file's value. An unreadable file, text
    that is not JSON, or a value without a key or of a type that ``parse``
    needs is an IOError naming the file."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError,
            TypeError, AttributeError) as exc:
        raise IOError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _checked_manifest(manifest: dict) -> dict:
    """The manifest, once it has every field that readers of the dataset use."""
    spec = manifest["spec"]   # a KeyError names the missing field
    for key in ("sensor", "material", "illumination"):
        if not isinstance(spec[key], dict):
            raise TypeError(f"spec.{key} must be a JSON object, got {spec[key]!r}")
    spec["noise_sigma"]
    manifest["classes"]
    return manifest


def read_manifest(dataset_dir) -> dict:
    return read_json(Path(dataset_dir) / "manifest.json", _checked_manifest)


def load_sample_image(dataset_dir, ann: dict, sensor: SensorConfig) -> TactileImage:
    """One annotation row's image; a raster of another size than the sensor's
    is an IOError naming the file."""
    path = Path(dataset_dir) / ann["split"] / f"{ann['index']:06d}.pgm"
    image = read_pgm(path, sensor.scale_mm_per_px)
    if image.pixels.shape != (sensor.input_size,) * 2:
        raise IOError(f"{path}: image is {image.pixels.shape[1]}x{image.pixels.shape[0]}"
                      f" px, the dataset's sensor is {sensor.input_size} px square")
    return image
