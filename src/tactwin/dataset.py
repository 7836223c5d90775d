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
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .contact import DEFAULT_FORCE_RANGE, ContactScenario, MaterialParams, check_force_range
from .errors import ConfigError
from .frames import SensorConfig
from .render import IlluminationModel, simulate
from .runner import render_workers, run_units
from .suites import SUITES, sample_scenario

PGM_MAXVAL = 65535
PGM_BLOCK_ROWS = 32
SPLITS = ("train", "val", "test")
ANNOTATION_KEYS = ("index", "split", "class", "cx_mm", "cy_mm", "w_mm", "h_mm",
                   "theta_deg", "force_n", "probe", "seed")


def pgm_bytes(image: np.ndarray) -> bytes:
    h, w = image.shape
    data = np.empty((h, w), dtype=">u2")
    for r in range(0, h, PGM_BLOCK_ROWS):   # no float copy of the whole raster
        block = np.clip(image[r:r + PGM_BLOCK_ROWS], 0.0, 1.0)
        data[r:r + PGM_BLOCK_ROWS] = np.rint(np.multiply(block, PGM_MAXVAL, out=block),
                                             out=block)
    return b"".join((f"P5\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii"), data))


def write_pgm(path: Path, image: np.ndarray) -> None:
    Path(path).write_bytes(pgm_bytes(image))


def read_pgm(path: Path) -> np.ndarray:
    """Read a 16-bit binary PGM as ``write_pgm`` writes it, as intensities in
    [0, 1]. A malformed header or a payload of the wrong length is an IOError
    naming the file."""
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
    return np.divide(raw, PGM_MAXVAL, dtype=float)


@dataclass(frozen=True)
class DatasetSpec:
    """Generation recipe: sampling distribution, size, and parameters."""

    count: int
    master_seed: int
    suite: str = "roundtrip"
    force_range: tuple = DEFAULT_FORCE_RANGE
    noise_sigma: float = 0.0
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
        check_force_range(self.force_range)

    @cached_property
    def probes(self) -> list:
        return SUITES[self.suite]()

    def params(self) -> dict:
        return {
            "count": self.count,
            "master_seed": self.master_seed,
            "suite": self.suite,
            "force_range": list(self.force_range),
            "noise_sigma": self.noise_sigma,
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
        write_pgm(out / split / f"{index:06d}.pgm", image)
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
    for name in SPLITS:
        (out / name).mkdir(parents=True, exist_ok=True)

    indices = range(spec.count)
    workers, fork = render_workers(spec.sensor, spec.count, workers)
    annotations = run_units([partial(_write_sample, spec, i, splits[i], out) for i in indices],
                            workers, fork)

    write_jsonl(out / "annotations.jsonl", annotations)
    manifest = {
        "schema_version": 1,
        "spec": spec.params(),
        "splits": {name: sorted(i for i in indices if splits[i] == name) for name in SPLITS},
        "counts": {name: splits.count(name) for name in SPLITS},
        "classes": sorted({ann["class"] for ann in annotations}),
        "annotations": "annotations.jsonl",
    }
    write_json(out / "manifest.json", manifest)
    return manifest


def write_jsonl(path, rows) -> None:
    """Write each of ``rows`` as one line of compact JSON with sorted keys."""
    with open(path, "w") as fh:
        fh.writelines(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
                      for row in rows)


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


def write_json(path, value, indent: int | None = 2) -> None:
    """Write ``value`` as JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(value, fh, sort_keys=True, indent=indent)
        fh.write("\n")


def _fits(value, shape: tuple) -> bool:
    """For ``shape`` (), an int or float (not a bool) in a float's finite range;
    else a list of ``shape[0]`` values (None: any number) that fit ``shape[1:]``."""
    if not shape:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return (type(value) is list and shape[0] in (None, len(value))
            and all(_fits(v, shape[1:]) for v in value))


def check_number(value, field: str, integer: bool = False, positive: bool = False):
    """``value`` if it is a finite number (see ``_fits``), an int if
    ``integer`` and above 0 if ``positive``; else a TypeError naming ``field``."""
    if not (_fits(value, ()) and (type(value) is int or not integer)
            and (value > 0 or not positive)):
        kind = f"{'a positive' if positive else 'a finite'} {'integer' if integer else 'number'}"
        raise TypeError(f"{field} must be {kind}, got {value!r}")
    return value


def check_array(value, field: str, shape: tuple = (None,)) -> np.ndarray:
    """``value`` as a float array if it is nested lists of finite numbers that
    fit ``shape``, whose first length may be None for any (see ``_fits``);
    else a TypeError naming ``field``."""
    if not _fits(value, shape):
        dims = "" if shape == (None,) else " of shape " + " x ".join(
            "n" if n is None else str(n) for n in shape)
        raise TypeError(f"{field} must be a list of finite numbers{dims}")
    return np.array(value, dtype=float)


def check_names(value, field: str) -> list:
    """``value`` if it is a list of strings, else a TypeError naming ``field``."""
    if type(value) is not list or not all(type(v) is str for v in value):
        raise TypeError(f"{field} must be a list of strings, got {value!r}")
    return value


def check_fields(values, cls, name: str) -> dict:
    """``values`` if it is a JSON object of fields of the dataclass ``cls``,
    each fitting its default: a finite number, an integer where the default
    is an int, and for a factory a list of its default's shape; else a
    TypeError naming ``name`` or ``name.key``."""
    if not isinstance(values, dict):
        raise TypeError(f"{name} must be a JSON object, got {values!r}")
    known = {f.name: f for f in fields(cls)}
    for key, value in values.items():
        if key not in known:
            raise TypeError(f"unknown key {name}.{key}")
        default, field = known[key].default, f"{name}.{key}"
        if default is MISSING:
            check_array(value, field, (None, *np.shape(known[key].default_factory())[1:]))
        else:
            check_number(value, field, integer=isinstance(default, int))
    return values


def _checked_manifest(manifest: dict) -> dict:
    """The manifest, once it has every field that readers of the dataset use."""
    spec = manifest["spec"]   # a KeyError names the missing field
    for key, cls in (("sensor", SensorConfig), ("material", MaterialParams),
                     ("illumination", IlluminationModel)):
        check_fields(spec[key], cls, f"spec.{key}")
    check_number(spec["noise_sigma"], "spec.noise_sigma")
    check_names(manifest["classes"], "classes")
    return manifest


def read_manifest(dataset_dir) -> dict:
    return read_json(Path(dataset_dir) / "manifest.json", _checked_manifest)


def load_sample_image(dataset_dir, ann: dict, sensor: SensorConfig) -> np.ndarray:
    """One annotation row's image; a raster of another size than the sensor's
    is an IOError naming the file."""
    path = Path(dataset_dir) / ann["split"] / f"{ann['index']:06d}.pgm"
    image = read_pgm(path)
    if image.shape != (sensor.input_size,) * 2:
        raise IOError(f"{path}: image is {image.shape[1]}x{image.shape[0]}"
                      f" px, the dataset's sensor is {sensor.input_size} px square")
    return image
