import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tactwin.contact import height_field
from tactwin.dataset import (ANNOTATION_KEYS, DatasetSpec, assign_splits,
                             generate_dataset, load_sample_image, read_jsonl,
                             read_manifest, read_pgm, sample_for_index, write_pgm)
from tactwin.errors import ConfigError
from tactwin.frames import SensorConfig
from tactwin.render import make_reference, render_window, simulate


def small_spec(count=12, seed=7, noise=0.02):
    return DatasetSpec(
        count=count, master_seed=seed, suite="spheres",
        force_range=(0.5, 5.0), noise_sigma=noise,
        sensor=SensorConfig(input_size=128, scale_mm_per_px=0.25))


def dir_digest(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


class TestPgm:
    def test_round_trip(self, tmp_path, rng):
        pixels = rng.uniform(0, 1, size=(32, 32))
        write_pgm(tmp_path / "x.pgm", pixels)
        back = read_pgm(tmp_path / "x.pgm")
        assert np.abs(back - pixels).max() <= 0.5 / 65535 + 1e-12

    def test_header(self, tmp_path):
        write_pgm(tmp_path / "x.pgm", np.zeros((8, 16)))
        raw = (tmp_path / "x.pgm").read_bytes()
        assert raw.startswith(b"P5\n16 8\n65535\n")
        assert len(raw) == len(b"P5\n16 8\n65535\n") + 8 * 16 * 2

    def test_16bit_big_endian(self, tmp_path):
        write_pgm(tmp_path / "x.pgm", np.full((2, 2), 1.0))
        assert (tmp_path / "x.pgm").read_bytes()[-8:] == b"\xff\xff" * 4


class TestRasters:
    def test_every_raster_is_a_float64_array(self, tmp_path):
        spec = small_spec(count=2)
        sensor, material, illum = spec.sensor, spec.material, spec.illum
        raster = (sensor.input_size,) * 2
        scenario, seed = sample_for_index(spec, 0)
        window, patch = render_window(scenario, material, illum, sensor)
        image, _ = simulate(scenario, material, illum, sensor, seed=seed)
        generate_dataset(spec, tmp_path / "ds")
        ann = read_jsonl(tmp_path / "ds" / "annotations.jsonl")[0][1]
        pgm = tmp_path / "ds" / ann["split"] / f"{ann['index']:06d}.pgm"
        for value, shape in ((height_field(scenario, material, sensor), raster),
                             (patch, window.shape),
                             (make_reference(sensor, illum), raster),
                             (image, raster),
                             (read_pgm(pgm), raster),
                             (load_sample_image(tmp_path / "ds", ann, sensor), raster)):
            assert type(value) is np.ndarray
            assert value.dtype == np.float64 and value.shape == shape


class TestSplits:
    def test_counts_100(self):
        splits = assign_splits(100, 3)
        assert splits.count("test") == 10
        assert splits.count("val") == 9
        assert splits.count("train") == 81

    def test_deterministic(self):
        assert assign_splits(50, 9) == assign_splits(50, 9)
        assert assign_splits(50, 9) != assign_splits(50, 10)


class TestGenerate:
    def test_byte_identical_across_runs(self, tmp_path):
        spec = small_spec()
        generate_dataset(spec, tmp_path / "a")
        generate_dataset(spec, tmp_path / "b")
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")

    def test_byte_identical_across_workers(self, tmp_path):
        spec = small_spec()
        generate_dataset(spec, tmp_path / "w1", workers=1)
        generate_dataset(spec, tmp_path / "w3", workers=3)
        assert dir_digest(tmp_path / "w1") == dir_digest(tmp_path / "w3")

    def test_seed_changes_content(self, tmp_path):
        generate_dataset(small_spec(seed=7), tmp_path / "a")
        generate_dataset(small_spec(seed=8), tmp_path / "b")
        assert dir_digest(tmp_path / "a") != dir_digest(tmp_path / "b")

    def test_annotation_schema(self, tmp_path):
        spec = small_spec(count=5)
        generate_dataset(spec, tmp_path / "ds")
        rows = [r for _, r in read_jsonl(tmp_path / "ds" / "annotations.jsonl")]
        assert len(rows) == 5
        for row in rows:
            assert set(row) == set(ANNOTATION_KEYS)
            assert row["split"] in ("train", "val", "test")
        assert [r["index"] for r in rows] == list(range(5))

    def test_manifest_consistent(self, tmp_path):
        spec = small_spec(count=10)
        manifest = generate_dataset(spec, tmp_path / "ds")
        on_disk = read_manifest(tmp_path / "ds")
        assert on_disk == json.loads(json.dumps(manifest))
        assert sum(on_disk["counts"].values()) == 10
        listed = sorted(i for split in on_disk["splits"].values() for i in split)
        assert listed == list(range(10))

    def test_images_where_manifest_says(self, tmp_path):
        spec = small_spec(count=6)
        generate_dataset(spec, tmp_path / "ds")
        for _, row in read_jsonl(tmp_path / "ds" / "annotations.jsonl"):
            path = tmp_path / "ds" / row["split"] / f"{row['index']:06d}.pgm"
            img = read_pgm(path)
            assert img.shape == (128, 128)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            DatasetSpec(count=0, master_seed=1)
        with pytest.raises(ConfigError):
            DatasetSpec(count=5, master_seed=1, suite="nonsense")
        with pytest.raises(ConfigError):
            DatasetSpec(count=5, master_seed=1, force_range=(5.0, 1.0))
        for hi in (float("inf"), float("nan"), 10.5):
            with pytest.raises(ConfigError, match="<= 10"):
                DatasetSpec(count=5, master_seed=1, force_range=(0.0, hi))
        assert DatasetSpec(count=5, master_seed=1, force_range=(0.0, 10.0))

    def test_samples_share_one_probe_list(self):
        # the probes, and the reach and box each caches, are built once per
        # spec, not once per sample
        spec = DatasetSpec(count=30, master_seed=2, suite="roundtrip")
        probes = spec.probes
        drawn = [sample_for_index(spec, i)[0].probe for i in range(spec.count)]
        assert spec.probes is probes
        assert all(any(p is q for q in probes) for p in drawn)

    def test_five_diameter_sphere_suite_shape(self, tmp_path):
        # the normal-force data-collection shape: five sphere sizes under one
        # class, loads spanning the full range
        spec = DatasetSpec(
            count=40, master_seed=4, suite="spheres", force_range=(0.5, 10.0),
            sensor=SensorConfig(input_size=128, scale_mm_per_px=0.25))
        generate_dataset(spec, tmp_path / "ds")
        rows = [r for _, r in read_jsonl(tmp_path / "ds" / "annotations.jsonl")]
        assert {r["class"] for r in rows} == {"sphere"}
        diameters = {r["probe"]["diameter_mm"] for r in rows}
        assert diameters == {10.0, 15.0, 20.0, 25.0, 30.0}
        forces = [r["force_n"] for r in rows]
        assert min(forces) >= 0.5 and max(forces) <= 10.0
        assert max(forces) - min(forces) > 5.0
