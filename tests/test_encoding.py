import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tactwin.encoding import CSL_BINS, build_region_grid, csl_decode, csl_encode
from tactwin.errors import ConfigError, DecodeError


class TestCslEncode:
    def test_default_window_values(self):
        bins = csl_encode(90, window_radius=6, sigma=4)
        assert bins[90] == 1.0
        assert bins[96] == pytest.approx(math.exp(-36 / 32), abs=1e-12)
        assert bins[97] == 0.0

    def test_wraparound(self):
        bins = csl_encode(179, window_radius=6, sigma=4)
        # bin 1 is at circular distance 2 from the peak at 179
        assert bins[1] == pytest.approx(math.exp(-4 / 32), abs=1e-12)

    def test_peak_at_zero(self):
        bins = csl_encode(0, window_radius=10, sigma=2)
        assert np.argmax(bins) == 0
        assert bins[0] == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            csl_encode(10, window_radius=0.5)
        with pytest.raises(ConfigError):
            csl_encode(10, window_radius=90)
        with pytest.raises(ConfigError):
            csl_encode(10, sigma=0)

    @given(st.floats(0, 180, exclude_max=True))
    @settings(max_examples=100)
    def test_circular_symmetry_and_support(self, theta):
        bins = csl_encode(theta)
        peak = int(round(theta)) % CSL_BINS
        assert bins[peak] == 1.0
        assert np.count_nonzero(bins) == 13  # 2 * radius + 1 at radius 6
        for k in range(1, 7):
            left = bins[(peak - k) % CSL_BINS]
            right = bins[(peak + k) % CSL_BINS]
            assert left == pytest.approx(right, abs=1e-12)


class TestCslDecode:
    def test_round_trip_every_integer_angle(self):
        for theta in range(180):
            assert csl_decode(csl_encode(theta)) == float(theta)

    def test_one_hot(self):
        bins = np.zeros(CSL_BINS)
        bins[45] = 1.0
        assert csl_decode(bins) == 45.0

    def test_tie_breaks_to_smallest_index(self):
        bins = np.zeros(CSL_BINS)
        bins[10] = bins[20] = 0.7
        assert csl_decode(bins) == 10.0

    def test_all_zero_rejected(self):
        with pytest.raises(DecodeError):
            csl_decode(np.zeros(CSL_BINS))

    def test_wrong_shape_rejected(self):
        with pytest.raises(DecodeError):
            csl_decode(np.ones(90))


class TestRegionGrid:
    def test_cells_640(self):
        grid = build_region_grid(640)
        assert grid.n_cells == 8400

    def test_cells_64(self):
        assert build_region_grid(64).n_cells == 64 + 16 + 4

    def test_first_cell_center(self):
        grid = build_region_grid(640)
        assert grid.center_x_px[0] == 4.0 and grid.center_y_px[0] == 4.0

    def test_level_major_row_major_order(self):
        grid = build_region_grid(64)
        assert grid.level[0] == 0 and grid.level[-1] == 2
        # row-major within a level: col advances before row
        assert grid.row[0] == 0 and grid.col[0] == 0
        assert grid.row[1] == 0 and grid.col[1] == 1

    def test_indivisible_size_rejected(self):
        with pytest.raises(ConfigError):
            build_region_grid(100)

    @pytest.mark.parametrize("size", [32, 64, 160, 320, 640])
    def test_count_formula_and_disjoint_tiling(self, size):
        grid = build_region_grid(size)
        assert grid.n_cells == sum((size // s) ** 2 for s in (8, 16, 32))
        for level, stride in enumerate((8, 16, 32)):
            sel = grid.level == level
            cells = set(zip(grid.row[sel].tolist(), grid.col[sel].tolist()))
            side = size // stride
            assert len(cells) == side * side  # every cell exactly once


class TestCellCenterMm:
    def test_corner_cell(self):
        grid = build_region_grid(640)
        x, y = grid.centers_mm(0.05)[0]
        assert (x, y) == pytest.approx((-15.8, -15.8))

    def test_symmetry_about_center(self):
        grid = build_region_grid(640)
        level0 = np.nonzero(grid.level == 0)[0]
        xs = grid.centers_mm(0.05)[level0, 0]
        assert np.mean(xs) == pytest.approx(0.0, abs=1e-9)

    def test_scale_linearity(self):
        grid = build_region_grid(640)
        x1, y1 = grid.centers_mm(0.05)[17]
        x2, y2 = grid.centers_mm(0.1)[17]
        assert (x2, y2) == pytest.approx((2 * x1, 2 * y1))
