"""Tests for spatial alignment of every support kind plus the file formats."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference import TaskUnit, dataset, hex_cell_center, units_of
from urbanbench.align import (
    AlignedMatrix,
    _hex_cells_overlapping,
    align_cell_table,
    align_coordinate_encoder,
    align_entities_direct,
    align_entities_h3_first,
    align_raster,
    coverage,
    read_cell_table_csv,
    read_entity_csv,
    read_erf,
    write_cell_table_csv,
    write_entity_csv,
    write_erf,
)
from urbanbench.core import (
    CellTableSupport,
    CoordinateEncoderSupport,
    EntitySetSupport,
    RasterSupport,
    Rect,
    ValidationError,
)
from urbanbench.grid import (
    HexGrid,
    hex_axial_xy,
    hex_cell_center_xy,
    hex_cell_of,
    project,
)
from urbanbench.pe_encoder import pe_support


def point_task(points, city="demo", task="POP"):
    units = [TaskUnit(f"u{i}", x, y) for i, (x, y) in enumerate(points)]
    labels = np.zeros(len(units))
    return dataset(city, task, units, labels, Rect(-1, -1, 1, 1))


def cell_task(extents, city="demo", task="POP"):
    units = []
    for i, (x0, y0, x1, y1) in enumerate(extents):
        units.append(TaskUnit(f"u{i}", (x0 + x1) / 2, (y0 + y1) / 2, "raster_cell",
                              Rect(x0, y0, x1, y1)))
    return dataset(city, task, units, np.zeros(len(units)), Rect(-1, -1, 1, 1))


def raster(values, x0=-1.0, y0=-1.0, dx=None, dy=None):
    values = np.asarray(values, dtype=np.float32)
    nrows, ncols, _ = values.shape
    dx = dx or 2.0 / ncols
    dy = dy or 2.0 / nrows
    return RasterSupport(x0=x0, y0=y0, dx=dx, dy=dy, ncols=ncols, nrows=nrows, values=values)


class TestAlignRaster:
    def test_coarse_cell_shares_embedding(self):
        # one rep cell covering four point units -> identical rows
        rep = raster(np.full((1, 1, 1), 5.0))
        task = point_task([(-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5)])
        m = align_raster(rep, task)
        assert m.valid.all()
        np.testing.assert_array_equal(m.rows, np.full((4, 1), 5.0))

    def test_fine_cells_mean_into_unit(self):
        # unit extent containing rep cells [1] and [3] -> row [2]
        vals = np.zeros((1, 2, 1), dtype=np.float32)
        vals[0, 0, 0] = 1.0
        vals[0, 1, 0] = 3.0
        rep = raster(vals, x0=0.0, y0=0.0, dx=0.5, dy=1.0)
        task = cell_task([(0.0, 0.0, 1.0, 1.0)])
        m = align_raster(rep, task)
        assert m.valid[0]
        np.testing.assert_allclose(m.rows[0], [2.0])

    def test_unit_outside_raster_invalid(self):
        rep = raster(np.full((1, 1, 1), 5.0), x0=0.0, y0=0.0, dx=0.1, dy=0.1)
        task = point_task([(0.05, 0.05), (0.9, 0.9)])
        m = align_raster(rep, task)
        assert m.valid.tolist() == [True, False]
        assert coverage(m) == 0.5

    def test_nan_cell_invalid(self):
        vals = np.full((1, 2, 1), np.nan, dtype=np.float32)
        vals[0, 0, 0] = 2.0
        rep = raster(vals, x0=0.0, y0=0.0, dx=0.5, dy=1.0)
        task = point_task([(0.25, 0.5), (0.75, 0.5)])
        m = align_raster(rep, task)
        assert m.valid.tolist() == [True, False]

    def test_sharing_rule_exact_equality(self):
        rng = np.random.default_rng(0)
        rep = raster(rng.standard_normal((2, 2, 3)).astype(np.float32))
        pts = [(-0.9 + 0.2 * i, -0.9) for i in range(4)]  # all in cell (0,0)
        m = align_raster(rep, point_task(pts))
        for i in range(1, 4):
            np.testing.assert_array_equal(m.rows[i], m.rows[0])

    def test_linearity_under_scaling(self):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal((4, 4, 2)).astype(np.float32)
        task = cell_task([(-1.0, -1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 1.0)])
        m1 = align_raster(raster(vals), task)
        m2 = align_raster(raster(3.0 * vals), task)
        np.testing.assert_allclose(m2.rows[m2.valid], 3.0 * m1.rows[m1.valid], rtol=1e-6)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((4, 4, 2)).astype(np.float32)
        task = point_task([(0.1, 0.1), (-0.4, 0.6)])
        a = align_raster(raster(vals), task)
        b = align_raster(raster(vals), task)
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.valid, b.valid)


class TestAlignEntities:
    def test_h3_mean_pooling(self):
        grid = HexGrid(0.0, 0.0)
        lon, lat = hex_cell_center((0, 0), grid)
        rep = EntitySetSupport(lons=np.array([lon, lon, lon]), lats=np.array([lat, lat, lat]),
                               vectors=np.array([[1.0], [2.0], [3.0]]))
        task = point_task([(lon, lat)])
        m = align_entities_h3_first(rep, grid, task)
        np.testing.assert_allclose(m.rows[0], [2.0])

    def test_h3_empty_cell_invalid(self):
        grid = HexGrid(0.0, 0.0)
        lon_a, lat_a = hex_cell_center((0, 0), grid)
        lon_b, lat_b = hex_cell_center((5, 5), grid)
        rep = EntitySetSupport(lons=np.array([lon_a]), lats=np.array([lat_a]),
                               vectors=np.array([[1.0]]))
        m = align_entities_h3_first(rep, grid, point_task([(lon_b, lat_b)]))
        assert not m.valid[0]

    def test_empty_entity_set_warns_all_invalid(self):
        grid = HexGrid(0.0, 0.0)
        rep = EntitySetSupport(lons=np.array([]), lats=np.array([]),
                               vectors=np.zeros((0, 1)))
        with pytest.warns(UserWarning, match="empty entity set"):
            m = align_entities_h3_first(rep, grid, point_task([(0.0, 0.0)]))
        assert not m.valid.any()

    def test_direct_mean_inside_extent(self):
        rep = EntitySetSupport(lons=np.array([0.2, 0.4]), lats=np.array([0.5, 0.5]),
                               vectors=np.array([[1.0], [3.0]]))
        m = align_entities_direct(rep, cell_task([(0.0, 0.0, 1.0, 1.0)]))
        np.testing.assert_allclose(m.rows[0], [2.0])

    def test_direct_zero_entities_invalid(self):
        rep = EntitySetSupport(lons=np.array([0.5]), lats=np.array([0.5]),
                               vectors=np.array([[1.0]]))
        m = align_entities_direct(rep, cell_task([(-1.0, -1.0, 0.0, 0.0)]))
        assert not m.valid[0]

    def test_direct_point_unit_without_extent_invalid(self):
        rep = EntitySetSupport(lons=np.array([0.0]), lats=np.array([0.0]),
                               vectors=np.array([[1.0]]))
        m = align_entities_direct(rep, point_task([(0.0, 0.0)]))
        assert not m.valid[0]

    def test_direct_dense_uniform_full_coverage(self):
        # brute-force containment count: every unit extent holds entities
        rng = np.random.default_rng(5)
        lons = rng.uniform(-0.05, 0.05, size=2000)
        lats = rng.uniform(-0.05, 0.05, size=2000)
        rep = EntitySetSupport(lons=lons, lats=lats, vectors=np.ones((2000, 1)))
        extents = [(x, y, x + 0.025, y + 0.025)
                   for x in np.arange(-0.05, 0.05, 0.025)
                   for y in np.arange(-0.05, 0.05, 0.025)]
        task = cell_task(extents)
        m = align_entities_direct(rep, task)
        counts = [np.count_nonzero((lons >= e[0]) & (lons < e[2]) & (lats >= e[1]) & (lats < e[3]))
                  for e in extents]
        assert all(c > 0 for c in counts)
        assert coverage(m) == 1.0

    def test_h3_first_beats_direct_on_sparse(self):
        rng = np.random.default_rng(9)
        keep = rng.random(400) < 0.05
        xs = np.repeat(np.arange(20), 20) * 0.005 - 0.05 + 0.0025
        ys = np.tile(np.arange(20), 20) * 0.005 - 0.05 + 0.0025
        rep = EntitySetSupport(lons=xs[keep], lats=ys[keep],
                               vectors=np.ones((int(keep.sum()), 1)))
        extents = [(x - 0.0025, y - 0.0025, x + 0.0025, y + 0.0025) for x, y in zip(xs, ys)]
        task = cell_task(extents)
        grid = HexGrid(0.0, 0.0)
        cov_h3 = coverage(align_entities_h3_first(rep, grid, task))
        cov_direct = coverage(align_entities_direct(rep, task))
        assert cov_h3 >= cov_direct


class TestAlignCellTable:
    def test_lookup_and_missing(self):
        grid = HexGrid(0.0, 0.0)
        c1 = hex_cell_of(0.0, 0.0, grid)
        table = CellTableSupport(grid=grid, table={c1: np.array([7.0])})
        lon2, lat2 = hex_cell_center((4, 4), grid)
        m = align_cell_table(table, grid, point_task([(0.0, 0.0), (lon2, lat2)]))
        assert m.valid.tolist() == [True, False]
        np.testing.assert_allclose(m.rows[0], [7.0])

    def test_own_grid_before_supplied_grid(self):
        # a table keyed on its own grid ignores the supplied one; a grid-less
        # table is keyed on the supplied one
        grid, far = HexGrid(0.0, 0.0), HexGrid(0.5, 0.5)
        table = CellTableSupport(grid=grid, table={hex_cell_of(0.0, 0.0, grid): np.array([7.0])})
        task = point_task([(0.0, 0.0)])
        assert align_cell_table(table, far, task).valid.tolist() == [True]
        assert align_cell_table(replace(table, grid=None), far, task).valid.tolist() == [False]
        assert align_cell_table(replace(table, grid=None), grid, task).valid.tolist() == [True]

    def test_shared_support_identical_rows(self):
        grid = HexGrid(0.0, 0.0)
        c1 = hex_cell_of(0.0, 0.0, grid)
        table = CellTableSupport(grid=grid, table={c1: np.array([7.0, 8.0])})
        m = align_cell_table(table, grid, point_task([(0.0, 0.0), (0.0001, 0.0001)]))
        np.testing.assert_array_equal(m.rows[0], m.rows[1])


class TestAlignCoordinateEncoder:
    def test_constant_encoder(self):
        enc = CoordinateEncoderSupport(
            "const", 2, lambda lons, lats: np.tile([1.0, 2.0], (len(lons), 1)))
        m = align_coordinate_encoder(enc, point_task([(0.0, 0.0), (0.5, 0.5)]))
        assert m.valid.all()
        np.testing.assert_array_equal(m.rows[0], m.rows[1])

    def test_pe_encoder_dim(self):
        m = align_coordinate_encoder(pe_support(), point_task([(0.1, 0.2)]))
        assert m.dim == 192
        assert m.valid.all()

    def test_determinism(self):
        enc = CoordinateEncoderSupport("f", 1, lambda lons, lats: (lons * lats)[:, None])
        task = point_task([(0.3, 0.7)])
        a = align_coordinate_encoder(enc, task)
        b = align_coordinate_encoder(enc, task)
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_one_call_per_matrix(self):
        calls = []

        def fn(lons, lats):
            calls.append((lons.copy(), lats.copy()))
            return np.stack([lons, lats], axis=1)

        task = point_task([(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)])
        m = align_coordinate_encoder(CoordinateEncoderSupport("xy", 2, fn), task)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0][0], [0.1, 0.3, 0.5])
        np.testing.assert_array_equal(calls[0][1], [0.2, 0.4, 0.6])
        np.testing.assert_array_equal(m.rows, [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])

    def test_non_finite_error_names_unit(self):
        enc = CoordinateEncoderSupport("bad", 1, lambda lons, lats: np.full((len(lons), 1), np.inf))
        with pytest.raises(ValidationError, match="u0"):
            align_coordinate_encoder(enc, point_task([(0.0, 0.0)]))

    def test_non_finite_error_names_first_bad_unit(self):
        enc = CoordinateEncoderSupport(
            "bad", 1, lambda lons, lats: np.where(lons == 0, np.nan, lons)[:, None])
        with pytest.raises(ValidationError, match="for unit u1$"):
            align_coordinate_encoder(enc, point_task([(1.0, 0.0), (0.0, 0.0), (0.0, 0.5)]))

    @pytest.mark.parametrize("shape_of", [lambda n: (2,), lambda n: (n, 3)], ids=["dim", "n-by-dim+1"])
    def test_wrong_shape_rejected(self, shape_of):
        enc = CoordinateEncoderSupport("odd", 2, lambda lons, lats: np.zeros(shape_of(len(lons))))
        with pytest.raises(ValidationError, match=r"odd returned shape .*, expected \(2, 2\)"):
            align_coordinate_encoder(enc, point_task([(0.0, 0.0), (0.5, 0.5)]))


class TestCoverage:
    def test_three_of_four(self):
        from urbanbench.align import AlignedMatrix

        m = AlignedMatrix(np.zeros((4, 1)), np.array([True, True, True, False]))
        assert coverage(m) == 0.75

    def test_all_valid(self):
        from urbanbench.align import AlignedMatrix

        m = AlignedMatrix(np.zeros((3, 1)), np.ones(3, dtype=bool))
        assert coverage(m) == 1.0

    def test_empty_errors(self):
        from urbanbench.align import AlignedMatrix

        m = AlignedMatrix(np.zeros((0, 1)), np.zeros(0, dtype=bool))
        with pytest.raises(ValidationError):
            coverage(m)


class TestFileFormats:
    def test_erf_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((3, 4, 2)).astype(np.float32)
        vals[1, 2] = np.nan
        rep = RasterSupport(x0=1.0, y0=2.0, dx=0.5, dy=0.25, ncols=4, nrows=3, values=vals)
        p = tmp_path / "emb.erf"
        write_erf(p, rep)
        back = read_erf(p)
        assert (back.x0, back.y0, back.dx, back.dy) == (1.0, 2.0, 0.5, 0.25)
        np.testing.assert_array_equal(back.values, vals)

    def test_erf_numpy_origin_round_trip(self, tmp_path):
        # the header holds `_fmt` text, never the repr of a numpy scalar
        rep = RasterSupport(x0=np.float64(0.1), y0=np.float64(-0.2), dx=np.float64(0.5),
                            dy=np.float32(0.25), ncols=1, nrows=1, values=np.ones((1, 1, 1), np.float32))
        p = tmp_path / "emb.erf"
        write_erf(p, rep)
        assert p.read_bytes().startswith(b"erf1 0.1 -0.2 0.5 0.25 1 1 1\n")
        assert (read_erf(p).x0, read_erf(p).dy) == (0.1, 0.25)

    def test_erf_truncated_body(self, tmp_path):
        p = tmp_path / "bad.erf"
        p.write_bytes(b"erf1 0.0 0.0 1.0 1.0 2 2 1\n\x00\x00")
        with pytest.raises(ValidationError, match="bytes"):
            read_erf(p)

    @pytest.mark.parametrize("header", [
        b"erf1 nan 0.0 1.0 1.0 1 1 1", b"erf1 0.0 inf 1.0 1.0 1 1 1",
        b"erf1 0.0 0.0 nan 1.0 1 1 1", b"erf1 0.0 0.0 1.0 inf 1 1 1",
    ])
    def test_erf_non_finite_header(self, tmp_path, header):
        p = tmp_path / "bad.erf"
        p.write_bytes(header + b"\n" + b"\x00" * 4)
        with pytest.raises(ValidationError, match="bad.erf: .*finite"):
            read_erf(p)

    @pytest.mark.parametrize("header", [b"erf1\t0 0 1 1 1 1 1", b"erf1 0\x1c0 1 1 1 1 1",
                                        b"erf1  0 0 1 1 1 1 1", b"erf1 0 0 1 1 1 1 1 "],
                             ids=["tab", "file-separator", "double-space", "trailing-space"])
    def test_erf_header_splits_only_at_single_space(self, tmp_path, header):
        p = tmp_path / "bad.erf"
        p.write_bytes(header + b"\n" + b"\x00" * 4)
        with pytest.raises(ValidationError) as e:
            read_erf(p)
        assert str(e.value).startswith(f"{p}: ")

    def test_erf_non_ascii_header_names_file(self, tmp_path):
        p = tmp_path / "bad.erf"
        p.write_bytes(b"erf1 \xff 0 1 1 1 1 1\n" + b"\x00" * 4)
        with pytest.raises(ValidationError, match="bad.erf: .*ascii"):
            read_erf(p)

    @pytest.mark.parametrize("header, body, message", [
        ("erf1 0 0 1_0 1 1 1 1", 4, "'1_0' holds '_'"),
        ("erf1 0 0 1 1 1_0 1 1", 40, "'1_0' holds '_'"),
        ("erf1 0 0 \u0661 1 1 1 1", 4, "'ascii' codec can't decode"),
    ], ids=["float-underscore", "int-underscore", "arabic-indic-digit"])
    def test_erf_header_number_is_printable_ascii_without_underscore(self, tmp_path, header, body, message):
        # Python's own float and int read each word, and the body fits what they read
        words = header.split()
        corner_and_steps = [float(w) for w in words[1:5]]
        ncols, nrows, dim = (int(w) for w in words[5:8])
        assert len(corner_and_steps) == 4 and ncols * nrows * dim * 4 == body
        p = tmp_path / "bad.erf"
        p.write_bytes(header.encode() + b"\n" + b"\x00" * body)
        with pytest.raises(ValidationError) as e:
            read_erf(p)
        assert str(e.value).startswith(f"{p}: {message}")

    def test_entity_csv_round_trip(self, tmp_path):
        rep = EntitySetSupport(lons=np.array([0.1, 0.2]), lats=np.array([0.3, 0.4]),
                               vectors=np.array([[1.0, 2.0], [3.0, 4.0]]))
        p = tmp_path / "ents.csv"
        write_entity_csv(p, rep)
        back = read_entity_csv(p)
        np.testing.assert_array_equal(back.lons, rep.lons)
        np.testing.assert_array_equal(back.vectors, rep.vectors)

    def test_entity_csv_ragged_row_names_file_line(self, tmp_path):
        # the line number counts comment and blank lines too, so it points into the file
        p = tmp_path / "ents.csv"
        p.write_text("# comment\nkey_or_lon,lat,v_0\n0.1,0.2,1.0\n\n0.3,0.4,1.0,9.0\n")
        with pytest.raises(ValidationError, match=r"ents\.csv:5: expected 3 fields, got 4$"):
            read_entity_csv(p)
        # after the header a '#' line is a row like any other
        p.write_text("# comment\nkey_or_lon,lat,v_0\n0.1,0.2,1.0\n#0.3,0.4,1.0\n")
        with pytest.raises(ValidationError,
                           match=r"ents\.csv:4: column 'key_or_lon': could not convert string to float: '#0\.3'$"):
            read_entity_csv(p)

    def test_cell_table_round_trip(self, tmp_path):
        grid = HexGrid(1.0, 2.0)
        table = CellTableSupport(grid=grid, table={(0, 0): np.array([1.0]), (2, -1): np.array([5.0])})
        p = tmp_path / "table.csv"
        write_cell_table_csv(p, table)
        back = read_cell_table_csv(p)
        assert back.grid.signature() == grid.signature()
        np.testing.assert_array_equal(back.table[(2, -1)], [5.0])

    def test_numpy_anchored_cell_table_round_trip(self, tmp_path):
        # the comment holds `_fmt` text, never the repr of a numpy scalar
        grid = HexGrid(np.float64(0.1), np.float64(-0.2), np.float64(461.0))
        p = tmp_path / "table.csv"
        write_cell_table_csv(p, CellTableSupport(grid=grid, table={(2, -1): np.array([5.0])}))
        assert p.read_text().startswith("# hexgrid 0.1 -0.2 461.0\n")
        assert read_cell_table_csv(p).grid.signature() == grid.signature()

    def test_grid_less_cell_table_round_trip(self, tmp_path):
        table = CellTableSupport(grid=None, table={(2, -1): np.array([5.0])})
        p = tmp_path / "table.csv"
        write_cell_table_csv(p, table)
        assert p.read_text().startswith("key_or_lon,lat,v_0")
        back = read_cell_table_csv(p)
        assert back.grid is None
        np.testing.assert_array_equal(back.table[(2, -1)], [5.0])

    def test_cell_table_key_collision(self, tmp_path):
        p = tmp_path / "table.csv"
        p.write_text("# hexgrid 0.0 0.0 461.0\nkey_or_lon,lat,v_0\n0:0,,1.0\n0:0,,2.0\n")
        with pytest.raises(ValidationError, match="duplicate"):
            read_cell_table_csv(p)

    def test_cell_table_line_after_multiline_field(self, tmp_path):
        # a quote open on line 3 closes with its line: line 3 is a row of its own,
        # with no vector, and line 4 (`b",1.0`) is another
        p = tmp_path / "ct.csv"
        p.write_text('# hexgrid 0.0 0.0 461.0\nkey_or_lon,lat,v_0\n0:0,"a\nb",1.0\n1:0,,nan\n')
        with pytest.raises(ValidationError) as e:
            read_cell_table_csv(p)
        assert str(e.value) == f"{p}:3: expected 3 fields, got 2"
        p.write_text('# hexgrid 0.0 0.0 461.0\nkey_or_lon,lat,v_0\n0:0,,"1.0\n1:0,,nan\n')
        with pytest.raises(ValidationError) as e:
            read_cell_table_csv(p)
        assert str(e.value) == f"{p}:4: non-finite value"

    @pytest.mark.parametrize("rows, message", [
        ("0:0,,1.0\n0:x,,1.0,2.0\n", "4: expected 3 fields, got 4"),
        ("0:0,,1.0\n\n0:x,,1.0\n", "5: column 'key_or_lon': malformed hex cell key '0:x'"),
        ("0:0,,1.0\n1:0,,1.0,2.0\n", "4: expected 3 fields, got 4"),
        ("0:0,,1.0\n00:0,,2.0\n", "4: duplicate key '00:0'"),
        ("0:0,,1.0\n1:0,garbage,1.0\n", "4: column 'lat': expected an empty field, got 'garbage'"),
    ], ids=["key", "blank", "components", "duplicate", "lat"])
    def test_cell_table_bad_row_names_line(self, tmp_path, rows, message):
        p = tmp_path / "ct.csv"
        p.write_text("# hexgrid 0.0 0.0 461.0\nkey_or_lon,lat,v_0\n" + rows)
        with pytest.raises(ValidationError) as e:
            read_cell_table_csv(p)
        assert str(e.value) == f"{p}:{message}"

    @pytest.mark.parametrize("rows, message", [
        ("0.1,0.2,1.0\n0.3,x,1.0,9.0\n", "4: expected 3 fields, got 4"),
        ("0.1,0.2,1.0\n0.3,x,1.0\n", "4: column 'lat': could not convert string to float: 'x'"),
        ("0.1,0.2,1.0\ny,x,z\n", "4: column 'key_or_lon': could not convert string to float: 'y'"),
        ("0.1,0.2,1.0\n0.3,nan,inf\n", "4: non-finite coordinate"),
        ("0.1,0.2,1.0\n0.3,0.4,inf\n", "4: non-finite value"),
        ("0.1,0.2,1.0\nnan,0.4,1.0\n", "4: non-finite coordinate"),
        ("0.1,0.2,1.0\n0.3,-inf,1.0\n", "4: non-finite coordinate"),
    ], ids=["ragged", "malformed", "first-column", "non-finite", "non-finite-value", "nan-lon", "inf-lat"])
    def test_entity_bad_row_names_line(self, tmp_path, rows, message):
        p = tmp_path / "ents.csv"
        p.write_text("# comment\nkey_or_lon,lat,v_0\n" + rows)
        with pytest.raises(ValidationError) as e:
            read_entity_csv(p)
        assert str(e.value) == f"{p}:{message}"

    def test_cell_table_blank_lines_load(self, tmp_path):
        p = tmp_path / "ct.csv"
        p.write_text("# hexgrid 0.0 0.0 461.0\n\nkey_or_lon,lat,v_0\n\n0:0,,1.0\n\n1:0,,2.0\n\n")
        rep = read_cell_table_csv(p)
        assert rep.grid.signature() == HexGrid(0.0, 0.0, 461.0).signature()
        assert {c: v.tolist() for c, v in rep.table.items()} == {(0, 0): [1.0], (1, 0): [2.0]}

    def test_cell_table_of_only_comments_is_empty(self, tmp_path):
        p = tmp_path / "table.csv"
        p.write_text("# hexgrid 0.0 0.0 461.0\n# no header, no rows\n")
        with pytest.raises(ValidationError, match=r"table\.csv: empty cell table$"):
            read_cell_table_csv(p)

    @pytest.mark.parametrize("comment", [
        "# hexgrid abc 0 461", "# hexgrid 0 461", "# hexgrid", "# hexgrid 0 0 461 7",
        "# hexgrid 0 0 -461", "# hexgrid 0 0 nan", "# hexgrid nan 0 461",
        "# hexgrid 0 0 4_61", "# hexgrid 0 \u0660 461",
        # the words are split only at the single space the writer emits
        "# hexgrid 0\x1c0 461", "# hexgrid 0\u00a00 461", "# hexgrid 0 0\u2003461", "# hexgrid 0  0 461",
    ])
    def test_cell_table_bad_hexgrid_comment_names_file_line(self, tmp_path, comment):
        p = tmp_path / "table.csv"
        p.write_text(f"# made by hand\n{comment}\nkey_or_lon,lat,v_0\n0:0,,1.0\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r"table\.csv:2: bad '# hexgrid"):
            read_cell_table_csv(p)


# ---------------------------------------------------------------------------
# Pinned aligned matrices

def _golden_cases():
    """Each aligner on an 8x8 raster-cell task and a 40-point task over the
    same 0.04-degree square: a raster with NaN cells that stops short of the
    task extent, sparse entities, a cell table covering about half of the
    cells, and the built-in PE encoder."""
    rng = np.random.default_rng(20261018)
    step = 0.005
    cells = cell_task([(-0.02 + i * step, -0.02 + j * step, -0.02 + (i + 1) * step,
                        -0.02 + (j + 1) * step) for j in range(8) for i in range(8)])
    points = point_task([tuple(p) for p in rng.uniform(-0.02, 0.02, size=(40, 2))])

    vals = rng.standard_normal((12, 12, 3)).astype(np.float32)
    vals[rng.random((12, 12)) < 0.15] = np.nan
    vals[4:7, 2:5] = np.nan
    ras = RasterSupport(x0=-0.018, y0=-0.021, dx=0.0033, dy=0.0034, ncols=12, nrows=12,
                        values=vals)
    ents = EntitySetSupport(lons=rng.uniform(-0.022, 0.022, 25),
                            lats=rng.uniform(-0.022, 0.022, 25),
                            vectors=rng.standard_normal((25, 3)))
    hexgrid = HexGrid(0.001, -0.002)
    keys = sorted({hex_cell_of(u.lon, u.lat, hexgrid) for t in (cells, points) for u in units_of(t)})
    keep = rng.random(len(keys)) < 0.5
    table = CellTableSupport(grid=hexgrid, table={k: rng.standard_normal(3)
                                                  for k, kept in zip(keys, keep) if kept})
    aligners = {
        "raster": lambda t: align_raster(ras, t),
        "entities_h3_first": lambda t: align_entities_h3_first(ents, hexgrid, t),
        "entities_direct": lambda t: align_entities_direct(ents, t),
        "cell_table": lambda t: align_cell_table(table, hexgrid, t),
        "cell_table_fallback": lambda t: align_cell_table(replace(table, grid=None), hexgrid, t),
        "coordinate_encoder": lambda t: align_coordinate_encoder(pe_support(), t),
    }
    return aligners, {"cells": cells, "points": points}


def _aligned_digest(m) -> str:
    return hashlib.sha256(m.rows.tobytes() + m.valid.tobytes()).hexdigest()


GOLDEN_ALIGNED = {
    "raster/cells": "5be3d83802ddff870be16d91439a9cd2072e402dcf8f5f66d08f775e243175aa",
    "raster/points": "300b9734e6e6af0b4b2e13d445e9ecc099c3f32bf0e357102501f3dac5396227",
    "entities_h3_first/cells": "524767d5f2b2b90b60b2eeb21acb34fcc0c51930a3da3e9fe9b6d213948121e3",
    "entities_h3_first/points": "fdb3ca1b4e86c5848f30d1d47fb1ead76942622dee911fd6ef8d8080179de226",
    "entities_direct/cells": "292fc7fad2883bc4a43b66cd5cca185f995275c4dd0460c2754373cb110c490f",
    "entities_direct/points": "541b3e9daa09b20bf85fa273e5cbd3e80185aa4ec298e765db87742b70138a53",
    "cell_table/cells": "f618d9f16a30f72846b058bdce0c3a6c8049dc496076cb2dc88940ab8c95821b",
    "cell_table/points": "4fc85e22335b0bbdd288c4add87ae17767c661f03ab9117cde06ad97fd1757fc",
    "coordinate_encoder/cells": "ef8f1b40be32bd6b7f3addb3f20839b9828cab9cb513838f339ec9b7c01b5044",
    "coordinate_encoder/points": "33fb9ad29235149fd49d2f8e3325462c6baa86c4f7d2f40099d70f06737e2fe3",
}


class TestGoldenAlignment:
    @pytest.mark.parametrize("case", sorted(GOLDEN_ALIGNED))
    def test_digest(self, case):
        aligner, task = case.split("/")
        aligners, tasks = _golden_cases()
        assert _aligned_digest(aligners[aligner](tasks[task])) == GOLDEN_ALIGNED[case]

    @pytest.mark.parametrize("task", ["cells", "points"])
    def test_grid_less_cell_table_on_supplied_grid(self, task):
        # the pinned cell-table matrices, from a table without a grid of its own
        aligners, tasks = _golden_cases()
        assert (_aligned_digest(aligners["cell_table_fallback"](tasks[task]))
                == GOLDEN_ALIGNED[f"cell_table/{task}"])

    def test_cases_are_partial(self):
        # the pins cover valid and invalid rows wherever the rule allows both
        aligners, tasks = _golden_cases()
        for name, aligner in aligners.items():
            for task_name, task in tasks.items():
                valid = aligner(task).valid
                assert valid.any() or (name, task_name) == ("entities_direct", "points")
                assert not valid.all() or name == "coordinate_encoder", (name, task_name)


# ---------------------------------------------------------------------------
# Per-unit reference implementations: the aligners compute every unit at once
# and must match these bit for bit.

def _align_units(task, dim, vec_of):
    """One row per task unit from `vec_of(unit)`; a unit it maps to None is
    invalid and keeps a zero row."""
    rows = np.zeros((task.n, dim), dtype=np.float64)
    valid = np.zeros(task.n, dtype=bool)
    for i, unit in enumerate(units_of(task)):
        vec = vec_of(unit)
        if vec is not None:
            rows[i] = vec
            valid[i] = True
    return AlignedMatrix(rows=rows, valid=valid)


def _convex_overlap(poly_a, poly_b):
    """Separating-axis test between two convex polygons (closed regions)."""
    for poly in (poly_a, poly_b):
        m = len(poly)
        for i in range(m):
            ex = poly[(i + 1) % m][0] - poly[i][0]
            ey = poly[(i + 1) % m][1] - poly[i][1]
            ax, ay = -ey, ex
            a_proj = [ax * px + ay * py for px, py in poly_a]
            b_proj = [ax * px + ay * py for px, py in poly_b]
            if max(a_proj) < min(b_proj) or max(b_proj) < min(a_proj):
                return False
    return True


def _hex_cell_vertices_xy(cell, grid):
    """Projected corners of the cell, pointy-top orientation."""
    cx, cy = hex_cell_center_xy(cell, grid)
    a = grid.edge_len_m
    return [(cx + a * math.cos(math.radians(60.0 * i + 30.0)),
             cy + a * math.sin(math.radians(60.0 * i + 30.0))) for i in range(6)]


def _projected_corners(ce, grid):
    return [project(grid, x, y)
            for x, y in ((ce.x0, ce.y0), (ce.x1, ce.y0), (ce.x1, ce.y1), (ce.x0, ce.y1))]


def _ref_hex_cells_intersecting(ce, grid):
    corners = _projected_corners(ce, grid)
    qs, rs = zip(*(hex_axial_xy(x, y, grid) for x, y in corners))
    return [(q, r)
            for q in range(math.ceil(min(qs) - 1), math.floor(max(qs) + 1) + 1)
            for r in range(math.ceil(min(rs) - 1), math.floor(max(rs) + 1) + 1)
            if _convex_overlap(_hex_cell_vertices_xy((q, r), grid), corners)]


def _ref_align_raster(rep, task):
    def cell_index(lon, lat):
        x1 = rep.x0 + rep.ncols * rep.dx
        y1 = rep.y0 + rep.nrows * rep.dy
        if not (rep.x0 <= lon <= x1 and rep.y0 <= lat <= y1):
            return None
        return (min(int((lat - rep.y0) / rep.dy), rep.nrows - 1),
                min(int((lon - rep.x0) / rep.dx), rep.ncols - 1))

    def vec_of(unit):
        if unit.geometry_kind == "raster_cell":
            ce = unit.cell_extent
            c_lo = max(0, math.ceil((ce.x0 - rep.x0) / rep.dx - 0.5))
            c_hi = min(rep.ncols - 1, math.floor((ce.x1 - rep.x0) / rep.dx - 0.5))
            r_lo = max(0, math.ceil((ce.y0 - rep.y0) / rep.dy - 0.5))
            r_hi = min(rep.nrows - 1, math.floor((ce.y1 - rep.y0) / rep.dy - 0.5))
            if c_hi >= c_lo and r_hi >= r_lo:
                block = rep.values[r_lo:r_hi + 1, c_lo:c_hi + 1].reshape(-1, rep.dim)
                ok = ~np.any(np.isnan(block), axis=1)
                cx = rep.x0 + (np.arange(c_lo, c_hi + 1) + 0.5) * rep.dx
                cy = rep.y0 + (np.arange(r_lo, r_hi + 1) + 0.5) * rep.dy
                ok &= ((cx[None, :] >= ce.x0) & (cx[None, :] < ce.x1)
                       & (cy[:, None] >= ce.y0) & (cy[:, None] < ce.y1)).reshape(-1)
                if np.any(ok):
                    return block[ok].mean(axis=0)
        idx = cell_index(unit.lon, unit.lat)
        if idx is None:
            return None
        vec = rep.values[idx[0], idx[1]]
        return None if np.any(np.isnan(vec)) else vec

    return _align_units(task, rep.dim, vec_of)


def _ref_align_entities_h3_first(rep, grid, task):
    sums, counts = {}, {}
    for j in range(rep.n):
        cell = hex_cell_of(float(rep.lons[j]), float(rep.lats[j]), grid)
        if cell in sums:
            sums[cell] = sums[cell] + rep.vectors[j]
            counts[cell] += 1
        else:
            sums[cell] = rep.vectors[j].astype(np.float64)
            counts[cell] = 1
    pooled = {c: sums[c] / counts[c] for c in sums}

    def vec_of(unit):
        if unit.geometry_kind == "raster_cell":
            vecs = [pooled[c] for c in _ref_hex_cells_intersecting(unit.cell_extent, grid)
                    if c in pooled]
            return np.mean(vecs, axis=0) if vecs else None
        return pooled.get(hex_cell_of(unit.lon, unit.lat, grid))

    return _align_units(task, rep.dim, vec_of)


# A small pool of components with signed zeros, so a mean that keeps or
# loses the sign of a zero shows in the bytes.
COMPONENTS = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.1, 1e-8, -3.5]) | st.floats(-1e3, 1e3)


@st.composite
def alignment_cases(draw):
    """(raster, entities, hexgrid, task) over a 0.05-degree square: a raster
    with NaN cells that may stop short of the task extent, sparse entities,
    and a task mixing point units and raster-cell units 0.3x to 3x the
    raster cell (possibly only points), some with edges on raster-cell centers."""
    dim = draw(st.sampled_from([1, 2, 3]))
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    dx, dy = draw(st.floats(0.002, 0.008)), draw(st.floats(0.002, 0.008))
    values = draw(arrays(np.float32, (nrows, ncols, dim), elements=COMPONENTS.map(np.float32)))
    values[draw(arrays(bool, (nrows, ncols)))] = np.nan
    ras = RasterSupport(x0=draw(st.floats(-0.03, 0.0)), y0=draw(st.floats(-0.03, 0.0)),
                        dx=dx, dy=dy, ncols=ncols, nrows=nrows, values=values)

    n_ent = draw(st.integers(1, 12))
    coords = st.floats(-0.025, 0.025)
    ents = EntitySetSupport(
        lons=np.array(draw(st.lists(coords, min_size=n_ent, max_size=n_ent))),
        lats=np.array(draw(st.lists(coords, min_size=n_ent, max_size=n_ent))),
        vectors=draw(arrays(np.float64, (n_ent, dim), elements=COMPONENTS)))
    hexgrid = HexGrid(draw(st.floats(-0.01, 0.01)), draw(st.floats(-0.01, 0.01)),
                      draw(st.sampled_from([150.0, 461.0, 900.0])))

    units = []
    for i in range(draw(st.integers(1, 10))):
        x, y = draw(coords), draw(coords)
        kind = draw(st.sampled_from(["point", "cell", "snapped"]))
        if kind == "cell":
            w = dx * draw(st.floats(0.3, 3.0)) / 2
            h = dy * draw(st.floats(0.3, 3.0)) / 2
            ce = Rect(x - w, y - h, x + w, y + h)
        elif kind == "snapped":  # edges on raster-cell centers, computed as the aligner does
            c, r = draw(st.integers(-1, ncols)), draw(st.integers(-1, nrows))
            c1, r1 = c + draw(st.integers(1, 3)), r + draw(st.integers(1, 3))
            ce = Rect(ras.x0 + (c + 0.5) * dx, ras.y0 + (r + 0.5) * dy,
                      ras.x0 + (c1 + 0.5) * dx, ras.y0 + (r1 + 0.5) * dy)
            x, y = ce.center
        if kind == "point":
            units.append(TaskUnit(f"u{i}", x, y))
        else:
            units.append(TaskUnit(f"u{i}", x, y, "raster_cell", ce))
    task = dataset("demo", "POP", units, np.zeros(len(units)), Rect(-1, -1, 1, 1))
    return ras, ents, hexgrid, task


def _bytes(m):
    return m.rows.tobytes() + m.valid.tobytes()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=alignment_cases())
def test_aligners_match_per_unit_reference(case):
    ras, ents, hexgrid, task = case
    assert _bytes(align_raster(ras, task)) == _bytes(_ref_align_raster(ras, task))
    assert (_bytes(align_entities_h3_first(ents, hexgrid, task))
            == _bytes(_ref_align_entities_h3_first(ents, hexgrid, task)))


def test_point_only_task_has_no_candidates():
    grid = HexGrid(0.0, 0.0)
    lon, lat = hex_cell_center((1, 2), grid)
    ents = EntitySetSupport(lons=np.array([lon]), lats=np.array([lat]), vectors=np.array([[-0.0, 2.0]]))
    task = point_task([(lon, lat), (0.3, 0.3)])
    m = align_entities_h3_first(ents, grid, task)
    assert _bytes(m) == _bytes(_ref_align_entities_h3_first(ents, grid, task))
    assert m.valid.tolist() == [True, False]
    assert math.copysign(1.0, m.rows[0, 0]) == -1.0


def test_clustered_entities_pool_as_running_sums():
    # thousands of entities in a few hex cells, with signed zeros: each cell's
    # sum runs from its first vector in file order
    grid = HexGrid(0.0, 0.0)
    rng = np.random.default_rng(7)
    centers = np.array([hex_cell_center(c, grid) for c in [(0, 0), (3, -1), (-2, 5)]])
    pick = rng.integers(0, 3, 3000)
    lons, lats = (centers[pick] + rng.uniform(-1e-4, 1e-4, (3000, 2))).T
    vectors = rng.choice([-0.0, 0.0, 1e-8, 0.1, -3.5, 1e3], size=(3000, 2))
    vectors[pick == 2] = -0.0
    ents = EntitySetSupport(lons=lons, lats=lats, vectors=vectors)
    task = point_task([tuple(c) for c in centers] + [(0.3, 0.3)])
    m = align_entities_h3_first(ents, grid, task)
    assert _bytes(m) == _bytes(_ref_align_entities_h3_first(ents, grid, task))
    assert m.valid.tolist() == [True, True, True, False]
    assert math.copysign(1.0, m.rows[2, 0]) == -1.0


@pytest.mark.parametrize("dim", [1, 2])
def test_raster_mean_sums_as_np_mean(dim):
    # np.mean sums from +0.0, so a unit over four -0.0 cells gets +0.0, while a
    # point unit sharing one cell keeps its -0.0
    units = [TaskUnit("cell", 0.5, 0.5, "raster_cell", Rect(0.0, 0.0, 1.0, 1.0)),
             TaskUnit("point", 0.25, 0.25)]
    task = dataset("demo", "POP", units, np.zeros(2), Rect(-1, -1, 1, 1))
    m = align_raster(raster(np.full((2, 2, dim), -0.0), x0=0.0, y0=0.0, dx=0.5, dy=0.5), task)
    assert m.valid.all()
    assert not np.signbit(m.rows[0]).any() and np.signbit(m.rows[1]).all()
    # 20 cells, 1e8 first and -1e8 last in row-major order, 1.0 between: a
    # float32 sum in order loses every 1.0 (dim > 1), while numpy sums a
    # (20, 1) block pairwise and keeps some of them
    vals = np.ones((5, 4, dim))
    vals[0, 0], vals[4, 3] = 1e8, -1e8
    rep = raster(vals, x0=0.0, y0=0.0, dx=0.25, dy=0.2)
    m = align_raster(rep, task)
    assert _bytes(m) == _bytes(_ref_align_raster(rep, task))
    assert m.rows[0, 0] == (np.float32(8.0) / np.float32(20) if dim == 1 else 0.0)


# ---------------------------------------------------------------------------
# Hex cells under a raster-cell unit

def _brute_force_hex_cells(corners, grid):
    """SAT-test every cell whose center lies in the box of the projected
    corners padded by one circumradius (a hexagon reaching the quad has its
    center that close), plus one more cell on each side."""
    a = grid.edge_len_m
    xs = [p[0] for p in corners]
    ys = [p[1] for p in corners]
    w = math.sqrt(3.0) * a  # center spacing along a row
    out = []
    for r in range(math.floor((min(ys) - a) / (1.5 * a)) - 1, math.ceil((max(ys) + a) / (1.5 * a)) + 2):
        for q in range(math.floor((min(xs) - a) / w - r / 2) - 1, math.ceil((max(xs) + a) / w - r / 2) + 2):
            if _convex_overlap(_hex_cell_vertices_xy((q, r), grid), corners):
                out.append((q, r))
    return sorted(out)


@st.composite
def unit_rectangles(draw):
    """(extent, grid): a rectangle 1e-4 to 5 edge lengths a side, centred up
    to one degree from the anchor of a grid with one of four edge lengths."""
    edge = draw(st.sampled_from([50.0, 461.0, 1000.0, 5000.0]))
    grid = HexGrid(draw(st.floats(-170.0, 170.0)), draw(st.floats(-60.0, 60.0)), edge)
    cx = grid.lon0 + draw(st.floats(-1.0, 1.0))
    cy = grid.lat0 + draw(st.floats(-1.0, 1.0))
    deg = edge / 111_320.0
    w = deg * draw(st.floats(1e-4, 5.0)) / math.cos(math.radians(cy))
    h = deg * draw(st.floats(1e-4, 5.0))
    return Rect(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2), grid


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=unit_rectangles())
def test_hex_cells_intersecting_matches_brute_force(case):
    ce, grid = case
    corners = _projected_corners(ce, grid)
    _, q, r = _hex_cells_overlapping(np.array([corners]), grid)
    assert list(zip(q.tolist(), r.tolist())) == _brute_force_hex_cells(corners, grid)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(cell=st.tuples(st.integers(-5, 5), st.integers(-5, 5)), vertex=st.integers(0, 5),
       w=st.floats(1.0, 2000.0), h=st.floats(1.0, 2000.0), sx=st.sampled_from([-1, 1]),
       sy=st.sampled_from([-1, 1]))
def test_quad_touching_a_hex_vertex_matches_brute_force(cell, vertex, w, h, sx, sy):
    # a projected quad with one corner exactly on a hex vertex: closed
    # polygons that only touch overlap, so the touching cells are listed
    grid = HexGrid(0.0, 0.0)
    vx, vy = _hex_cell_vertices_xy(cell, grid)[vertex]
    xs, ys = sorted((vx, vx + sx * w)), sorted((vy, vy + sy * h))
    corners = [(xs[0], ys[0]), (xs[1], ys[0]), (xs[1], ys[1]), (xs[0], ys[1])]
    _, q, r = _hex_cells_overlapping(np.array([corners]), grid)
    assert list(zip(q.tolist(), r.tolist())) == _brute_force_hex_cells(corners, grid)
    assert cell in _brute_force_hex_cells(corners, grid)
