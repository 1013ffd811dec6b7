"""Tests for the synthetic-city generator and its pipeline-level oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import dataset, synth_units

from urbanbench.align import align_entities_direct, coverage
from urbanbench.cli import align_support, leakage_experiment
from urbanbench.core import Rect, ValidationError, write_task_dataset
from urbanbench.heads import HeadConfig
from urbanbench.synth import SynthConfig, gaussian_smooth, generate_field, synth_city

EXTENT32 = Rect(-0.1, -0.1, 0.1, 0.1)
CELL32 = 0.2 / 32  # one cell in extent units

LINEAR_HEAD = HeadConfig(kind="linear", output="scalar", n_out=1,
                         batch_size=128, max_epochs=150, patience=10)


def lag1_autocorr(field: np.ndarray) -> float:
    """Mean of the row- and column-shift lag-1 correlations."""
    a = field - field.mean()

    def corr(u, v):
        return float(np.sum(u * v) / np.sqrt(np.sum(u * u) * np.sum(v * v)))

    return 0.5 * (corr(a[:, :-1], a[:, 1:]) + corr(a[:-1, :], a[1:, :]))


# Corners and sizes with a signed zero, widths that are not a power of two
# times an integer, and arbitrary ones.
CORNERS = st.sampled_from([-0.0, 0.0, -0.1, 0.3, -73.99]) | st.floats(-10.0, 10.0)
SIZES = st.sampled_from([0.2, 0.1, 1 / 3, 0.7, 0.0123]) | st.floats(1e-3, 5.0)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(n=st.integers(8, 40), x0=CORNERS, y0=CORNERS, w=SIZES, h=SIZES,
       label_kind=st.sampled_from(["scalar", "class"]))
def test_synth_columns_match_per_unit_loop(tmp_path_factory, n, x0, y0, w, h, label_kind):
    extent = Rect(x0, y0, x0 + w, y0 + h)
    cfg = SynthConfig(n=n, extent=extent, length_scale=min(extent.width, extent.height) / 4,
                      label_kind=label_kind, n_classes=3)
    task, _ = synth_city(cfg)
    ref = dataset(cfg.city, cfg.task, synth_units(extent, n), task.labels, extent,
                  n_classes=task.n_classes if label_kind == "class" else None)
    assert task.unit_ids == ref.unit_ids
    for column in ("lons", "lats", "cell_extents", "is_cell", "labels"):
        assert getattr(task, column).tobytes() == getattr(ref, column).tobytes(), column
    paths = [tmp_path_factory.getbasetemp() / f"synth_{name}.csv" for name in ("columns", "loop")]
    for path, ds in zip(paths, (task, ref)):
        write_task_dataset(path, ds)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _sigma(n):
    # at and below ndimage's 1e-15 cut, just above it (a one-tap kernel), and
    # from a twentieth of a cell to three grid widths, where the kernel is wider
    # than the grid and the padding reflects more than once
    return (st.sampled_from([0.0, 1e-300, 1e-16, 1e-15, 1.0000001e-15, n / 4.0, n / 4.0 + 1.0, 3.0 * n])
            | st.floats(0.05, 3.0 * n))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data(), ny=st.integers(8, 89), nx=st.integers(8, 89), seed=st.integers(0, 2**32 - 1))
def test_gaussian_smooth_is_ndimage_bit_for_bit(data, ny, nx, seed):
    from scipy import ndimage

    noise = np.random.default_rng(seed).standard_normal((ny, nx))
    sigmas = (data.draw(_sigma(ny), label="sigma_y"), data.draw(_sigma(nx), label="sigma_x"))
    ref = ndimage.gaussian_filter(noise, sigmas, mode="reflect")
    got = gaussian_smooth(noise, sigmas)
    assert got.shape == ref.shape
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestGenerateField:
    def test_deterministic(self):
        a = generate_field(EXTENT32, 32, 0.01, seed=5)
        b = generate_field(EXTENT32, 32, 0.01, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_standardized(self):
        f = generate_field(EXTENT32, 32, 0.02, seed=1)
        assert abs(f.mean()) < 1e-12
        assert abs(f.std() - 1.0) < 1e-12

    def test_small_scale_is_white(self):
        # kernel width below one cell: lag-1 autocorrelation ~ 0 over 10 seeds
        acs = [lag1_autocorr(generate_field(EXTENT32, 32, CELL32 * 0.2, seed=s))
               for s in range(10)]
        assert abs(float(np.mean(acs))) < 0.05

    def test_half_grid_scale_is_smooth(self):
        f = generate_field(EXTENT32, 32, CELL32 * 16, seed=0)
        assert lag1_autocorr(f) > 0.9

    def test_autocorr_monotone_in_scale(self):
        for seed in range(3):
            acs = [lag1_autocorr(generate_field(EXTENT32, 32, CELL32 * c, seed=seed))
                   for c in (1, 4, 16)]
            assert acs[0] < acs[1] < acs[2]

    def test_too_small_grid(self):
        with pytest.raises(ValidationError):
            generate_field(EXTENT32, 4, 0.01, seed=0)


class TestSynthCity:
    def test_deterministic(self):
        cfg = SynthConfig(n=16, seed=3)
        t1, r1 = synth_city(cfg)
        t2, r2 = synth_city(cfg)
        np.testing.assert_array_equal(t1.labels, t2.labels)
        np.testing.assert_array_equal(r1.support.values, r2.support.values)

    def test_units_at_cell_centers(self):
        cfg = SynthConfig(n=8, extent=Rect(0.0, 0.0, 0.8, 0.8))
        task, _ = synth_city(cfg)
        assert task.n == 64
        assert task.is_cell.all()
        assert task.lons[0] == pytest.approx(0.05)
        x0, y0, x1, y1 = task.cell_extents[0]
        assert x0 <= task.lons[0] <= x1 and y0 <= task.lats[0] <= y1

    def test_scalar_labels_equal_field(self):
        cfg = SynthConfig(n=16, seed=7, label_kind="scalar", embedding_kind="field_value")
        task, rep = synth_city(cfg)
        m = align_support(rep.support, task)
        # embedding replicates the label across dim (up to float32 storage)
        np.testing.assert_allclose(m.rows[:, 0], task.labels, atol=1e-6)

    def test_quantile_binning_balanced(self):
        cfg = SynthConfig(n=32, seed=2, label_kind="class", n_classes=4)
        task, _ = synth_city(cfg)
        freqs = np.bincount(task.labels, minlength=4) / task.n
        np.testing.assert_allclose(freqs, 0.25, atol=0.02)

    def test_distribution_labels_sum_to_one(self):
        cfg = SynthConfig(n=16, seed=2, label_kind="distribution", n_classes=5)
        task, _ = synth_city(cfg)
        assert task.labels.shape == (256, 5)
        np.testing.assert_allclose(task.labels.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("label_kind", ["class", "distribution"])
    def test_labels_need_two_classes(self, label_kind):
        # one class leaves nothing to predict: every model would score a perfect 1.0
        with pytest.raises(ValidationError, match=f"^{label_kind} labels need n_classes >= 2, got 1$"):
            SynthConfig(label_kind=label_kind, n_classes=1)

    def test_sparse_entities_density(self):
        cfg = SynthConfig(n=32, seed=4, embedding_kind="sparse_entities", density=0.2)
        _, rep = synth_city(cfg)
        assert 0.1 < rep.support.n / 1024 < 0.3

    def test_coordinate_pe_dim(self):
        cfg = SynthConfig(n=8, embedding_kind="coordinate_pe")
        _, rep = synth_city(cfg)
        assert rep.support.dim == 192


class TestSparseCoverage:
    def test_h3_first_improves_coverage(self):
        cfg = SynthConfig(n=40, extent=Rect(-0.05, -0.05, 0.05, 0.05), length_scale=0.025,
                          noise_sd=1.0, embedding_kind="sparse_entities", density=0.05, seed=3)
        task, rep = synth_city(cfg)
        cov_h3 = coverage(align_support(rep.support, task))
        cov_direct = coverage(align_entities_direct(rep.support, task))
        assert cov_h3 > cov_direct


class TestLeakage:
    def test_fully_informative_control(self):
        cfg = SynthConfig(n=40, extent=Rect(-0.1, -0.1, 0.1, 0.1), length_scale=0.05,
                          label_kind="scalar", embedding_kind="field_value", seed=3)
        res = leakage_experiment(cfg, LINEAR_HEAD, seeds=(42, 24))
        assert min(res.spatial_r2) > 0.95
        assert min(res.random_r2) > 0.95
        assert abs(res.mean_delta) < 0.05

    def test_pe_on_autocorrelated_field_leaks(self):
        cfg = SynthConfig(n=40, extent=Rect(-0.1, -0.1, 0.1, 0.1), length_scale=0.05,
                          label_kind="scalar", embedding_kind="coordinate_pe", seed=3)
        res = leakage_experiment(cfg, LINEAR_HEAD, seeds=(42, 24))
        assert res.mean_delta > 0

    def test_white_field_no_leak(self):
        cfg = SynthConfig(n=40, extent=Rect(-0.1, -0.1, 0.1, 0.1), length_scale=0.002,
                          label_kind="scalar", embedding_kind="coordinate_pe", seed=3)
        res = leakage_experiment(cfg, LINEAR_HEAD, seeds=(42, 24))
        assert abs(res.mean_delta) < 0.05

    def test_delta_monotone_in_length_scale(self):
        # pinned configuration: n=32, 5x5 blocks, synth seed 0; under 10x10
        # blocks the relationship is an inverted U (spatial splits become
        # learnable at large scales), so the property is tested here, not
        # claimed universally
        deltas = []
        for cells in (1.0, 4.0, 8.0):  # n/32, n/8, n/4
            cfg = SynthConfig(n=32, extent=EXTENT32, length_scale=CELL32 * cells,
                              label_kind="scalar", embedding_kind="coordinate_pe", seed=0)
            res = leakage_experiment(cfg, LINEAR_HEAD, seeds=(42, 24, 7, 0, 100), nx=5, ny=5)
            deltas.append(res.mean_delta)
        assert deltas[0] <= deltas[1] <= deltas[2]

    def test_rejects_class_labels(self):
        cfg = SynthConfig(n=16, label_kind="class", embedding_kind="coordinate_pe")
        with pytest.raises(ValidationError):
            leakage_experiment(cfg, LINEAR_HEAD, seeds=(42,))
