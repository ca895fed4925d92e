"""Corpus generation, heatmap rendering and augmentations."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from svtc import synthdata
from svtc.synthdata import (
    CorpusSpec,
    GenConfig,
    HeatmapConfig,
    Sample,
    frame_rate_augment,
    generate_corpus,
    generate_sample,
    render_heatmap,
    spatial_crop_augment,
)


def tiny_config(**kw):
    base = dict(n_train=6, n_dev=3, n_test=3, seed=5)
    base.update(kw)
    return GenConfig(**base)


class TestGeneration:
    def test_zero_noise_single_gloss_constant_frames(self):
        cfg = tiny_config(noise=0.0, sentence_len=(1, 1))
        spec = CorpusSpec(cfg)
        sample, spans, _ = generate_sample(spec, 0, "s0")
        assert len(sample.glosses) == 1
        assert np.all(sample.x_v == sample.x_v[0])
        assert np.all(sample.x_k == sample.x_k[0])
        assert len(spans) == 1 and spans[0] == (0, sample.n_frames)

    def test_same_seed_bit_identical_corpus(self, tmp_path):
        cfg = tiny_config()
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_corpus(cfg, a)
        generate_corpus(GenConfig(**{**cfg.__dict__, "heatmap": HeatmapConfig()}), b)
        for name in ("corpus.jsonl", "vocab.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        for f in sorted((a / "tensors").iterdir()):
            assert f.read_bytes() == (b / "tensors" / f.name).read_bytes()

    def test_frames_at_least_4n_everywhere(self, tmp_path):
        generate_corpus(tiny_config(n_train=30), tmp_path)
        for split in ("train", "dev", "test"):
            for sample, rec in synthdata.load_split(tmp_path, split):
                assert sample.n_frames >= 4 * len(sample.glosses)
                assert sample.x_v.shape[0] == sample.x_k.shape[0] == sample.x_o.shape[0]
                spans = rec["true_spans"]
                assert spans[0][0] == 0 and spans[-1][1] == sample.n_frames

    def test_splits_disjoint_by_id(self, tmp_path):
        records = generate_corpus(tiny_config(), tmp_path)
        ids = [r["id"] for r in records]
        assert len(ids) == len(set(ids))
        by_split = {}
        for r in records:
            by_split.setdefault(r["split"], set()).add(r["id"])
        assert not (by_split["train"] & by_split["dev"])
        assert not (by_split["dev"] & by_split["test"])

    def test_modalities_correlated_but_distinct(self):
        cfg = tiny_config(noise=0.0)
        spec = CorpusSpec(cfg)
        sample, _, _ = generate_sample(spec, 1, "s1")
        np.testing.assert_allclose(sample.x_k, sample.x_v @ spec.to_keypoints, atol=1e-12)
        assert sample.x_k.shape[1] == cfg.d_k_in
        assert sample.x_o.shape[1] == cfg.d_o_in

    def test_manifest_schema(self, tmp_path):
        generate_corpus(tiny_config(), tmp_path)
        with open(tmp_path / "corpus.jsonl") as fh:
            for line in fh:
                rec = json.loads(line)
                assert set(rec) == {"id", "split", "glosses", "tensors", "true_spans"}
                assert isinstance(rec["glosses"], list) and rec["glosses"]
                assert all(
                    isinstance(s, list) and len(s) == 2 for s in rec["true_spans"]
                )

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(n_glosses=1)
        with pytest.raises(ValueError):
            GenConfig(frames_per_gloss=(2, 6))
        with pytest.raises(ValueError):
            GenConfig(sentence_len=(4, 2))

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(n_train=-1), "n_train must be >= 1"),
            (dict(n_dev=0), "n_dev must be >= 1"),
            (dict(n_test=0), "n_test must be >= 1"),
            (dict(d_v_in=0), "d_v_in must be >= 1"),
            (dict(d_k_in=0), "d_k_in must be >= 1"),
            (dict(d_o_in=0), "d_o_in must be >= 1"),
            (dict(noise=-1.0), "noise must be finite and >= 0"),
            (dict(noise=math.nan), "noise must be finite and >= 0"),
            (dict(noise=math.inf), "noise must be finite and >= 0"),
            (dict(heatmap=dict(n_keypoints=0)), "n_keypoints must be >= 1"),
            (dict(use_heatmaps=True, heatmap=dict(n_keypoints=5)), "d_k_in == heatmap"),
        ],
    )
    def test_counts_widths_noise_and_keypoints_checked(self, kw, message):
        with pytest.raises(ValueError, match=message):
            GenConfig(**kw)

    def test_zero_noise_and_matching_keypoints_accepted(self):
        GenConfig(noise=0.0)
        GenConfig(use_heatmaps=True, d_k_in=5, heatmap=HeatmapConfig(n_keypoints=5))


class TestRenderHeatmap:
    def test_keypoint_cell_is_exactly_one(self):
        cfg = HeatmapConfig(height=8, width=8, sigma=4.0, n_keypoints=1)
        pts = np.array([[[3.0, 5.0]]])
        maps = render_heatmap(pts, cfg)
        assert maps[0, 3, 5, 0] == 1.0

    def test_offset_four_zero_reference_value(self):
        cfg = HeatmapConfig(height=10, width=10, sigma=4.0, n_keypoints=1)
        pts = np.array([[[2.0, 4.0]]])
        maps = render_heatmap(pts, cfg)
        # cell (6, 4): offset (4, 0) -> exp(-16/32)
        assert maps[0, 6, 4, 0] == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_full_canvas_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            cfg = HeatmapConfig(
                height=int(rng.integers(2, 7)),
                width=int(rng.integers(2, 7)),
                sigma=float(rng.uniform(0.5, 5.0)),
                n_keypoints=int(rng.integers(1, 4)),
            )
            T = int(rng.integers(1, 4))
            pts = rng.uniform(-2, cfg.height + 2, size=(T, cfg.n_keypoints, 2))
            got = render_heatmap(pts, cfg)
            for t in range(T):
                for i in range(cfg.height):
                    for j in range(cfg.width):
                        for k in range(cfg.n_keypoints):
                            px, py = pts[t, k]
                            want = math.exp(
                                -((i - px) ** 2 + (j - py) ** 2) / (2 * cfg.sigma**2)
                            )
                            assert abs(got[t, i, j, k] - want) <= 1e-15

    def test_values_in_unit_interval_max_at_nearest_cell(self):
        rng = np.random.default_rng(4)
        cfg = HeatmapConfig(height=9, width=9, sigma=2.0, n_keypoints=2)
        pts = rng.uniform(0, 8, size=(3, 2, 2))
        maps = render_heatmap(pts, cfg)
        assert np.all(maps > 0) and np.all(maps <= 1.0)
        for t in range(3):
            for k in range(2):
                i, j = np.unravel_index(np.argmax(maps[t, :, :, k]), (9, 9))
                assert i == int(round(pts[t, k, 0]))
                assert j == int(round(pts[t, k, 1]))

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            HeatmapConfig(sigma=0.0)
        cfg = HeatmapConfig()
        cfg.sigma = -1.0
        with pytest.raises(ValueError):
            render_heatmap(np.zeros((1, 1, 2)), cfg)
        with pytest.raises(ValueError, match="finite"):
            HeatmapConfig(sigma=float("nan"))
        cfg.sigma = float("nan")  # set after the constructor's check
        with pytest.raises(ValueError, match="sigma must be finite and > 0, got nan"):
            render_heatmap(np.zeros((1, 1, 2)), cfg)

    def test_outside_canvas_points_still_computed(self):
        cfg = HeatmapConfig(height=4, width=4, sigma=4.0, n_keypoints=1)
        maps = render_heatmap(np.array([[[-3.0, 10.0]]]), cfg)
        assert np.all(np.isfinite(maps)) and np.all(maps > 0)


class TestFrameRateAugment:
    def _sample(self, T=16, glosses=("G01", "G02")):
        rng = np.random.default_rng(0)
        return Sample(
            id="s",
            glosses=list(glosses),
            x_v=rng.standard_normal((T, 4)),
            x_k=rng.standard_normal((T, 3)),
            x_o=rng.standard_normal((T, 2)),
        )

    def test_factor_one_identity(self):
        s = self._sample()
        out = frame_rate_augment(s, 1.0)
        np.testing.assert_array_equal(out.x_v, s.x_v)
        np.testing.assert_array_equal(out.x_k, s.x_k)

    def test_factor_half_halves_length(self):
        out = frame_rate_augment(self._sample(T=16), 0.5)
        assert out.n_frames == 8

    def test_indices_identical_across_modalities(self):
        s = self._sample(T=20)
        # make each modality encode its frame index so we can trace the map
        s.x_v = np.arange(20.0).reshape(-1, 1) * np.ones((1, 4))
        s.x_k = np.arange(20.0).reshape(-1, 1) * np.ones((1, 3))
        s.x_o = np.arange(20.0).reshape(-1, 1) * np.ones((1, 2))
        out = frame_rate_augment(s, 1.37)
        np.testing.assert_array_equal(out.x_v[:, 0], out.x_k[:, 0])
        np.testing.assert_array_equal(out.x_v[:, 0], out.x_o[:, 0])

    def test_clamps_to_feasible_length(self):
        s = self._sample(T=16, glosses=("G01", "G01"))  # repeat needs slack
        out = frame_rate_augment(s, 0.1)
        assert out.n_frames >= 4 * (2 + 1)

    def test_labels_unchanged(self):
        s = self._sample()
        assert frame_rate_augment(s, 0.6).glosses == s.glosses


class TestSpatialCropAugment:
    def test_scale_one_identity(self):
        rng = np.random.default_rng(5)
        maps = rng.uniform(size=(2, 6, 6, 3))
        out = spatial_crop_augment(maps, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, maps)

    def test_scale_07_on_10x10_gives_7x7(self):
        maps = np.zeros((1, 10, 10, 1))
        out = spatial_crop_augment(maps, 0.7, np.random.default_rng(0))
        assert out.shape == (1, 7, 7, 1)

    def test_window_constant_across_frames_and_channels(self):
        rng = np.random.default_rng(6)
        T, H, W, K = 3, 8, 8, 2
        maps = np.empty((T, H, W, K))
        # encode the absolute (i, j) position in every cell
        for i in range(H):
            for j in range(W):
                maps[:, i, j, :] = i * 100 + j
        out = spatial_crop_augment(maps, 0.75, np.random.default_rng(1))
        first = out[0, :, :, 0]
        for t in range(T):
            for k in range(K):
                np.testing.assert_array_equal(out[t, :, :, k], first)

    def test_oversized_window_rejected(self):
        with pytest.raises(ValueError):
            spatial_crop_augment(np.zeros((1, 4, 4, 1)), 1.2, np.random.default_rng(0))


class TestHeatmapMode:
    def test_corpus_with_heatmaps(self, tmp_path):
        canvas = HeatmapConfig(height=8, width=8, sigma=3.0, n_keypoints=6)
        cfg = tiny_config(use_heatmaps=True, d_k_in=6, heatmap=canvas)
        records = generate_corpus(cfg, tmp_path)
        sample, rec = synthdata.load_split(tmp_path, "train")[0]
        assert sample.x_k.shape[1] == 6
        from svtc import container

        tensors = container.load_tensors(Path(tmp_path) / rec["tensors"])
        assert "points" in tensors
        assert tensors["points"].shape == (sample.n_frames, 6, 2)

    def test_projection_deterministic_per_size(self):
        a = synthdata.heatmap_projection(3, 8, 8, 4)
        b = synthdata.heatmap_projection(3, 8, 8, 4)
        c = synthdata.heatmap_projection(3, 6, 8, 4)
        np.testing.assert_array_equal(a, b)
        assert a.shape != c.shape
