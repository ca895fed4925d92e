"""Synthetic weakly-labeled multi-modal corpus, heatmaps and augmentations.

Each sample draws a gloss sequence; every gloss emits a contiguous run of
frames around a seeded per-gloss prototype vector.  The keypoint and flow
modalities are fixed seeded linear transforms of the same base features with
independent noise, so the three streams are correlated but distinct.  True
segment boundaries go into the manifest for alignment evaluation only.

Generation is a pure function of (config, count): sample i uses the rng
seeded with ``seed ^ i``, so parallel and serial generation agree.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import container

_PROJ_NS = 0x9E3779B9  # seed-sequence namespace for heatmap projections


@dataclass
class HeatmapConfig:
    height: int = 16
    width: int = 16
    sigma: float = 4.0
    n_keypoints: int = 12

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if self.height < 1 or self.width < 1:
            raise ValueError("canvas extents must be >= 1")
        if self.n_keypoints < 1:
            raise ValueError(f"n_keypoints must be >= 1, got {self.n_keypoints}")


@dataclass
class GenConfig:
    n_glosses: int = 12  # vocabulary excluding blank, so C = n_glosses + 1
    sentence_len: tuple = (3, 6)
    frames_per_gloss: tuple = (8, 16)
    d_v_in: int = 16
    d_k_in: int = 12
    d_o_in: int = 16
    noise: float = 0.3
    n_train: int = 300
    n_dev: int = 50
    n_test: int = 50
    seed: int = 0
    use_heatmaps: bool = False
    heatmap: HeatmapConfig = field(default_factory=HeatmapConfig)

    def __post_init__(self):
        if isinstance(self.heatmap, dict):
            self.heatmap = HeatmapConfig(**self.heatmap)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("n_train", "n_dev", "n_test", "d_v_in", "d_k_in", "d_o_in"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        if self.use_heatmaps and self.d_k_in != self.heatmap.n_keypoints:
            raise ValueError(
                "heatmap corpora need d_k_in == heatmap.n_keypoints, "
                f"got {self.d_k_in} and {self.heatmap.n_keypoints}"
            )
        if self.n_glosses < 2:
            raise ValueError("need at least 2 glosses (C >= 3)")
        # at least 4 frames per gloss keeps T >= 4N
        for name, low in (("sentence_len", 1), ("frames_per_gloss", 4)):
            pair = tuple(getattr(self, name))
            if len(pair) != 2 or not all(type(v) is int for v in pair):
                raise ValueError(f"{name} must be two integers [lo, hi], got {list(pair)}")
            if not low <= pair[0] <= pair[1]:
                raise ValueError(f"{name} needs {low} <= lo <= hi, got {list(pair)}")
            setattr(self, name, pair)

    @property
    def gloss_names(self) -> list:
        return [f"G{i:02d}" for i in range(1, self.n_glosses + 1)]


@dataclass
class Sample:
    """One weakly-labeled item: three modality sequences plus glosses.

    ``points`` is only present for heatmap-mode corpora: the raw keypoint
    trajectories [T, K, 2] that ``x_k`` was rendered and projected from,
    kept so train-time augmentation can re-render with a spatial crop.
    """

    id: str
    glosses: list
    x_v: np.ndarray  # [T, d_v_in]
    x_k: np.ndarray  # [T, d_k_in]
    x_o: np.ndarray  # [T, d_o_in]
    points: np.ndarray | None = None

    @property
    def n_frames(self) -> int:
        return self.x_v.shape[0]


def render_heatmap(points: np.ndarray, cfg: HeatmapConfig) -> np.ndarray:
    """Gaussian response maps: value at cell (i, j) for keypoint (px, py) is
    exp(-((i - px)^2 + (j - py)^2) / (2 sigma^2)).

    ``points`` is [T, K, 2]; points may fall outside the canvas, the formula
    is evaluated regardless.  Output is [T, H, W, K].
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 3 or pts.shape[2] != 2:
        raise ValueError("points must be [T, K, 2]")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    if not (math.isfinite(cfg.sigma) and cfg.sigma > 0):
        raise ValueError(f"sigma must be finite and > 0, got {cfg.sigma}")
    ii = np.arange(cfg.height, dtype=np.float64)
    jj = np.arange(cfg.width, dtype=np.float64)
    di = ii[None, :, None] - pts[:, :, 0][:, None, :]  # [T, H, K]
    dj = jj[None, :, None] - pts[:, :, 1][:, None, :]  # [T, W, K]
    quad = di[:, :, None, :] ** 2 + dj[:, None, :, :] ** 2  # [T, H, W, K]
    return np.exp(-quad / (2.0 * cfg.sigma**2))


def heatmap_projection(seed: int, height: int, width: int, k: int) -> np.ndarray:
    """Seeded flattening matrix [H*W*K, K]; deterministic per canvas size."""
    rng = np.random.default_rng((seed, _PROJ_NS, height, width, k))
    scale = 1.0 / math.sqrt(height * width)
    return rng.standard_normal((height * width * k, k)) * scale


def project_heatmaps(maps: np.ndarray, seed: int) -> np.ndarray:
    """Flatten [T, H, W, K] heatmaps to [T, K] toy features."""
    T, H, W, K = maps.shape
    proj = heatmap_projection(seed, H, W, K)
    return maps.reshape(T, H * W * K) @ proj


def materialize_keypoints(points, cfg: HeatmapConfig, seed: int, crop_scale=None, rng=None):
    """Keypoint features from trajectories: render, optionally crop, project.

    The projection is keyed by the (cropped) canvas size, so every crop
    scale has its own fixed flattening.
    """
    maps = render_heatmap(points, cfg)
    if crop_scale is not None and crop_scale < 1.0:
        maps = spatial_crop_augment(maps, crop_scale, rng)
    return project_heatmaps(maps, seed)


def frame_rate_augment(sample: Sample, factor: float) -> Sample:
    """Nearest-index temporal resampling by ``factor``, identical across all
    three modalities; labels unchanged.  The resulting length is clamped so
    the sample stays alignable (T >= 4N, and T/4 covers adjacent repeats).
    """
    T = sample.n_frames
    n = len(sample.glosses)
    repeats = sum(1 for a, b in zip(sample.glosses, sample.glosses[1:]) if a == b)
    floor_T = max(4 * n, 4 * (n + repeats), 4)
    new_T = max(int(round(T * factor)), floor_T)
    idx = np.round(np.linspace(0.0, T - 1, num=new_T)).astype(np.intp)
    return Sample(
        id=sample.id,
        glosses=list(sample.glosses),
        x_v=sample.x_v[idx],
        x_k=sample.x_k[idx],
        x_o=sample.x_o[idx],
        points=None if sample.points is None else sample.points[idx],
    )


def spatial_crop_augment(heatmaps: np.ndarray, scale: float, rng) -> np.ndarray:
    """Random crop window of side ceil(scale*H) x ceil(scale*W), the same
    window for every frame and keypoint channel."""
    if heatmaps.ndim != 4:
        raise ValueError("heatmaps must be [T, H, W, K]")
    T, H, W, K = heatmaps.shape
    ch = math.ceil(scale * H)
    cw = math.ceil(scale * W)
    if ch > H or cw > W or ch < 1 or cw < 1:
        raise ValueError(f"crop window {ch}x{cw} does not fit canvas {H}x{W}")
    top = int(rng.integers(0, H - ch + 1))
    left = int(rng.integers(0, W - cw + 1))
    return heatmaps[:, top : top + ch, left : left + cw, :]


def _sample_rng(seed: int, index: int):
    return np.random.default_rng(seed ^ index)


class CorpusSpec:
    """Seeded prototypes and modality transforms shared by all samples."""

    def __init__(self, cfg: GenConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        self.prototypes = rng.standard_normal((cfg.n_glosses, cfg.d_v_in))
        self.to_keypoints = rng.standard_normal((cfg.d_v_in, cfg.d_k_in)) / math.sqrt(cfg.d_v_in)
        self.to_flow = rng.standard_normal((cfg.d_v_in, cfg.d_o_in)) / math.sqrt(cfg.d_v_in)
        if cfg.use_heatmaps:
            hm = cfg.heatmap
            margin = 2.0
            self.proto_points = np.stack(
                [
                    rng.uniform(margin, hm.height - 1 - margin, (cfg.n_glosses, hm.n_keypoints)),
                    rng.uniform(margin, hm.width - 1 - margin, (cfg.n_glosses, hm.n_keypoints)),
                ],
                axis=-1,
            )  # [n_glosses, K, 2]


def generate_sample(spec: CorpusSpec, index: int, sample_id: str):
    """One sample plus its true frame spans (and keypoints in heatmap mode)."""
    cfg = spec.cfg
    rng = _sample_rng(cfg.seed, index)
    lo, hi = cfg.sentence_len
    n = int(rng.integers(lo, hi + 1))
    gloss_ids = rng.integers(0, cfg.n_glosses, size=n)
    flo, fhi = cfg.frames_per_gloss
    lengths = rng.integers(flo, fhi + 1, size=n)
    spans = []
    start = 0
    for ln in lengths:
        spans.append((start, start + int(ln)))
        start += int(ln)
    T = start

    frame_gloss = np.repeat(gloss_ids, lengths)
    base = spec.prototypes[frame_gloss]
    if cfg.noise > 0:
        base = base + cfg.noise * rng.standard_normal(base.shape)
    x_v = base
    x_k = base @ spec.to_keypoints
    x_o = base @ spec.to_flow
    if cfg.noise > 0:
        x_k = x_k + cfg.noise * rng.standard_normal(x_k.shape)
        x_o = x_o + cfg.noise * rng.standard_normal(x_o.shape)

    points = None
    if cfg.use_heatmaps:
        pts = spec.proto_points[frame_gloss]  # [T, K, 2]
        points = pts + 0.5 * rng.standard_normal(pts.shape)
        x_k = materialize_keypoints(points, cfg.heatmap, cfg.seed)

    sample = Sample(
        id=sample_id,
        glosses=[spec.cfg.gloss_names[g] for g in gloss_ids],
        x_v=x_v,
        x_k=x_k,
        x_o=x_o,
    )
    return sample, spans, points


def generate_corpus(cfg: GenConfig, out_dir) -> list:
    """Write the corpus (manifest + per-sample tensor files); returns records."""
    out = Path(out_dir)
    (out / "tensors").mkdir(parents=True, exist_ok=True)
    spec = CorpusSpec(cfg)
    splits = [("train", cfg.n_train), ("dev", cfg.n_dev), ("test", cfg.n_test)]
    records = []
    index = 0
    for split, count in splits:
        for i in range(count):
            sample_id = f"{split}-{i:05d}"
            sample, spans, points = generate_sample(spec, index, sample_id)
            rel = f"tensors/{sample_id}.svt"
            tensors = {"x_v": sample.x_v, "x_k": sample.x_k, "x_o": sample.x_o}
            if points is not None:
                tensors["points"] = points
            container.save_tensors(out / rel, tensors)
            records.append(
                {
                    "id": sample_id,
                    "split": split,
                    "glosses": sample.glosses,
                    "tensors": rel,
                    "true_spans": [[s, e] for s, e in spans],
                }
            )
            index += 1
    with open(out / "corpus.jsonl", "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    meta = {"config": asdict(cfg), "glosses": cfg.gloss_names}
    with open(out / "vocab.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return records


def load_manifest(corpus_dir) -> list:
    path = Path(corpus_dir) / "corpus.jsonl"
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def load_meta(corpus_dir) -> dict:
    """``vocab.json`` with its ``"config"`` read back as the GenConfig the
    corpus was generated with; a missing or invalid config is a ValueError."""
    path = Path(corpus_dir) / "vocab.json"
    with open(path) as fh:
        meta = json.load(fh)
    try:
        meta["config"] = GenConfig(**meta["config"])
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"bad corpus config {path}: {type(err).__name__}: {err}") from None
    return meta


def load_split(corpus_dir, split: str) -> list:
    """Samples of one split, in manifest order; returns (sample, record) pairs."""
    corpus_dir = Path(corpus_dir)
    out = []
    for rec in load_manifest(corpus_dir):
        if rec["split"] != split:
            continue
        tensors = container.load_tensors(corpus_dir / rec["tensors"])
        sample = Sample(
            id=rec["id"],
            glosses=list(rec["glosses"]),
            x_v=tensors["x_v"],
            x_k=tensors["x_k"],
            x_o=tensors["x_o"],
            points=tensors.get("points"),
        )
        out.append((sample, rec))
    if not out:
        raise ValueError(f"split {split!r} not found in {corpus_dir}")
    return out
