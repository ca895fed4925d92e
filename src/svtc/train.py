"""Training loop, optimizer, checkpoints and split evaluation.

One process trains; per-epoch sample order, augmentation draws and the
gradient reduction are all seeded and ordered, so a (seed, corpus, config)
triple fully determines the metrics log and the checkpoint bytes.

Training runs each batch as packs: consecutive samples concatenated along
time, up to ``PACK_ROWS`` frames, one forward graph and one backward per
pack.  The batch's gradients sum over its packs before one Adam step.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import container, ndgrad, net, synthdata
from .ctc import (
    CtcInfeasibleError,
    GlossVocab,
    ProbStream,
    average_streams,
    aggregate_reports,
    beam_decode,
    check_feasible,
    wer,
)

_EPOCH_NS = 0xE70C
_AUG_NS = 0xA716
# frame-rate factor and (heatmap corpora only) spatial crop scale draws
AUG_FACTOR_RANGE = (0.5, 1.5)
CROP_SCALE_RANGE = (0.7, 1.0)
# frames per training pack: a larger pack saves per-op overhead but holds a
# larger graph, and the peak memory of a pack grows with its rows
PACK_ROWS = 512


@dataclass
class TrainConfig:
    epochs: int = 60
    lr0: float = 1e-3
    weight_decay: float = 1e-3
    batch_size: int = 8
    align_warmup_epochs: int = 5
    lambda_ctc: float = 1.0
    lambda_spn: float = 0.5
    lambda_g: float = 0.1
    lambda_s: float = 0.1
    seed: int = 0
    fusion: str = "mlp"
    frame_rate_aug: bool = True

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("lr0", "weight_decay", "lambda_ctc", "lambda_spn", "lambda_g", "lambda_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if not 0 <= self.align_warmup_epochs < self.epochs:
            raise ValueError("alignment warm-up must be shorter than the run")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")

    def loss_weights(self) -> net.LossWeights:
        return net.LossWeights(
            ctc=self.lambda_ctc,
            spn=self.lambda_spn,
            gloss_align=self.lambda_g,
            sentence_align=self.lambda_s,
        )


@dataclass
class RunArtifacts:
    checkpoint_path: str
    metrics_path: str
    best_dev_wer: float
    epochs: list = field(default_factory=list)
    skipped_samples: int = 0


def thread_count() -> int:
    """Worker cap from SVTC_THREADS (default 1)."""
    raw = os.environ.get("SVTC_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"SVTC_THREADS must be an integer, got {raw!r}") from None
    return max(n, 1)


def cosine_lr(epoch: int, total_epochs: int, lr0: float) -> float:
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


class Adam:
    """Adam with decoupled weight decay; parameters without a gradient in a
    step are left untouched (state included)."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict):
        self.params = params
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.t = 0

    def step(self, lr: float, weight_decay: float, grad_scale: float):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            # in place, in the operation order of the expressions noted alongside
            g = p.grad * grad_scale
            m, v = self.m[name], self.v[name]
            m *= b1  # m = b1 * m + (1 - b1) * g
            m += (1.0 - b1) * g
            g *= g  # v = b2 * v + (1 - b2) * (g * g)
            g *= 1.0 - b2
            v *= b2
            v += g
            update = m / bc1  # (m / bc1) / (sqrt(v / bc2) + eps)
            denom = np.sqrt(v / bc2)
            denom += self.eps
            update /= denom
            if weight_decay:
                update += weight_decay * p.data
            update *= lr
            p.data = p.data - update

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


def save_checkpoint(base_path, model: net.Model) -> None:
    """Weights into <base>.svt, config + vocabulary into <base>.json."""
    base = Path(base_path)
    tensors = {name: p.data for name, p in sorted(model.parameters().items())}
    container.save_tensors(base.with_suffix(".svt"), tensors)
    sidecar = {"model": asdict(model.cfg), "glosses": list(model.vocab.glosses)}
    with open(base.with_suffix(".json"), "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_checkpoint(base_path) -> net.Model:
    base = Path(base_path)
    sidecar_path = base.with_suffix(".json")
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    try:
        vocab = GlossVocab(tuple(sidecar["glosses"]))
        model = net.Model(net.ModelConfig(**sidecar["model"]), vocab)
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"bad checkpoint sidecar {sidecar_path}: {err}") from None
    tensors = container.load_tensors(base.with_suffix(".svt"))
    params = model.parameters()
    if set(tensors) != set(params):
        raise ValueError("checkpoint does not match the configured model")
    for name, p in params.items():
        loaded = tensors[name]
        if loaded.shape != p.data.shape:
            raise ValueError(f"shape mismatch for {name}: {loaded.shape} vs {p.data.shape}")
        p.data = loaded
    return model


def decode_sample(model: net.Model, sample, width: int, head: str) -> list:
    """Gloss ids for one sample via beam search over the selected stream.

    Only the recognition trunk runs: the pyramid and adapters supervise
    training and never reach a decode.
    """
    if head != "avg" and head not in net.HEAD_KEYS:
        raise ValueError(f"unknown head {head!r} (expected v|k|o|c|avg)")
    with ndgrad.no_grad():
        streams = model.recognize(sample).streams
    if head == "avg":
        stream = average_streams([ProbStream(streams[k], log_space=True) for k in net.HEAD_KEYS])
    else:
        stream = ProbStream(streams[head], log_space=True)
    return beam_decode(stream, width=width)


def evaluate_split(model, samples, width=5, head="avg", workers=None):
    """Micro-averaged WER plus per-sample decodes over (sample, record) pairs."""
    workers = workers or thread_count()

    def one(pair):
        sample, _ = pair
        hyp = decode_sample(model, sample, width, head)
        ref = model.vocab.ids(sample.glosses)
        return sample.id, hyp, wer(ref, hyp)

    if workers > 1 and len(samples) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one, samples))
    else:
        rows = [one(p) for p in samples]
    report = aggregate_reports([r for _, _, r in rows])
    decodes = [(sid, model.vocab.lookup_all(hyp)) for sid, hyp, _ in rows]
    return report, decodes


def _augment(sample, tcfg: TrainConfig, epoch: int, index: int, hm_cfg, gen_seed: int):
    rng = np.random.default_rng((tcfg.seed, _AUG_NS, epoch, index))
    if tcfg.frame_rate_aug:
        lo, hi = AUG_FACTOR_RANGE
        sample = synthdata.frame_rate_augment(sample, float(rng.uniform(lo, hi)))
    if sample.points is not None and hm_cfg is not None:
        lo, hi = CROP_SCALE_RANGE
        scale = float(rng.uniform(lo, hi))
        x_k = synthdata.materialize_keypoints(sample.points, hm_cfg, gen_seed, scale, rng)
        sample = replace(sample, x_k=x_k)
    return sample


def packs(samples, max_rows: int):
    """Consecutive runs of samples with at most ``max_rows`` frames in all;
    a longer sample forms a pack of its own."""
    pack, rows = [], 0
    for sample in samples:
        if pack and rows + sample.n_frames > max_rows:
            yield pack
            pack, rows = [], 0
        pack.append(sample)
        rows += sample.n_frames
    if pack:
        yield pack


def model_for_corpus(meta: dict, **settings) -> net.Model:
    """A model sized to a corpus's ``vocab.json``; ``settings`` set the other
    ModelConfig fields."""
    vocab = GlossVocab(tuple(meta["glosses"]))
    gen_cfg = meta.get("config", {})
    cfg = net.ModelConfig(
        vocab_size=vocab.size,
        in_dim_v=gen_cfg.get("d_v_in", 16),
        in_dim_k=gen_cfg.get("d_k_in", 12),
        in_dim_o=gen_cfg.get("d_o_in", 16),
        **settings,
    )
    return net.Model(cfg, vocab)


def _pack_losses(model, pack, weights, include_align, epoch) -> net.LossTerms:
    """One pack's forward and losses; a non-finite value raises
    FloatingPointError naming the epoch and the pack's samples."""
    try:
        outputs = model.forward(*pack)
        terms = net.compute_losses(
            outputs, [model.vocab.ids(s.glosses) for s in pack], weights, include_align
        )
        if not math.isfinite(terms.total.item()):
            raise FloatingPointError(f"non-finite loss {terms.total.item()}")
    except FloatingPointError as err:
        ids = ", ".join(s.id for s in pack)
        raise FloatingPointError(f"epoch {epoch}, samples {ids}: {err}") from None
    return terms


def train(corpus_dir, out_dir, tcfg: TrainConfig, widths: dict | None = None):
    """Full training run; returns RunArtifacts, writes metrics + checkpoint.

    ``widths`` sets ModelConfig's ``d_v``/``d_t``/``d_j``; fusion and seed
    come from ``tcfg`` and the sizes from the corpus.
    """
    corpus_dir = Path(corpus_dir)
    out_dir = Path(out_dir)

    meta = synthdata.load_meta(corpus_dir)
    gen_cfg = meta.get("config", {})
    gen_seed = gen_cfg.get("seed", 0)
    hm_cfg = None
    if gen_cfg.get("use_heatmaps"):
        hm_cfg = synthdata.HeatmapConfig(**gen_cfg["heatmap"])
    model = model_for_corpus(
        meta, fusion_kind=tcfg.fusion, seed=tcfg.seed, **(widths or {})
    )
    vocab = model.vocab
    out_dir.mkdir(parents=True, exist_ok=True)

    train_pairs = synthdata.load_split(corpus_dir, "train")
    dev_pairs = synthdata.load_split(corpus_dir, "dev")
    train_samples = [s for s, _ in train_pairs]

    optimizer = Adam(model.parameters())
    weights = tcfg.loss_weights()

    metrics_path = out_dir / "metrics.jsonl"
    checkpoint_base = out_dir / "checkpoint"
    best_wer = math.inf
    skipped_total = 0
    epochs_log = []

    with open(metrics_path, "w") as metrics_fh:
        for epoch in range(tcfg.epochs):
            lr = cosine_lr(epoch, tcfg.epochs, tcfg.lr0)
            include_align = epoch >= tcfg.align_warmup_epochs
            order = np.random.default_rng((tcfg.seed, _EPOCH_NS, epoch)).permutation(
                len(train_samples)
            )
            sums = {"total": 0.0, "ctc": 0.0, "spn": 0.0, "g": 0.0, "s": 0.0}
            n_seen = 0
            skipped = 0
            for start in range(0, len(order), tcfg.batch_size):
                optimizer.zero_grad()
                batch = []
                for idx in order[start : start + tcfg.batch_size]:
                    sample = _augment(
                        train_samples[idx], tcfg, epoch, int(idx), hm_cfg, gen_seed
                    )
                    try:
                        t_out = model.block_lengths((sample.n_frames,))[-1][0]
                        check_feasible(vocab.ids(sample.glosses), t_out)
                    except CtcInfeasibleError as err:
                        skipped += 1
                        print(f"warning: skipping {sample.id}: {err}")
                        continue
                    batch.append(sample)
                for pack in packs(batch, PACK_ROWS):
                    terms = _pack_losses(model, pack, weights, include_align, epoch)
                    ndgrad.backward(terms.total)
                    sums["total"] += terms.total.item()
                    sums["ctc"] += terms.ctc
                    sums["spn"] += terms.spn
                    sums["g"] += terms.gloss_align
                    sums["s"] += terms.sentence_align
                if batch:
                    optimizer.step(lr, tcfg.weight_decay, grad_scale=1.0 / len(batch))
                n_seen += len(batch)

            dev_report, _ = evaluate_split(model, dev_pairs)
            record = {
                "epoch": epoch,
                "lr": lr,
                "loss_total": sums["total"] / max(n_seen, 1),
                "loss_ctc": sums["ctc"] / max(n_seen, 1),
                "loss_spn": sums["spn"] / max(n_seen, 1),
                "loss_align_g": sums["g"] / max(n_seen, 1),
                "loss_align_s": sums["s"] / max(n_seen, 1),
                "dev_wer": dev_report.wer,
                "skipped": skipped,
            }
            metrics_fh.write(json.dumps(record, sort_keys=True) + "\n")
            metrics_fh.flush()
            epochs_log.append(record)
            skipped_total += skipped
            if dev_report.wer < best_wer:
                best_wer = dev_report.wer
                save_checkpoint(checkpoint_base, model)

    return RunArtifacts(
        checkpoint_path=str(checkpoint_base),
        metrics_path=str(metrics_path),
        best_dev_wer=best_wer,
        epochs=epochs_log,
        skipped_samples=skipped_total,
    )


def evaluate_corpus(checkpoint_base, corpus_dir, split: str, width=5, head="avg"):
    """Load a checkpoint and score one split; returns (report, decodes)."""
    model = load_checkpoint(checkpoint_base)
    pairs = synthdata.load_split(corpus_dir, split)
    return evaluate_split(model, pairs, width=width, head=head)


def dump_alignments(checkpoint_base, corpus_dir, split, out_dir):
    """Per-sample alignment dumps plus the mean boundary error in T/4 frames.

    Writes align.jsonl (path, spans, log_score per sample) and
    similarity.svt (per-sample visual-textual pair matrices).
    """
    model = load_checkpoint(checkpoint_base)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pairs = synthdata.load_split(corpus_dir, split)

    records = []
    matrices = {}
    boundary_errors = []
    reduction = math.prod(model.cfg.temporal_strides)  # input frames per T' row
    for sample, rec in pairs:
        label_ids = model.vocab.ids(sample.glosses)
        with ndgrad.no_grad():
            path, spans, pair_mats = net.align_glosses(model.forward(sample), label_ids, 0)
        matrices[sample.id] = pair_mats.v2t.data
        records.append(
            {
                "id": sample.id,
                "path": list(path.assignment),
                "spans": [[s, e] for s, e in spans],
                "log_score": path.log_score,
            }
        )
        true_spans = rec.get("true_spans")
        if true_spans and len(true_spans) == len(spans) > 1:
            pred_bounds = [s for s, _ in spans[1:]]
            true_bounds = [s / reduction for s, _ in true_spans[1:]]
            for p, t in zip(pred_bounds, true_bounds):
                boundary_errors.append(abs(p - t))

    with open(out_dir / "align.jsonl", "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    container.save_tensors(out_dir / "similarity.svt", matrices)
    mean_err = float(np.mean(boundary_errors)) if boundary_errors else 0.0
    summary = {"mean_boundary_error_frames": mean_err, "samples": len(records)}
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return summary
