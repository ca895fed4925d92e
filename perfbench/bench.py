"""svtc benchmark: workloads, timed entry points, output checks, metrics.

Every iteration builds a fresh corpus from the workload seed and drives the
public entry points a user runs: ``train.train``, ``train.evaluate_split``
and ``train.dump_alignments``.  Iterations repeat, one after another in one
process (a closed loop with a single client), until ``--seconds`` have
passed; timings are the medians over iterations.  ``--trace 1`` alternates
untraced and traced iterations and reports per-layer span statistics
instead of the end-to-end metrics.

Run from the root of a checkout:
    python3 perfbench/run.py --workload train-default --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from svtc import net, synthdata, train
from svtc.ctc import GlossVocab

import layers

SCORED_SPLIT = "test"
MODEL_SEED = 0  # model init, sample order and augmentation; the corpus follows --seed
# what the svtc CLI maps to exit code 2: data, numeric and I/O errors
PROGRAM_ERRORS = (ValueError, KeyError, FloatingPointError, OSError)
# The calibration loop's length, and its time on a 2-core x86-64 sandbox
# (Python 3.11, numpy 2.4, OpenBLAS) when no neighbour competes for the CPU.
CALIBRATION_STEPS = 3000
CALIBRATION_REF_S = 0.025
PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SVTC_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "train_loss_end": "nats",
    "decode_samples_per_s": "samples/s",
    "decode_wer": "ratio",
    "align_samples_per_s": "samples/s",
    "align_boundary_error": "T/4-frames",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    """Corpus shape and training recipe of one workload.

    ``infer_only`` workloads measure decoding and alignment.  Every workload
    reports every end-to-end metric, so they still train once per iteration
    for the training metrics at their sequence length, but only in untraced
    runs: the traced run of an ``infer_only`` workload records no gradients.
    """

    name: str
    gen: dict
    fusion: str
    batch_size: int
    epochs: int
    infer_only: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-default",
            gen=dict(n_train=48, n_dev=8, n_test=96),
            fusion="mlp",
            batch_size=8,
            epochs=2,
        ),
        Workload(
            "train-b1-heatmap",
            gen=dict(n_train=24, n_dev=8, n_test=96, use_heatmaps=True),
            fusion="attn",
            batch_size=1,
            epochs=2,
        ),
        Workload(
            "infer-long",
            gen=dict(
                n_glosses=40,
                sentence_len=(8, 12),
                frames_per_gloss=(12, 20),
                n_train=16,
                n_dev=4,
                n_test=64,
            ),
            fusion="mlp",
            batch_size=8,
            epochs=1,
            infer_only=True,
        ),
    )
}


@dataclass
class Outcome:
    """Timings and outputs of one iteration, before they are checked.

    ``wall`` holds each phase's wall time; ``scaled`` the same time at the
    reference machine speed (see ``PhaseClock``).
    """

    wall: dict = field(default_factory=dict)
    scaled: dict = field(default_factory=dict)
    calibration: list = field(default_factory=list)
    trained: int = 0
    skipped: int = 0
    scored: int = 0
    train_epochs: list = field(default_factory=list)
    train_digest: str | None = None
    decode_wer: float = 0.0
    decode_digest: str = ""
    align_summary: dict = field(default_factory=dict)
    align_digest: str = ""
    partition_breaches: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.wall.values())


def calibration_loop() -> float:
    """Seconds a fixed loop of small numpy operations and dict updates takes.

    It uses no svtc code, so a change to svtc cannot move it; it measures how
    fast this machine runs that kind of code at the moment.
    """
    rng = np.random.default_rng(0)
    x = rng.standard_normal((14, 64))
    w = rng.standard_normal((64, 64)) * 0.1
    sums = {}
    t0 = time.perf_counter()
    for i in range(CALIBRATION_STEPS):
        h = np.tanh(x @ w)
        sums[i % 97] = float(h.sum())
        x = h + 0.01
    return time.perf_counter() - t0


class PhaseClock:
    """Times consecutive phases, running the calibration loop between them.

    On a machine shared with other tenants the speed of the same code drifts
    by up to 2x within a minute, and CPU time drifts with wall time.  Each
    phase's scaled time is its wall time times ``CALIBRATION_REF_S`` over
    the mean of all calibration times of its iteration: the time the phase
    would take on a machine where the loop takes ``CALIBRATION_REF_S``.
    Averaging over the iteration's loops tracked the drift better than the
    loops next to each phase did.  With ``calibrate`` off, phases are only
    timed, as the traced run needs.
    """

    def __init__(self, out: Outcome, calibrate: bool):
        self.out = out
        self.calibrate = calibrate
        if calibrate:
            out.calibration.append(calibration_loop())
        self.start = time.perf_counter()

    def lap(self, phase: str):
        self.out.wall[phase] = time.perf_counter() - self.start
        if self.calibrate:
            self.out.calibration.append(calibration_loop())
        self.start = time.perf_counter()

    def finish(self):
        if self.calibrate:
            scale = CALIBRATION_REF_S / statistics.mean(self.out.calibration)
            self.out.scaled = {phase: t * scale for phase, t in self.out.wall.items()}


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _reduced_length(T: int, strides) -> int:
    for s in strides:
        T = -(-T // s)  # "same" padding: ceil(T / stride)
    return T


def _partition_breaches(align_path, pairs, strides) -> int:
    """Samples whose spans do not partition [0, T') into one span per gloss."""
    by_id = {s.id: s for s, _ in pairs}
    bad = 0
    with open(align_path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    if [r["id"] for r in records] != [s.id for s, _ in pairs]:
        return len(pairs)
    for rec in records:
        sample = by_id[rec["id"]]
        t_out = _reduced_length(sample.n_frames, strides)
        spans = rec["spans"]
        ok = (
            len(spans) == len(sample.glosses)
            and len(rec["path"]) == t_out
            and spans[0][0] == 0
            and spans[-1][1] == t_out
            and all(s < e for s, e in spans)
            and all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        )
        bad += not ok
    return bad


def _train_config(wl: Workload) -> train.TrainConfig:
    return train.TrainConfig(
        epochs=wl.epochs,
        batch_size=wl.batch_size,
        align_warmup_epochs=0,
        fusion=wl.fusion,
        seed=MODEL_SEED,
    )


def run_iteration(
    wl: Workload, seed: int, work: Path, with_train: bool, calibrate: bool
) -> Outcome:
    """One pass over the workload's entry points inside ``work``.

    Decoding and alignment score a seed-initialised model that goes through
    ``save_checkpoint``/``load_checkpoint``: their cost does not depend on
    training, and their WER and boundary error then vary little from corpus
    to corpus, so they serve as fingerprints of the inference arithmetic.
    """
    out = Outcome()
    corpus = work / "corpus"
    gen = synthdata.GenConfig(seed=seed, **wl.gen)

    clock = PhaseClock(out, calibrate)
    synthdata.generate_corpus(gen, corpus)
    pairs = synthdata.load_split(corpus, SCORED_SPLIT)
    vocab = GlossVocab(tuple(gen.gloss_names))
    cfg = net.ModelConfig(
        vocab_size=vocab.size,
        in_dim_v=gen.d_v_in,
        in_dim_k=gen.d_k_in,
        in_dim_o=gen.d_o_in,
        fusion_kind=wl.fusion,
        seed=MODEL_SEED,
    )
    checkpoint = work / "init" / "checkpoint"
    checkpoint.parent.mkdir(parents=True)
    train.save_checkpoint(checkpoint, net.Model(cfg, vocab))
    model = train.load_checkpoint(checkpoint)
    clock.lap("setup")

    art = None
    if with_train:
        art = train.train(corpus, work / "run", _train_config(wl))
        clock.lap("train")
    report, decodes = train.evaluate_split(model, pairs, workers=1)
    clock.lap("decode")
    align_dir = work / "align"
    out.align_summary = train.dump_alignments(checkpoint, corpus, SCORED_SPLIT, align_dir)
    clock.lap("align")
    clock.finish()

    if art is not None:
        out.trained = wl.gen["n_train"] * wl.epochs
        out.skipped = art.skipped_samples
        out.train_epochs = [rec["loss_total"] for rec in art.epochs]
        base = Path(art.checkpoint_path)
        out.train_digest = _digest(
            art.metrics_path, base.with_suffix(".svt"), base.with_suffix(".json")
        )
    out.scored = len(pairs)
    out.decode_wer = report.wer
    lines = "".join(f"{sid}\t{' '.join(glosses)}\n" for sid, glosses in decodes)
    out.decode_digest = hashlib.sha256(lines.encode()).hexdigest()
    out.align_digest = _digest(align_dir / "align.jsonl")
    out.partition_breaches = _partition_breaches(
        align_dir / "align.jsonl", pairs, model.cfg.temporal_strides
    )
    return out


class Checker:
    """Counts attempted and failed operations and output-check breaches.

    Outputs of every iteration must hash the same as the first one's: the
    run is deterministic for a fixed seed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.breaches = []
        self._first = None

    def breach(self, message: str, count: int = 1):
        self.failed += count
        self.breaches.append(message)

    def check(self, out: Outcome):
        self.attempted += out.trained + 2 * out.scored
        self.failed += out.skipped
        if not all(math.isfinite(v) for v in out.train_epochs):
            self.breach(f"non-finite training loss: {out.train_epochs}")
        if out.partition_breaches:
            self.breach(
                f"{out.partition_breaches} samples' spans do not partition [0, T')",
                out.partition_breaches,
            )
        if out.align_summary.get("samples") != out.scored:
            self.breach(f"dump_alignments covered {out.align_summary.get('samples')} samples")
        digests = {
            "train outputs (metrics.jsonl, checkpoint)": out.train_digest,
            "decode lines": out.decode_digest,
            "align.jsonl": out.align_digest,
        }
        if self._first is None:
            self._first = digests
            return
        for what, digest in digests.items():
            if digest != self._first[what]:
                self.breach(f"{what} differ between iterations of one seed")


def iteration_series(outcomes, key="scaled") -> dict:
    """Per-iteration values of the timed metrics, in iteration order."""
    return {
        "setup_s": [getattr(o, key)["setup"] for o in outcomes],
        "train_samples_per_s": [
            (o.trained - o.skipped) / getattr(o, key)["train"] for o in outcomes
        ],
        "decode_samples_per_s": [o.scored / getattr(o, key)["decode"] for o in outcomes],
        "align_samples_per_s": [o.scored / getattr(o, key)["align"] for o in outcomes],
    }


def end_to_end_metrics(outcomes) -> dict:
    first = outcomes[0]
    series = iteration_series(outcomes)
    values = {
        "setup_s": statistics.median(series["setup_s"]),
        "train_samples_per_s": statistics.median(series["train_samples_per_s"]),
        "decode_samples_per_s": statistics.median(series["decode_samples_per_s"]),
        "align_samples_per_s": statistics.median(series["align_samples_per_s"]),
        "train_loss_end": first.train_epochs[-1],
        "decode_wer": first.decode_wer,
        "align_boundary_error": first.align_summary["mean_boundary_error_frames"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer_metrics(tracer: layers.Tracer, traced: list, untraced: list) -> dict:
    """Span statistics per traced iteration, tape sizes per backward, two
    time shares the workloads are designed around, and tracing overhead and
    coverage."""
    k = len(traced)
    metrics = {}
    for spec in layers.SPANS:
        calls, total, own = tracer.stats[spec.name]
        metrics[f"{spec.name}.calls"] = (calls / k, "count")
        metrics[f"{spec.name}.ms"] = (1e3 * total / k, "ms")
        metrics[f"{spec.name}.self_ms"] = (1e3 * own / k, "ms")
    backwards = tracer.stats["ndgrad.backward"][0]
    for name, total in tracer.counts.items():
        metrics[name] = (total / backwards if backwards else 0.0, "count")

    def share(part, whole):
        whole_s = tracer.stats[whole][1]
        return tracer.stats[part][1] / whole_s if whole_s else 0.0

    metrics["train.adam_step.share_of_train"] = (share("train.adam_step", "train.train"), "ratio")
    metrics["ctc.beam_decode.share_of_evaluate_split"] = (
        share("ctc.beam_decode", "train.evaluate_split"),
        "ratio",
    )
    traced_s = statistics.median(o.wall_s for o in traced)
    metrics["trace.overhead_s"] = (traced_s - statistics.median(o.wall_s for o in untraced), "s")
    metrics["trace.coverage"] = (
        tracer.root_children_s / tracer.root_s if tracer.root_s else 0.0,
        "ratio",
    )
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def environment(wl: Workload, seed: int, traced: bool) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned": {k: os.environ.get(k) for k in PINNED_ENV},
        "workload": {
            "name": wl.name,
            "seed": seed,
            "corpus": {k: list(v) if isinstance(v, tuple) else v for k, v in wl.gen.items()},
            "fusion": wl.fusion,
            "batch_size": wl.batch_size,
            "epochs": wl.epochs,
            "scored_split": SCORED_SPLIT,
        },
        "trace": traced,
    }


def measure(wl: Workload, seed: int, seconds: float, trace: bool, work_root: Path):
    checker = Checker()
    tracer = layers.Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        traced_now = trace and index % 2 == 1
        work = work_root / f"it{index:04d}"
        work.mkdir()
        with_train = not (trace and wl.infer_only)
        try:
            if traced_now:
                tracer.install()
                try:
                    with tracer.root():
                        out = run_iteration(wl, seed, work, with_train, calibrate=False)
                finally:
                    tracer.uninstall()
            else:
                out = run_iteration(wl, seed, work, with_train, calibrate=not trace)
        except PROGRAM_ERRORS as err:
            planned = 2 * wl.gen["n_test"] + (wl.gen["n_train"] * wl.epochs if with_train else 0)
            checker.attempted += planned
            checker.breach(f"iteration {index} raised {type(err).__name__}: {err}", planned)
        else:
            checker.check(out)
            (traced if traced_now else untraced).append(out)
        shutil.rmtree(work)
        index += 1
        if time.perf_counter() >= deadline and index >= 2:
            break
    if not untraced or (trace and not traced):
        raise SystemExit("error: no iteration completed: " + "; ".join(checker.breaches))
    if trace:
        for message in layers.span_breaches(tracer.stats, wl.name):
            checker.breach(message)
        metrics = per_layer_metrics(tracer, traced, untraced)
        series = {
            "untraced_wall_s": [o.wall_s for o in untraced],
            "traced_wall_s": [o.wall_s for o in traced],
        }
    else:
        metrics = end_to_end_metrics(untraced)
        series = {
            "scaled": iteration_series(untraced),
            "wall": iteration_series(untraced, "wall"),
            "calibration_s": [o.calibration for o in untraced],
        }
    return checker, metrics, series


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    work_root = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd()))
    try:
        checker, metrics, series = measure(
            wl, args.seed, args.seconds, bool(args.trace), work_root
        )
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    info = environment(wl, args.seed, bool(args.trace))
    info["iterations"] = series
    info["breaches"] = checker.breaches
    print(json.dumps({"env": info}, sort_keys=True))
    for message in checker.breaches:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not checker.breaches,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0
