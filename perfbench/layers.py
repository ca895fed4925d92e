"""Span tracing of the svtc layers, installed from outside the package.

Each public function of a layer is wrapped where its callers look the name
up: ``train`` and ``net`` import ``beam_decode``, ``average_streams``,
``wer`` and ``ctc_loss_group`` by name, so those spans are installed on the
importing module, not on ``ctc``.  Methods are wrapped on their class.
Spans nest; a span's self time is its wall time minus the time its direct
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass

from svtc import align, container, contrast, ctc, ndgrad, net, synthdata, train

_TRAIN = ("train-default", "train-b1-heatmap")
_INFER = ("infer-long",)
_ALL = _TRAIN + _INFER
INFER_PARENTS = frozenset({"train.decode_sample", "train.dump_alignments"})


@dataclass(frozen=True)
class SpanSpec:
    """One traced layer boundary.

    ``sites`` are the (owner, attribute) pairs the wrapper replaces;
    ``expect`` lists the workloads on which the traced run must record
    calls, ``absent`` those on which it must record none; ``moves`` names the
    end-to-end metric the span should move.
    """

    name: str
    sites: tuple
    expect: tuple
    moves: str
    absent: tuple = ()


def _spec(name, sites, expect, moves, absent=()):
    return SpanSpec(name, tuple(sites), tuple(expect), moves, tuple(absent))


SPANS = (
    _spec("synthdata.generate_corpus", [(synthdata, "generate_corpus")], _ALL, "setup_s"),
    _spec("synthdata.load_split", [(synthdata, "load_split")], _ALL, "setup_s"),
    _spec("container.load_tensors", [(container, "load_tensors")], _ALL, "setup_s"),
    _spec("train.load_checkpoint", [(train, "load_checkpoint")], _ALL, "setup_s"),
    _spec("synthdata.frame_rate_augment", [(synthdata, "frame_rate_augment")], _TRAIN,
          "train_samples_per_s on train-b1-heatmap", _INFER),
    _spec("synthdata.materialize_keypoints", [(synthdata, "materialize_keypoints")],
          ("train-b1-heatmap",), "train_samples_per_s on train-b1-heatmap",
          ("train-default", "infer-long")),
    _spec("ndgrad.backward", [(ndgrad, "backward")], _TRAIN,
          "train_samples_per_s on train-default", _INFER),
    _spec("ndgrad.tape_trace", [(ndgrad.Tape, "trace")], _TRAIN,
          "train_samples_per_s on train-default", _INFER),
    _spec("ndgrad.run_backward", [(ndgrad.Tape, "run_backward")], _TRAIN,
          "train_samples_per_s on train-default", _INFER),
    _spec("net.forward.train", [], _TRAIN, "train_samples_per_s", _INFER),
    _spec("net.forward.infer", [], _ALL, "decode_samples_per_s, align_samples_per_s"),
    _spec("net.fusion", [(net.MlpFusion, "__call__"), (net.ConvFusion, "__call__"),
                         (net.AttnFusion, "__call__")], _ALL,
          "train_samples_per_s; decode/align_samples_per_s on infer-long"),
    _spec("net.head", [(net.TemporalHead, "__call__")], _ALL,
          "train_samples_per_s; decode/align_samples_per_s on infer-long"),
    _spec("net.spn_forward", [(net.Model, "spn_forward")], _ALL,
          "train_samples_per_s; decode/align_samples_per_s on infer-long"),
    _spec("net.text_encode", [(net.FrozenTextEncoder, "encode")], _ALL,
          "train_samples_per_s; decode/align_samples_per_s on infer-long"),
    _spec("net.compute_losses", [(net, "compute_losses")], _TRAIN,
          "train_samples_per_s", _INFER),
    _spec("ctc.ctc_loss_group", [(net, "ctc_loss_group")], _TRAIN,
          "train_samples_per_s on train-default", _INFER),
    _spec("ctc.prob_stream", [(ctc.ProbStream, "__init__")], _ALL,
          "train_samples_per_s on train-default; decode_samples_per_s on infer-long"),
    _spec("ctc.beam_decode", [(train, "beam_decode")], _ALL,
          "decode_samples_per_s on infer-long"),
    _spec("ctc.average_streams", [(train, "average_streams")], _ALL,
          "decode_samples_per_s on infer-long"),
    _spec("ctc.wer", [(train, "wer")], _ALL, "decode_samples_per_s on infer-long"),
    _spec("train.decode_sample", [(train, "decode_sample")], _ALL,
          "decode_samples_per_s on infer-long"),
    _spec("train.evaluate_split", [(train, "evaluate_split")], _ALL,
          "decode_samples_per_s on infer-long"),
    _spec("align.extract_columns", [(align, "extract_columns")], _ALL,
          "align_samples_per_s on infer-long"),
    _spec("align.dtw_align", [(align, "dtw_align")], _ALL,
          "align_samples_per_s on infer-long"),
    _spec("align.pool_visual", [(align, "pool_visual")], _ALL,
          "align_samples_per_s on infer-long"),
    _spec("align.pool_tokens", [(align, "pool_tokens")], _ALL,
          "align_samples_per_s on infer-long"),
    _spec("contrast.pair_matrices", [(contrast, "pair_matrices")], _ALL,
          "align_samples_per_s on infer-long"),
    _spec("contrast.gloss_align_loss", [(contrast, "gloss_align_loss")], _TRAIN,
          "train_samples_per_s on train-default", _INFER),
    _spec("contrast.sentence_align_loss", [(contrast, "sentence_align_loss")], _TRAIN,
          "train_samples_per_s on train-default", _INFER),
    _spec("train.adam_step", [(train.Adam, "step")], _TRAIN,
          "train_samples_per_s on train-b1-heatmap", _INFER),
    _spec("train.zero_grad", [(train.Adam, "zero_grad")], _TRAIN,
          "train_samples_per_s on train-b1-heatmap", _INFER),
    _spec("train.save_checkpoint", [(train, "save_checkpoint")], _ALL,
          "train_samples_per_s (checkpoints)"),
    _spec("container.save_tensors", [(container, "save_tensors")], _ALL,
          "train_samples_per_s (checkpoints); align_samples_per_s on infer-long"),
    _spec("train.dump_alignments", [(train, "dump_alignments")], _ALL,
          "align_samples_per_s on infer-long"),
    _spec("train.train", [(train, "train")], _TRAIN, "train_samples_per_s", _INFER),
)

FORWARD_SITE = (net.Model, "forward")


class Tracer:
    """In-memory span statistics: calls, inclusive and self wall time.

    ``install`` replaces every site in ``SPANS`` with a timing wrapper and
    ``uninstall`` puts the originals back; the two must bracket the traced
    code.  ``root`` opens the top-level span whose coverage is reported.
    """

    def __init__(self):
        self.stats = {s.name: [0, 0.0, 0.0] for s in SPANS}  # calls, total s, self s
        self.counts = {"ndgrad.tape_nodes": 0, "ndgrad.tape_leaves": 0}
        self.root_s = 0.0
        self.root_children_s = 0.0
        self._stack = []  # [name, start, child seconds]
        self._undo = []

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        if self._stack:
            self._stack[-1][2] += dur
        if name is None:
            self.root_s += dur
            self.root_children_s += child
            return
        rec = self.stats[name]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child

    @contextmanager
    def root(self):
        self._enter(None)
        try:
            yield
        finally:
            self._exit()

    def _forward_name(self):
        inside_infer = any(frame[0] in INFER_PARENTS for frame in self._stack)
        return "net.forward.infer" if inside_infer else "net.forward.train"

    def _wrap(self, func, name):
        tracer = self
        counts_tape = name == "ndgrad.tape_trace"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer._enter(name() if callable(name) else name)
            try:
                out = func(*args, **kwargs)
            finally:
                tracer._exit()
            if counts_tape:
                tracer.counts["ndgrad.tape_nodes"] += len(out.entries)
                tracer.counts["ndgrad.tape_leaves"] += len(out.leaves)
            return out

        return wrapper

    def _patch(self, owner, attr, name):
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, name))
        else:
            new = self._wrap(raw, name)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def install(self):
        for spec in SPANS:
            for owner, attr in spec.sites:
                self._patch(owner, attr, spec.name)
        self._patch(*FORWARD_SITE, self._forward_name)

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def span_breaches(stats: dict, workload: str) -> list:
    """Spans whose call count contradicts the workload's design."""
    out = []
    for spec in SPANS:
        calls = stats[spec.name][0]
        if workload in spec.expect and calls == 0:
            out.append(f"{spec.name} recorded no calls on {workload}")
        if workload in spec.absent and calls:
            out.append(f"{spec.name} recorded {calls} calls on {workload}, expected none")
    return out
