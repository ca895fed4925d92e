"""Toy-scale three-branch recognition network.

Three temporal-conv branches (video/keypoint/flow feature streams) with
fusion modules between blocks, four classification heads (one per modality
plus one on the joint concatenation), per-branch pyramid heads for auxiliary
supervision, projection adapters into a joint visual-textual space, and a
frozen deterministic text encoder stand-in.

Every component draws its initial weights from an rng keyed by (seed,
component name), so models that share a seed share parameters for the
components they have in common.

A forward pass runs a *pack*: one or more samples concatenated along time.
Row-wise layers see the packed rows; every time-mixing layer takes the
segment lengths of its level and stays inside each sample, so a sample's
outputs do not depend on what it is packed with.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import align as align_mod
from . import contrast, ndgrad
from .ctc import GlossVocab, ctc_loss_group
from .ndgrad import Array

HEAD_KEYS = ("v", "k", "o", "c")

_TEXT_NS = 0x7E47


def _name_rng(seed: int, name: str):
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return np.random.default_rng((seed, int.from_bytes(digest, "little")))


def _stable_parity(text: str) -> int:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()[0] & 1


@dataclass
class ModelConfig:
    vocab_size: int  # C, including blank
    d_v: int = 64
    d_t: int = 32
    d_j: int = 32
    d_head: int = 0  # 0 means "use d_v"
    in_dim_v: int = 16
    in_dim_k: int = 12
    in_dim_o: int = 16
    fusion_kind: str = "mlp"  # mlp | conv | attn | none
    blocks: int = 4
    temporal_strides: tuple = (1, 2, 2, 1)
    spn_levels: int = 2
    seed: int = 0

    def __post_init__(self):
        self.temporal_strides = tuple(int(s) for s in self.temporal_strides)
        if self.vocab_size < 2:
            raise ValueError("vocabulary must contain blank plus one gloss")
        if min(self.d_v, self.d_t, self.d_j) <= 0:
            raise ValueError("hidden dimensions must be positive")
        if len(self.temporal_strides) != self.blocks:
            raise ValueError("one stride per block required")
        if math.prod(self.temporal_strides) != 4:
            raise ValueError("temporal strides must multiply to 4 (features at T/4)")
        if self.fusion_kind not in ("mlp", "conv", "attn", "none"):
            raise ValueError(f"unknown fusion kind: {self.fusion_kind!r}")
        if self.spn_levels + 1 > self.blocks:
            raise ValueError("pyramid needs spn_levels + 1 block outputs")
        if self.d_head == 0:
            self.d_head = self.d_v

    def to_dict(self) -> dict:
        d = asdict(self)
        d["temporal_strides"] = list(self.temporal_strides)
        return d


@dataclass
class TextFeatures:
    """Frozen text-encoder output: token features, gloss map, EOS feature."""

    features: Array  # [N1, d_t], constants
    token_to_gloss: list  # length N1, monotonic onto 0..N-1
    eos_feature: Array  # [1, d_t]


@dataclass
class Recognition:
    """Recognition trunk output: the four head streams inference reads."""

    streams: dict  # {"v"|"k"|"o"|"c": [T', C] log-prob Array}
    block_feats: dict  # per-modality fused block outputs, feed the pyramid
    block_lengths: list  # per block, the packed samples' segment lengths
    joint: Array  # [T', 3 * d_v] concatenation, feeds the adapters


@dataclass
class ModelOutputs:
    """A pack's outputs; every T' axis packs the samples' rows in order."""

    streams: dict  # {"v"|"k"|"o"|"c": [T', C] log-prob Array}
    lengths: tuple  # per sample, its T' rows of the head streams and feats
    spn_streams: list  # level-major: every branch's level 0 (T/4), then level 1 (T/2)
    spn_lengths: list  # per pyramid stream, the samples' segment lengths
    gloss_space_feats: Array  # [T', d_j], feeds gloss-level alignment
    sentence_space_feats: Array  # [T', d_j], feeds sentence-level alignment
    texts: list  # per sample, its TextFeatures
    text_token_feats: Array  # [sum N1, d_j], adapter output, samples' tokens in order
    text_sentence_feat: Array  # [n, d_j], adapter output at each sample's EOS

    def rows(self, index: int) -> tuple:
        """[start, stop) of sample ``index`` along T'."""
        start = sum(self.lengths[:index])
        return start, start + self.lengths[index]

    def token_rows(self, index: int) -> tuple:
        """[start, stop) of sample ``index``'s tokens in ``text_token_feats``."""
        counts = [len(t.token_to_gloss) for t in self.texts]
        start = sum(counts[:index])
        return start, start + counts[index]


@dataclass
class LossWeights:
    ctc: float = 1.0
    spn: float = 0.5
    gloss_align: float = 0.1
    sentence_align: float = 0.1


@dataclass
class LossTerms:
    """A pack's weighted loss; the parts are unweighted sums over the pack."""

    total: Array  # scalar, the one backward sweeps
    ctc: float
    spn: float
    gloss_align: float
    sentence_align: float
    sample_totals: list  # each sample's weighted loss, in pack order


class ParamStore:
    """Ordered name -> leaf Array registry for one model."""

    def __init__(self):
        self.table = {}

    def new(self, name: str, data: np.ndarray) -> Array:
        if name in self.table:
            raise ValueError(f"duplicate parameter name: {name}")
        arr = Array(np.asarray(data, dtype=np.float64), grad_tracked=True)
        self.table[name] = arr
        return arr


class Linear:
    def __init__(self, store, rng, name, d_in, d_out, zero_init=False):
        if zero_init:
            w = np.zeros((d_in, d_out))
        else:
            w = rng.normal(0.0, math.sqrt(2.0 / (d_in + d_out)), (d_in, d_out))
        self.w = store.new(f"{name}.w", w)
        self.b = store.new(f"{name}.b", np.zeros(d_out))

    def __call__(self, x: Array) -> Array:
        return ndgrad.matmul(x, self.w, bias=self.b)


class TemporalConv:
    def __init__(self, store, rng, name, d_in, d_out, kernel=3, stride=1, zero_init=False):
        if zero_init:
            w = np.zeros((kernel, d_in, d_out))
        else:
            w = rng.normal(0.0, math.sqrt(2.0 / (kernel * d_in + d_out)), (kernel, d_in, d_out))
        self.w = store.new(f"{name}.w", w)
        self.b = store.new(f"{name}.b", np.zeros(d_out))
        self.stride = stride

    def __call__(self, x: Array, lengths=None) -> Array:
        return ndgrad.temporal_conv(x, self.w, stride=self.stride, bias=self.b, lengths=lengths)


class TemporalUpsample:
    """Transposed temporal conv with square channels (pyramid pathway).

    Lifts [T, d] features onto ``length`` rows, the exact adjoint of a
    same-padded stride-``stride`` conv over ``length`` rows, so T must be
    ceil(length / stride).  ``length`` may list packed segment lengths.
    """

    def __init__(self, store, rng, name, d, kernel=3, stride=1):
        w = rng.normal(0.0, math.sqrt(2.0 / (kernel * d + d)), (kernel, d, d))
        self.w = store.new(f"{name}.w", w)
        self.b = store.new(f"{name}.b", np.zeros(d))
        self.stride = stride

    def __call__(self, x: Array, length: int) -> Array:
        return ndgrad.transposed_temporal_conv(
            x, self.w, length, stride=self.stride, bias=self.b
        )


class Mlp:
    """Linear stack with gelu after every layer except the last."""

    def __init__(self, store, rng, name, dims, zero_last=False):
        self.layers = []
        for i, (a, b) in enumerate(zip(dims, dims[1:])):
            last = i == len(dims) - 2
            self.layers.append(
                Linear(store, rng, f"{name}.lin{i}", a, b, zero_init=zero_last and last)
            )

    def __call__(self, x: Array) -> Array:
        h = x
        for i, layer in enumerate(self.layers):
            h = layer(h)
            if i < len(self.layers) - 1:
                h = ndgrad.gelu(h)
        return h


class TemporalHead:
    """Temporal linear layer, two k=3 stride-1 temporal convs, classifier."""

    def __init__(self, store, rng, name, d_in, d_hidden, n_classes):
        self.lin = Linear(store, rng, f"{name}.lin", d_in, d_hidden)
        self.conv1 = TemporalConv(store, rng, f"{name}.conv1", d_hidden, d_hidden)
        self.conv2 = TemporalConv(store, rng, f"{name}.conv2", d_hidden, d_hidden)
        self.cls = Linear(store, rng, f"{name}.cls", d_hidden, n_classes)

    def __call__(self, x: Array, lengths=None) -> Array:
        h = ndgrad.gelu(self.lin(x))
        h = ndgrad.gelu(self.conv1(h, lengths))
        h = ndgrad.gelu(self.conv2(h, lengths))
        return ndgrad.log_softmax(self.cls(h), axis=1)


class MlpFusion:
    """Shared fused feature from the concatenation, added to each modality.

    The last layer starts at zero so a freshly initialized model is exactly
    the no-fusion model.
    """

    def __init__(self, store, rng, name, d):
        self.mlp = Mlp(store, rng, name, [3 * d, d, d, d], zero_last=True)

    def __call__(self, hv, hk, ho, lengths=None):
        m = self.mlp(ndgrad.concat([hv, hk, ho], axis=1))
        return ndgrad.add(hv, m), ndgrad.add(hk, m), ndgrad.add(ho, m)


class ConvFusion:
    def __init__(self, store, rng, name, d):
        self.conv = TemporalConv(store, rng, f"{name}.conv", 3 * d, d, zero_init=True)

    def __call__(self, hv, hk, ho, lengths=None):
        m = self.conv(ndgrad.concat([hv, hk, ho], axis=1), lengths)
        return ndgrad.add(hv, m), ndgrad.add(hk, m), ndgrad.add(ho, m)


class AttnFusion:
    """Pairwise cross attention, one shared projection set per site.

    Each modality adds the attention read-outs against the other two; the
    output projection starts at zero (residual identity at init).  A row
    attends only to the rows of its own sample.
    """

    def __init__(self, store, rng, name, d):
        self.d = d
        scale = math.sqrt(1.0 / d)
        self.wq = store.new(f"{name}.wq", rng.normal(0.0, scale, (d, d)))
        self.wk = store.new(f"{name}.wk", rng.normal(0.0, scale, (d, d)))
        self.wv = store.new(f"{name}.wv", rng.normal(0.0, scale, (d, d)))
        self.wo = store.new(f"{name}.wo", np.zeros((d, d)))

    def _attend(self, query_src, kv_src, lengths):
        q = ndgrad.matmul(query_src, self.wq)
        k = ndgrad.matmul(kv_src, self.wk)
        v = ndgrad.matmul(kv_src, self.wv)
        read = ndgrad.segment_attention(q, k, v, 1.0 / math.sqrt(self.d), lengths)
        return ndgrad.matmul(read, self.wo)

    def __call__(self, hv, hk, ho, lengths=None):
        outs = []
        triples = ((hv, hk, ho), (hk, hv, ho), (ho, hv, hk))
        for a, b, c in triples:
            outs.append(
                ndgrad.add(ndgrad.add(a, self._attend(a, b, lengths)), self._attend(a, c, lengths))
            )
        return tuple(outs)


_FUSIONS = {"mlp": MlpFusion, "conv": ConvFusion, "attn": AttnFusion}


class FrozenTextEncoder:
    """Deterministic text-encoder stand-in; never receives gradients.

    A gloss maps to one or two subtokens (two when its stable hash is odd),
    each with a fixed seeded embedding; a fixed seeded linear layer plus
    gelu mixes every token, and an end-of-sequence token supplies the
    sentence feature.
    """

    def __init__(self, vocab: GlossVocab, d_t: int, seed: int):
        self.vocab = vocab
        self.d_t = d_t
        self._embeddings = {}
        self._tokens_per_gloss = {}
        for gloss in vocab.glosses:
            n_tok = 1 + _stable_parity(gloss)
            self._tokens_per_gloss[gloss] = n_tok
            for i in range(n_tok):
                key = f"{gloss}#{i}"
                rng = np.random.default_rng((seed, _TEXT_NS, _digest64(key)))
                self._embeddings[key] = rng.standard_normal(d_t)
        rng = np.random.default_rng((seed, _TEXT_NS, _digest64("<eos>")))
        self._embeddings["<eos>"] = rng.standard_normal(d_t)
        mix_rng = np.random.default_rng((seed, _TEXT_NS, _digest64("mixer")))
        self.mix_w = mix_rng.normal(0.0, math.sqrt(1.0 / d_t), (d_t, d_t))
        self.mix_b = mix_rng.normal(0.0, 0.1, d_t)

    def encode(self, glosses) -> TextFeatures:
        rows = []
        token_to_gloss = []
        for pos, gloss in enumerate(glosses):
            if gloss not in self._tokens_per_gloss:
                raise KeyError(f"unknown gloss: {gloss!r}")
            for i in range(self._tokens_per_gloss[gloss]):
                rows.append(self._embeddings[f"{gloss}#{i}"])
                token_to_gloss.append(pos)
        emb = np.stack(rows, axis=0)
        feats = ndgrad.gelu(Array(emb @ self.mix_w + self.mix_b))
        eos = ndgrad.gelu(Array(self._embeddings["<eos>"][None, :] @ self.mix_w + self.mix_b))
        return TextFeatures(features=feats, token_to_gloss=token_to_gloss, eos_feature=eos)


def _digest64(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "little")


class Model:
    """Full recognition network over a pack of samples."""

    def __init__(self, cfg: ModelConfig, vocab: GlossVocab):
        if cfg.vocab_size != vocab.size:
            raise ValueError(
                f"config vocab size {cfg.vocab_size} != vocabulary size {vocab.size}"
            )
        self.cfg = cfg
        self.vocab = vocab
        self.store = ParamStore()
        seed = cfg.seed
        in_dims = {"v": cfg.in_dim_v, "k": cfg.in_dim_k, "o": cfg.in_dim_o}

        self.blocks = {m: [] for m in ("v", "k", "o")}
        for m in ("v", "k", "o"):
            d_in = in_dims[m]
            for b, stride in enumerate(cfg.temporal_strides):
                name = f"branch_{m}.block{b}"
                conv = TemporalConv(
                    self.store, _name_rng(seed, name), name, d_in, cfg.d_v, stride=stride
                )
                self.blocks[m].append(conv)
                d_in = cfg.d_v

        self.fusions = []
        if cfg.fusion_kind != "none":
            fusion_cls = _FUSIONS[cfg.fusion_kind]
            for site in range(cfg.blocks - 1):
                name = f"fuse{site}"
                self.fusions.append(
                    fusion_cls(self.store, _name_rng(seed, name), name, cfg.d_v)
                )

        self.heads = {}
        for key in HEAD_KEYS:
            d_in = 3 * cfg.d_v if key == "c" else cfg.d_v
            name = f"head_{key}"
            self.heads[key] = TemporalHead(
                self.store, _name_rng(seed, name), name, d_in, cfg.d_head, cfg.vocab_size
            )

        self.spn_ups = {}
        self.spn_heads = {}
        for m in ("v", "k", "o"):
            ups = []
            heads = []
            for lvl in range(cfg.spn_levels):
                # level 0 lifts the deepest block onto the one above, etc.
                stride = cfg.temporal_strides[cfg.blocks - 1 - lvl]
                uname = f"spn_{m}.up{lvl}"
                ups.append(
                    TemporalUpsample(
                        self.store, _name_rng(seed, uname), uname, cfg.d_v, stride=stride
                    )
                )
                hname = f"spn_{m}.head{lvl}"
                heads.append(
                    TemporalHead(
                        self.store,
                        _name_rng(seed, hname),
                        hname,
                        cfg.d_v,
                        cfg.d_head,
                        cfg.vocab_size,
                    )
                )
            self.spn_ups[m] = ups
            self.spn_heads[m] = heads

        self.adapter_gloss = Mlp(
            self.store,
            _name_rng(seed, "adapt_gloss"),
            "adapt_gloss",
            [3 * cfg.d_v, cfg.d_j, cfg.d_j, cfg.d_j],
        )
        self.adapter_sentence = Mlp(
            self.store,
            _name_rng(seed, "adapt_sentence"),
            "adapt_sentence",
            [3 * cfg.d_v, cfg.d_j, cfg.d_j, cfg.d_j],
        )
        self.adapter_text = Mlp(
            self.store,
            _name_rng(seed, "adapt_text"),
            "adapt_text",
            [cfg.d_t, cfg.d_j, cfg.d_j, cfg.d_j],
        )

        self.text_encoder = FrozenTextEncoder(vocab, cfg.d_t, seed)

    def parameters(self) -> dict:
        return self.store.table

    def block_lengths(self, lengths) -> list:
        """Per block, the segment lengths of its output: ceil(L / stride)."""
        out = []
        for stride in self.cfg.temporal_strides:
            lengths = tuple(-(-n // stride) for n in lengths)
            out.append(lengths)
        return out

    def _branches_fused(self, xv, xk, xo, lengths=None):
        """All three branches with fusion between blocks; per-block features.

        ``lengths`` are the packed samples' frame counts (default: one
        sample of all rows).
        """
        hs = {"v": xv, "k": xk, "o": xo}
        lengths = (xv.data.shape[0],) if lengths is None else tuple(lengths)
        for m in ("v", "k", "o"):
            if hs[m].data.shape[0] != sum(lengths):
                raise ValueError("every modality needs the same frame count")
        if min(lengths) < 4:
            raise ValueError("need at least 4 frames")
        levels = self.block_lengths(lengths)
        feats = {"v": [], "k": [], "o": []}
        for b in range(self.cfg.blocks):
            seg_in = levels[b - 1] if b else lengths
            for m in ("v", "k", "o"):
                hs[m] = ndgrad.gelu(self.blocks[m][b](hs[m], seg_in))
            if self.fusions and b < self.cfg.blocks - 1:
                hs["v"], hs["k"], hs["o"] = self.fusions[b](hs["v"], hs["k"], hs["o"], levels[b])
            for m in ("v", "k", "o"):
                feats[m].append(hs[m])
        return feats

    def spn_forward(self, modality: str, block_feats, block_lengths=None) -> list:
        """Auxiliary log-prob streams from the top-down pyramid of one branch.

        Each level lifts the running top feature with a transposed conv onto
        the length of the next shallower block, adds that lateral
        element-wise and classifies with its own temporal head.
        ``block_lengths`` gives each block's segment lengths (default: one
        sample).
        """
        if len(block_feats) < self.cfg.spn_levels + 1:
            raise ValueError("pyramid needs spn_levels + 1 block outputs")
        if block_lengths is None:
            block_lengths = [(f.data.shape[0],) for f in block_feats]
        streams = []
        top = block_feats[-1]
        for lvl in range(self.cfg.spn_levels):
            lateral = block_feats[-(lvl + 2)]
            lengths = block_lengths[-(lvl + 2)]
            raised = self.spn_ups[modality][lvl](top, lengths)
            top = ndgrad.add(raised, lateral)
            streams.append(self.spn_heads[modality][lvl](top, lengths))
        return streams

    def recognize(self, *samples) -> Recognition:
        """Branches, fusion and the four recognition heads: all decoding needs.

        The samples run as one pack, concatenated along time.
        """
        lengths = tuple(s.x_v.shape[0] for s in samples)
        xv, xk, xo = (
            Array(np.concatenate([getattr(s, key) for s in samples]))
            for key in ("x_v", "x_k", "x_o")
        )
        feats = self._branches_fused(xv, xk, xo, lengths)
        levels = self.block_lengths(lengths)

        top = levels[-1]
        joint = ndgrad.concat([feats["v"][-1], feats["k"][-1], feats["o"][-1]], axis=1)
        streams = {key: self.heads[key](feats[key][-1], top) for key in ("v", "k", "o")}
        streams["c"] = self.heads["c"](joint, top)
        return Recognition(streams=streams, block_feats=feats, block_lengths=levels, joint=joint)

    def forward(self, *samples) -> ModelOutputs:
        """The recognition trunk plus the training-only pyramid and adapters,
        over the samples as one pack."""
        rec = self.recognize(*samples)
        levels = rec.block_lengths
        per_branch = [self.spn_forward(m, rec.block_feats[m], levels) for m in ("v", "k", "o")]
        spn_streams = [s for level in zip(*per_branch) for s in level]
        spn_lengths = [levels[-(lvl + 2)] for lvl in range(self.cfg.spn_levels) for _ in range(3)]

        gloss_feats = self.adapter_gloss(rec.joint)
        sentence_feats = self.adapter_sentence(rec.joint)
        texts = [self.text_encoder.encode(s.glosses) for s in samples]
        tokens = np.concatenate([t.features.data for t in texts])
        text_tokens = self.adapter_text(Array(tokens))
        eos = np.concatenate([t.eos_feature.data for t in texts])
        text_sentence = self.adapter_text(Array(eos))

        return ModelOutputs(
            streams=rec.streams,
            lengths=levels[-1],
            spn_streams=spn_streams,
            spn_lengths=spn_lengths,
            gloss_space_feats=gloss_feats,
            sentence_space_feats=sentence_feats,
            texts=texts,
            text_token_feats=text_tokens,
            text_sentence_feat=text_sentence,
        )


def align_glosses(outputs: ModelOutputs, label_ids, index: int = 0):
    """Gloss-level alignment of packed sample ``index``: (DTW path, its spans,
    visual-textual pair matrices).

    The path comes from the joint head's probabilities, detached from the
    tape, so gradient reaches the pooled features but not the path.
    """
    start, stop = outputs.rows(index)
    prob_c = np.exp(outputs.streams["c"].data[start:stop])  # detached copy
    path = align_mod.dtw_align(align_mod.extract_columns(prob_c, label_ids))
    spans = align_mod.path_to_spans(path)
    pooled_visual = align_mod.pool_visual(outputs.gloss_space_feats, spans, (start, stop))
    pooled_text = align_mod.pool_tokens(
        outputs.text_token_feats, outputs.texts[index].token_to_gloss, outputs.token_rows(index)
    )
    return path, spans, contrast.pair_matrices(pooled_visual, pooled_text)


def compute_losses(
    outputs: ModelOutputs,
    label_ids,
    weights: LossWeights,
    include_align: bool = True,
) -> LossTerms:
    """Recognition + auxiliary + alignment losses of a pack, weighted and
    summed into one scalar.

    ``label_ids`` holds one label sequence per packed sample; a pack of one
    also takes its bare label sequence.
    """
    label_ids = list(label_ids)
    if all(np.ndim(c) == 0 for c in label_ids):
        label_ids = [label_ids]
    label_ids = [list(labels) for labels in label_ids]
    n = len(outputs.lengths)
    if len(label_ids) != n:
        raise ValueError(f"{len(label_ids)} label sequences for a pack of {n} samples")

    # one recursion for every head and pyramid stream of every sample; each
    # part sums its streams in list order, one [n] vector per part
    heads = [outputs.streams[k] for k in HEAD_KEYS]
    stream_lengths = [outputs.lengths] * len(heads) + outputs.spn_lengths
    terms = ctc_loss_group(heads + outputs.spn_streams, label_ids, stream_lengths)
    terms_ctc = functools.reduce(ndgrad.add, terms[: len(heads)])
    spn = terms[len(heads) :]
    terms_spn = functools.reduce(ndgrad.add, spn) if spn else None

    per_sample = ndgrad.mul(terms_ctc, weights.ctc)
    if terms_spn is not None:
        per_sample = ndgrad.add(per_sample, ndgrad.mul(terms_spn, weights.spn))
    total = ndgrad.reduce_sum(per_sample)
    sample_totals = per_sample.data.tolist()

    g_vals, s_vals = [0.0] * n, [0.0] * n
    if include_align and (weights.gloss_align != 0.0 or weights.sentence_align != 0.0):
        for i, labels in enumerate(label_ids):
            _, _, pairs = align_glosses(outputs, labels, i)
            loss_g = contrast.gloss_align_loss(pairs, contrast.alignment_targets(labels))

            visual_global = ndgrad.pool_spans(outputs.sentence_space_feats, [outputs.rows(i)])
            # the KL reads the text side as a constant
            text_global = Array(outputs.text_sentence_feat.data[i : i + 1])
            loss_s = contrast.sentence_align_loss(visual_global, text_global)

            weighted_g = ndgrad.mul(loss_g, weights.gloss_align)
            total = ndgrad.add(total, weighted_g)
            weighted_s = ndgrad.mul(loss_s, weights.sentence_align)
            total = ndgrad.add(total, weighted_s)
            sample_totals[i] = sample_totals[i] + weighted_g.item() + weighted_s.item()
            g_vals[i] = loss_g.item()
            s_vals[i] = loss_s.item()

    return LossTerms(
        total=total,
        ctc=sum(terms_ctc.data.tolist()),
        spn=sum(terms_spn.data.tolist()) if terms_spn is not None else 0.0,
        gloss_align=sum(g_vals),
        sentence_align=sum(s_vals),
        sample_totals=sample_totals,
    )
