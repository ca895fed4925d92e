"""Toy-scale three-branch recognition network.

Three temporal-conv branches (video/keypoint/flow feature streams) with
fusion modules between blocks, four classification heads (one per modality
plus one on the joint concatenation), per-branch pyramid heads for auxiliary
supervision, projection adapters into a joint visual-textual space, and a
frozen deterministic text encoder stand-in.

Every component draws its initial weights from an rng keyed by (seed,
component name), so models that share a seed share parameters for the
components they have in common.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import align as align_mod
from . import contrast, ndgrad
from .ctc import GlossVocab, ProbStream, ctc_loss_group
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

    streams: dict  # {"v"|"k"|"o"|"c": ProbStream}, log-space
    block_feats: dict  # per-modality fused block outputs, feed the pyramid
    joint: Array  # [T', 3 * d_v] concatenation, feeds the adapters


@dataclass
class ModelOutputs:
    streams: dict  # {"v"|"k"|"o"|"c": ProbStream}, log-space
    spn_streams: list  # 2 per branch, log-space ProbStreams
    gloss_space_feats: Array  # [T', d_j], feeds gloss-level alignment
    sentence_space_feats: Array  # [T', d_j], feeds sentence-level alignment
    text: TextFeatures
    text_token_feats: Array  # [N1, d_j], adapter output
    text_sentence_feat: Array  # [1, d_j], adapter output at EOS


@dataclass
class LossWeights:
    ctc: float = 1.0
    spn: float = 0.5
    gloss_align: float = 0.1
    sentence_align: float = 0.1


@dataclass
class LossTerms:
    total: Array
    ctc: float
    spn: float
    gloss_align: float
    sentence_align: float


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
        return ndgrad.add(ndgrad.matmul(x, self.w), self.b)


class TemporalConv:
    def __init__(self, store, rng, name, d_in, d_out, kernel=3, stride=1, zero_init=False):
        if zero_init:
            w = np.zeros((kernel, d_in, d_out))
        else:
            w = rng.normal(0.0, math.sqrt(2.0 / (kernel * d_in + d_out)), (kernel, d_in, d_out))
        self.w = store.new(f"{name}.w", w)
        self.b = store.new(f"{name}.b", np.zeros(d_out))
        self.stride = stride

    def __call__(self, x: Array) -> Array:
        return ndgrad.add(ndgrad.temporal_conv(x, self.w, stride=self.stride), self.b)


class TemporalUpsample:
    """Transposed temporal conv with square channels (pyramid pathway)."""

    def __init__(self, store, rng, name, d, kernel=3, stride=1):
        w = rng.normal(0.0, math.sqrt(2.0 / (kernel * d + d)), (kernel, d, d))
        self.w = store.new(f"{name}.w", w)
        self.b = store.new(f"{name}.b", np.zeros(d))
        self.stride = stride

    def __call__(self, x: Array) -> Array:
        return ndgrad.add(
            ndgrad.transposed_temporal_conv(x, self.w, stride=self.stride), self.b
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

    def __call__(self, x: Array):
        h = ndgrad.gelu(self.lin(x))
        h = ndgrad.gelu(self.conv1(h))
        h = ndgrad.gelu(self.conv2(h))
        return h, ndgrad.log_softmax(self.cls(h), axis=1)


class MlpFusion:
    """Shared fused feature from the concatenation, added to each modality.

    The last layer starts at zero so a freshly initialized model is exactly
    the no-fusion model.
    """

    def __init__(self, store, rng, name, d):
        self.mlp = Mlp(store, rng, name, [3 * d, d, d, d], zero_last=True)

    def __call__(self, hv, hk, ho):
        m = self.mlp(ndgrad.concat([hv, hk, ho], axis=1))
        return ndgrad.add(hv, m), ndgrad.add(hk, m), ndgrad.add(ho, m)


class ConvFusion:
    def __init__(self, store, rng, name, d):
        self.conv = TemporalConv(store, rng, f"{name}.conv", 3 * d, d, zero_init=True)

    def __call__(self, hv, hk, ho):
        m = self.conv(ndgrad.concat([hv, hk, ho], axis=1))
        return ndgrad.add(hv, m), ndgrad.add(hk, m), ndgrad.add(ho, m)


class AttnFusion:
    """Pairwise cross attention, one shared projection set per site.

    Each modality adds the attention read-outs against the other two; the
    output projection starts at zero (residual identity at init).
    """

    def __init__(self, store, rng, name, d):
        self.d = d
        scale = math.sqrt(1.0 / d)
        self.wq = store.new(f"{name}.wq", rng.normal(0.0, scale, (d, d)))
        self.wk = store.new(f"{name}.wk", rng.normal(0.0, scale, (d, d)))
        self.wv = store.new(f"{name}.wv", rng.normal(0.0, scale, (d, d)))
        self.wo = store.new(f"{name}.wo", np.zeros((d, d)))

    def _attend(self, query_src, kv_src):
        q = ndgrad.matmul(query_src, self.wq)
        k = ndgrad.matmul(kv_src, self.wk)
        v = ndgrad.matmul(kv_src, self.wv)
        scores = ndgrad.mul(ndgrad.matmul(q, ndgrad.transpose(k)), 1.0 / math.sqrt(self.d))
        return ndgrad.matmul(ndgrad.matmul(ndgrad.softmax(scores, axis=1), v), self.wo)

    def __call__(self, hv, hk, ho):
        outs = []
        triples = ((hv, hk, ho), (hk, hv, ho), (ho, hv, hk))
        for a, b, c in triples:
            outs.append(ndgrad.add(ndgrad.add(a, self._attend(a, b)), self._attend(a, c)))
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

    def state_bytes(self) -> bytes:
        chunks = [self._embeddings[k].tobytes() for k in sorted(self._embeddings)]
        chunks.append(self.mix_w.tobytes())
        chunks.append(self.mix_b.tobytes())
        return b"".join(chunks)

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
    """Full recognition network over one sample at a time."""

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

    def branch_forward(self, x, modality: str) -> list:
        """Per-block outputs for one modality, without fusion."""
        if x.data.shape[0] < 4:
            raise ValueError("need at least 4 frames")
        feats = []
        h = x
        for conv in self.blocks[modality]:
            h = ndgrad.gelu(conv(h))
            feats.append(h)
        return feats

    def _branches_fused(self, xv, xk, xo):
        """All three branches with fusion between blocks; per-block features."""
        hs = {"v": xv, "k": xk, "o": xo}
        for m in ("v", "k", "o"):
            if hs[m].data.shape[0] < 4:
                raise ValueError("need at least 4 frames")
        feats = {"v": [], "k": [], "o": []}
        for b in range(self.cfg.blocks):
            for m in ("v", "k", "o"):
                hs[m] = ndgrad.gelu(self.blocks[m][b](hs[m]))
            if self.fusions and b < self.cfg.blocks - 1:
                hs["v"], hs["k"], hs["o"] = self.fusions[b](hs["v"], hs["k"], hs["o"])
            for m in ("v", "k", "o"):
                feats[m].append(hs[m])
        return feats

    def spn_forward(self, modality: str, block_feats) -> list:
        """Auxiliary log-prob streams from the top-down pyramid of one branch.

        Each level lifts the running top feature with a transposed conv onto
        the next shallower block (cropping the ceil-padding surplus), adds
        the lateral element-wise and classifies with its own temporal head.
        """
        if len(block_feats) < self.cfg.spn_levels + 1:
            raise ValueError("pyramid needs spn_levels + 1 block outputs")
        streams = []
        top = block_feats[-1]
        for lvl in range(self.cfg.spn_levels):
            lateral = block_feats[-(lvl + 2)]
            up = self.spn_ups[modality][lvl]
            raised = up(top)
            want = lateral.data.shape[0]
            have = raised.data.shape[0]
            if have < want or have >= want + up.stride:
                raise ValueError(
                    f"temporal mismatch after upsampling: {have} vs lateral {want}"
                )
            if have > want:
                raised = ndgrad.slice_rows(raised, 0, want)
            top = ndgrad.add(raised, lateral)
            _, logp = self.spn_heads[modality][lvl](top)
            streams.append(ProbStream(logp, log_space=True))
        return streams

    def recognize(self, sample) -> Recognition:
        """Branches, fusion and the four recognition heads: all decoding needs."""
        xv = Array(sample.x_v)
        xk = Array(sample.x_k)
        xo = Array(sample.x_o)
        feats = self._branches_fused(xv, xk, xo)

        joint = ndgrad.concat([feats["v"][-1], feats["k"][-1], feats["o"][-1]], axis=1)
        streams = {}
        for key in ("v", "k", "o"):
            _, logp = self.heads[key](feats[key][-1])
            streams[key] = ProbStream(logp, log_space=True)
        _, logp = self.heads["c"](joint)
        streams["c"] = ProbStream(logp, log_space=True)
        return Recognition(streams=streams, block_feats=feats, joint=joint)

    def forward(self, sample) -> ModelOutputs:
        """The recognition trunk plus the training-only pyramid and adapters."""
        rec = self.recognize(sample)
        spn_streams = []
        for m in ("v", "k", "o"):
            spn_streams.extend(self.spn_forward(m, rec.block_feats[m]))

        gloss_feats = self.adapter_gloss(rec.joint)
        sentence_feats = self.adapter_sentence(rec.joint)
        text = self.text_encoder.encode(sample.glosses)
        text_tokens = self.adapter_text(text.features)
        text_sentence = self.adapter_text(text.eos_feature)

        return ModelOutputs(
            streams=rec.streams,
            spn_streams=spn_streams,
            gloss_space_feats=gloss_feats,
            sentence_space_feats=sentence_feats,
            text=text,
            text_token_feats=text_tokens,
            text_sentence_feat=text_sentence,
        )


def compute_losses(
    outputs: ModelOutputs,
    label_ids,
    weights: LossWeights,
    include_align: bool = True,
) -> LossTerms:
    """Recognition + auxiliary + alignment losses, weighted into one scalar.

    The alignment path comes from the joint head's probabilities, detached
    from the tape, so gradient reaches the pooled features but not the path.
    """
    label_ids = list(label_ids)

    def summed_ctc(streams):
        # batch the recursion over streams sharing a shape
        groups = {}
        for i, stream in enumerate(streams):
            groups.setdefault(stream.probs.data.shape, []).append((i, stream.probs))
        total = None
        for group in groups.values():
            for term in ctc_loss_group([p for _, p in group], label_ids):
                total = term if total is None else ndgrad.add(total, term)
        return total

    terms_ctc = summed_ctc([outputs.streams[k] for k in HEAD_KEYS])
    terms_spn = summed_ctc(outputs.spn_streams)

    total = ndgrad.mul(terms_ctc, weights.ctc)
    if terms_spn is not None:
        total = ndgrad.add(total, ndgrad.mul(terms_spn, weights.spn))

    g_val = s_val = 0.0
    if include_align and (weights.gloss_align != 0.0 or weights.sentence_align != 0.0):
        prob_c = np.exp(outputs.streams["c"].probs.data)  # detached copy
        cols = align_mod.extract_columns(prob_c, label_ids)
        path = align_mod.dtw_align(cols)
        spans = align_mod.path_to_spans(path)
        pooled_visual = align_mod.pool_visual(outputs.gloss_space_feats, spans)
        pooled_text = align_mod.pool_tokens(
            outputs.text_token_feats, outputs.text.token_to_gloss
        )
        pairs = contrast.pair_matrices(pooled_visual, pooled_text)
        tgt = contrast.alignment_targets(label_ids)
        loss_g = contrast.gloss_align_loss(pairs, tgt)

        t_total = outputs.sentence_space_feats.data.shape[0]
        visual_global = ndgrad.pool_spans(outputs.sentence_space_feats, [(0, t_total)])
        loss_s = contrast.sentence_align_loss(visual_global, outputs.text_sentence_feat)

        total = ndgrad.add(total, ndgrad.mul(loss_g, weights.gloss_align))
        total = ndgrad.add(total, ndgrad.mul(loss_s, weights.sentence_align))
        g_val = loss_g.item()
        s_val = loss_s.item()

    return LossTerms(
        total=total,
        ctc=terms_ctc.item(),
        spn=terms_spn.item() if terms_spn is not None else 0.0,
        gloss_align=g_val,
        sentence_align=s_val,
    )


def total_loss(outputs, label_ids, weights=None, include_align=True):
    """Weighted training loss as a single scalar Array."""
    weights = weights or LossWeights()
    return compute_losses(outputs, label_ids, weights, include_align).total
