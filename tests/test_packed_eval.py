"""Packed evaluation and alignment against one-sample references.

``evaluate_split`` and ``dump_alignments`` run a split as packs of up to
``train.PACK_ROWS`` frames; each sample's results must match a run of that
sample alone.  Every parameter is shifted by seeded noise so that the
zero-initialised fusion outputs take part.
"""

import json

import numpy as np
import pytest

from svtc import container, net, synthdata, train
from svtc import ndgrad as ng

# corpus shapes of the default generator and of the long-sentence benchmark
# workload; the test split makes at least three packs of each
CORPORA = {
    "default": dict(n_test=20),
    "long": dict(n_glosses=40, sentence_len=(8, 12), frames_per_gloss=(12, 20), n_test=8),
}
KINDS = ["mlp", "conv", "attn", "none"]


@pytest.fixture(scope="module", params=sorted(CORPORA))
def corpus(request, tmp_path_factory):
    path = tmp_path_factory.mktemp(request.param)
    cfg = synthdata.GenConfig(seed=5, n_train=1, n_dev=1, **CORPORA[request.param])
    synthdata.generate_corpus(cfg, path)
    return path


def live_model(corpus, kind):
    model = train.model_for_corpus(synthdata.load_meta(corpus), fusion_kind=kind, seed=1)
    rng = np.random.default_rng(7)
    for p in model.parameters().values():
        p.data = p.data + 0.05 * rng.standard_normal(p.data.shape)
    return model


def test_split_spans_several_packs(corpus):
    samples = [s for s, _ in synthdata.load_split(corpus, "test")]
    assert len(list(train.packs(samples, train.PACK_ROWS))) >= 3


@pytest.mark.parametrize("kind", KINDS)
def test_packed_streams_match_one_sample_streams(corpus, kind):
    model = live_model(corpus, kind)
    samples = [s for s, _ in synthdata.load_split(corpus, "test")]
    with ng.no_grad():
        for pack in train.packs(samples, train.PACK_ROWS):
            rec = model.recognize(*pack)
            stop = 0
            for sample, rows in zip(pack, rec.block_lengths[-1]):
                start, stop = stop, stop + rows
                alone = model.recognize(sample)
                for key in net.HEAD_KEYS:
                    want = alone.streams[key].data
                    assert want.shape[0] == rows
                    assert np.abs(rec.streams[key].data[start:stop] - want).max() <= 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_packed_decodes_equal_one_sample_decodes(corpus, kind):
    model = live_model(corpus, kind)
    pairs = synthdata.load_split(corpus, "test")
    want = []
    for sample, _ in pairs:
        with ng.no_grad():
            streams = {k: a.data for k, a in model.recognize(sample).streams.items()}
        hyp = train.decode_sample(streams, 5, "avg")
        want.append((sample.id, model.vocab.lookup_all(hyp)))
    _, decodes = train.evaluate_split(model, pairs, width=5)
    assert decodes == want


@pytest.mark.parametrize("kind", KINDS)
def test_packed_alignments_match_one_sample_alignments(corpus, kind, tmp_path):
    base = tmp_path / "checkpoint"
    train.save_checkpoint(base, live_model(corpus, kind))
    train.dump_alignments(base, corpus, "test", tmp_path / "align")
    with open(tmp_path / "align" / "align.jsonl") as fh:
        records = [json.loads(line) for line in fh]
    matrices = container.load_tensors(tmp_path / "align" / "similarity.svt")

    model = train.load_checkpoint(base)
    pairs = synthdata.load_split(corpus, "test")
    assert [r["id"] for r in records] == [s.id for s, _ in pairs]
    for (sample, _), got in zip(pairs, records):
        with ng.no_grad():
            path, spans, pair_mats = net.align_glosses(
                model.forward(sample), model.vocab.ids(sample.glosses), 0
            )
        assert got["path"] == list(path.assignment)
        assert got["spans"] == [[s, e] for s, e in spans]
        assert abs(got["log_score"] - path.log_score) <= 1e-12 * abs(path.log_score)
        want = pair_mats.v2t.data
        assert np.abs(matrices[sample.id] - want).max() <= 1e-12 * np.abs(want).max()
