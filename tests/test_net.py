"""Model wiring: shapes, fusion identities, parameter isolation, determinism."""

import math

import numpy as np
import pytest

from svtc import ndgrad as ng
from svtc import net
from svtc.ctc import GlossVocab
from svtc.gradcheck import finite_difference_grads
from svtc.ndgrad import Array
from svtc.net import LossWeights, Model, ModelConfig, compute_losses
from svtc.synthdata import Sample

VOCAB = GlossVocab(tuple(f"G{i:02d}" for i in range(1, 7)))


def small_cfg(**kw):
    base = dict(
        vocab_size=VOCAB.size,
        d_v=6,
        d_t=5,
        d_j=4,
        d_head=6,
        in_dim_v=3,
        in_dim_k=2,
        in_dim_o=3,
        seed=3,
    )
    base.update(kw)
    return ModelConfig(**base)


def make_sample(T=16, glosses=("G01", "G03", "G02"), seed=0, cfg=None):
    cfg = cfg or small_cfg()
    rng = np.random.default_rng(seed)
    return Sample(
        id="s",
        glosses=list(glosses),
        x_v=rng.standard_normal((T, cfg.in_dim_v)),
        x_k=rng.standard_normal((T, cfg.in_dim_k)),
        x_o=rng.standard_normal((T, cfg.in_dim_o)),
    )


def branches(model, T, fill=1.0):
    """Fused per-block branch features for constant [T, in_dim] inputs."""
    cfg = model.cfg
    dims = (cfg.in_dim_v, cfg.in_dim_k, cfg.in_dim_o)
    return model._branches_fused(*(Array(np.full((T, d), fill)) for d in dims))


def stride_schedule_lengths(T, strides):
    lengths = []
    cur = T
    for s in strides:
        cur = -(-cur // s)
        lengths.append(cur)
    return lengths


class TestModelConfig:
    def test_stride_product_enforced(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=4, temporal_strides=(1, 2, 2, 2))

    def test_d_head_defaults_to_d_v(self):
        cfg = ModelConfig(vocab_size=4, d_v=48)
        assert cfg.d_head == 48

    def test_unknown_fusion_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=4, fusion_kind="sum")


class TestBranches:
    def test_final_time_length_is_quarter(self):
        model = Model(small_cfg(), VOCAB)
        for T in (4, 8, 12, 16):
            feats = branches(model, T)
            want = stride_schedule_lengths(T, model.cfg.temporal_strides)
            for m in ("v", "k", "o"):
                assert [f.data.shape[0] for f in feats[m]] == want
                assert feats[m][-1].data.shape == (-(-T // 4), model.cfg.d_v)

    def test_zero_input_zero_bias_gives_zero(self):
        for kind in ("mlp", "conv", "attn", "none"):
            feats = branches(Model(small_cfg(fusion_kind=kind), VOCAB), 8, fill=0.0)
            for m in ("v", "k", "o"):
                for f in feats[m]:
                    # conv biases and the last fusion layers start at 0
                    np.testing.assert_array_equal(f.data, 0.0)

    def test_too_short_input_rejected(self):
        model = Model(small_cfg(), VOCAB)
        with pytest.raises(ValueError):
            branches(model, 3)

    def test_keypoint_branch_has_own_input_width(self):
        model = Model(small_cfg(in_dim_k=5), VOCAB)
        feats = branches(model, 8)
        assert feats["k"][0].data.shape[1] == model.cfg.d_v
        assert model.blocks["k"][0].w.data.shape[1] == 5


class TestFusion:
    @pytest.mark.parametrize("kind", ["mlp", "conv", "attn"])
    def test_residual_identity_at_init(self, kind):
        # final fusion layers start at zero: step-0 output equals no-fusion
        fused = Model(small_cfg(fusion_kind=kind), VOCAB)
        plain = Model(small_cfg(fusion_kind="none"), VOCAB)
        sample = make_sample()
        out_f = fused.forward(sample)
        out_p = plain.forward(sample)
        for key in net.HEAD_KEYS:
            assert (
                out_f.streams[key].data.tobytes()
                == out_p.streams[key].data.tobytes()
            )

    @pytest.mark.parametrize("kind", ["mlp", "conv", "attn", "none"])
    def test_recognize_streams_match_forward(self, kind):
        model = Model(small_cfg(fusion_kind=kind), VOCAB)
        rng = np.random.default_rng(4)
        # move the zero-initialized fusion outputs so fusion changes streams
        for p in model.parameters().values():
            p.data = p.data + 0.2 * rng.standard_normal(p.data.shape)
        sample = make_sample(T=19)
        rec = model.recognize(sample).streams
        full = model.forward(sample).streams
        assert list(rec) == list(full) == list(net.HEAD_KEYS)
        for key in net.HEAD_KEYS:
            assert rec[key].data.tobytes() == full[key].data.tobytes()

    def test_mlp_symmetry_identical_inputs(self):
        model = Model(small_cfg(), VOCAB)
        fusion = model.fusions[0]
        for p in model.parameters().values():
            if p.data.size:
                p.data = np.random.default_rng(0).standard_normal(p.data.shape) * 0.3
        rng = np.random.default_rng(1)
        h = Array(rng.standard_normal((5, model.cfg.d_v)))
        a, b, c = fusion(h, Array(h.data.copy()), Array(h.data.copy()))
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(b.data, c.data)

    @pytest.mark.parametrize("kind", ["mlp", "conv", "attn"])
    def test_gradient_reaches_all_three_inputs(self, kind):
        model = Model(small_cfg(fusion_kind=kind, seed=9), VOCAB)
        rng = np.random.default_rng(2)
        # move fusion weights off the zero init so gradients are nonzero
        for name, p in model.parameters().items():
            if name.startswith("fuse0"):
                p.data = rng.standard_normal(p.data.shape) * 0.4
        d = model.cfg.d_v
        hv = Array(rng.standard_normal((5, d)), grad_tracked=True)
        hk = Array(rng.standard_normal((5, d)), grad_tracked=True)
        ho = Array(rng.standard_normal((5, d)), grad_tracked=True)
        a, b, c = model.fusions[0](hv, hk, ho)
        loss = ng.reduce_sum(ng.mul(ng.concat([a, b, c], axis=1), 1.0))
        ng.backward(loss)
        for leaf in (hv, hk, ho):
            assert leaf.grad is not None and np.any(leaf.grad != 0.0)


class TestHeads:
    def test_rows_are_log_probabilities(self):
        model = Model(small_cfg(), VOCAB)
        out = model.forward(make_sample())
        for key in net.HEAD_KEYS:
            rows = np.exp(out.streams[key].data).sum(axis=1)
            np.testing.assert_allclose(rows, 1.0, atol=1e-9)

    def test_shapes(self):
        model = Model(small_cfg(), VOCAB)
        for T in (8, 13, 16):
            out = model.forward(make_sample(T=T))
            t_out = -(-T // 4)
            for key in net.HEAD_KEYS:
                assert out.streams[key].data.shape == (t_out, VOCAB.size)

    def test_parameter_isolation_between_heads(self):
        model = Model(small_cfg(), VOCAB)
        sample = make_sample()
        before = {k: model.forward(sample).streams[k].data.copy() for k in "vko"}
        for name, p in model.parameters().items():
            if name.startswith("head_v"):
                p.data = p.data + 0.37
        after_v = model.forward(sample).streams["v"].data
        assert not np.array_equal(after_v, before["v"])
        for key in ("k", "o"):
            after = model.forward(sample).streams[key].data
            assert after.tobytes() == before[key].tobytes()


class TestSpn:
    def test_stream_lengths_follow_pyramid(self):
        model = Model(small_cfg(), VOCAB)
        out = model.forward(make_sample(T=16))
        lengths = [s.data.shape[0] for s in out.spn_streams]
        # level-major: every branch's level 0 (block 3, T/4), then every
        # branch's level 1 (block 2, T/2)
        assert lengths == [4, 4, 4, 8, 8, 8]

    def test_odd_length_input_cropped_upsample(self):
        model = Model(small_cfg(), VOCAB)
        out = model.forward(make_sample(T=13))
        lengths = [s.data.shape[0] for s in out.spn_streams]
        assert lengths == [4, 4, 4, 7, 7, 7]  # level-major, as above

    def test_upsample_matches_lateral_length(self):
        model = Model(small_cfg(), VOCAB)
        for T in (13, 14, 16):
            feats = branches(model, T)["v"]
            for lvl in range(2):
                lateral = feats[-(lvl + 2)]
                raised = model.spn_ups["v"][lvl](feats[-(lvl + 1)], lateral.data.shape[0])
                assert raised.data.shape == lateral.data.shape

    def test_zero_lateral_additive_identity(self):
        model = Model(small_cfg(), VOCAB)
        rng = np.random.default_rng(1)
        top = Array(rng.standard_normal((4, model.cfg.d_v)))
        raised = model.spn_ups["v"][1](top, 7)
        summed = ng.add(raised, Array(np.zeros_like(raised.data)))
        np.testing.assert_array_equal(summed.data, raised.data)

    def test_all_streams_row_stochastic(self):
        model = Model(small_cfg(), VOCAB)
        out = model.forward(make_sample(T=14))
        assert len(out.spn_streams) == 6
        for s in out.spn_streams:
            np.testing.assert_allclose(np.exp(s.data).sum(axis=1), 1.0, atol=1e-9)

    def test_needs_enough_blocks(self):
        model = Model(small_cfg(), VOCAB)
        feats = branches(model, 8)["v"]
        with pytest.raises(ValueError):
            model.spn_forward("v", feats[:2])


class TestAdapters:
    def test_output_widths(self):
        model = Model(small_cfg(), VOCAB)
        out = model.forward(make_sample())
        d_j = model.cfg.d_j
        assert out.gloss_space_feats.data.shape[1] == d_j
        assert out.sentence_space_feats.data.shape[1] == d_j
        assert out.text_token_feats.data.shape[1] == d_j
        assert out.text_sentence_feat.data.shape == (1, d_j)

    def test_gloss_and_sentence_adapters_independent(self):
        model = Model(small_cfg(), VOCAB)
        sample = make_sample()
        before = model.forward(sample)
        for name, p in model.parameters().items():
            if name.startswith("adapt_gloss"):
                p.data = p.data + 0.5
        after = model.forward(sample)
        assert not np.array_equal(
            after.gloss_space_feats.data, before.gloss_space_feats.data
        )
        assert (
            after.sentence_space_feats.data.tobytes()
            == before.sentence_space_feats.data.tobytes()
        )

    def test_gradcheck_through_adapters(self):
        model = Model(small_cfg(), VOCAB)
        rng = np.random.default_rng(5)
        x = Array(rng.standard_normal((4, 3 * model.cfg.d_v)), grad_tracked=True)
        w = Array(rng.standard_normal((4, model.cfg.d_j)))

        def forward():
            return ng.reduce_sum(ng.mul(model.adapter_gloss(x), w))

        ng.backward(forward())
        (num,) = finite_difference_grads(forward, [x])
        assert np.abs(x.grad - num).max() / np.abs(num).max() <= 1e-5


class TestTextEncoder:
    def test_bit_identical_across_calls(self):
        model = Model(small_cfg(), VOCAB)
        a = model.text_encoder.encode(["G01", "G02"])
        b = model.text_encoder.encode(["G01", "G02"])
        assert a.features.data.tobytes() == b.features.data.tobytes()
        assert a.eos_feature.data.tobytes() == b.eos_feature.data.tobytes()
        assert a.token_to_gloss == b.token_to_gloss

    def test_token_count_bounds(self):
        model = Model(small_cfg(), VOCAB)
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            glosses = [VOCAB.glosses[i] for i in rng.integers(0, len(VOCAB.glosses), n)]
            feats = model.text_encoder.encode(glosses)
            n1 = feats.features.data.shape[0]
            assert n <= n1 <= 2 * n
            assert feats.eos_feature.data.shape[0] == 1

    def test_token_map_monotonic_surjective(self):
        model = Model(small_cfg(), VOCAB)
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            glosses = [VOCAB.glosses[i] for i in rng.integers(0, len(VOCAB.glosses), n)]
            mapping = model.text_encoder.encode(glosses).token_to_gloss
            assert mapping[0] == 0 and mapping[-1] == n - 1
            assert all(b - a in (0, 1) for a, b in zip(mapping, mapping[1:]))
            assert set(mapping) == set(range(n))

    def test_unknown_gloss_rejected(self):
        model = Model(small_cfg(), VOCAB)
        with pytest.raises(KeyError):
            model.text_encoder.encode(["NOPE"])

    def test_outputs_are_constants(self):
        model = Model(small_cfg(), VOCAB)
        feats = model.text_encoder.encode(["G01"])
        assert not feats.features.grad_tracked
        with pytest.raises(ValueError):
            ng.backward(ng.reduce_sum(feats.features))

    def test_frozen_under_training_steps(self):
        from svtc.train import Adam

        model = Model(small_cfg(), VOCAB)
        sample = make_sample()

        def encoded():
            text = model.text_encoder.encode(sample.glosses)
            return text.features.data.tobytes() + text.eos_feature.data.tobytes()

        before = encoded()
        optimizer = Adam(model.parameters())
        for _ in range(3):
            optimizer.zero_grad()
            out = model.forward(sample)
            terms = compute_losses(out, VOCAB.ids(sample.glosses), LossWeights(), True)
            ng.backward(terms.total)
            optimizer.step(1e-3, 1e-3)
        assert encoded() == before


class TestModelForward:
    def test_end_to_end_shape_table(self):
        cfg = small_cfg()
        model = Model(cfg, VOCAB)
        out = model.forward(make_sample(T=16))
        assert out.streams["c"].data.shape == (4, VOCAB.size)
        assert out.gloss_space_feats.data.shape == (4, cfg.d_j)
        assert out.sentence_space_feats.data.shape == (4, cfg.d_j)
        assert len(out.spn_streams) == 6

    def test_every_stream_row_stochastic(self):
        model = Model(small_cfg(), VOCAB)
        out = model.forward(make_sample(T=15))
        for s in list(out.streams.values()) + out.spn_streams:
            np.testing.assert_allclose(np.exp(s.data).sum(axis=1), 1.0, atol=1e-9)

    def test_fixed_seed_bit_identical_init_and_step(self):
        from svtc.train import Adam

        def run():
            model = Model(small_cfg(seed=21), VOCAB)
            sample = make_sample()
            optimizer = Adam(model.parameters())
            optimizer.zero_grad()
            out = model.forward(sample)
            terms = compute_losses(out, VOCAB.ids(sample.glosses), LossWeights(), True)
            ng.backward(terms.total)
            optimizer.step(1e-3, 1e-3)
            return (
                terms.total.item(),
                b"".join(p.data.tobytes() for p in model.parameters().values()),
            )

        loss_a, params_a = run()
        loss_b, params_b = run()
        assert loss_a == loss_b
        assert params_a == params_b


class TestTotalLoss:
    def test_zero_weights_leave_ctc_only(self):
        model = Model(small_cfg(), VOCAB)
        sample = make_sample()
        out = model.forward(sample)
        ids = VOCAB.ids(sample.glosses)
        weights = LossWeights(ctc=1.0, spn=0.0, gloss_align=0.0, sentence_align=0.0)
        terms = compute_losses(out, ids, weights, include_align=True)
        assert terms.total.item() == pytest.approx(terms.ctc, abs=1e-12)

    def test_all_zero_weights_zero_loss(self):
        model = Model(small_cfg(), VOCAB)
        sample = make_sample()
        out = model.forward(sample)
        weights = LossWeights(ctc=0.0, spn=0.0, gloss_align=0.0, sentence_align=0.0)
        terms = compute_losses(out, VOCAB.ids(sample.glosses), weights, True)
        assert terms.total.item() == 0.0

    def test_resummation_oracle(self):
        model = Model(small_cfg(), VOCAB)
        sample = make_sample(T=20)
        out = model.forward(sample)
        ids = VOCAB.ids(sample.glosses)
        weights = LossWeights(ctc=0.7, spn=0.3, gloss_align=0.2, sentence_align=0.4)
        terms = compute_losses(out, ids, weights, include_align=True)
        hand = (
            0.7 * terms.ctc
            + 0.3 * terms.spn
            + 0.2 * terms.gloss_align
            + 0.4 * terms.sentence_align
        )
        assert terms.total.item() == pytest.approx(hand, abs=1e-12)

    def test_warmup_excludes_alignment(self):
        model = Model(small_cfg(), VOCAB)
        sample = make_sample()
        ids = VOCAB.ids(sample.glosses)
        out = model.forward(sample)
        terms = compute_losses(out, ids, LossWeights(), include_align=False)
        assert terms.gloss_align == 0.0 and terms.sentence_align == 0.0


class TestPacking:
    # frame counts 16..19 cover every remainder mod 4 of the T/4 reduction
    GLOSSES = (("G01", "G03", "G02"), ("G02", "G02"), ("G04",), ("G05", "G01", "G06", "G02"))

    def pack_and_model(self, kind):
        model = Model(small_cfg(fusion_kind=kind), VOCAB)
        rng = np.random.default_rng(6)
        for p in model.parameters().values():  # move the zero-init fusion outputs
            p.data = p.data + 0.2 * rng.standard_normal(p.data.shape)
        samples = [
            make_sample(T=16 + i, glosses=g, seed=i) for i, g in enumerate(self.GLOSSES)
        ]
        return model, samples

    @pytest.mark.parametrize("kind", ["mlp", "conv", "attn", "none"])
    def test_pack_matches_packs_of_one(self, kind):
        model, samples = self.pack_and_model(kind)
        params = list(model.parameters().values())

        def run(packs):
            for p in params:
                p.grad = None
            totals = []
            for pack in packs:
                outputs = model.forward(*pack)
                ids = [VOCAB.ids(s.glosses) for s in pack]
                terms = compute_losses(outputs, ids, LossWeights(), include_align=True)
                ng.backward(terms.total)
                totals += terms.sample_totals
            return totals, [p.grad for p in params]

        packed, packed_grads = run([samples])
        alone, alone_grads = run([[s] for s in samples])
        np.testing.assert_allclose(packed, alone, rtol=1e-9, atol=0)
        for a, b in zip(packed_grads, alone_grads):
            assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max()

    def test_packed_outputs_and_alignments_match_single_runs(self):
        model, samples = self.pack_and_model("attn")
        with ng.no_grad():
            packed = model.forward(*samples)
            for i, sample in enumerate(samples):
                alone = model.forward(sample)
                start, stop = packed.rows(i)
                assert stop - start == alone.lengths[0]
                np.testing.assert_allclose(
                    packed.streams["c"].data[start:stop], alone.streams["c"].data, atol=1e-12
                )
                ids = VOCAB.ids(sample.glosses)
                path, spans, pairs = net.align_glosses(packed, ids, i)
                want_path, want_spans, want_pairs = net.align_glosses(alone, ids)
                assert path.assignment == want_path.assignment and spans == want_spans
                np.testing.assert_allclose(pairs.v2t.data, want_pairs.v2t.data, atol=1e-12)

    def test_pack_of_one_takes_bare_labels(self):
        model = Model(small_cfg(), VOCAB)
        sample = make_sample()
        ids = VOCAB.ids(sample.glosses)
        bare = compute_losses(model.forward(sample), ids, LossWeights())
        nested = compute_losses(model.forward(sample), [ids], LossWeights())
        assert bare.total.item() == nested.total.item() == bare.sample_totals[0]
        with pytest.raises(ValueError, match="2 label sequences for a pack of 1"):
            compute_losses(model.forward(sample), [ids, ids], LossWeights())


class TestFullModelGradcheck:
    def test_micro_config_total_loss(self):
        from svtc.gradcheck import compare_grads, micro_model

        model, sample = micro_model()
        n_params = sum(p.data.size for p in model.parameters().values())
        assert n_params <= 300  # micro scale
        weights = LossWeights()
        labels = model.vocab.ids(sample.glosses)

        def forward():
            out = model.forward(sample)
            return compute_losses(out, labels, weights, include_align=True).total

        err = compare_grads(forward, list(model.parameters().values()))
        assert err <= 1e-4
