"""CLI surface and training-loop contracts on tiny corpora."""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from svtc import gradcheck, net, synthdata
from svtc import ndgrad as ng
from svtc import train as train_mod
from svtc.cli import build_parser, main
from svtc.ndgrad import Array
from svtc.synthdata import GenConfig, HeatmapConfig
from svtc.train import (
    Adam,
    TrainConfig,
    cosine_lr,
    evaluate_corpus,
    load_checkpoint,
    save_checkpoint,
    train,
)

from beam_oracle import reference_beam_decode


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    cfg = GenConfig(n_train=24, n_dev=8, n_test=8, seed=3)
    synthdata.generate_corpus(cfg, path)
    return path


@pytest.fixture(scope="module")
def tiny_run(tiny_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    tcfg = TrainConfig(epochs=6, align_warmup_epochs=2, seed=1, batch_size=8)
    artifacts = train(tiny_corpus, out, tcfg)
    return out, artifacts, tcfg


class TestGenDataCommand:
    def test_default_config_writes_400_samples(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(["gen-data", "--out", str(out), "--seed", "5"]) == 0
        records = synthdata.load_manifest(out)
        assert len(records) == 400
        assert {r["split"] for r in records} == {"train", "dev", "test"}

    def test_rerun_byte_identical(self, tmp_path):
        cfg = {"n_train": 5, "n_dev": 2, "n_test": 2, "seed": 9}
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(cfg))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--out", str(a), "--config", str(cfg_path)]) == 0
        assert main(["gen-data", "--out", str(b), "--config", str(cfg_path)]) == 0
        for rel in ["corpus.jsonl", "vocab.json"]:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()
        for f in sorted((a / "tensors").iterdir()):
            assert f.read_bytes() == (b / "tensors" / f.name).read_bytes()

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        assert main(["gen-data", "--out", str(tmp_path / "x"), "--config", str(cfg_path)]) == 1

    def test_unknown_heatmap_key_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps({"use_heatmaps": True, "heatmap": {"bogus": 1}}))
        assert main(["gen-data", "--out", str(tmp_path / "x"), "--config", str(cfg_path)]) == 1
        assert "error: unknown heatmap config keys: ['bogus']" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_wrongly_typed_value_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps({"n_train": "8"}))
        assert main(["gen-data", "--out", str(tmp_path / "x"), "--config", str(cfg_path)]) == 1
        assert "error: generation config key 'n_train' must be an integer, got '8'" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("use_heatmaps", [False, True])
    def test_non_object_heatmap_is_usage_error(self, tmp_path, capsys, use_heatmaps):
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps({"use_heatmaps": use_heatmaps, "heatmap": [1]}))
        assert main(["gen-data", "--out", str(tmp_path / "x"), "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "error: unknown heatmap config keys: expected an object, got list" in err
        assert not (tmp_path / "x").exists()


class TestTrainLoop:
    def test_metrics_log_schema_and_lr_schedule(self, tiny_run):
        out, artifacts, tcfg = tiny_run
        lines = Path(artifacts.metrics_path).read_text().strip().splitlines()
        assert len(lines) == tcfg.epochs
        for epoch, line in enumerate(lines):
            rec = json.loads(line)
            assert rec["epoch"] == epoch
            # closed-form cosine schedule
            want = tcfg.lr0 * 0.5 * (1 + math.cos(math.pi * epoch / tcfg.epochs))
            assert rec["lr"] == pytest.approx(want, abs=0.0)
            for key in ("loss_total", "loss_ctc", "loss_spn", "dev_wer", "skipped"):
                assert key in rec

    def test_no_samples_skipped_on_default_style_corpus(self, tiny_run):
        _, artifacts, _ = tiny_run
        assert artifacts.skipped_samples == 0

    def test_alignment_losses_respect_warmup(self, tiny_run):
        _, artifacts, tcfg = tiny_run
        for rec in artifacts.epochs:
            if rec["epoch"] < tcfg.align_warmup_epochs:
                assert rec["loss_align_g"] == 0.0 and rec["loss_align_s"] == 0.0
            else:
                assert rec["loss_align_g"] > 0.0

    def test_degenerate_lambda_config_trains(self, tiny_corpus, tmp_path):
        tcfg = TrainConfig(
            epochs=2, align_warmup_epochs=1, seed=0, lambda_g=0.0, lambda_s=0.0
        )
        artifacts = train(tiny_corpus, tmp_path / "r", tcfg)
        assert math.isfinite(artifacts.best_dev_wer)

    def test_fixed_seed_reproduces_epoch_losses(self, tiny_corpus, tmp_path):
        tcfg = TrainConfig(epochs=2, align_warmup_epochs=1, seed=7)
        a = train(tiny_corpus, tmp_path / "a", tcfg)
        b = train(tiny_corpus, tmp_path / "b", tcfg)
        assert a.epochs[0]["loss_total"] == b.epochs[0]["loss_total"]
        assert Path(a.metrics_path).read_bytes() == Path(b.metrics_path).read_bytes()

    def test_packs_cap_rows_and_keep_order(self):
        samples = [SimpleNamespace(n_frames=n) for n in (200, 300, 20, 600, 10, 10)]
        got = [[s.n_frames for s in pack] for pack in train_mod.packs(samples, 512)]
        assert got == [[200, 300], [20], [600], [10, 10]]

    def test_packed_batches_match_packs_of_one(self, tiny_corpus, tmp_path, monkeypatch, capsys):
        # one sample cut to 8 frames cannot align its glosses: it is skipped
        # with a warning before packing, and packing changes no loss beyond
        # rounding
        load = synthdata.load_split

        def with_short_sample(corpus, split):
            pairs = load(corpus, split)
            if split == "train":
                s, rec = pairs[1]
                cut = {k: getattr(s, k)[:8] for k in ("x_v", "x_k", "x_o")}
                pairs[1] = (replace(s, glosses=s.glosses * 2, **cut), rec)
            return pairs

        monkeypatch.setattr(synthdata, "load_split", with_short_sample)
        tcfg = TrainConfig(epochs=2, align_warmup_epochs=0, seed=4, frame_rate_aug=False)
        runs = {}
        for rows in (512, 1):
            monkeypatch.setattr(train_mod, "PACK_ROWS", rows)
            runs[rows] = train(tiny_corpus, tmp_path / str(rows), tcfg)
        out = capsys.readouterr().out
        assert out.count("warning: skipping") == 4
        for packed, alone in zip(runs[512].epochs, runs[1].epochs):
            assert packed["skipped"] == alone["skipped"] == 1
            for key in ("loss_total", "loss_ctc", "loss_spn", "loss_align_g", "loss_align_s"):
                assert packed[key] == pytest.approx(alone[key], rel=1e-9)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_loss_stops_before_any_step(self, tiny_corpus, tmp_path, monkeypatch):
        made = []
        build = train_mod.model_for_corpus

        def with_nan_head(meta, **kw):
            model = build(meta, **kw)
            model.heads["v"].cls.w.data[0, 0] = math.nan
            made.append((model, {n: p.data.tobytes() for n, p in model.parameters().items()}))
            return model

        monkeypatch.setattr(train_mod, "model_for_corpus", with_nan_head)
        tcfg = TrainConfig(epochs=1, align_warmup_epochs=0, seed=1)
        with pytest.raises(FloatingPointError, match=r"^epoch 0, samples (\S+, )*\S+: ") as err:
            train(tiny_corpus, tmp_path / "r", tcfg)
        train_ids = {s.id for s, _ in synthdata.load_split(tiny_corpus, "train")}
        named = str(err.value).split(": ")[0].removeprefix("epoch 0, samples ").split(", ")
        assert set(named) <= train_ids
        model, before = made[0]
        assert {n: p.data.tobytes() for n, p in model.parameters().items()} == before

        argv = ["train", "--corpus", str(tiny_corpus), "--out", str(tmp_path / "c")]
        assert main(argv + ["--epochs", "1"]) == 2

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=5, align_warmup_epochs=5)

    @pytest.mark.parametrize(
        "name", ["lr0", "weight_decay", "lambda_ctc", "lambda_spn", "lambda_g", "lambda_s"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})


class TestTrainConfigFile:
    @pytest.fixture
    def no_training(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("training started despite a bad config")

        monkeypatch.setattr(train_mod, "train", must_not_run)

    def run_with(self, tmp_path, config, corpus=None, extra=()):
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps(config))
        argv = ["train", "--corpus", str(corpus or tmp_path), "--out", str(tmp_path / "o")]
        return main(argv + ["--config", str(cfg_path), *extra])

    def test_unknown_model_key_is_usage_error(self, tmp_path, capsys, no_training):
        assert self.run_with(tmp_path, {"train": {}, "model": {"bogus": 1}}) == 1
        assert "error: unknown model config keys: ['bogus']" in capsys.readouterr().err

    def test_non_object_config_is_usage_error(self, tmp_path, capsys, no_training):
        assert self.run_with(tmp_path, [1, 2]) == 1
        assert "error: unknown train config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key",
        ["beta1", "beta2", "eps", "beam_width", "aug_factor_range", "spatial_crop_aug",
         "crop_scale_range"],
    )
    def test_retired_train_key_is_usage_error(self, tmp_path, capsys, no_training, key):
        assert self.run_with(tmp_path, {"train": {key: 1}}) == 1
        assert f"error: unknown train config keys: ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"train": {"epochs": "3"}}, "train config key 'epochs' must be an integer, got '3'"),
            ({"train": {"epochs": True}}, "train config key 'epochs' must be an integer, got True"),
            ({"model": {"d_v": "8"}}, "model config key 'd_v' must be an integer, got '8'"),
            ({"train": {"lr0": "0.1"}}, "train config key 'lr0' must be a number, got '0.1'"),
            ({"train": {"fusion": 1}}, "train config key 'fusion' must be a string, got 1"),
            ({"train": {"frame_rate_aug": 0}}, "train config key 'frame_rate_aug' must be true"),
            ({"model": {"d_t": 2.5}}, "model config key 'd_t' must be an integer, got 2.5"),
        ],
    )
    def test_wrongly_typed_value_is_usage_error(
        self, tmp_path, capsys, no_training, config, message
    ):
        assert self.run_with(tmp_path, config) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_integer_for_float_field_accepted(self, tiny_corpus, tmp_path):
        config = {"train": {"epochs": 1, "align_warmup_epochs": 0, "lr0": 0, "lambda_g": 1}}
        assert self.run_with(tmp_path, config, tiny_corpus) == 0

    def test_nan_in_config_file_is_a_data_error(self, tmp_path, capsys, no_training):
        # json.load accepts NaN, so TrainConfig itself must reject it
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text('{"train": {"lr0": NaN}}')
        argv = ["train", "--corpus", str(tmp_path), "--out", str(tmp_path / "o")]
        assert main(argv + ["--config", str(cfg_path)]) == 2
        assert "error: lr0 must be finite, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("fusion_kind", "none"), ("seed", 9), ("vocab_size", 13), ("in_dim_v", 5),
         ("blocks", 4), ("d_head", 8)],
        ids=["fusion_kind", "seed", "vocab_size", "in_dim_v", "blocks", "d_head"],
    )
    def test_retired_model_key_is_usage_error(self, tmp_path, capsys, no_training, key, value):
        # fusion and seed have their own train keys, the sizes come from the
        # corpus and the shape is fixed: the model section sets only widths
        assert self.run_with(tmp_path, {"model": {"d_v": 8, key: value}}) == 1
        assert f"error: unknown model config keys: ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_every_flag_sets_its_train_field(self, tmp_path, monkeypatch):
        seen = []

        def record(corpus, out, tcfg, widths):
            seen.append(tcfg)
            return SimpleNamespace(best_dev_wer=0.0, checkpoint_path=out)

        monkeypatch.setattr(train_mod, "train", record)
        flags = [
            "--epochs", "7", "--lr0", "0.5", "--weight-decay", "0.25", "--batch-size", "3",
            "--align-warmup", "2", "--lambda-ctc", "2", "--lambda-spn", "3", "--lambda-g", "4",
            "--lambda-s", "5", "--fusion", "conv", "--seed", "6", "--no-frame-rate-aug",
        ]
        assert self.run_with(tmp_path, {"train": {"frame_rate_aug": True}}, extra=flags) == 0
        assert seen == [
            TrainConfig(
                epochs=7, lr0=0.5, weight_decay=0.25, batch_size=3, align_warmup_epochs=2,
                lambda_ctc=2.0, lambda_spn=3.0, lambda_g=4.0, lambda_s=5.0, seed=6,
                fusion="conv", frame_rate_aug=False,
            )
        ]

    def test_flags_are_checked_with_the_config(self, tmp_path, capsys, no_training):
        # --align-warmup 3 fits the file's 5 epochs, not --epochs 2
        config = {"train": {"epochs": 5, "align_warmup_epochs": 1}}
        extra = ["--epochs", "2", "--align-warmup", "3"]
        assert self.run_with(tmp_path, config, extra=extra) == 2
        assert "warm-up must be shorter than the run" in capsys.readouterr().err

    def test_model_only_config_trains(self, tiny_corpus, tmp_path):
        extra = ["--epochs", "1", "--align-warmup", "0"]
        assert self.run_with(tmp_path, {"model": {"d_v": 8}}, tiny_corpus, extra) == 0
        sidecar = json.loads((tmp_path / "o" / "checkpoint.json").read_text())
        assert sidecar["model"]["d_v"] == 8

    def test_fusion_none_trains_a_model_without_fusion(self, tiny_corpus, tmp_path):
        extra = ["--epochs", "1", "--align-warmup", "0", "--fusion", "none", "--seed", "4"]
        config = {"train": {"fusion": "attn", "seed": 1}, "model": {"d_v": 8}}
        assert self.run_with(tmp_path, config, tiny_corpus, extra) == 0
        base = tmp_path / "o" / "checkpoint"
        sidecar = json.loads(base.with_suffix(".json").read_text())
        assert sidecar["model"]["fusion_kind"] == "none" and sidecar["model"]["seed"] == 4
        assert not any(n.startswith("fuse") for n in load_checkpoint(base).parameters())

    @pytest.mark.parametrize(
        "config, stray",
        [
            ({"model": {"d_v": 8}, "lambda_g": 0, "lambda_s": 0}, ["lambda_g", "lambda_s"]),
            ({"model": {"d_v": 8}, "epochs": 1, "bogus_key": 3}, ["bogus_key", "epochs"]),
            ({"train": {"epochs": 1}, "bogus_key": 3}, ["bogus_key"]),
            ({"epochs": 3, "seed": 4}, ["epochs", "seed"]),
        ],
        ids=["lambdas", "epochs-and-bogus", "next-to-train", "flat"],
    )
    def test_key_outside_the_sections_is_usage_error(
        self, tmp_path, capsys, no_training, config, stray
    ):
        assert self.run_with(tmp_path, config) == 1
        err = capsys.readouterr().err
        assert f"error: unknown train config keys: {stray}" in err
        assert 'a train config holds only a "train" and a "model" section' in err
        assert not (tmp_path / "o").exists()


class TestCorpusConfig:
    def test_load_meta_reads_the_generation_config_back(self, tmp_path):
        cfg = GenConfig(n_train=2, n_dev=1, n_test=1, seed=4, use_heatmaps=True)
        synthdata.generate_corpus(cfg, tmp_path)
        assert synthdata.load_meta(tmp_path)["config"] == cfg

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.pop("config"), "KeyError: 'config'"),
            (lambda m: m["config"].update(bogus=1), "unexpected keyword argument 'bogus'"),
            (lambda m: m["config"].update(n_train="lots"), "'<' not supported"),
            (lambda m: m["config"].update(n_dev=0), "n_dev must be >= 1, got 0"),
            (lambda m: m["config"]["heatmap"].update(bogus=1), "keyword argument 'bogus'"),
        ],
        ids=["missing", "unknown-key", "wrongly-typed", "invalid", "unknown-heatmap-key"],
    )
    def test_bad_corpus_config_is_a_data_error(
        self, tiny_corpus, tmp_path, capsys, edit, message
    ):
        corpus = tmp_path / "corpus"
        shutil.copytree(tiny_corpus, corpus)
        meta = json.loads((corpus / "vocab.json").read_text())
        edit(meta)
        (corpus / "vocab.json").write_text(json.dumps(meta))
        out = tmp_path / "o"
        argv = ["train", "--corpus", str(corpus), "--out", str(out), "--epochs", "1"]
        assert main(argv + ["--align-warmup", "0"]) == 2
        err = capsys.readouterr().err
        assert f"error: bad corpus config {corpus / 'vocab.json'}: " in err
        assert message in err
        assert not out.exists()


class TestStreamBoundary:
    def test_prob_streams_are_built_only_to_decode(self, tiny_corpus, monkeypatch):
        from svtc.ctc import ProbStream

        built = []
        init = ProbStream.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ProbStream, "__init__", counting_init)
        model = train_mod.model_for_corpus(synthdata.load_meta(tiny_corpus), seed=2)
        sample, _ = synthdata.load_split(tiny_corpus, "dev")[0]
        ids = model.vocab.ids(sample.glosses)
        terms = net.compute_losses(model.forward(sample), ids, net.LossWeights(), True)
        ng.backward(terms.total)
        with ng.no_grad():
            streams = {k: a.data for k, a in model.recognize(sample).streams.items()}
        assert len(built) == 0
        train_mod.decode_sample(streams, 5, "avg")
        assert len(built) == 5  # four heads plus their average
        built.clear()
        train_mod.decode_sample(streams, 5, "c")
        assert len(built) == 1


class TestCheckpoint:
    def test_round_trip_reproduces_dev_wer_exactly(self, tiny_corpus, tiny_run):
        _, artifacts, _ = tiny_run
        # width 5 is the default that dev scoring uses during training
        report1, decodes1 = evaluate_corpus(
            artifacts.checkpoint_path, tiny_corpus, split="dev", width=5
        )
        report2, decodes2 = evaluate_corpus(
            artifacts.checkpoint_path, tiny_corpus, split="dev", width=5
        )
        assert report1.to_dict() == report2.to_dict()
        assert decodes1 == decodes2
        assert report1.wer == artifacts.best_dev_wer

    def test_save_load_preserves_bytes(self, tiny_run, tmp_path):
        _, artifacts, _ = tiny_run
        model = load_checkpoint(artifacts.checkpoint_path)
        base = tmp_path / "copy"
        save_checkpoint(base, model)
        assert (
            base.with_suffix(".svt").read_bytes()
            == Path(artifacts.checkpoint_path).with_suffix(".svt").read_bytes()
        )

    def test_mismatched_checkpoint_rejected(self, tiny_run, tmp_path):
        _, artifacts, _ = tiny_run
        base = Path(artifacts.checkpoint_path)
        sidecar = json.loads(base.with_suffix(".json").read_text())
        sidecar["model"]["d_v"] = sidecar["model"]["d_v"] + 1
        bad = tmp_path / "bad"
        bad.with_suffix(".svt").write_bytes(base.with_suffix(".svt").read_bytes())
        bad.with_suffix(".json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError):
            load_checkpoint(bad)

    @pytest.mark.parametrize(
        "edit",
        [
            {"bogus": 1},
            {"vocab_size": "13"},
            {"blocks": 4, "d_head": 64, "spn_levels": 2, "temporal_strides": [1, 2, 2, 1]},
        ],
        ids=["extra-key", "string-vocab-size", "retired-shape-keys"],
    )
    def test_bad_sidecar_model_is_a_data_error(
        self, tiny_corpus, tiny_run, tmp_path, capsys, edit
    ):
        _, artifacts, _ = tiny_run
        base = Path(artifacts.checkpoint_path)
        sidecar = json.loads(base.with_suffix(".json").read_text())
        sidecar["model"].update(edit)
        bad = tmp_path / "bad"  # the sidecar fails before the .svt is read
        bad.with_suffix(".json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match="bad checkpoint sidecar .*bad\\.json"):
            load_checkpoint(bad)
        argv = ["eval", "--corpus", str(tiny_corpus), "--checkpoint", str(bad)]
        assert main(argv) == 2
        assert "error: bad checkpoint sidecar" in capsys.readouterr().err


class TestEvalAndDecode:
    def test_eval_writes_report_with_spec_keys(self, tiny_corpus, tiny_run, tmp_path, capsys):
        _, artifacts, _ = tiny_run
        rc = main(
            [
                "eval",
                "--corpus",
                str(tiny_corpus),
                "--checkpoint",
                str(artifacts.checkpoint_path),
                "--split",
                "dev",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "wer_dev.json").read_text())
        assert set(report) == {"wer", "ins", "del", "sub", "ref_len"}
        assert report["wer"] == (report["ins"] + report["del"] + report["sub"]) / report["ref_len"]

    def test_head_flag_switches_stream(self, tiny_corpus, tiny_run, capsys):
        _, artifacts, _ = tiny_run
        outs = {}
        for head in ("v", "avg"):
            rc = main(
                [
                    "eval",
                    "--corpus",
                    str(tiny_corpus),
                    "--checkpoint",
                    str(artifacts.checkpoint_path),
                    "--split",
                    "dev",
                    "--head",
                    head,
                ]
            )
            assert rc == 0
            outs[head] = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(outs["v"]) == {"wer", "ins", "del", "sub", "ref_len"}

    def test_micro_average_identity(self, tiny_corpus, tiny_run):
        from svtc.ctc import aggregate_reports, wer
        from svtc.train import decode_sample

        _, artifacts, _ = tiny_run
        model = load_checkpoint(artifacts.checkpoint_path)
        pairs = synthdata.load_split(tiny_corpus, "dev")
        reports = []
        for sample, _ in pairs:
            with ng.no_grad():
                streams = {k: a.data for k, a in model.recognize(sample).streams.items()}
            hyp = decode_sample(streams, 5, "avg")
            reports.append(wer(model.vocab.ids(sample.glosses), hyp))
        agg = aggregate_reports(reports)
        total_edits = sum(r.distance for r in reports)
        total_ref = sum(r.ref_len for r in reports)
        assert agg.wer == total_edits / total_ref

    def test_evaluate_split_matches_forward_reference(self, tiny_corpus, tiny_run):
        from svtc.ctc import ProbStream, aggregate_reports, average_streams, wer
        from svtc.train import evaluate_split

        _, artifacts, _ = tiny_run
        model = load_checkpoint(artifacts.checkpoint_path)
        pairs = synthdata.load_split(tiny_corpus, "dev") + synthdata.load_split(
            tiny_corpus, "test"
        )
        reports, want = [], []
        for sample, _ in pairs:
            with ng.no_grad():
                out = model.forward(sample)
            stream = average_streams(
                [ProbStream(out.streams[k], log_space=True) for k in net.HEAD_KEYS]
            )
            hyp = reference_beam_decode(stream, 5)
            reports.append(wer(model.vocab.ids(sample.glosses), hyp))
            want.append((sample.id, model.vocab.lookup_all(hyp)))
        report, decodes = evaluate_split(model, pairs, width=5)
        assert decodes == want
        assert report.to_dict() == aggregate_reports(reports).to_dict()
        assert any(glosses for _, glosses in decodes)

    def test_unknown_head_rejected_before_the_model_runs(self):
        from svtc.train import evaluate_split

        class Untouchable:
            def recognize(self, *samples):
                raise AssertionError("model ran before the head was checked")

            forward = recognize

        pairs = [(SimpleNamespace(id="s", n_frames=8, glosses=["G01"]), {})]
        with pytest.raises(ValueError, match="unknown head 'x'"):
            evaluate_split(Untouchable(), pairs, 5, "x")

    def test_workers_other_than_one_rejected(self, tiny_corpus, tiny_run):
        from svtc.train import evaluate_split

        _, artifacts, _ = tiny_run
        model = load_checkpoint(artifacts.checkpoint_path)
        pairs = synthdata.load_split(tiny_corpus, "dev")
        with pytest.raises(ValueError, match="workers=2"):
            evaluate_split(model, pairs, workers=2)

    def test_decode_line_format(self, tiny_corpus, tiny_run, tmp_path):
        _, artifacts, _ = tiny_run
        rc = main(
            [
                "decode",
                "--corpus",
                str(tiny_corpus),
                "--checkpoint",
                str(artifacts.checkpoint_path),
                "--split",
                "dev",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "decodes_dev.tsv").read_text().splitlines()
        pairs = synthdata.load_split(tiny_corpus, "dev")
        assert len(lines) == len(pairs)
        for line, (sample, _) in zip(lines, pairs):
            sid, _, glosses = line.partition("\t")
            assert sid == sample.id
            for g in glosses.split():
                assert g.startswith("G")


class TestAlignCommand:
    def test_dump_schema_and_matrices(self, tiny_corpus, tiny_run, tmp_path):
        from svtc import container

        _, artifacts, _ = tiny_run
        out = tmp_path / "align"
        rc = main(
            [
                "align",
                "--corpus",
                str(tiny_corpus),
                "--checkpoint",
                str(artifacts.checkpoint_path),
                "--split",
                "dev",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        records = [json.loads(l) for l in (out / "align.jsonl").read_text().splitlines()]
        pairs = synthdata.load_split(tiny_corpus, "dev")
        assert len(records) == len(pairs)
        matrices = container.load_tensors(out / "similarity.svt")
        for rec, (sample, meta) in zip(records, pairs):
            assert set(rec) == {"id", "path", "spans", "log_score"}
            n = len(sample.glosses)
            assert rec["path"][0] == 0 and rec["path"][-1] == n - 1
            assert len(rec["spans"]) == n
            sim = matrices[rec["id"]]
            assert sim.shape == (n, n)
            assert np.all(np.isfinite(sim))
        summary = json.loads((out / "summary.json").read_text())
        assert "mean_boundary_error_frames" in summary

    def test_single_gloss_sample_trivial_path(self, tmp_path):
        cfg = GenConfig(n_train=4, n_dev=2, n_test=2, sentence_len=(1, 1), seed=11)
        corpus = tmp_path / "c"
        synthdata.generate_corpus(cfg, corpus)
        tcfg = TrainConfig(epochs=1, align_warmup_epochs=0, seed=0)
        artifacts = train(corpus, tmp_path / "r", tcfg)
        out = tmp_path / "align"
        rc = main(
            [
                "align",
                "--corpus",
                str(corpus),
                "--checkpoint",
                str(artifacts.checkpoint_path),
                "--split",
                "dev",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        for line in (out / "align.jsonl").read_text().splitlines():
            rec = json.loads(line)
            assert all(p == 0 for p in rec["path"])


class TestGradcheckCommand:
    def test_reports_at_least_ten_named_checks(self, capsys):
        rc = main(["gradcheck", "--skip-model"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) >= 10

    def test_suite_calls_every_differentiable_primitive(self, monkeypatch):
        infrastructure = {"Array", "Tape", "no_grad", "backward", "custom_op"}
        names = [
            n for n in ng.__all__ if n not in infrastructure and callable(getattr(ng, n))
        ]
        called = set()

        def counting(name, func):
            def wrapper(*args, **kwargs):
                called.add(name)
                return func(*args, **kwargs)

            return wrapper

        for name in names:
            monkeypatch.setattr(ng, name, counting(name, getattr(ng, name)))
        results = gradcheck.run_suite(0, include_model=False)
        assert all(r.passed for r in results)
        assert sorted(set(names) - called) == []

    def test_injected_wrong_gradient_is_caught(self):
        # mutant primitive: forward x*x but gradient claims 3x
        rng = np.random.default_rng(0)
        x = Array(rng.standard_normal(4), grad_tracked=True)

        def mutant_square(a):
            return ng.custom_op(a.data * a.data, (a,), lambda g: (g * 3.0 * a.data,))

        err = gradcheck.compare_grads(lambda: ng.reduce_sum(mutant_square(x)), [x])
        assert err > 1e-5  # the harness flags the wrong rule

    def test_correct_rule_passes_same_harness(self):
        rng = np.random.default_rng(0)
        x = Array(rng.standard_normal(4), grad_tracked=True)
        err = gradcheck.compare_grads(lambda: ng.reduce_sum(ng.mul(x, x)), [x])
        assert err <= 1e-5


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert main(["train"]) == 1  # missing --corpus
        assert main(["gen-data"]) == 1  # missing --out
        assert main(["nonsense"]) == 1

    def test_data_error_is_2(self, tmp_path):
        rc = main(
            [
                "eval",
                "--corpus",
                str(tmp_path / "missing"),
                "--checkpoint",
                str(tmp_path / "nope"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("command", ["eval", "decode"])
    @pytest.mark.parametrize("width", ["0", "-2"])
    def test_beam_width_below_one_fails_before_loading(
        self, tmp_path, monkeypatch, capsys, command, width
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("checkpoint loaded despite a bad --beam-width")

        monkeypatch.setattr(train_mod, "evaluate_corpus", must_not_run)
        argv = [command, "--corpus", str(tmp_path), "--checkpoint", str(tmp_path / "ck")]
        assert main(argv + ["--beam-width", width]) == 1
        assert f"--beam-width: must be >= 1, got {width}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--epochs", "--batch-size"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_train_counts_below_one_fail_before_training(
        self, tmp_path, monkeypatch, capsys, flag, value
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError(f"training started despite a bad {flag}")

        monkeypatch.setattr(train_mod, "train", must_not_run)
        argv = ["train", "--corpus", str(tmp_path), "--out", str(tmp_path / "o")]
        assert main(argv + [flag, value]) == 1
        assert f"{flag}: must be >= 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        ["--lr0", "--weight-decay", "--lambda-ctc", "--lambda-spn", "--lambda-g", "--lambda-s"],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x"])
    def test_non_finite_float_flag_fails_before_reading(
        self, tmp_path, monkeypatch, capsys, flag, value
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError(f"a file was read despite a bad {flag}")

        monkeypatch.setattr(train_mod, "train", must_not_run)
        monkeypatch.setattr("svtc.cli._load_json", must_not_run)
        argv = ["train", "--corpus", str(tmp_path), "--out", str(tmp_path / "o")]
        argv += ["--config", str(tmp_path / "missing.json")]
        assert main(argv + [f"{flag}={value}"]) == 1
        assert f"error: argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["gen-data", "--seed", "-1"], "--seed"),
            (["train", "--corpus", "c", "--seed", "-2"], "--seed"),
            (["train", "--corpus", "c", "--align-warmup", "-1"], "--align-warmup"),
            (["gradcheck", "--seed", "-1"], "--seed"),
        ],
        ids=["gen-data-seed", "train-seed", "train-align-warmup", "gradcheck-seed"],
    )
    def test_negative_count_flag_fails_before_any_output(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 1
        value = argv[argv.index(flag) + 1]
        assert f"argument {flag}: must be >= 0, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, config",
        [
            ("gen-data", {"n_train": 2, "seed": -1}),
            ("train", {"train": {"seed": -1}}),
        ],
        ids=["generation", "train-section"],
    )
    def test_negative_config_seed_is_a_data_error(self, tmp_path, capsys, command, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "o"
        argv = [command, "--out", str(out), "--config", str(cfg_path)]
        if command == "train":
            argv += ["--corpus", str(tmp_path)]
        assert main(argv) == 2
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, flags, message",
        [
            ('{"n_train": -1}', [], "n_train must be >= 1, got -1"),
            ('{"n_dev": 0}', [], "n_dev must be >= 1, got 0"),
            ('{"d_v_in": 0}', [], "d_v_in must be >= 1, got 0"),
            ('{"noise": -1}', [], "noise must be finite and >= 0, got -1"),
            ('{"noise": NaN}', [], "noise must be finite and >= 0, got nan"),
            ('{"heatmap": {"n_keypoints": 0}}', ["--heatmaps"], "n_keypoints must be >= 1"),
            ('{"heatmap": {"n_keypoints": 5}}', ["--heatmaps"], "d_k_in == heatmap.n_keypoints"),
            (
                '{"heatmap": {"sigma": NaN}, "use_heatmaps": true}',
                ["--heatmaps"],
                "sigma must be finite and > 0, got nan",
            ),
        ],
        ids=["n-train", "n-dev", "d-v-in", "noise-negative", "noise-nan", "no-keypoints",
             "keypoints-not-d-k-in", "sigma-nan"],
    )
    def test_invalid_generation_config_writes_nothing(
        self, tmp_path, capsys, config, flags, message
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config)  # NaN is not JSON, but json.load reads it
        out = tmp_path / "o"
        assert main(["gen-data", "--out", str(out), "--config", str(cfg_path), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, key, got",
        [
            ({"sentence_len": [3]}, "sentence_len", "[3]"),
            ({"sentence_len": [2, 3, 4]}, "sentence_len", "[2, 3, 4]"),
            ({"sentence_len": ["a", "b"]}, "sentence_len", "['a', 'b']"),
            ({"frames_per_gloss": [4.5, 8]}, "frames_per_gloss", "[4.5, 8]"),
        ],
        ids=["one-value", "three-values", "strings", "fraction"],
    )
    def test_range_pair_must_be_two_integers(self, tmp_path, capsys, config, key, got):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["gen-data", "--out", str(out), "--config", str(cfg_path)]) == 2
        message = f"error: {key} must be two integers [lo, hi], got {got}"
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [("eval", "--seed"), ("eval", "--config"), ("decode", "--seed"), ("decode", "--config"),
         ("align", "--seed"), ("align", "--config"), ("gradcheck", "--config"),
         ("gradcheck", "--out")],
        ids=["eval-seed", "eval-config", "decode-seed", "decode-config", "align-seed",
             "align-config", "gradcheck-config", "gradcheck-out"],
    )
    def test_flag_a_command_does_not_read_is_usage_error(
        self, tmp_path, monkeypatch, capsys, command, flag
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{command} ran despite {flag}")

        monkeypatch.setattr(train_mod, "evaluate_corpus", must_not_run)
        monkeypatch.setattr(train_mod, "dump_alignments", must_not_run)
        monkeypatch.setattr(gradcheck, "run_suite", must_not_run)
        out = tmp_path / "o"
        value = {"--seed": "5", "--config": str(tmp_path / "cfg.json"), "--out": str(out)}[flag]
        argv = [command, flag, value]
        if command != "gradcheck":
            argv += ["--corpus", str(tmp_path), "--checkpoint", str(tmp_path / "ck")]
            argv += ["--out", str(out)]
        assert main(argv) == 1
        assert f"error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_is_an_unknown_subcommand(self, capsys):
        assert main(["bench"]) == 1
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_success_is_0(self, tmp_path):
        out = tmp_path / "c"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_train": 2, "n_dev": 1, "n_test": 1}))
        assert main(["gen-data", "--out", str(out), "--config", str(cfg)]) == 0


class TestOptionSurface:
    # every option each subcommand accepts; a flag no command reads is absent
    OPTIONS = {
        "gen-data": {"--seed", "--config", "--out", "--heatmaps"},
        "train": {
            "--seed", "--config", "--out", "--corpus", "--epochs", "--lr0", "--weight-decay",
            "--batch-size", "--align-warmup", "--lambda-ctc", "--lambda-spn", "--lambda-g",
            "--lambda-s", "--fusion", "--no-frame-rate-aug",
        },
        "eval": {"--out", "--corpus", "--checkpoint", "--split", "--head", "--beam-width"},
        "decode": {"--out", "--corpus", "--checkpoint", "--split", "--head", "--beam-width"},
        "align": {"--out", "--corpus", "--checkpoint", "--split"},
        "gradcheck": {"--seed", "--skip-model"},
    }

    def test_each_subcommand_takes_exactly_its_options(self):
        (subparsers,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        seen = {}
        for name, parser in subparsers.choices.items():
            options = [a.option_strings for a in parser._actions if a.dest != "help"]
            assert all(len(strings) == 1 for strings in options)
            seen[name] = {strings[0] for strings in options}
        assert seen == self.OPTIONS
        assert sum(map(len, seen.values())) == 37


class TestBlasPin:
    NAMES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def import_cli(self, preset):
        env = {k: v for k, v in os.environ.items() if k not in self.NAMES}
        env.update(preset)
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = str(src)
        code = (
            "import json, os, sys, svtc.cli; "
            f"print(json.dumps([[os.environ.get(n) for n in {self.NAMES!r}], "
            "'numpy' in sys.modules]))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return json.loads(out.stdout)

    def test_unset_variables_pinned_to_one(self):
        values, numpy_loaded = self.import_cli({})
        assert values == ["1", "1", "1"] and numpy_loaded

    def test_preset_value_wins(self):
        values, _ = self.import_cli({"OPENBLAS_NUM_THREADS": "2"})
        assert values == ["2", "1", "1"]


class TestAdam:
    def test_skips_parameters_without_gradient(self):
        a = Array(np.ones(3), grad_tracked=True)
        b = Array(np.ones(3), grad_tracked=True)
        opt = Adam({"a": a, "b": b})
        a.grad = np.full(3, 0.5)
        before = b.data.copy()
        opt.step(0.1, 0.01, 1.0)
        assert not np.array_equal(a.data, np.ones(3))
        np.testing.assert_array_equal(b.data, before)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_bitwise_equals_textbook_expressions(self, weight_decay):
        # the in-place step must keep every rounding of the update formulas
        rng = np.random.default_rng(23)
        p = Array(rng.standard_normal((4, 3)), grad_tracked=True)
        opt = Adam({"p": p})
        b1, b2, eps = opt.beta1, opt.beta2, opt.eps
        w, m, v = p.data.copy(), np.zeros((4, 3)), np.zeros((4, 3))
        for t in range(1, 6):
            p.grad = rng.standard_normal((4, 3))
            g = p.grad * 0.125
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            update = (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            if weight_decay:
                update = update + weight_decay * w
            w = w - 0.01 * update
            opt.step(0.01, weight_decay, grad_scale=0.125)
            assert p.data.tobytes() == w.tobytes()

    def test_cosine_schedule_endpoints(self):
        assert cosine_lr(0, 60, 1e-3) == 1e-3
        assert cosine_lr(30, 60, 1e-3) == pytest.approx(5e-4)
        assert cosine_lr(60, 60, 1e-3) == pytest.approx(0.0, abs=1e-18)


class TestHeatmapTraining:
    def test_heatmap_corpus_trains(self, tmp_path):
        canvas = HeatmapConfig(height=8, width=8, n_keypoints=4)
        cfg = GenConfig(
            n_train=6, n_dev=2, n_test=2, seed=2, use_heatmaps=True, d_k_in=4, heatmap=canvas
        )
        corpus = tmp_path / "hm"
        synthdata.generate_corpus(cfg, corpus)
        tcfg = TrainConfig(epochs=1, align_warmup_epochs=0, seed=0)
        artifacts = train(corpus, tmp_path / "run", tcfg)
        assert math.isfinite(artifacts.best_dev_wer)

    def test_crop_augment_is_exercised(self, tmp_path):
        from svtc.train import _augment

        canvas = HeatmapConfig(height=8, width=8, n_keypoints=4)
        cfg = GenConfig(
            n_train=3, n_dev=1, n_test=1, seed=2, use_heatmaps=True, d_k_in=4, heatmap=canvas
        )
        corpus = tmp_path / "hm"
        synthdata.generate_corpus(cfg, corpus)
        sample, _ = synthdata.load_split(corpus, "train")[0]
        assert sample.points is not None
        tcfg = TrainConfig(epochs=2, align_warmup_epochs=1, seed=0, frame_rate_aug=False)
        a = _augment(sample, tcfg, 0, 0, cfg.heatmap, cfg.seed)
        b = _augment(sample, tcfg, 1, 0, cfg.heatmap, cfg.seed)
        # different epochs draw different crop windows/scales
        assert not np.array_equal(a.x_k, b.x_k)
        # identical draw is reproducible
        a2 = _augment(sample, tcfg, 0, 0, cfg.heatmap, cfg.seed)
        np.testing.assert_array_equal(a.x_k, a2.x_k)
