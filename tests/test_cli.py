"""CLI surface and training-loop contracts on tiny corpora."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from svtc import gradcheck, net, synthdata
from svtc import ndgrad as ng
from svtc import train as train_mod
from svtc.cli import main
from svtc.ndgrad import Array
from svtc.synthdata import GenConfig
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

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=5, align_warmup_epochs=5)


class TestCheckpoint:
    def test_round_trip_reproduces_dev_wer_exactly(self, tiny_corpus, tiny_run):
        out, artifacts, tcfg = tiny_run
        report1, decodes1 = evaluate_corpus(
            artifacts.checkpoint_path, tiny_corpus, split="dev", width=tcfg.beam_width
        )
        report2, decodes2 = evaluate_corpus(
            artifacts.checkpoint_path, tiny_corpus, split="dev", width=tcfg.beam_width
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

        _, artifacts, tcfg = tiny_run
        model = load_checkpoint(artifacts.checkpoint_path)
        pairs = synthdata.load_split(tiny_corpus, "dev")
        reports = []
        for sample, _ in pairs:
            hyp = decode_sample(model, sample, width=tcfg.beam_width)
            reports.append(wer(model.vocab.ids(sample.glosses), hyp))
        agg = aggregate_reports(reports)
        total_edits = sum(r.distance for r in reports)
        total_ref = sum(r.ref_len for r in reports)
        assert agg.wer == total_edits / total_ref

    def test_evaluate_split_matches_forward_reference(self, tiny_corpus, tiny_run):
        from svtc.ctc import aggregate_reports, average_streams, wer
        from svtc.train import evaluate_split

        _, artifacts, tcfg = tiny_run
        model = load_checkpoint(artifacts.checkpoint_path)
        pairs = synthdata.load_split(tiny_corpus, "dev") + synthdata.load_split(
            tiny_corpus, "test"
        )
        reports, want = [], []
        for sample, _ in pairs:
            with ng.no_grad():
                out = model.forward(sample)
            stream = average_streams([out.streams[k] for k in net.HEAD_KEYS])
            hyp = reference_beam_decode(stream, tcfg.beam_width)
            reports.append(wer(model.vocab.ids(sample.glosses), hyp))
            want.append((sample.id, model.vocab.lookup_all(hyp)))
        report, decodes = evaluate_split(model, pairs, width=tcfg.beam_width, workers=1)
        assert decodes == want
        assert report.to_dict() == aggregate_reports(reports).to_dict()
        assert any(glosses for _, glosses in decodes)

    def test_unknown_head_rejected_before_the_model_runs(self):
        from svtc.train import decode_sample

        class Untouchable:
            def recognize(self, sample):
                raise AssertionError("model ran before the head was checked")

            forward = recognize

        with pytest.raises(ValueError, match="unknown head 'x'"):
            decode_sample(Untouchable(), sample=None, head="x")

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

    @pytest.mark.parametrize("steps", ["0", "-3", "two"])
    def test_bench_steps_below_one_is_usage_error(self, monkeypatch, capsys, steps):
        def must_not_run(*args, **kwargs):
            raise AssertionError("bench started despite a bad --steps")

        monkeypatch.setattr(synthdata, "generate_corpus", must_not_run)
        assert main(["bench", "--steps", steps]) == 1
        captured = capsys.readouterr()
        assert "--steps" in captured.err and captured.out == ""

    def test_success_is_0(self, tmp_path):
        out = tmp_path / "c"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_train": 2, "n_dev": 1, "n_test": 1}))
        assert main(["gen-data", "--out", str(out), "--config", str(cfg)]) == 0


class TestThreadCap:
    def test_env_var_parsed(self, monkeypatch):
        from svtc.train import thread_count

        monkeypatch.setenv("SVTC_THREADS", "3")
        assert thread_count() == 3
        monkeypatch.setenv("SVTC_THREADS", "0")
        assert thread_count() == 1
        monkeypatch.setenv("SVTC_THREADS", "x")
        with pytest.raises(ValueError):
            thread_count()

    def test_parallel_eval_matches_serial(self, tiny_corpus, tiny_run, monkeypatch):
        from svtc.train import evaluate_split, load_checkpoint

        _, artifacts, _ = tiny_run
        model = load_checkpoint(artifacts.checkpoint_path)
        pairs = synthdata.load_split(tiny_corpus, "dev")
        serial, dec_s = evaluate_split(model, pairs, workers=1)
        parallel, dec_p = evaluate_split(model, pairs, workers=4)
        assert serial.to_dict() == parallel.to_dict()
        assert dec_s == dec_p


class TestAdam:
    def test_skips_parameters_without_gradient(self):
        a = Array(np.ones(3), grad_tracked=True)
        b = Array(np.ones(3), grad_tracked=True)
        opt = Adam({"a": a, "b": b})
        a.grad = np.full(3, 0.5)
        before = b.data.copy()
        opt.step(0.1, weight_decay=0.01)
        assert not np.array_equal(a.data, np.ones(3))
        np.testing.assert_array_equal(b.data, before)

    def test_cosine_schedule_endpoints(self):
        assert cosine_lr(0, 60, 1e-3) == 1e-3
        assert cosine_lr(30, 60, 1e-3) == pytest.approx(5e-4)
        assert cosine_lr(60, 60, 1e-3) == pytest.approx(0.0, abs=1e-18)


class TestHeatmapTraining:
    def test_heatmap_corpus_trains(self, tmp_path):
        cfg = GenConfig(
            n_train=6, n_dev=2, n_test=2, seed=2, use_heatmaps=True, d_k_in=4
        )
        cfg.heatmap.n_keypoints = 4
        cfg.heatmap.height = cfg.heatmap.width = 8
        corpus = tmp_path / "hm"
        synthdata.generate_corpus(cfg, corpus)
        tcfg = TrainConfig(epochs=1, align_warmup_epochs=0, seed=0)
        artifacts = train(corpus, tmp_path / "run", tcfg)
        assert math.isfinite(artifacts.best_dev_wer)

    def test_crop_augment_is_exercised(self, tmp_path):
        from svtc.train import _augment

        cfg = GenConfig(n_train=3, n_dev=1, n_test=1, seed=2, use_heatmaps=True, d_k_in=4)
        cfg.heatmap.n_keypoints = 4
        cfg.heatmap.height = cfg.heatmap.width = 8
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
