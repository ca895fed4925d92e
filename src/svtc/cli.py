"""Command-line surface.

Subcommands: gen-data, train, eval, decode, align, gradcheck.
Exit codes: 0 success, 1 usage error, 2 runtime/data error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

# One BLAS thread before numpy loads: a second one does not speed up these
# small matrices and only competes for the cores.  Preset values win.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from . import gradcheck, net, synthdata, train as train_mod  # noqa: E402
from .synthdata import GenConfig, HeatmapConfig  # noqa: E402
from .train import TrainConfig  # noqa: E402


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    runtime failures and use 1 for usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise UsageError(message)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


# JSON value kinds each annotated config field type accepts
_JSON_KINDS = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
    "tuple": ((list,), "an array"),
}

# the ModelConfig fields a train config's "model" section may set
_MODEL_KEYS = ("d_v", "d_t", "d_j")


def _check_keys(data, allowed, label: str, hint: str = ""):
    """Reject a non-object or a key outside ``allowed`` as usage errors."""
    if not isinstance(data, dict):
        kind = type(data).__name__
        raise UsageError(f"unknown {label} config keys: expected an object, got {kind}")
    unknown = set(data) - set(allowed)
    if unknown:
        raise UsageError(f"unknown {label} config keys: {sorted(unknown)}{hint}")


def _dataclass_from(cls, data: dict, label: str, keys=None):
    """``cls(**data)`` after rejecting a non-object, unknown keys or a value
    of the wrong JSON kind as usage errors.  Given ``keys``, only those
    fields are accepted and the checked dict is returned unbuilt."""
    _check_keys(data, keys or [f.name for f in fields(cls)], label)
    for f in fields(cls):
        if f.name not in data or f.type not in _JSON_KINDS:
            continue
        kinds, what = _JSON_KINDS[f.type]
        value = data[f.name]
        if not isinstance(value, kinds) or (isinstance(value, bool) and f.type != "bool"):
            raise UsageError(f"{label} config key {f.name!r} must be {what}, got {value!r}")
    return data if keys else cls(**data)


def build_parser() -> _Parser:
    parser = _Parser(prog="svtc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=str, default=None, help="output directory")
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument(
        "--seed", type=_non_negative_int, default=None, help="override the config seed"
    )
    configured.add_argument("--config", type=str, default=None, help="JSON config file")

    p = sub.add_parser("gen-data", parents=[configured, out], help="write a synthetic corpus")
    p.add_argument("--heatmaps", action="store_true", help="render keypoint heatmaps")

    p = sub.add_parser("train", parents=[configured, out], help="train a model on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--epochs", type=_positive_int, default=None)
    p.add_argument("--lr0", type=_finite_float, default=None)
    p.add_argument("--weight-decay", type=_finite_float, default=None)
    p.add_argument("--batch-size", type=_positive_int, default=None)
    p.add_argument(
        "--align-warmup", dest="align_warmup_epochs", type=_non_negative_int, default=None
    )
    p.add_argument("--lambda-ctc", type=_finite_float, default=None)
    p.add_argument("--lambda-spn", type=_finite_float, default=None)
    p.add_argument("--lambda-g", type=_finite_float, default=None)
    p.add_argument("--lambda-s", type=_finite_float, default=None)
    p.add_argument("--fusion", choices=["mlp", "conv", "attn", "none"], default=None)
    p.add_argument(
        "--no-frame-rate-aug", dest="frame_rate_aug", action="store_false", default=None
    )

    for name, help_text in (
        ("eval", "score a split with a checkpoint"),
        ("decode", "write decoded gloss lines for a split"),
        ("align", "dump alignment paths and similarity matrices"),
    ):
        p = sub.add_parser(name, parents=[out], help=help_text)
        p.add_argument("--corpus", required=True)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--split", default="dev", choices=["train", "dev", "test"])
        if name in ("eval", "decode"):
            p.add_argument("--head", default="avg", choices=["v", "k", "o", "c", "avg"])
            p.add_argument("--beam-width", type=_positive_int, default=5)

    p = sub.add_parser("gradcheck", help="finite-difference audit")
    p.add_argument("--seed", type=_non_negative_int, default=0, help="seed of the checked inputs")
    p.add_argument("--skip-model", action="store_true", help="primitives only")

    return parser


def cmd_gen_data(args) -> int:
    if not args.out:
        raise UsageError("gen-data requires --out")
    data = _load_json(args.config) if args.config else {}
    if isinstance(data, dict) and "heatmap" in data:
        data["heatmap"] = _dataclass_from(HeatmapConfig, data["heatmap"], "heatmap")
    cfg = _dataclass_from(GenConfig, data, "generation")
    flags = {"seed": args.seed, "use_heatmaps": args.heatmaps or None}
    # replace() runs the config checks again with the flags applied
    cfg = replace(cfg, **{name: v for name, v in flags.items() if v is not None})
    records = synthdata.generate_corpus(cfg, args.out)
    print(f"wrote {len(records)} samples to {args.out}")
    return 0


def cmd_train(args) -> int:
    if not args.out:
        raise UsageError("train requires --out")
    raw = _load_json(args.config) if args.config else {}
    hint = '; a train config holds only a "train" and a "model" section'
    _check_keys(raw, ("train", "model"), "train", hint)
    tcfg = _dataclass_from(TrainConfig, raw.get("train", {}), "train")
    # each train flag's dest is the field it sets; replace() checks the result
    flags = {f.name: vars(args)[f.name] for f in fields(TrainConfig)}
    tcfg = replace(tcfg, **{name: v for name, v in flags.items() if v is not None})
    # fusion and seed come from the train settings, sizes from the corpus
    widths = _dataclass_from(net.ModelConfig, raw.get("model", {}), "model", _MODEL_KEYS)
    artifacts = train_mod.train(args.corpus, args.out, tcfg, widths)
    print(
        f"best dev WER {artifacts.best_dev_wer:.4f}; "
        f"checkpoint at {artifacts.checkpoint_path}"
    )
    return 0


def cmd_eval(args) -> int:
    report, _ = train_mod.evaluate_corpus(
        args.checkpoint, args.corpus, split=args.split, width=args.beam_width, head=args.head
    )
    line = json.dumps(report.to_dict(), sort_keys=True)
    print(line)
    # deletion/insertion rates as percentages of the reference length
    print(
        f"wer {100 * report.wer:.1f}%  del/ins {100 * report.del_rate:.1f}/"
        f"{100 * report.ins_rate:.1f}%",
        file=sys.stderr,
    )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"wer_{args.split}.json").write_text(line + "\n")
    return 0


def cmd_decode(args) -> int:
    _, decodes = train_mod.evaluate_corpus(
        args.checkpoint, args.corpus, split=args.split, width=args.beam_width, head=args.head
    )
    lines = [f"{sid}\t{' '.join(glosses)}" for sid, glosses in decodes]
    text = "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"decodes_{args.split}.tsv").write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_align(args) -> int:
    if not args.out:
        raise UsageError("align requires --out")
    summary = train_mod.dump_alignments(args.checkpoint, args.corpus, args.split, args.out)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_suite(seed=args.seed, include_model=not args.skip_model)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 2


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "decode": cmd_decode,
    "align": cmd_align,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError:
        return 1
    try:
        return _COMMANDS[args.command](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
