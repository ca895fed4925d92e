"""Train, decode and align a fixed set of small runs; print every artifact's sha256.

Run against the source tree under test:

    PYTHONPATH=<tree>/src python3 tools/artifact_digests.py OUT

OUT must not exist yet.  The script writes two 60-sample corpora (seed 3 of
the default shape, seed 4 with heatmaps), trains five variants for 3 epochs
with 1 warm-up epoch at seed 0 (mlp, conv, attn and none at batch 8 on the
first corpus, attn at batch 1 on the heatmap corpus), decodes the test split
with the averaged and the joint head, aligns the test split, and prints one
sorted ``sha256  path`` line per artifact, paths relative to OUT.  Two trees
that compute the same bits print the same lines, so ``diff`` of two outputs
shows exactly which artifacts a change moved.

Only library calls that have kept their signatures are used (fusion goes
through ``TrainConfig``), so the script runs on older trees too.
"""

import hashlib
import os
import sys
from pathlib import Path

# one BLAS thread before numpy loads, as the CLI and the benchmark pin it
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from svtc import synthdata, train  # noqa: E402

COUNTS = {"n_train": 40, "n_dev": 10, "n_test": 10}
# (run name, corpus name, fusion, batch size)
RUNS = (
    ("mlp", "corpus", "mlp", 8),
    ("conv", "corpus", "conv", 8),
    ("attn", "corpus", "attn", 8),
    ("none", "corpus", "none", 8),
    ("attn-b1-heatmap", "corpus-heatmap", "attn", 1),
)


def build(out: Path) -> list:
    """Write every corpus and run under ``out``; return the artifact paths."""
    synthdata.generate_corpus(synthdata.GenConfig(seed=3, **COUNTS), out / "corpus")
    synthdata.generate_corpus(
        synthdata.GenConfig(seed=4, use_heatmaps=True, **COUNTS), out / "corpus-heatmap"
    )
    artifacts = []
    for name, corpus_name, fusion, batch_size in RUNS:
        corpus, run = out / corpus_name, out / "runs" / name
        tcfg = train.TrainConfig(
            epochs=3, align_warmup_epochs=1, seed=0, fusion=fusion, batch_size=batch_size
        )
        art = train.train(corpus, run, tcfg)
        base = Path(art.checkpoint_path)
        artifacts += [Path(art.metrics_path), base.with_suffix(".svt"), base.with_suffix(".json")]
        for head in ("avg", "c"):
            _, decodes = train.evaluate_corpus(base, corpus, split="test", head=head)
            path = run / f"decodes_test_{head}.tsv"
            path.write_text("".join(f"{sid}\t{' '.join(g)}\n" for sid, g in decodes))
            artifacts.append(path)
        train.dump_alignments(base, corpus, "test", run / "align")
        artifacts += [run / "align" / f for f in ("align.jsonl", "similarity.svt", "summary.json")]
    return artifacts


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: artifact_digests.py OUT", file=sys.stderr)
        return 1
    out = Path(argv[1])
    if out.exists():
        print(f"error: {out} already exists", file=sys.stderr)
        return 1
    for path in sorted(p.relative_to(out) for p in build(out)):
        print(f"{hashlib.sha256((out / path).read_bytes()).hexdigest()}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
