"""Desk-scale multi-modal continuous sign language recognition toolkit.

Sub-modules:
    ndgrad    -- float64 arrays with reverse-mode automatic differentiation
    container -- binary tensor container ("SVTC") shared by corpus/checkpoints
    ctc       -- CTC loss, prefix-beam decoding, WER scoring
    align     -- DTW frame-to-gloss alignment and segment/token pooling
    contrast  -- gloss-level and sentence-level visual-textual losses
    net       -- three-branch model, fusion, pyramid heads, adapters
    synthdata -- synthetic weakly-labeled corpus, heatmaps, augmentations
    train     -- Adam/cosine training loop and evaluation
    cli       -- command-line surface (gen-data/train/eval/decode/align/...)
"""

__version__ = "0.1.0"
