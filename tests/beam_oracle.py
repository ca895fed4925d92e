"""Reference decoders the vectorized beam search is checked against.

The scalar prefix beam search loops in Python over every class of every
surviving prefix and ranks the whole candidate dict each frame; equivalence
tests require exact list equality with :func:`svtc.ctc.beam_decode`.  Greedy
decoding is the width-1 limit of both.
"""

import math

import numpy as np

from svtc.ctc import BLANK, _lae, collapse

_NEG_INF = -math.inf


def reference_beam_decode(stream, width=5):
    """Highest-scoring prefix, ties broken toward the smaller one."""
    logp = stream.log_matrix()
    T, C = logp.shape
    beams = {(): (0.0, _NEG_INF)}
    for t in range(T):
        row = logp[t]
        nxt = {}
        for prefix, (pb, pnb) in beams.items():
            total = _lae(pb, pnb)
            # stay on the same prefix via a blank frame
            b, nb = nxt.get(prefix, (_NEG_INF, _NEG_INF))
            nxt[prefix] = (_lae(b, total + row[BLANK]), nb)
            last = prefix[-1] if prefix else None
            for c in range(1, C):
                lp_c = row[c]
                if c == last:
                    # repeated frame extends the existing symbol...
                    b, nb = nxt.get(prefix, (_NEG_INF, _NEG_INF))
                    nxt[prefix] = (b, _lae(nb, pnb + lp_c))
                    # ...while a blank-separated repeat emits a new one
                    ext = prefix + (c,)
                    b, nb = nxt.get(ext, (_NEG_INF, _NEG_INF))
                    nxt[ext] = (b, _lae(nb, pb + lp_c))
                else:
                    ext = prefix + (c,)
                    b, nb = nxt.get(ext, (_NEG_INF, _NEG_INF))
                    nxt[ext] = (b, _lae(nb, total + lp_c))
        if len(nxt) > width:
            ranked = sorted(nxt.items(), key=lambda kv: (-_lae(*kv[1]), kv[0]))
            nxt = dict(ranked[:width])
        beams = nxt
    best = min(beams.items(), key=lambda kv: (-_lae(*kv[1]), kv[0]))
    return list(best[0])


def greedy_decode(stream):
    """Per-frame argmax (ties to the lower class id), collapsed."""
    ids = np.argmax(stream.prob_matrix(), axis=1)
    return collapse(int(c) for c in ids)
