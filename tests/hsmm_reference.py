"""Reference pieces for the segment-draw tests.

``blocked_sample_segments_loop_reference`` is the blocked (z, D) draw as a
Python loop that calls ``rng.random()`` once per categorical draw; the
shipped sampler, which walks a pre-drawn block in
``_kernels.hsmm_forward_sample``, must return the same paths and leave the
generator in the same state. Importing this module builds nothing and has no
side effects.
"""

import numpy as np

from powersplit.distributions import categorical_sample_logits
from powersplit.hsmm import (
    SegmentPath,
    _log,
    _sample_censored_duration,
    duration_tables,
    emission_loglik,
    hsmm_backward_messages,
)


def blocked_sample_segments_loop_reference(params, y, rng, messages=None, dmax=None):
    """The blocked segment draw, one ``categorical_sample_logits`` call per
    state and per duration."""
    y = np.asarray(y, dtype=float)
    T = len(y)
    window = T if dmax is None else min(dmax, T)
    if messages is None:
        messages = hsmm_backward_messages(params, y, dmax)
    B, Bstar = messages
    loglik = emission_loglik(params, y)
    logdur, logtail = duration_tables(params.durations, window)
    cum = np.vstack([np.zeros((1, params.J)), np.cumsum(loglik, axis=0)])
    logpibar = _log(params.pi_bar)

    z: list[int] = []
    D: list[int] = []
    t = 0
    while t < T:
        if not z:
            j = categorical_sample_logits(rng, _log(params.init) + Bstar[0])
        else:
            j = categorical_sample_logits(rng, logpibar[z[-1]] + Bstar[t])
        span = min(T - t, window)
        ds = np.arange(1, span + 1)
        dur_logits = B[t + ds, j] + logdur[j, ds - 1] + (cum[t + ds, j] - cum[t, j])
        censor_logit = logtail[j, span] + (cum[T, j] - cum[t, j])
        pick = categorical_sample_logits(rng, np.append(dur_logits, censor_logit))
        if pick < span:
            d = int(ds[pick])
        else:
            d = _sample_censored_duration(params.durations[j], span, rng)
        z.append(j)
        D.append(d)
        t += d
    return SegmentPath(np.array(z), np.array(D), T)
