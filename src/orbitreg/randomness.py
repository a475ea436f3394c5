"""Seeded random streams and the fixed Gaussian sampling transform.

Every sampler in the library takes an explicit ``numpy.random.Generator``;
there is no hidden global state.  Gaussian draws go through the Marsaglia
polar transform implemented here (rather than the generator's built-in
normal method) so that a given seed produces the same stream from nothing
but uniform draws, which keeps seeds portable across implementations.
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, *keys: int | str) -> np.random.Generator:
    """Derive an independent generator from a root seed and a key path.

    String keys are hashed with CRC-32 so that stream identities are stable
    across runs and processes.  Identical ``(seed, keys)`` always yield the
    same stream, which is what makes parallel and serial benchmark schedules
    produce identical reports.
    """
    words = [int(seed) & 0xFFFFFFFF]
    for k in keys:
        if isinstance(k, str):
            words.append(zlib.crc32(k.encode("utf-8")))
        else:
            words.append(int(k) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(words))


def polar_gaussian(rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` standard normal deviates via the Marsaglia polar method.

    Pairs (u, v) are drawn uniformly on [-1, 1)^2 and accepted when
    0 < s = u^2 + v^2 < 1; each accepted pair yields two deviates
    u * sqrt(-2 ln s / s) and v * sqrt(-2 ln s / s).  Acceptance is checked
    in vectorised batches; surplus deviates from the last batch are dropped.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    out = np.empty(size, dtype=np.float64)
    filled = 0
    while filled < size:
        need = size - filled
        # pi/4 acceptance rate; 1.35x oversampling keeps the loop short.
        batch = max(int(need * 1.35) + 16, 32)
        u = rng.random(batch) * 2.0 - 1.0
        v = rng.random(batch) * 2.0 - 1.0
        s = u * u + v * v
        ok = (s > 0.0) & (s < 1.0)
        factor = np.sqrt(-2.0 * np.log(s[ok]) / s[ok])
        pair = np.empty(2 * int(ok.sum()), dtype=np.float64)
        pair[0::2] = u[ok] * factor
        pair[1::2] = v[ok] * factor
        take = min(pair.size, need)
        out[filled : filled + take] = pair[:take]
        filled += take
    return out
