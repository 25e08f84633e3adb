"""Deterministic pseudo-random streams.

Every stochastic ingredient of the toolkit (volume initialization, noise
injection, resampling noise, weight init, training draws) is fed from the
generator below so that runs are reproducible bit-for-bit from a single
integer seed.  The algorithm is pinned down completely:

* state seeding: the four 64-bit state words of xoshiro256++ are the first
  four outputs of splitmix64 started at the seed.
* splitmix64: state += 0x9E3779B97F4A7C15; the output mixes the state with
  ``(z ^ z>>30) * 0xBF58476D1CE4E5B9``, ``(z ^ z>>27) * 0x94D049BB133111EB``,
  ``z ^ z>>31``.
* xoshiro256++: output ``rotl(s0 + s3, 23) + s0`` followed by the linear
  state transition with shifts 17 and 45.
* uniforms: the top 53 bits map to a float64 in [0, 1), ``(x >> 11) * 2**-53``.
* normals: consecutive uniform pairs (u1, u2) give the Box-Muller pair
  ``r*cos(2*pi*u2), r*sin(2*pi*u2)`` with ``r = sqrt(-2*log1p(-u1))``
  (log1p keeps 1 - u1 exact near zero); pairs are emitted in order.  A
  request for an odd count discards the trailing sine half but still
  advances the stream by the full pair.
"""

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64_stream(seed, count):
    """First `count` splitmix64 outputs for the given 64-bit seed."""
    state = seed & _MASK64
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


class Xoshiro256PP:
    """xoshiro256++ stream seeded through splitmix64."""

    def __init__(self, seed):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self._s = tuple(splitmix64_stream(int(seed), 4))

    def raw(self, count):
        """Next `count` raw 64-bit outputs as Python ints."""
        s0, s1, s2, s3 = self._s
        out = [0] * count
        for i in range(count):
            x = (s0 + s3) & _MASK64
            out[i] = (((x << 23) & _MASK64 | (x >> 41)) + s0) & _MASK64
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) & _MASK64) | (s3 >> 19)
        self._s = (s0, s1, s2, s3)
        return out

    def uniforms(self, count):
        """float64 array of `count` uniforms in [0, 1)."""
        words = np.array(self.raw(count), dtype=np.uint64)
        return (words >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    def normals(self, count):
        """float64 array of `count` standard normal draws (Box-Muller)."""
        pairs = (count + 1) // 2
        u = self.uniforms(2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        angle = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:count]

    def normal_array(self, shape):
        """Standard normal array of the given shape, filled in C order."""
        shape = tuple(int(n) for n in np.atleast_1d(shape))
        return self.normals(int(np.prod(shape))).reshape(shape)

    def integers(self, low, high, count):
        """`count` ints uniform over [low, high] via scaled uniforms."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        idx = np.floor(self.uniforms(count) * span).astype(np.int64)
        return (low + np.minimum(idx, span - 1)).tolist()
