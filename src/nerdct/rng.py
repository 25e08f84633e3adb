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

Lanes.  A draw of `count` words does not walk the stream one word at a
time.  It cuts the stream into ``L = ceil(count / B)`` consecutive blocks of
`B` words, `B` being the smallest power of two with ``B*B >= count`` and
``B*256 >= count`` (so ``L <= 256``, about ``sqrt(count)``, and draws of one
or two words use one lane), and steps the `L` lane states side by side in
``uint64`` arrays: lane `i` writes stream words ``i*B .. i*B + B - 1``.
The state transition (not the output function) is linear over GF(2), so
advancing a state by `n` steps is a 256x256 bit matrix ``T**n``, stored as
the images of the 256 single-bit states; the image of any state is the XOR
of the images of its set bits.  Lane 0 starts at the current state, and
lanes ``w .. 2w-1`` start at lanes ``0 .. w-1`` advanced by ``T**(w*B)``,
for ``w = 1, 2, 4, ...``.  As `B` is a power of two, every jump is one of
the matrices ``T**(2**k)``, which all draw sizes share; they are built
lazily by repeated squaring and cached at 8 KB each (about 0.2 MB once
draws of 2**20 words have been made).  The last block may run past
`count`: its surplus words are dropped and the generator keeps the state
the last lane had at the end of the draw.  The words, their order and the
state after the draw are exactly those of the one-word-at-a-time
recurrence.
"""

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_STATE_BITS = 256
_MAX_LANES = 256


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


def _check_count(count):
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")


def _step_lanes(s, out, last):
    """Step the lanes (columns of the (4, L) state `s`) in place.

    Lane i's k-th output goes to ``out[i, k]``, for ``out.shape[1]`` steps.
    Returns the last lane's state words after `last` steps.
    """
    s0, s1, s2, s3 = s
    x = np.empty_like(s0)
    t = np.empty_like(s0)
    for k in range(out.shape[1]):
        o = out[:, k]
        np.add(s0, s3, out=x)
        np.left_shift(x, 23, out=o)
        x >>= 41
        o |= x
        o += s0
        np.left_shift(s1, 17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, 45, out=x)
        s3 >>= 19
        s3 |= x
        if k + 1 == last:
            final = tuple(int(w) for w in s[:, -1])
    return final


def _apply(jump, s):
    """The (4, L) lane states `s` advanced by the jump matrix `jump`.

    Column j of the (4, 256) `jump` holds the image of the state with only
    bit j set, so the image of `s` is the XOR of the columns of its set bits
    (bit j of a state is bit j % 64 of word j // 64).
    """
    octets = np.ascontiguousarray(s.T, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(octets, axis=1, bitorder="little").T
    return np.bitwise_xor.reduce(jump.T[:, :, None] * bits[:, None, :], axis=0)


@functools.cache
def _jump(k):
    """The jump matrix of 2**k steps (see `_apply`), built lazily and cached."""
    if k > 0:
        half = _jump(k - 1)
        return _apply(half, half)
    bit = np.arange(_STATE_BITS)
    units = np.zeros((4, _STATE_BITS), dtype=np.uint64)
    units[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
    _step_lanes(units, np.empty((_STATE_BITS, 1), dtype=np.uint64), 1)
    return units


def _lane_starts(state, block, lanes):
    """(4, lanes) states: `state` advanced by 0, block, 2*block, ... steps."""
    s = np.empty((4, lanes), dtype=np.uint64)
    s[:, 0] = state
    power = block.bit_length() - 1
    width = 1
    while width < lanes:
        n = min(width, lanes - width)
        s[:, width:width + n] = _apply(_jump(power), s[:, :n])
        width *= 2
        power += 1
    return s


def _generate(state, count):
    """The next `count` words after `state` (uint64 array) and the new state."""
    if count == 0:
        return np.empty(0, dtype=np.uint64), state
    block = 1
    while block * block < count or block * _MAX_LANES < count:
        block *= 2
    lanes = -(-count // block)
    out = np.empty((lanes, block), dtype=np.uint64)
    final = _step_lanes(_lane_starts(state, block, lanes), out,
                        count - (lanes - 1) * block)
    return out.reshape(-1)[:count], final


class Xoshiro256PP:
    """xoshiro256++ stream seeded through splitmix64."""

    def __init__(self, seed):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self._s = tuple(splitmix64_stream(int(seed), 4))

    def _words(self, count):
        _check_count(count)
        words, self._s = _generate(self._s, count)
        return words

    def raw(self, count):
        """Next `count` raw 64-bit outputs as Python ints."""
        return self._words(count).tolist()

    def uniforms(self, count):
        """float64 array of `count` uniforms in [0, 1)."""
        return (self._words(count) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    def normals(self, count):
        """float64 array of `count` standard normal draws (Box-Muller)."""
        _check_count(count)
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
        for n in shape:
            _check_count(n)
        return self.normals(int(np.prod(shape))).reshape(shape)

    def integers(self, low, high, count):
        """`count` ints uniform over [low, high] via scaled uniforms."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        idx = np.floor(self.uniforms(count) * span).astype(np.int64)
        return (low + np.minimum(idx, span - 1)).tolist()
