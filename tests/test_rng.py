"""Golden-vector, oracle and statistical tests for the deterministic PRNG stack."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nerdct import rng as rng_module
from nerdct.rng import Xoshiro256PP, splitmix64_stream

# First five splitmix64 outputs for seeds 0 and 42, frozen from an
# independent C implementation of the published reference code.
SPLITMIX_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
)
SPLITMIX_SEED42 = (
    0xBDD732262FEB6E95,
    0x28EFE333B266F103,
    0x47526757130F9F52,
    0x581CE1FF0E4AE394,
    0x09BC585A244823F2,
)

# First eight xoshiro256++ outputs after splitmix64 state expansion.
XOSHIRO_GOLDEN = {
    0: (
        0x53175D61490B23DF,
        0x61DA6F3DC380D507,
        0x5C0FDF91EC9A7BFC,
        0x02EEBF8C3BBE5E1A,
        0x7ECA04EBAF4A5EEA,
        0x0543C37757F08D9A,
        0xDB7490C75AB5026E,
        0xD87343E6464BC959,
    ),
    42: (
        0xD0764D4F4476689F,
        0x519E4174576F3791,
        0xFBE07CFB0C24ED8C,
        0xB37D9F600CD835B8,
        0xCB231C3874846A73,
        0x968D9F004E50DE7D,
        0x201718FF221A3556,
        0x9AE94E070ED8CB46,
    ),
    123456789: (
        0x99E6BD73ED3F23B6,
        0xC23A804D68730D49,
        0x650E013620979041,
        0x6F44F98493C7F9C3,
        0x5B1C1FD40785B794,
        0x28C8C782A84FA378,
        0xF29D87E542B3D1D4,
        0x02911A10C9492463,
    ),
}


def test_splitmix64_golden():
    assert tuple(splitmix64_stream(0, 5)) == SPLITMIX_SEED0
    assert tuple(splitmix64_stream(42, 5)) == SPLITMIX_SEED42


def test_xoshiro_golden():
    for seed, expected in XOSHIRO_GOLDEN.items():
        rng = Xoshiro256PP(seed)
        assert tuple(rng.raw(8)) == expected


def test_raw_is_sequential():
    # raw(3) then raw(5) must equal raw(8) from a fresh generator.
    a = Xoshiro256PP(7)
    first = list(a.raw(3)) + list(a.raw(5))
    b = Xoshiro256PP(7)
    assert first == list(b.raw(8))


def test_uniforms_match_raw_bits():
    rng = Xoshiro256PP(3)
    bits = Xoshiro256PP(3).raw(64)
    u = rng.uniforms(64)
    expected = np.array([(b >> 11) * 2.0**-53 for b in bits])
    assert np.array_equal(u, expected)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_normals_pair_structure():
    # Both normals of a Box-Muller pair come from the same two uniforms,
    # so asking for 2k or 2k+1 values must consume the same uniform count.
    even = Xoshiro256PP(11)
    even.normals(6)
    odd = Xoshiro256PP(11)
    odd.normals(5)
    assert list(even.raw(4)) == list(odd.raw(4))

    # Leading values of an odd draw equal the even draw prefix.
    a = Xoshiro256PP(12).normals(7)
    b = Xoshiro256PP(12).normals(8)
    assert np.array_equal(a, b[:7])


def test_normals_formula():
    rng = Xoshiro256PP(5)
    u = Xoshiro256PP(5).uniforms(2)
    pair = rng.normals(2)
    r = math.sqrt(-2.0 * math.log1p(-u[0]))
    assert pair[0] == r * math.cos(2.0 * math.pi * u[1])
    assert pair[1] == r * math.sin(2.0 * math.pi * u[1])


def test_normal_array_shape_and_order():
    rng = Xoshiro256PP(9)
    arr = rng.normal_array((3, 4, 5))
    flat = Xoshiro256PP(9).normals(60)
    assert arr.shape == (3, 4, 5)
    assert np.array_equal(arr.ravel(order="C"), flat)


def test_normals_moments():
    # 200k samples: mean within 0.01, variance within 0.02 of standard normal.
    x = Xoshiro256PP(2024).normals(200_000)
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0) < 0.02
    # Skewness and excess kurtosis near zero.
    z = (x - x.mean()) / x.std()
    assert abs(np.mean(z**3)) < 0.05
    assert abs(np.mean(z**4) - 3.0) < 0.1


def test_uniform_moments():
    u = Xoshiro256PP(77).uniforms(200_000)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_integers_range_and_determinism():
    rng = Xoshiro256PP(31)
    draws = np.array(rng.integers(1, 1000, 10_000))
    assert draws.min() >= 1 and draws.max() <= 1000
    again = np.array(Xoshiro256PP(31).integers(1, 1000, 10_000))
    assert np.array_equal(draws, again)
    # Rough uniformity: each decile within 20 percent of expectation.
    hist, _ = np.histogram(draws, bins=10, range=(1, 1001))
    assert np.all(np.abs(hist - 1000) < 200)
    # Degenerate single-value range.
    assert Xoshiro256PP(0).integers(7, 7, 3) == [7, 7, 7]


def test_distinct_seeds_distinct_streams():
    a = Xoshiro256PP(0).raw(4)
    b = Xoshiro256PP(1).raw(4)
    assert list(a) != list(b)


_MASK64 = (1 << 64) - 1


def scalar_words(state, count):
    """Oracle: `count` xoshiro256++ words from `state`, one at a time.

    Returns the words as Python ints and the state after them.
    """
    s0, s1, s2, s3 = state
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
    return out, (s0, s1, s2, s3)


def test_oracle_matches_golden():
    for seed, expected in XOSHIRO_GOLDEN.items():
        words, _ = scalar_words(tuple(splitmix64_stream(seed, 4)), 8)
        assert tuple(words) == expected


@pytest.mark.parametrize("count", [2**17, 2**17 + 1, 200_003])
def test_lane_words_match_oracle_on_large_draws(count):
    # 256 full lanes of 512 words; one word more moves to 129 lanes of
    # 1024, the last one word long; 196 lanes of 1024.
    rng = Xoshiro256PP(2**63 + 5)
    words, state = scalar_words(rng._s, count)
    assert rng.raw(count) == words
    assert rng._s == state


_PRIMES = (2, 3, 5, 7, 31, 97, 257, 4099, 65521)
_DRAW_SIZES = st.one_of(
    st.sampled_from((0, 1, 4096, 11648, 65536) + _PRIMES),
    st.integers(0, 3000).map(lambda n: 2 * n + 1),
)


@settings(max_examples=25)
@given(seed=st.integers(0, 2**64 - 1),
       sizes=st.lists(_DRAW_SIZES, min_size=1, max_size=4))
@example(seed=0, sizes=[4096, 11648, 65536])
@example(seed=2**64 - 1, sizes=[65521, 0, 1, 4099, 65536, 2])
@example(seed=42, sizes=[3, 257, 11648, 97])
def test_lane_words_match_oracle(seed, sizes):
    rng = Xoshiro256PP(seed)
    state = rng._s
    for count in sizes:
        words, state = scalar_words(state, count)
        assert rng.raw(count) == words
        assert rng._s == state


def test_jump_cache_stays_small():
    Xoshiro256PP(1).raw(2**20)
    cached = rng_module._jump.cache_info().currsize
    assert cached >= 20
    assert sum(rng_module._jump(k).nbytes for k in range(cached)) <= 256 * 1024


@pytest.mark.parametrize("draw", [
    lambda rng: rng.raw(-1),
    lambda rng: rng.uniforms(-1),
    lambda rng: rng.normals(-1),
    lambda rng: rng.normals(-3),
    lambda rng: rng.normal_array((-1,)),
    lambda rng: rng.normal_array((2, -3)),
    lambda rng: rng.normal_array((-2, -3)),
    lambda rng: rng.integers(0, 5, -1),
], ids=["raw", "uniforms", "normals-1", "normals-3", "normal_array",
        "normal_array-2d", "normal_array-two-negative", "integers"])
def test_negative_counts_raise(draw):
    rng = Xoshiro256PP(8)
    state = rng._s
    with pytest.raises(ValueError, match=">= 0"):
        draw(rng)
    assert rng._s == state
