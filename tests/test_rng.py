"""Tests for the deterministic PRNG.

The reference oracle below is a direct transliteration of the published
splitmix64 reference algorithm, kept independent of the implementation
under test. ``_unmix`` inverts its output mix, so a test can set the
counter that yields a chosen word.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridbench.rng import _CHUNK, _CROSSOVER, Rng, derive_seed

M64 = (1 << 64) - 1


def _ref_splitmix64_stream(seed, n):
    out = []
    x = seed & M64
    for _ in range(n):
        x = (x + 0x9E3779B97F4A7C15) & M64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        out.append(z ^ (z >> 31))
    return out


GOLDEN = 0x9E3779B97F4A7C15


def _unxorshift(z, shift):
    """Inverse of z ^ (z >> shift)."""
    x = z
    for _ in range(64 // shift):
        x = z ^ (x >> shift)
    return x


def _unmix(z):
    """The counter whose splitmix64 output is z."""
    z = _unxorshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & M64
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & M64
    return _unxorshift(z, 30)


@pytest.mark.parametrize("seed", [0, 1, 42, 10**18, 0xDEADBEEF])
def test_matches_reference_stream(seed):
    rng = Rng(seed)
    ref = _ref_splitmix64_stream(seed, 500)
    got = [rng.next_u64() for _ in range(500)]
    assert got == ref


def test_same_seed_same_stream():
    a, b = Rng(7), Rng(7)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]
    assert Rng(7).normals(50).tolist() == Rng(7).normals(50).tolist()


def test_random_unit_interval():
    rng = Rng(3)
    xs = [rng.random() for _ in range(10000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(np.mean(xs) - 0.5) < 0.02


def test_uniform_bounds():
    rng = Rng(11)
    xs = rng.uniforms(5000, 0.8, 1.2)
    assert xs.min() >= 0.8 and xs.max() < 1.2
    assert abs(xs.mean() - 1.0) < 0.01


def test_normal_moments():
    rng = Rng(5)
    xs = rng.normals(20000)
    assert abs(xs.mean()) < 0.03
    assert abs(xs.std() - 1.0) < 0.03


@pytest.mark.parametrize("seed", [0, 1, 0xDEADBEEF])
def test_bulk_uniforms_match_reference_stream(seed):
    # a count well past the crossover
    n = 5 * _CROSSOVER + 7
    expect = [(w >> 11) * 2.0**-53 for w in _ref_splitmix64_stream(seed, n)]
    assert Rng(seed).uniforms(n).tolist() == expect


def test_normal_box_muller_reference():
    # First normal must equal the Box-Muller transform of the first two
    # 53-bit uniforms from the raw stream.
    seed = 99
    raw = _ref_splitmix64_stream(seed, 2)
    u1 = (raw[0] >> 11) * 2.0**-53
    u2 = (raw[1] >> 11) * 2.0**-53
    expect = math.sqrt(-2 * math.log(u1)) * math.cos(2 * math.pi * u2)
    assert Rng(seed).normal() == pytest.approx(expect, abs=0, rel=1e-15)


def test_randrange_bounds_and_spread():
    rng = Rng(17)
    counts = np.zeros(7, dtype=int)
    for _ in range(7000):
        k = rng.randrange(7)
        assert 0 <= k < 7
        counts[k] += 1
    assert counts.min() > 800  # loose uniformity check


def test_shuffle_is_permutation_and_deterministic():
    a = list(range(20))
    b = list(range(20))
    Rng(123).shuffle(a)
    Rng(123).shuffle(b)
    assert a == b
    assert sorted(a) == list(range(20))
    assert a != list(range(20))


def _scalar_shuffle(rng, seq):
    """Reference Fisher-Yates: one randrange per swap."""
    for i in range(len(seq) - 1, 0, -1):
        j = rng.randrange(i + 1)
        seq[i], seq[j] = seq[j], seq[i]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 3 * _CROSSOVER))
@example(seed=1, n=_CROSSOVER)
@example(seed=1, n=_CROSSOVER + 1)  # the first bulk shuffle: _CROSSOVER swaps
@example(seed=5, n=1000)
def test_shuffle_equals_scalar_randrange_loop(seed, n):
    """On either side of the crossover, shuffle gives the permutation and
    leaves the state of one randrange call per swap."""
    bulk, scalar = Rng(seed), Rng(seed)
    got, want = list(range(n)), list(range(n))
    bulk.shuffle(got)
    _scalar_shuffle(scalar, want)
    assert got == want
    assert bulk.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("n", [322, 641, 512])
def test_shuffle_with_a_word_near_2_to_64_takes_the_scalar_path(n):
    """With _x = unmix(2**64 - 1) - GOLDEN the next word is 2**64 - 1, which
    randrange(n) rejects unless n is a power of two (512 here): either way
    the bulk path must hand over to the scalar loop and match it."""
    assert n - 1 >= _CROSSOVER  # the shuffle takes the bulk path
    bulk, scalar, probe = Rng(3), Rng(3), Rng(3)
    for rng in (bulk, scalar, probe):
        rng._x = (_unmix(M64) - GOLDEN) & M64
    assert probe.next_u64() == 2**64 - 1
    got, want = list(range(n)), list(range(n))
    bulk.shuffle(got)
    _scalar_shuffle(scalar, want)
    assert got == want
    assert bulk.next_u64() == scalar.next_u64()


def test_poisson_mean():
    rng = Rng(31)
    xs = [rng.poisson(2.5) for _ in range(4000)]
    assert abs(np.mean(xs) - 2.5) < 0.1
    assert Rng(1).poisson(0) == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(-(1 << 70), 1 << 70),
       st.lists(st.integers(-(1 << 70), 1 << 70), max_size=4),
       st.lists(st.integers(-(1 << 70), 1 << 70), max_size=4))
def test_derived_seeds_compose(seed, a, b):
    """A child of a child is the child of the joined keys, so one call with
    all keys replaces any chain of derivations."""
    assert derive_seed(derive_seed(seed, *a), *b) == derive_seed(seed, *a, *b)


def test_derived_children_differ():
    streams = {tuple(Rng(derive_seed(42, k)).normals(4).tolist()) for k in range(20)}
    assert len(streams) == 20
    assert tuple(Rng(derive_seed(42, 0)).normals(4)) != tuple(Rng(42).normals(4))
    assert derive_seed(42, 3, 9) != derive_seed(42, 9, 3)


def _scalar_normals(rng, n, mu, sigma):
    sigmas = sigma if np.ndim(sigma) else [sigma] * n
    return np.array([rng.normal(mu, s) for s in sigmas], dtype=float)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       n=st.integers(0, 3 * _CROSSOVER),
       spare=st.booleans(),
       array_sigma=st.booleans())
@example(seed=1, n=_CROSSOVER - 1, spare=False, array_sigma=False)
@example(seed=1, n=_CROSSOVER, spare=True, array_sigma=False)
@example(seed=1, n=_CROSSOVER + 1, spare=False, array_sigma=True)
@example(seed=1, n=_CROSSOVER + 1, spare=True, array_sigma=True)
@example(seed=2, n=4 * _CHUNK + 1, spare=True, array_sigma=True)  # several chunks
@example(seed=2, n=2 * _CHUNK + 1, spare=False, array_sigma=False)
def test_normals_equal_scalar_draws(seed, n, spare, array_sigma):
    """normals(n) on either side of the crossover gives the values and leaves
    the state (words and cached Box-Muller spare) of n normal() calls."""
    bulk, scalar = Rng(seed), Rng(seed)
    if spare:
        assert bulk.normal() == scalar.normal()
    sigma = Rng(seed ^ 1).uniforms(n, 0.5, 2.0) if array_sigma else 0.7
    got = bulk.normals(n, 0.25, sigma)
    assert got.dtype == float and got.shape == (n,)
    assert np.array_equal(got, _scalar_normals(scalar, n, 0.25, sigma))
    assert bulk.normal(1.0, 3.0) == scalar.normal(1.0, 3.0)
    assert bulk.next_u64() == scalar.next_u64()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 3 * _CROSSOVER))
def test_uniforms_equal_scalar_draws(seed, n):
    bulk, scalar = Rng(seed), Rng(seed)
    got = bulk.uniforms(n, -0.3, 1.9)
    assert np.array_equal(got, np.array([scalar.uniform(-0.3, 1.9) for _ in range(n)]))
    assert bulk.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("spare", [False, True])
def test_normals_redraw_zero_u1_as_normal_does(spare):
    """With _x = -GOLDEN the next counter is 0 and mix(0) = 0, so the first
    u1 is 0: normal() rejects it and draws again, and normals() must do the
    same."""
    bulk, scalar, probe = Rng(8), Rng(8), Rng(8)
    if spare:
        bulk.normal(), scalar.normal()
    for rng in (bulk, scalar, probe):
        rng._x = -GOLDEN & M64
    assert probe.next_u64() == 0
    n = 2 * _CROSSOVER + 1
    assert np.array_equal(bulk.normals(n), _scalar_normals(scalar, n, 0.0, 1.0))
    assert bulk.normal() == scalar.normal()
    assert bulk.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("n", [-1, -321])
def test_negative_draw_count_raises(n):
    # -321 is past the crossover in size, so a check made only on the bulk
    # path would be caught too
    assert -n > _CROSSOVER or n == -1
    rng = Rng(1)
    with pytest.raises(ValueError):
        rng.normals(n)
    with pytest.raises(ValueError):
        rng.uniforms(n)
    with pytest.raises(ValueError):
        rng.normals(n, 0.0, np.ones(3))


def test_zero_draws_and_sigma_length():
    rng = Rng(1)
    for empty in (rng.normals(0), rng.uniforms(0), rng.normals(0, 0.0, np.ones(0))):
        assert empty.dtype == float and empty.shape == (0,)
    assert rng.next_u64() == Rng(1).next_u64()
    with pytest.raises(ValueError, match="sigma"):
        rng.normals(4, 0.0, np.ones(3))
