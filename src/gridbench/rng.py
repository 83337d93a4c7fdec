"""Deterministic pseudo-random streams for reproducible experiments.

Everything stochastic in this package draws from :class:`Rng`, a
counter-based splitmix64 generator (Steele, Lea and Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014), fully specified here, so a
(config, seed) pair reproduces bit-identical streams anywhere. Word ``k``
is a fixed bijective mix of ``seed + k * _GOLDEN`` (mod 2**64), so ``n``
words at once are a few whole-array operations on uint64 numpy arrays.

Bulk draws. ``normals(n)`` and ``uniforms(n)`` return exactly what ``n``
calls of ``normal()`` or ``uniform()`` would return, and leave the state
those calls would leave, cached Box-Muller spare included. From
``_CROSSOVER`` draws on they take their words from ``_bulk_words``, and
Box-Muller runs in numpy except for ``log``, ``cos`` and ``sin``, which
stay on ``math``: ``np.log`` is not ``math.log`` in the last bit for some
inputs. ``shuffle`` takes its words the same way from ``_CROSSOVER`` swaps
on, and falls back to the scalar loop from its start state in the rare
case that ``randrange`` might have rejected one.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(x: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new state, output word)."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    z = z ^ (z >> 31)
    return x, z


def derive_seed(seed: int, *keys: int) -> int:
    """Seed of the child stream for (seed, keys), for ``Rng(derive_seed(...))``.

    Children depend only on (seed, keys), never on any stream's draws, so
    concurrent consumers stay reproducible. Keys compose:
    ``derive_seed(derive_seed(s, *a), *b) == derive_seed(s, *a, *b)``.
    """
    x = seed & _MASK64
    for k in keys:
        x ^= (k & _MASK64) * _GOLDEN & _MASK64
        x, out = _splitmix64(x)
        x ^= out
    return x


class Rng:
    """splitmix64 generator whose state is one 64-bit counter ``_x``.

    ``_x`` starts at the seed (mod 2**64) and each word adds the odd
    ``_GOLDEN`` to it, so every seed gives a stream of period 2**64.
    """

    __slots__ = ("_x", "_spare_normal")

    def __init__(self, seed: int):
        self._x = seed & _MASK64
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        self._x, z = _splitmix64(self._x)
        return z

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Gaussian draw via Box-Muller; the paired value is cached."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return mu + sigma * z
        # u1 must be strictly positive for the log
        u1 = self.random()
        while u1 <= 0.0:
            u1 = self.random()
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = r * math.sin(theta)
        return mu + sigma * r * math.cos(theta)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates, swapping item i with item randrange(i + 1)
        for i from the last down to 1.

        From ``_CROSSOVER`` swaps on the n - 1 words come from the bulk path
        and each j is ``word % (i + 1)``, which is what ``randrange`` returns
        for any word below 2**64 - n: its rejection limit for a bound k is
        2**64 - (2**64 % k), above 2**64 - k. If a word is at or above
        2**64 - n (probability below n**2 / 2**64), the state is restored
        and the scalar loop runs instead.
        """
        n = len(seq)
        if n - 1 >= _CROSSOVER:
            start = self._x
            words = self._bulk_words(n - 1)
            if words.max() < _MASK64 + 1 - n:
                words %= np.arange(n, 1, -1, dtype=np.uint64)
                for i, j in zip(range(n - 1, 0, -1), words.tolist()):
                    seq[i], seq[j] = seq[j], seq[i]
                return
            self._x = start
        for i in range(n - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def poisson(self, lam: float) -> int:
        """Knuth's multiplication method; fine for the small rates used here."""
        if lam < 0:
            raise ValueError("poisson rate must be nonnegative")
        if lam == 0:
            return 0
        threshold = math.exp(-lam)
        k = 0
        p = 1.0
        while True:
            p *= self.random()
            if p <= threshold:
                return k
            k += 1

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """``n`` draws of ``uniform(lo, hi)``, bit-identical to calling it ``n`` times."""
        _check_count(n)
        if n < _CROSSOVER:
            return np.array([self.uniform(lo, hi) for _ in range(n)], dtype=float)
        return lo + (hi - lo) * ((self._bulk_words(n) >> 11) * 2.0**-53)

    def normals(self, n: int, mu: float = 0.0,
                sigma: float | np.ndarray = 1.0) -> np.ndarray:
        """``n`` draws of ``normal(mu, sigma)``, bit-identical to calling it ``n`` times.

        ``sigma`` is a scalar or an array of ``n`` values, one per draw.
        """
        _check_count(n)
        if np.ndim(sigma) != 0 and len(sigma) != n:
            raise ValueError(f"sigma holds {len(sigma)} values for {n} draws")
        start = (self._x, self._spare_normal)
        if n >= _CROSSOVER:
            out = self._bulk_normals(n, mu, np.broadcast_to(sigma, (n,)))
            if out is not None:
                return out
            # a zero u1 is redrawn: take the scalar path from the start state
            self._x, self._spare_normal = start
        if np.ndim(sigma) == 0:
            return np.array([self.normal(mu, sigma) for _ in range(n)], dtype=float)
        return np.array([self.normal(mu, s) for s in sigma], dtype=float)

    def _bulk_normals(self, n: int, mu: float, sigma: np.ndarray) -> np.ndarray | None:
        """Box-Muller over bulk words, ``_CHUNK`` pairs at a time; None if a u1 is zero."""
        out = np.empty(n)
        first = 0
        if self._spare_normal is not None:
            out[0] = mu + sigma[0] * self._spare_normal
            first = 1
        for lo in range(first, n, 2 * _CHUNK):
            hi = min(lo + 2 * _CHUNK, n)
            pairs = (hi - lo + 1) // 2
            words = self._bulk_words(2 * pairs) >> 11
            if not words[0::2].all():
                return None
            u = words * 2.0**-53
            # math, not numpy: np.log differs from math.log in the last bit
            r = np.sqrt(-2.0 * _mapped(math.log, u[0::2]))
            theta = (2.0 * math.pi) * u[1::2]
            cos, sin = _mapped(math.cos, theta), _mapped(math.sin, theta)
            # the rounding order of normal(): mu + (sigma*r)*cos, mu + sigma*(r*sin)
            out[lo:hi:2] = mu + (sigma[lo:hi:2] * r) * cos
            n_sin = (hi - lo) // 2
            out[lo + 1:hi:2] = mu + sigma[lo + 1:hi:2] * (r[:n_sin] * sin[:n_sin])
        self._spare_normal = float(r[-1] * sin[-1]) if n_sin < pairs else None
        return out

    def _bulk_words(self, n: int) -> np.ndarray:
        """The next ``n`` words of the stream, leaving the state ``n`` steps on.

        Word k (from 1) is the mix of ``_x + k * _GOLDEN``: ``_splitmix64``
        on a uint64 array, whose arithmetic wraps mod 2**64 as its masks do.
        """
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._x)
        self._x = (self._x + n * _GOLDEN) & _MASK64
        z ^= z >> 30
        z *= np.uint64(_MIX1)
        z ^= z >> 27
        z *= np.uint64(_MIX2)
        z ^= z >> 31
        return z


def _check_count(n: int) -> None:
    if n < 0:
        raise ValueError("draw count must be nonnegative")


def _mapped(fn, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=len(x))


# Draws from which normals, uniforms and shuffle take the bulk path. On a
# 2-vCPU x86 host (best of 7 timings per count) bulk beat scalar from about
# 16 draws for uniforms and shuffle and from about 32 for normals.
_CROSSOVER = 32
# Box-Muller pairs per bulk step of normals, which bounds its temporaries.
_CHUNK = 8192
