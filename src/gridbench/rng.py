"""Deterministic pseudo-random streams for reproducible experiments.

Everything stochastic in this package draws from :class:`Rng`, a
xoshiro256** generator seeded through splitmix64 expansion. The algorithm
is fully specified here (no dependence on platform or library internals),
so a (config, seed) pair reproduces bit-identical streams anywhere.

Bulk draws. ``normals(n)`` and ``uniforms(n)`` return exactly what ``n``
calls of ``normal()`` or ``uniform()`` would return, and leave the
generator in the state those calls would leave, cached Box-Muller spare
included. From ``_CROSSOVER`` draws on they get their 64-bit words from a
lane-parallel path. The xoshiro256** state update is linear over GF(2), so
a jump of ``_STRIDE`` words is a fixed 256x256 bit matrix, built once per
process. Lane ``i`` starts ``i * _STRIDE`` words into the stream; the lanes
step together in uint64 numpy arrays, and their words are interleaved back
into stream order. Blackman and Vigna, "Scrambled linear pseudorandom
number generators", ACM TOMS 47(4), 2021, give the jump construction.
Box-Muller then runs in numpy except for ``log``, ``cos`` and ``sin``,
which stay on ``math``: ``np.log`` is not ``math.log`` in the last bit for
some inputs. ``shuffle`` takes its words the same way from ``_CROSSOVER``
swaps on, and falls back to the scalar loop from its start state in the
rare case that ``randrange`` might have rejected one. Below the crossover,
deriving the lanes and stepping them costs more than the scalar loop, so
short draws stay scalar.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new state, output word)."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return x, z


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def derive_seed(seed: int, *keys: int) -> int:
    """Child seed for (seed, keys), identical to ``Rng(seed).spawn(*keys)``."""
    x = seed & _MASK64
    for k in keys:
        x ^= (k & _MASK64) * _GOLDEN & _MASK64
        x, out = _splitmix64(x)
        x ^= out
    return x


class Rng:
    """xoshiro256** generator with splitmix64 seeding.

    The 256-bit state is expanded from the integer seed by four splitmix64
    steps, which guarantees a nonzero state for every seed.
    """

    __slots__ = ("_root", "_s0", "_s1", "_s2", "_s3", "_spare_normal")

    def __init__(self, seed: int):
        self._root = seed & _MASK64
        x = self._root
        x, self._s0 = _splitmix64(x)
        x, self._s1 = _splitmix64(x)
        x, self._s2 = _splitmix64(x)
        x, self._s3 = _splitmix64(x)
        self._spare_normal: float | None = None

    def spawn(self, *keys: int) -> "Rng":
        """Derive an independent child stream from the root seed and keys.

        Children depend only on (root seed, keys), never on how many draws
        the parent has made, so concurrent consumers stay reproducible.
        """
        return Rng(derive_seed(self._root, *keys))

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

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
            start = (self._s0, self._s1, self._s2, self._s3)
            words = self._bulk_words(n - 1)
            if words.max() < _MASK64 + 1 - n:
                words %= np.arange(n, 1, -1, dtype=np.uint64)
                for i, j in zip(range(n - 1, 0, -1), words.tolist()):
                    seq[i], seq[j] = seq[j], seq[i]
                return
            self._s0, self._s1, self._s2, self._s3 = start
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
        start = (self._s0, self._s1, self._s2, self._s3, self._spare_normal)
        if n >= _CROSSOVER:
            out = self._bulk_normals(n, mu, np.broadcast_to(sigma, (n,)))
            if out is not None:
                return out
            # a zero u1 is redrawn: take the scalar path from the start state
            self._s0, self._s1, self._s2, self._s3, self._spare_normal = start
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

        Lane ``i`` starts ``i * _STRIDE`` words into the stream and makes up
        to ``_STRIDE`` steps; all lanes step together in uint64 arrays.
        """
        n_lanes = -(-n // _STRIDE)
        steps = min(n, _STRIDE)
        last = n - (n_lanes - 1) * _STRIDE  # steps the last lane needs
        lanes = _lane_starts((self._s0, self._s1, self._s2, self._s3), n_lanes)
        s0, s1, s2, s3 = (np.ascontiguousarray(col) for col in lanes.T)
        out = np.empty((steps, n_lanes), dtype=np.uint64)
        t = np.empty(n_lanes, dtype=np.uint64)
        for k in range(steps):
            row = out[k]
            np.multiply(s1, 5, out=t)
            np.left_shift(t, 7, out=row)
            t >>= 57
            row |= t
            row *= 9
            np.left_shift(s1, 17, out=t)
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            np.left_shift(s3, 45, out=t)
            s3 >>= 19
            s3 |= t
            if k + 1 == last:
                self._s0, self._s1, self._s2, self._s3 = (
                    int(s0[-1]), int(s1[-1]), int(s2[-1]), int(s3[-1]))
        return out.T.ravel()[:n]


def _check_count(n: int) -> None:
    if n < 0:
        raise ValueError("draw count must be nonnegative")


def _mapped(fn, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=len(x))


# ------------------------------------------------------------ bulk words
#
# A linear map of the 256-bit state is held as its images of the 256 unit
# states, a (256, 4) uint64 array: row j is the image of bit j % 64 of word
# j // 64. It is applied through a table of the images of the 16 values of
# each of the state's 64 nibbles, a (64 * 16, 4) array: 32 KiB a map, where
# a byte table would hold 256 KiB and be about twice as fast to apply.

# Words per lane of the bulk path.
_STRIDE = 32
# Draws from which normals and uniforms take the bulk path. On a 2-vCPU
# x86 host both took the same time either way at about 300 draws.
_CROSSOVER = 320
# Box-Muller pairs per bulk step of normals, which bounds its temporaries.
_CHUNK = 8192


def _step_images() -> np.ndarray:
    """The state update of ``next_u64`` applied to each unit state."""
    rng = Rng.__new__(Rng)
    images = np.empty((256, 4), dtype=np.uint64)
    for j in range(256):
        state = [0, 0, 0, 0]
        state[j // 64] = 1 << (j % 64)
        rng._s0, rng._s1, rng._s2, rng._s3 = state
        rng.next_u64()
        images[j] = rng._s0, rng._s1, rng._s2, rng._s3
    return images


def _table(images: np.ndarray) -> np.ndarray:
    table = np.zeros((64, 16, 4), dtype=np.uint64)
    per_nibble = images.reshape(64, 4, 4)
    for bit in range(4):
        h = 1 << bit
        table[:, h:2 * h] = table[:, :h] ^ per_nibble[:, bit, None, :]
    return table.reshape(64 * 16, 4)


_NIBBLE_ROWS = 16 * np.arange(64)[:, None]


def _apply(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The map of ``table`` applied to each row of ``states`` (m, 4)."""
    state_bytes = np.ascontiguousarray(states, dtype="<u8").view(np.uint8).T
    rows = np.empty((64, len(states)), dtype=np.intp)
    rows[0::2] = state_bytes & 15
    rows[1::2] = state_bytes >> 4
    rows += _NIBBLE_ROWS
    return np.bitwise_xor.reduce(np.take(table, rows, axis=0), axis=0)


@functools.cache
def _jump_images(k: int) -> np.ndarray:
    """Images of the unit states under a jump of ``_STRIDE * 2**k`` words."""
    if k == 0:
        images = _step_images()
        for _ in range(_STRIDE.bit_length() - 1):  # square up to _STRIDE steps
            images = _apply(_table(images), images)
    else:
        images = _apply(_jump_table(k - 1), _jump_images(k - 1))
    images.flags.writeable = False
    return images


@functools.cache
def _jump_table(k: int) -> np.ndarray:
    """Nibble table of ``_jump_images(k)``."""
    table = _table(_jump_images(k))
    table.flags.writeable = False
    return table


def _lane_starts(state: tuple[int, int, int, int], n_lanes: int) -> np.ndarray:
    """(n_lanes, 4) states: lane i is ``state`` advanced ``i * _STRIDE`` words."""
    lanes = np.array([state], dtype=np.uint64)
    k = 0
    while len(lanes) < n_lanes:
        jumped = _apply(_jump_table(k), lanes[:n_lanes - len(lanes)])
        lanes = np.concatenate([lanes, jumped])
        k += 1
    return lanes
