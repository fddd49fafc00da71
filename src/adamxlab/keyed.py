"""Keyed draws ``np.random.default_rng((seed, t))`` for many t at once.

A problem that draws one value per step from a generator keyed on
(seed, t) would otherwise build one numpy Generator per step, which
costs about 20 us. Everything behind such a generator is integer
arithmetic: SeedSequence hashes the key's uint32 words into a 4-word
pool and expands it to 128 bits of state and 128 bits of increment,
PCG64 steps a 128-bit LCG and emits XSL-RR words, ``random`` takes the
top 53 bits of a word, and ``integers`` applies Lemire's bounded draw to
the uint32 halves of each word, low half first. Here that arithmetic runs
on uint64 arrays, one row per t, so a block of thousands of keys costs a
few milliseconds and yields numpy's values bit for bit.

Rows that the array path cannot reproduce are drawn by the scalar
generator for that t alone: a t outside [0, 2**32), whose key has a
different word count, and an ``integers`` row where Lemire's method
would reject a draw. ``matches_numpy`` compares a few keys against numpy
once per process, at the first draw; if any differs, every row is drawn
by the scalar generator, so a numpy with another stream cannot move a
value.
"""

import functools
import operator

import numpy as np

BLOCK = 4096

_M32 = 0xFFFFFFFF
# SeedSequence hashing constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier as high and low words
_MUL_HI, _MUL_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _words(n):
    """The uint32 words SeedSequence makes of a non-negative int, low first."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _pcg_state(seed_words, ts):
    """PCG64 (state, increment), each as (high, low) uint64 arrays, seeded by
    SeedSequence((seed, t)) for every t in ``ts`` (all below 2**32)."""
    entropy = [np.full(len(ts), w, np.uint32) for w in seed_words] + [ts.astype(np.uint32)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> 16)

    zero = np.zeros(len(ts), np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight uint32 words, paired little-endian
    hash_const, out = _INIT_B, []
    for i in range(8):
        w = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        w = w * hash_const
        out.append((w ^ (w >> 16)).astype(np.uint64))
    s_hi, s_lo, q_hi, q_lo = (out[2 * k] | out[2 * k + 1] << 32 for k in range(4))
    inc = ((q_hi << 1) | (q_lo >> 63), (q_lo << 1) | 1)
    # srandom: state = 0, step, add the seed, step
    state = _step(_add(inc, (s_hi, s_lo)), inc)
    return state, inc


def _add(a, b):
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


def _step(state, inc):
    """state * multiplier + inc mod 2**128, the 64x64 product in 32-bit limbs."""
    hi, lo = state
    a0, a1 = lo & _M32, lo >> 32
    b0, b1 = _MUL_LO & _M32, _MUL_LO >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return _add((hi * _MUL_LO + lo * _MUL_HI + carry, lo * _MUL_LO), inc)


def _next64(seed_words, ts, count):
    """The first ``count`` PCG64 outputs of every key, as a (len(ts), count) array."""
    state, inc = _pcg_state(seed_words, ts)
    out = np.empty((len(ts), count), np.uint64)
    for j in range(count):
        state = _step(state, inc)
        x, rot = state[0] ^ state[1], state[0] >> 58
        out[:, j] = (x >> rot) | (x << ((64 - rot) & 63))
    return out


def _vector_uniform(seed_words, ts, d):
    u = _next64(seed_words, ts, d)
    return (u >> 11) * (1.0 / 9007199254740992.0), np.zeros(len(ts), bool)


def _vector_integers(seed_words, ts, n, k):
    if not 1 <= n <= 1 << 32:
        return None, None
    u = _next64(seed_words, ts, (k + 1) // 2)
    out = np.empty((len(ts), 2 * u.shape[1]), np.int64)
    low = np.empty(out.shape, bool)
    # Lemire on the uint32 halves of each word, low half first; a leftover
    # below the threshold means numpy would have drawn again
    for half in (0, 1):
        m = (u >> (32 * half) & _M32) * np.uint64(n)
        low[:, half::2] = (m & _M32) < (2**32 - n) % n
        out[:, half::2] = m >> 32
    return out[:, :k], low[:, :k].any(axis=1)


def _draw(seed, ts, width, dtype, vector, scalar):
    """Rows of ``scalar(default_rng((seed, t)))`` for t in ``ts``; ``vector``
    computes them all at once and marks the rows it could not."""
    ts = np.asarray(ts, dtype=np.int64).reshape(-1)
    out = None
    if matches_numpy() and isinstance(seed, (int, np.integer)) and seed >= 0:
        out, redo = vector(_words(operator.index(seed)), ts)
    if out is None:
        out, redo = np.empty((len(ts), width), dtype), np.ones(len(ts), bool)
    else:
        redo |= (ts < 0) | (ts > _M32)
    for i in np.flatnonzero(redo):
        out[i] = scalar(np.random.default_rng((seed, int(ts[i]))))
    return out


def uniform(seed, ts, d):
    """``default_rng((seed, t)).random(d)`` for each t in ``ts``, as rows."""
    return _draw(seed, ts, d, np.float64,
                 lambda words, ts: _vector_uniform(words, ts, d),
                 lambda rng: rng.random(d))


def integers(seed, ts, n, k):
    """``default_rng((seed, t)).integers(0, n, size=k)`` for each t in ``ts``, as rows."""
    return _draw(seed, ts, k, np.int64,
                 lambda words, ts: _vector_integers(words, ts, n, k),
                 lambda rng: rng.integers(0, n, size=k))


_CHECK_SEEDS = (0, 2**40 + 7, 2**70 + 3, 2**100 + 11)  # 1, 2, 3 and 4 seed words
_CHECK_TS = np.array([0, 1, BLOCK + 1, 2**32 - 1])


@functools.cache
def matches_numpy():
    """Whether the array path reproduces this numpy's keyed streams, checked
    once on a few keys per process."""
    for seed in _CHECK_SEEDS:
        words = _words(seed)
        r = _vector_uniform(words, _CHECK_TS, 3)[0]
        ints, rejected = _vector_integers(words, _CHECK_TS, 200, 5)
        for i, t in enumerate(_CHECK_TS.tolist()):
            if not np.array_equal(r[i], np.random.default_rng((seed, t)).random(3)):
                return False
            if not rejected[i] and not np.array_equal(
                    ints[i], np.random.default_rng((seed, t)).integers(0, 200, size=5)):
                return False
    return True


class KeyedTable:
    """Rows ``fill(ts)`` for t = 0, 1, 2, ..., drawn once, on first demand;
    any access order sees the same rows, since a row is a function of
    (seed, t) alone.

    ``row`` and a ``rows`` slice inside one block of ``BLOCK`` keys fill that
    whole block. A ``rows`` slice across a block edge that the table does not
    already hold is drawn at its exact length and kept as a span, so a run
    that reads its T rows at once draws T rows, not whole blocks; later
    requests inside a span read it."""

    def __init__(self, fill):
        self.fill = fill
        self.blocks = {}
        self.spans = []  # (start, stop, rows) drawn at their exact length

    def _block(self, b):
        rows = self.blocks.get(b)
        if rows is None:
            rows = self.fill(np.arange(b * BLOCK, (b + 1) * BLOCK))
            self.blocks[b] = rows
        return rows

    def _span(self, start, stop):
        """The held rows start .. stop-1 of one span, or None."""
        for lo, hi, rows in self.spans:
            if lo <= start and stop <= hi:
                return rows[start - lo:stop - lo]
        return None

    def row(self, t):
        b, i = divmod(t, BLOCK)
        if b not in self.blocks:
            held = self._span(t, t + 1)
            if held is not None:
                return held[0]
        return self._block(b)[i]

    def rows(self, start, stop):
        """Rows start .. stop-1 as one array."""
        held = self._span(start, stop)
        if held is not None:
            return held
        first, last = start // BLOCK, (stop - 1) // BLOCK
        blocks = range(first, last + 1)
        if first == last or all(b in self.blocks for b in blocks):
            table = (self._block(first) if first == last else
                     np.concatenate([self.blocks[b] for b in blocks]))
            return table[start - first * BLOCK:stop - first * BLOCK]
        rows = self.fill(np.arange(start, stop))
        self.spans.append((start, stop, rows))
        return rows
