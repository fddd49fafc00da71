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

import bisect
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
    """Rows ``fill(ts)`` for t = 0, 1, 2, ..., each drawn once, on first
    demand, and kept; any access order sees the same rows, since a row is
    a function of (seed, t) alone.

    The rows are kept in one list of disjoint runs (start, stop, rows),
    sorted by start. A request that one run holds is a slice of it.
    Otherwise only the keys that no run holds are drawn: ``row`` and a
    ``rows`` slice inside one block of ``BLOCK`` keys widen to that whole
    block, and a slice across a block edge is drawn at its exact length, so
    a run that reads its T rows at once draws T rows, not whole blocks. The
    new rows and every run they overlap become one run, so each key is held
    once, a run at a longer horizon draws only its new rows, and a read
    across held blocks is kept for the next."""

    def __init__(self, fill):
        self.fill = fill
        self.runs = []  # disjoint (start, stop, rows), sorted by start

    def row(self, t):
        return self.rows(t, t + 1)[0]

    def rows(self, start, stop):
        """Rows start .. stop-1 as one array, empty when stop <= start."""
        if stop <= start:  # no rows; start's block gives their shape
            return self.rows(start, start + 1)[:0]
        runs, by_start = self.runs, operator.itemgetter(0)
        i = bisect.bisect_right(runs, start, key=by_start) - 1
        if i >= 0 and stop <= runs[i][1]:
            lo, _, held = runs[i]
            return held[start - lo:stop - lo]
        lo, hi = start, stop
        if start // BLOCK == (stop - 1) // BLOCK:
            lo = start - start % BLOCK
            hi = lo + BLOCK
        # the runs that overlap lo .. hi-1: from the first that stops after
        # lo to the last that starts before hi
        first = bisect.bisect_right(runs, lo, key=operator.itemgetter(1))
        end = bisect.bisect_left(runs, hi, key=by_start)
        if first < end:
            lo = min(lo, runs[first][0])
        pieces, t = [], lo
        for a, b, held in runs[first:end]:
            if t < a:
                pieces.append(self.fill(np.arange(t, a)))
            pieces.append(held)
            t = b
        if t < hi:
            pieces.append(self.fill(np.arange(t, hi)))
            t = hi
        held = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        runs[first:end] = [(lo, t, held)]
        return held[start - lo:stop - lo]
