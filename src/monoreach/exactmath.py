"""Deterministic number kit: primality, portable random draws, dyadic logs,
and the one rule for reading an integer from a text file.

Everything here is exact integer / Fraction arithmetic or reads the 32-bit
Mersenne Twister words of a ``random.Random`` in stream order: through
``getrandbits``, or, in bulk, through numpy's ``MT19937`` started from the
Random's state, which is handed back after those words (``twister_words``).
So results are identical across platforms and CPython versions.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from fractions import Fraction
from math import comb, isqrt  # noqa: F401  (comb re-exported for callers)
from random import Random

import numpy as np

from .errors import InvalidParameterError

# Miller-Rabin witnesses: the first 13 primes, so the test is exact for
# n < 3,317,044,064,679,887,385,961,981 and a fixed-base probable-prime
# test (still deterministic output) at and above it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def parse_int(token: str, ln: int) -> int:
    """The value of an optionally signed run of ASCII digits, the one number
    rule of the MCIRC, FAMILY and GRAPH formats; any other token is refused
    naming line `ln`."""
    digits = token[1:] if token.startswith(("+", "-")) else token
    if digits.isascii() and digits.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise InvalidParameterError(f"line {ln}: bad integer {token!r}")


def parse_ints(line: str, ln: int) -> list[int]:
    """The values of the whitespace-separated tokens of line `ln`, each read
    by parse_int."""
    if line.isascii() and "_" not in line:  # then int() takes exactly parse_int's tokens
        try:
            return list(map(int, line.split()))
        except ValueError:
            pass
    return [parse_int(t, ln) for t in line.split()]


def child_seed(master: int, label: str) -> int:
    """Derive a 64-bit sub-stream seed from a master seed and a label."""
    digest = hashlib.sha256(f"{master}|{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def randbelow(rng: Random, k: int) -> int:
    """Uniform integer in [0, k) built from getrandbits only."""
    if k <= 0:
        raise ValueError("k must be positive")
    bits = k.bit_length()
    while True:
        r = rng.getrandbits(bits)
        if r < k:
            return r


def _uniform_below(rng: Random, k: int, count: int) -> np.ndarray:
    """The values of `count` successive randbelow(rng, k) calls, leaving rng
    in the state those calls leave it: uint64 for k < 2**64, else Python
    ints in an object array, drawn by those calls themselves.

    Below 2**64 a round reads all its tries with one getrandbits.  A try is
    w = ceil(bits / 32) words, least significant first, with the last word
    shifted down by 32 * w - bits, as getrandbits(bits) reads it; it is
    kept when below k.  Each round draws one try per value still needed,
    so no word past the last kept try is drawn.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    bits = k.bit_length()
    w = (bits + 31) // 32
    if w > 2:  # each value is a Python int anyway; one call per try measured faster
        return np.array([randbelow(rng, k) for _ in range(count)], dtype=object)
    out = np.empty(count, dtype=np.uint64)
    have = 0
    while have < count:
        need = count - have
        block = bytearray(rng.getrandbits(32 * w * need).to_bytes(4 * w * need, "little"))
        words = np.frombuffer(block, dtype="<u4").reshape(need, w)
        words[:, -1] >>= np.uint32(32 * w - bits)
        tries = words.view("<u8")[:, 0] if w == 2 else words[:, 0]
        kept = tries[tries < k]
        out[have : have + kept.size] = kept
        have += kept.size
    return out


def sample_distinct(rng: Random, count: int, n: int) -> tuple[int, ...]:
    """Uniform `count`-subset of {1..n}, returned sorted.

    Partial Fisher-Yates over a sparse permutation; consumes only
    getrandbits via randbelow, so draws are reproducible.
    """
    if not 0 <= count <= n:
        raise ValueError("count out of range")
    swapped: dict[int, int] = {}
    picked = []
    for i in range(count):
        j = i + randbelow(rng, n - i)
        picked.append(swapped.get(j, j) + 1)
        swapped[j] = swapped.get(i, i)
    return tuple(sorted(picked))


_PROB_BITS = 24


def bernoulli_digits(p: float) -> tuple[int, ...]:
    """The comparison schedule of a Bernoulli mask at density p: the binary
    digits b_1, b_2, ... of p, most significant (2**-1) first.

    p is quantized to a multiple of 2**-24, and the schedule ends at its
    last 1 digit.  Round r of bernoulli_masks reads one bit per undecided
    lane and compares it with b_r: a 1 bit where b_r = 1 decides the lane
    1, a 0 bit where b_r = 0 decides it 0, and any other bit leaves it to
    the next round; a lane still undecided after the last round is 0.  An
    empty schedule means no draws: the mask is all zeros for p <= 0 and all
    ones for p >= 1.
    """
    if p <= 0.0 or p >= 1.0:
        return ()
    q = round(p * (1 << _PROB_BITS))
    q = min(max(q, 1), (1 << _PROB_BITS) - 1)
    trailing = (q & -q).bit_length() - 1
    return tuple((q >> b) & 1 for b in range(_PROB_BITS - 1, trailing - 1, -1))


def bernoulli_mask(rng: Random, width: int, p: float) -> int:
    """Integer with `width` independent bits, each 1 with probability ~p:
    one mask of bernoulli_masks."""
    return bernoulli_masks(rng, 1, width, p)[0]


# The Generator over numpy's MT19937 that twister_words hands a Random's
# state to, made on first use: MT19937() seeds itself from OS entropy,
# about 0.12 ms, which each hand-off would only overwrite.
_TWISTER = None


@contextmanager
def twister_words(rng: Random):
    """A draw of the Mersenne Twister words rng.getrandbits would read next,
    in order: words(shape) is a uint32 array of the next words, in C order.
    On leaving, rng is in the state after the words drawn.

    numpy's MT19937 makes the same words as rng's generator; it is set to
    rng.getstate()'s key and position on entry and handed back on leaving.
    There is one such generator, so hand-offs must not nest.
    """
    global _TWISTER
    if _TWISTER is None:
        # Imported here, not at the top: numpy.random costs 10 ms and 2 MB even where nothing is drawn.
        from numpy.random import MT19937, Generator

        _TWISTER = Generator(MT19937())
    version, key, gauss_next = rng.getstate()
    bits = _TWISTER.bit_generator
    bits.state = {"bit_generator": "MT19937", "state": {"key": key[:-1], "pos": key[-1]}}
    integers = _TWISTER.integers
    yield lambda shape: integers(0, 1 << 32, size=shape, dtype=np.uint32)
    state = bits.state["state"]
    rng.setstate((version, (*state["key"].tolist(), int(state["pos"])), gauss_next))


# Words per group of bernoulli_masks, whose rounds draw for a whole group
# at once: part of the stream.
_DRAW_WORDS = 1 << 15
# The rounds place their draws by a boolean mask while at most 1/_SPARSE of
# a group's words are decided, and gather the undecided words from then on.
_SPARSE = 2


def bernoulli_masks(rng: Random, count: int, width: int, p: float) -> list[int]:
    """`count` integers of `width` independent bits, each 1 with probability
    ~p, by the comparison rounds of bernoulli_digits(p).

    Masks are drawn in groups of max(1, _DRAW_WORDS // words) whole masks,
    words = ceil(width / 32); the first word of a mask is its least
    significant.  In round r, one 32-bit word of rng's Mersenne Twister is
    drawn for each word of the group that still has an undecided lane, in
    mask-major order, and each undecided lane reads its own bit of that
    word.  All 32 lanes of a mask's last word are decided, and the mask
    keeps their top width % 32 bits, as getrandbits(width) does; so at
    p = 0.5 the masks are getrandbits(width) draws.  The words come through
    twister_words.
    """
    if width <= 0:
        return [0] * count
    digits = bernoulli_digits(p)
    if not digits:
        return [(1 << width) - 1 if p >= 1.0 else 0] * count
    group = max(1, _DRAW_WORDS // ((width + 31) // 32))
    masks = []
    with twister_words(rng) as draw:
        for done in range(0, count, group):
            masks += _group_masks(draw, min(group, count - done), width, digits)
    return masks


def _group_masks(draw, k: int, width: int, digits) -> list[int]:
    """The k masks of one group of bernoulli_masks, drawn by its rounds.

    A round reads the undecided lanes of a word through its draw: `word`
    holds it, and stays stale where a word has no undecided lane, where the
    rule reads nothing of it.  While few words are decided, a round places
    its draws into `word` by a boolean mask over the whole group; once more
    than 1/_SPARSE of them are, the undecided words are gathered by index,
    and each round works on them alone.
    """
    words = (width + 31) // 32
    size = k * words
    undecided = draw(size)  # round 1 reads every lane
    if digits[0]:
        ones = undecided.copy()
        np.invert(undecided, out=undecided)
    else:
        ones = np.zeros(size, np.uint32)
    word = np.empty(size, np.uint32)
    at = None  # the indices of the undecided words, once they are gathered
    for digit in digits[1:]:
        live = undecided != 0
        left = np.count_nonzero(live)
        if at is None and left * _SPARSE > size * (_SPARSE - 1):
            word[live] = draw(left)
        else:
            if not left:
                break
            word = draw(left)
            keep = np.flatnonzero(live)
            at = keep if at is None else at[keep]
            undecided = undecided[keep]
        if digit:
            word &= undecided
            if at is None:
                ones |= word
            else:
                ones[at] |= word
            undecided ^= word
        else:
            undecided &= word
    ones = ones.reshape(k, words)
    if width % 32:
        ones[:, -1] >>= 32 - width % 32
    return [int.from_bytes(row.tobytes(), "little") for row in ones.astype("<u4", copy=False)]


# ---------------------------------------------------------------------------
# Dyadic (scaled-integer) real arithmetic.  All values are `value * 2**PREC`
# floors; errors are a handful of ulps, far below every comparison margin
# used by the depth reports.

PREC = 96
_GUARD = 32


def log2_scaled(x: int) -> int:
    """floor-ish of log2(x) * 2**PREC for an integer x >= 1 (error < 2**-90)."""
    if x < 1:
        raise ValueError("x must be >= 1")
    e0 = x.bit_length() - 1
    g = PREC + _GUARD + 16
    y = (x << g) >> e0  # y/2**g in [1, 2)
    frac = 0
    for _ in range(PREC):
        y = (y * y) >> g
        frac <<= 1
        if y >> (g + 1):
            frac |= 1
            y >>= 1
    return (e0 << PREC) | frac


def log2_fraction(x: int) -> Fraction:
    return Fraction(log2_scaled(x), 1 << PREC)


def ln2_scaled() -> int:
    """ln(2) * 2**PREC via the atanh(1/3) series, truncated when certified."""
    g = PREC + _GUARD
    total = 0
    k = 0
    while True:
        term = (2 << g) // (3 ** (2 * k + 1) * (2 * k + 1))
        if term == 0:
            break
        total += term
        k += 1
    return total >> _GUARD


def ln_scaled(x: int) -> int:
    """ln(x) * 2**PREC for integer x >= 1."""
    return (log2_scaled(x) * ln2_scaled()) >> PREC


def _exp2_frac_scaled(frac_scaled: int) -> int:
    # 2**f for f = frac_scaled / 2**PREC in [0, 1), as a scaled integer.
    # Product over the square-root chain 2**(1/2), 2**(1/4), ...
    one = 1 << PREC
    if frac_scaled == 0:
        return one
    root = isqrt(2 << (2 * PREC))  # 2**(1/2) scaled
    acc = one
    for bit_index in range(1, PREC + 1):
        if frac_scaled >> (PREC - bit_index) & 1:
            acc = (acc * root) >> PREC
        root = isqrt(root << PREC)
    return acc


def floor_pow2(exponent_scaled: int) -> int:
    """floor(2**e) for e = exponent_scaled / 2**PREC >= 0.

    The fractional part is evaluated at two precisions; if the floors
    disagree the value sits too close to an integer to certify.
    """
    int_part = exponent_scaled >> PREC
    frac = exponent_scaled & ((1 << PREC) - 1)
    if frac == 0:
        return 1 << int_part
    lo = _exp2_frac_scaled(frac)
    hi = lo + (PREC * 4)  # generous ulp slack for the chain truncations
    flo = (lo << int_part) >> PREC
    fhi = (hi << int_part) >> PREC
    if flo != fhi:
        raise InvalidParameterError("floor(2**e) not certifiable at this precision")
    return flo
