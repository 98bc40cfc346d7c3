"""Number kit: primality, portable draws, scaled-integer logs and powers."""

import math
import re
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monoreach.errors import InvalidParameterError
from monoreach.exactmath import (
    _DRAW_WORDS,
    PREC,
    bernoulli_digits,
    bernoulli_mask,
    bernoulli_masks,
    child_seed,
    floor_pow2,
    is_prime,
    ln2_scaled,
    ln_scaled,
    log2_scaled,
    parse_int,
    parse_ints,
    randbelow,
    sample_distinct,
)
from monoreach.families import minimal_prime_q


class TestPrimality:
    def test_against_sieve(self):
        limit = 50_000
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for i in range(2, limit):
            if sieve[i]:
                for j in range(i * i, limit, i):
                    sieve[j] = False
        for v in range(limit):
            assert is_prime(v) == sieve[v], v

    def test_large_values(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime(2**61 + 1)
        assert is_prime(1_000_003)
        assert not is_prime(1_000_001)  # 101 * 9901

    @pytest.mark.parametrize(
        "n",
        [
            # the least strong pseudoprimes to the first 1, 2, 3, 4 and 12 prime bases
            2047,  # 23 * 89
            1373653,
            25326001,
            3215031751,
            318665857834031151167461,  # 399165290221 * 798330580441, below 3.3e24
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_next_prime(self):
        # minimal_prime_q(x*x) is the smallest prime >= x.
        assert minimal_prime_q(14 * 14) == 17
        assert minimal_prime_q(17 * 17) == 17
        assert minimal_prime_q(2**40) == 2**20 + 7


class TestPortableDraws:
    def test_child_seed_frozen_anchor(self):
        # Frozen value: derived seeds must never drift across platforms.
        assert child_seed(0, "anchor") == 9321339498670132401

    def test_randbelow_range_and_determinism(self):
        draws = [randbelow(Random(99), 10) for _ in range(3)]
        assert draws[0] == draws[1] == draws[2]
        rng = Random(99)
        many = [randbelow(rng, 10) for _ in range(1000)]
        assert set(many) == set(range(10))

    def test_sample_distinct(self):
        rng = Random(7)
        s = sample_distinct(rng, 5, 20)
        assert len(s) == 5 and len(set(s)) == 5
        assert all(1 <= v <= 20 for v in s)
        assert s == tuple(sorted(s))
        assert sample_distinct(Random(7), 5, 20) == s

    def test_sample_distinct_full_population(self):
        assert sample_distinct(Random(1), 6, 6) == (1, 2, 3, 4, 5, 6)

    def test_bernoulli_extremes(self):
        rng = Random(3)
        state = rng.getstate()
        assert bernoulli_mask(rng, 100, 0.0) == 0
        assert bernoulli_mask(rng, 100, 1.0) == (1 << 100) - 1
        assert bernoulli_masks(rng, 3, 100, 1.0) == [(1 << 100) - 1] * 3
        assert bernoulli_masks(rng, 3, 0, 0.5) == [0] * 3
        assert bernoulli_masks(rng, 0, 100, 0.5) == []
        assert rng.getstate() == state  # none of these draws

    def test_bernoulli_density(self):
        rng = Random(11)
        for p in (0.02, 0.1, 0.5, 0.9):
            mask = bernoulli_mask(rng, 200_000, p)
            rate = mask.bit_count() / 200_000
            assert rate == pytest.approx(p, abs=0.01)

    def test_bernoulli_determinism(self):
        assert bernoulli_mask(Random(5), 4096, 0.37) == bernoulli_mask(Random(5), 4096, 0.37)

    @pytest.mark.parametrize(
        "p, digits",
        [
            (0.0, ()),
            (-0.5, ()),
            (1.0, ()),
            (0.5, (1,)),
            (0.75, (1, 1)),
            (0.25, (1, 0)),
            (2**-24, (1,) + (0,) * 23),
            (1e-12, (1,) + (0,) * 23),  # rounds up to the least step
            (1 - 1e-12, (1,) * 24),  # rounds down to the last step
        ],
    )
    def test_bernoulli_digits(self, p, digits):
        assert bernoulli_digits(p) == digits

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.37, 0.999, 1e-9, 0.0, 1.0, 0.25, 2**-24])
    @pytest.mark.parametrize("width", [1, 31, 32, 33, 256, 1000, 5461, 5462, 16384])
    def test_bernoulli_mask_matches_inline_horner(self, p, width):
        # The Horner of bernoulli_mask on getrandbits alone, before its digit
        # schedule was factored out into bernoulli_digits and its words were
        # drawn through numpy's MT19937: the same bits, in the same order,
        # and the Random left in the same state.
        def inline(rng):
            if p <= 0.0:
                return 0
            if p >= 1.0:
                return (1 << width) - 1
            q = min(max(round(p * (1 << 24)), 1), (1 << 24) - 1)
            trailing = (q & -q).bit_length() - 1
            q >>= trailing
            acc = rng.getrandbits(width)
            q >>= 1
            for _ in range(24 - trailing - 1):
                r = rng.getrandbits(width)
                acc = (acc | r) if (q & 1) else (acc & r)
                q >>= 1
            return acc

        ours, theirs = Random(width), Random(width)
        assert [bernoulli_mask(ours, width, p) for _ in range(3)] == [inline(theirs) for _ in range(3)]
        assert ours.getstate() == theirs.getstate()
        # From a Random part way through its words, holding a normal deviate
        # in gauss_next, as many masks as take three numpy draws, the last
        # one part full (three masks where nothing is drawn).
        for rng in (ours, theirs):
            rng.getrandbits(1000)
            rng.gauss(0.0, 1.0)
        assert ours.getstate()[2] is not None
        digits = bernoulli_digits(p)
        group = _DRAW_WORDS // (len(digits) * ((width + 31) // 32)) if digits else 1
        count = 2 * group + group // 2 + 1
        assert bernoulli_masks(ours, count, width, p) == [inline(theirs) for _ in range(count)]
        assert ours.getstate() == theirs.getstate()


class TestNumberRule:
    @pytest.mark.parametrize("token", ["0", "-0", "+5", "007", "-12", "9" * 40])
    def test_signed_ascii_digit_runs_are_read(self, token):
        assert parse_int(token, 3) == int(token)

    @pytest.mark.parametrize(
        "token",
        ["1_0", "\uff13", "\u0661", "abc", "+", "-", "--1", "1-", "0x1", "1e3", "9" * 5000],
        ids=lambda t: t[:8],
    )
    def test_anything_else_is_refused_with_its_line(self, token):
        with pytest.raises(InvalidParameterError, match=f"^line 3: bad integer {re.escape(repr(token))}$"):
            parse_int(token, 3)

    @given(st.text(alphabet=" \t\x1f+-_09ax\uff13\u0661", max_size=12))
    def test_a_line_reads_as_its_tokens_do(self, line):
        try:
            want = [parse_int(t, 7) for t in line.split()]
        except InvalidParameterError as exc:
            with pytest.raises(InvalidParameterError, match=f"^{re.escape(str(exc))}$"):
                parse_ints(line, 7)
        else:
            assert parse_ints(line, 7) == want


class TestScaledArithmetic:
    def test_log2_matches_float(self):
        for x in (2, 3, 7, 100, 1 << 20, (1 << 64) + 12345, 10**30):
            got = log2_scaled(x) / (1 << PREC)
            assert got == pytest.approx(math.log2(x), rel=1e-15)

    def test_log2_exact_on_powers_of_two(self):
        for e in (0, 1, 5, 64, 1024):
            assert log2_scaled(1 << e) == e << PREC

    def test_ln2(self):
        assert ln2_scaled() / (1 << PREC) == pytest.approx(math.log(2), rel=1e-20)

    def test_ln(self):
        for x in (2, 10, 1 << 16, 10**12):
            assert ln_scaled(x) / (1 << PREC) == pytest.approx(math.log(x), rel=1e-15)

    def test_floor_pow2_matches_float(self):
        # floor(2**(sqrt(e))) for a spread of exponents, against float math
        # (values far from integer boundaries, so float is a valid oracle).
        from monoreach.exactmath import isqrt

        for e in (2, 5, 10, 20, 30, 50, 100, 200):
            scaled = isqrt((e << PREC) << PREC)
            got = floor_pow2(scaled)
            assert got == math.floor(2 ** math.sqrt(e)), e

    def test_floor_pow2_exact_integer_exponent(self):
        assert floor_pow2(32 << PREC) == 1 << 32
        assert floor_pow2(0) == 1

    def test_floor_pow2_uncertifiable_is_a_parameter_error(self):
        # 2**log2(3) sits on the integer 3, so the floor cannot be certified.
        with pytest.raises(InvalidParameterError):
            floor_pow2(log2_scaled(3))
