import math
import random
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclotomy import cyclo, intpoly
from cyclotomy.intpoly import (
    InexactDivisionError,
    NotDivisibleError,
    NotMonicError,
    coeffs_from_power_sums,
    poly_exact_div,
    poly_mul,
    poly_prod,
    poly_str,
    power_sums,
    substitute_power,
    trim,
)

from _oracles import (
    naive_add,
    naive_coeffs_from_power_sums,
    naive_cyclotomic,
    naive_divmod,
    naive_mul,
    naive_power_sums,
)

small_poly = st.lists(st.integers(min_value=-100, max_value=100), max_size=12)


class TestMul:
    def test_examples(self):
        assert poly_mul([1, 0, 1], [1, 0, 0, 0, 1]) == [1, 0, 1, 0, 1, 0, 1]
        assert poly_mul([4, -2, 7], [1]) == [4, -2, 7]
        prod = poly_prod([[-1, 1], [1, 1], [1, 1, 1], [1, -1, 1]])
        assert prod == [-1, 0, 0, 0, 0, 0, 1]

    def test_zero_annihilates(self):
        assert poly_mul([1, 2], []) == []
        assert poly_prod([[1, 2], [], [3]]) == []

    def test_empty_product_is_one(self):
        assert poly_prod([]) == [1]

    @given(small_poly, small_poly)
    @settings(max_examples=300, deadline=None)
    # constant operands 0, 1, -1 and others, on either side, skip packing
    @example([0], [3, -1, 4])
    @example([3, -1, 4], [0, 0])
    @example([1], [3, -1, 0, 4])
    @example([3, -1, 0, 4], [1])
    @example([-1], [0, 2, 0, -5])
    @example([0, 2, 0, -5], [-1, 0])
    @example([7], [3, -1, 4])
    @example([3, -1, 4], [-12])
    @example([5], [-3])
    def test_against_oracle(self, p, q):
        assert poly_mul(p, q) == naive_mul(trim(p), trim(q))

    def test_packed_path_matches_naive_mul(self):
        rng = random.Random(7)
        for _ in range(25):
            p = [rng.randint(-(10**9), 10**9) for _ in range(rng.randint(80, 250))]
            q = [rng.randint(-(10**9), 10**9) for _ in range(rng.randint(80, 250))]
            assert intpoly._mul_packed(p, q) == naive_mul(p, q)

    def test_packed_path_at_small_sizes(self):
        # Constants, monomials, low and interior zeros, 1 to 80 terms a side.
        # Coefficients at 2**62 - 1, 2**62 and 2**63 give 64-bit and wider
        # slots, so both the struct codec and the to_bytes codec run.
        rng = random.Random(62)
        big = [2**62 - 1, 2**62, 2**63]
        for _ in range(400):
            p, q = [], []
            for poly in (p, q):
                h = rng.choice([1, 9] + big)
                poly += [rng.choice([0, rng.randint(-h, h)]) for _ in range(rng.randint(0, 79))]
                poly.append(rng.choice([1, -1]) * rng.choice([1, h]))
            assert intpoly._mul_packed(p, q) == naive_mul(p, q), (p, q)
        for c in big + [-b for b in big]:
            for k in (0, 1, 5, 79):
                mono = [0] * k + [c]
                for other in ([1], [-1], [0, 0, 1], [1, 0, -1], [c], [3, 0, -c], mono):
                    assert intpoly._mul_packed(mono, other) == naive_mul(mono, other)
                    assert intpoly._mul_packed(other, mono) == naive_mul(other, mono)

    def test_slot_width_is_whole_bytes(self):
        for bits in range(1, 81):
            assert intpoly._slot_width(bits) == 8 * -(-bits // 8)

    def test_pack_unpack_round_trip_at_every_width(self):
        rng = random.Random(8)
        for width in range(8, 73, 8):
            top = 2 ** (width - 1) - 1
            edges = [top, -top, 1, -1, 0]
            for values in (
                edges,
                [rng.randint(-top, top) for _ in range(37)],
                [-top],
                [rng.choice(edges) for _ in range(50)],
            ):
                packed = intpoly._pack(values, width)
                assert packed == sum(c << (width * j) for j, c in enumerate(values))
                assert intpoly._unpack(packed, width, len(values)) == values

    def test_packed_path_at_every_slot_width(self):
        # A bound below 2**(w-1) fits a signed slot of w bits.  Heights are
        # chosen so that the bound reaches up to 2**(w-1) - 1 and selects
        # each width w from 8 to 72 bits in turn, at its edge.
        rng = random.Random(72)
        for width in range(8, 73, 8):
            edge = (1 << (width - 1)) - 1
            for plen, qlen, hq in ((1, 1, 1), (1, 30, 3), (12, 1, 1), (5, 9, 2),
                                   (30, 30, 1), (6, 23, 5)):
                hp = edge // (min(plen, qlen) * hq)
                q = [rng.randint(-hq, hq) for _ in range(qlen - 1)] + [rng.choice((hq, -hq))]
                for p in (
                    [rng.randint(-hp, hp) for _ in range(plen - 1)] + [hp],
                    [-hp] * plen,  # negative throughout
                    [0] * (plen - 1) + [-hp],  # a monomial
                ):
                    bound = intpoly.poly_height(p) * intpoly.poly_height(q) * min(plen, qlen)
                    assert intpoly._slot_width(bound.bit_length() + 1) == width
                    assert intpoly._mul_packed(p, q) == naive_mul(p, q), (width, p, q)
                    assert intpoly._mul_packed(q, p) == naive_mul(q, p), (width, p, q)
            # [h]*L squared: the middle coefficient is L*h*h, the bound itself
            for length in (3, 7, 30):
                h = isqrt(edge // length)
                p = [h] * length
                bound = length * h * h
                assert intpoly._slot_width(bound.bit_length() + 1) == width
                product = intpoly._mul_packed(p, p)
                assert product[length - 1] == bound
                assert product == naive_mul(p, p), (width, p)
                neg = [-h] * length
                assert intpoly._mul_packed(p, neg) == naive_mul(p, neg), (width, p)

    def test_three_by_three_product_is_packed(self, monkeypatch):
        seen = []
        mul_packed = intpoly._mul_packed

        def counting(p, q):
            seen.append((len(p), len(q)))
            return mul_packed(p, q)

        monkeypatch.setattr(intpoly, "_mul_packed", counting)
        assert poly_mul([1, 2, 3], [4, -5, 6]) == naive_mul([1, 2, 3], [4, -5, 6])
        assert seen == [(3, 3)]

    def test_degree_adds(self):
        rng = random.Random(11)
        for _ in range(50):
            p = [rng.randint(-50, 50) for _ in range(rng.randint(0, 8))] + [rng.choice([-3, 1, 5])]
            q = [rng.randint(-50, 50) for _ in range(rng.randint(0, 8))] + [rng.choice([-2, 1, 9])]
            assert len(poly_mul(p, q)) - 1 == (len(p) - 1) + (len(q) - 1)

    @given(small_poly, small_poly, small_poly)
    @settings(max_examples=150, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert poly_mul(p, q) == poly_mul(q, p)
        assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))
        assert poly_mul(p, naive_add(q, r)) == naive_add(poly_mul(p, q), poly_mul(p, r))


class TestExactDiv:
    def test_examples(self):
        assert poly_exact_div([-1, 0, 1], [-1, 1]) == [1, 1]
        assert poly_exact_div([-1, 0, 0, 0, 1], [-1, 0, 1]) == [1, 0, 1]
        with pytest.raises(NotDivisibleError):
            poly_exact_div([1, 0, 1], [-1, 1])

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_exact_div([1, 2], [])

    def test_constant_divisor(self):
        assert poly_exact_div([2, 4, 6], [2]) == [1, 2, 3]
        with pytest.raises(NotDivisibleError):
            poly_exact_div([2, 3], [2])
        # 1 and -1 past the long-division cutoff go to the series path, every
        # other constant to long division with one-term steps; the low zeros
        # make the series path pad its truncated product
        rng = random.Random(2026)
        cutoff = intpoly._LONG_DIVISION_CUTOFF
        long = [0, 0, 0] + [rng.randint(-50, 50) for _ in range(cutoff)] + [7]
        short = [rng.randint(-50, 50) for _ in range(40)] + [5]
        exact = [(long, [1]), (long, [-1])]
        inexact = []
        for c in (2, 3):
            for p in (short, long):
                exact.append((poly_mul(p, [c]), [c]))
                inexact.append((naive_add(poly_mul(p, [c]), [1]), [c]))
                inexact.append((poly_mul(p, [c]) + [1], [c]))
        for p, q in exact:
            quot, rem = naive_divmod(p, q)
            assert quot is not None and not rem
            assert poly_exact_div(p, q) == trim(quot)
        for p, q in inexact:
            assert naive_divmod(p, q)[0] is None
            with pytest.raises(NotDivisibleError):
                poly_exact_div(p, q)

    def test_lower_degree_dividend(self):
        assert poly_exact_div([], [1, 1]) == []
        with pytest.raises(NotDivisibleError):
            poly_exact_div([1], [1, 1])

    def test_mul_div_roundtrip_randomized(self):
        rng = random.Random(20260810)
        for _ in range(500):
            p = [rng.randint(-100, 100) for _ in range(rng.randint(1, 31))]
            q = [rng.randint(-100, 100) for _ in range(rng.randint(1, 31))]
            if not trim(p) or not trim(q):
                continue
            assert poly_exact_div(poly_mul(p, q), q) == trim(p)

    def test_series_path_matches_long_division(self):
        rng = random.Random(99)
        for _ in range(15):
            q = [rng.randint(-9, 9) for _ in range(rng.randint(150, 300))] + [rng.choice([1, -1])]
            r = [rng.randint(-9, 9) for _ in range(rng.randint(150, 300))] + [1]
            p = poly_mul(q, r)
            got = poly_exact_div(p, q)
            oracle, rem = naive_divmod(p, trim(q))
            assert not rem
            assert got == trim(oracle) == trim(r)

    def test_dense_divisor_on_either_side_of_the_cutoff(self, monkeypatch):
        # Phi_21 * Phi_105, 61 dense terms with a coefficient -2, divides
        # products whose quotient length times 61 ends just below and just
        # above the cutoff; only the second takes the series inverse
        q = naive_mul(naive_cyclotomic(21), naive_cyclotomic(105))
        cutoff = intpoly._LONG_DIVISION_CUTOFF
        below = cutoff // len(q)
        rng = random.Random(61)
        inverses = []
        series_inverse = intpoly._series_inverse

        def counting(b, k):
            inverses.append(k)
            return series_inverse(b, k)

        monkeypatch.setattr(intpoly, "_series_inverse", counting)
        for length, series in ((below, False), (below + 1, True)):
            r = [rng.randint(-20, 20) for _ in range(length - 1)] + [1]
            p = naive_mul(q, r)
            assert (length * len(q) > cutoff) == series
            oracle, rem = naive_divmod(p, q)
            assert not rem
            inverses.clear()
            assert poly_exact_div(p, q) == trim(oracle) == r
            assert bool(inverses) == series

    def test_series_path_detects_remainder(self):
        rng = random.Random(5)
        q = [rng.randint(-9, 9) for _ in range(200)] + [1]
        p = naive_add(poly_mul(q, q), [3])
        with pytest.raises(NotDivisibleError):
            poly_exact_div(p, q)


def _mirrored(rng, length, sign):
    """Random ``r`` with ``r[j] == sign * r[length-1-j]`` and a ±1 top term."""
    r = [rng.randint(-20, 20) for _ in range(length - 1)] + [rng.choice([1, -1])]
    for j in range(length // 2):
        r[j] = sign * r[length - 1 - j]
    if sign == -1 and length % 2:
        r[length // 2] = 0
    return r


class TestHalfSeries:
    # Divisors of 60 and 61 terms with quotients of 400 and 401 terms: every
    # product is past the long-division cutoff, so each division below takes
    # the series route, whose inverse is asked for ceil(qlen/2) terms exactly
    # when dividend and divisor both equal their reversal up to sign.
    SHAPES = [(60, 400), (60, 401), (61, 400), (61, 401)]

    @pytest.fixture
    def inverses(self, monkeypatch):
        asked = []
        series_inverse = intpoly._series_inverse

        def counting(b, k):
            asked.append(k)
            return series_inverse(b, k)

        monkeypatch.setattr(intpoly, "_series_inverse", counting)
        return asked

    @staticmethod
    def _divide(p, q, inverses):
        inverses.clear()
        oracle, rem = naive_divmod(p, q)
        assert oracle is not None and not rem
        got = poly_exact_div(p, q)
        assert got == trim(oracle)
        return got

    def test_all_four_sign_combinations(self, inverses):
        rng = random.Random(1401)
        for qsize, rsize in self.SHAPES:
            assert qsize * rsize > intpoly._LONG_DIVISION_CUTOFF
            for qsign in (1, -1):
                for rsign in (1, -1):
                    q = _mirrored(rng, qsize, qsign)
                    r = _mirrored(rng, rsize, rsign)
                    p = naive_mul(q, r)
                    assert p[::-1] == [qsign * rsign * c for c in p]
                    assert self._divide(p, q, inverses) == r
                    assert inverses == [(rsize + 1) // 2]

    def test_antipalindromic_quotient_of_odd_length(self, inverses):
        rng = random.Random(1402)
        for qsign in (1, -1):
            q = _mirrored(rng, 61, qsign)
            r = _mirrored(rng, 401, -1)
            r[-1] = r[-2] = 3  # a top term other than ±1
            r[0] = r[1] = -3
            got = self._divide(naive_mul(q, r), q, inverses)
            assert got == r and got[200] == 0
            assert inverses == [201]

    def test_non_divisible_symmetric_pairs(self, inverses):
        rng = random.Random(1403)
        for qsize, rsize in self.SHAPES:
            for qsign in (1, -1):
                for psign in (1, -1):
                    q = _mirrored(rng, qsize, qsign)
                    p = naive_mul(q, _mirrored(rng, rsize, psign * qsign))
                    # a mirrored pair of inner terms moves, so p keeps its
                    # symmetry and its length
                    j = rng.randrange(1, len(p) // 2)
                    p[j] += psign
                    p[-1 - j] += 1
                    assert p[::-1] == [psign * c for c in p]
                    assert naive_divmod(p, q)[1]
                    inverses.clear()
                    with pytest.raises(NotDivisibleError):
                        poly_exact_div(p, q)
                    assert inverses == [(rsize + 1) // 2]

    def test_symmetric_divisor_with_asymmetric_dividend(self, inverses):
        rng = random.Random(1404)
        for qsize, rsize in self.SHAPES:
            for qsign in (1, -1):
                q = _mirrored(rng, qsize, qsign)
                # r[0] == ±r[-1], so p's end terms look symmetric; its inside is not
                for end in (1, -1):
                    r = [rng.randint(-20, 20) for _ in range(rsize - 1)] + [1]
                    r[0] = end
                    p = naive_mul(q, r)
                    assert p[0] in (p[-1], -p[-1])
                    assert self._divide(p, q, inverses) == r
                    assert inverses == [rsize]


def _binomial(c0, ck, k):
    return [c0] + [0] * (k - 1) + [ck]


class TestDivBinomial:
    # (k, quotient length m): k = 1, small k, k near sqrt(m), and k >= m, so
    # both the per-class and the per-block traversal run, and for k > m some
    # residue classes hold no quotient coefficient at all.
    SHAPES = [
        (1, 1), (1, 60), (2, 1), (2, 3), (3, 50), (4, 9), (4, 5),
        (7, 49), (8, 64), (9, 80), (12, 100), (12, 144),
        (30, 5), (30, 30), (64, 10), (64, 65),
    ]

    def _cases(self, seed):
        rng = random.Random(seed)
        for k, m in self.SHAPES:
            for c0 in (1, -1, 2, -2, 3, -3):
                for ck in (1, -1):
                    r = [rng.randint(-50, 50) for _ in range(m - 1)]
                    yield _binomial(c0, ck, k), r + [rng.choice([1, -1, 7])]

    def test_matches_long_division(self):
        for q, r in self._cases(4242):
            p = naive_mul(q, r)
            oracle, rem = naive_divmod(p, q)
            assert not rem
            assert intpoly._div_binomial(p, q) == trim(oracle) == r
            assert poly_exact_div(p, q) == r

    def test_perturbed_coefficient_is_not_divisible(self):
        rng = random.Random(77)
        for q, r in self._cases(2323):
            k = len(q) - 1
            p = naive_mul(q, r)
            # one coefficient below X**k, one at or above it; the top one is
            # left alone so the degree does not change
            for lo, hi in ((0, k), (k, len(p) - 1)):
                if lo == hi:
                    continue
                j = rng.randrange(lo, hi)
                bad = list(p)
                bad[j] += rng.choice([1, -1, 5])
                assert naive_divmod(bad, q)[1]
                with pytest.raises(NotDivisibleError):
                    intpoly._div_binomial(bad, q)
                with pytest.raises(NotDivisibleError):
                    poly_exact_div(bad, q)

    def test_routing_skips_series_and_school(self, monkeypatch):
        def general_path(*args):
            raise AssertionError("a two-term divisor took a general division path")

        monkeypatch.setattr(intpoly, "_series_inverse", general_path)
        monkeypatch.setattr(intpoly, "_div_school", general_path)
        x_pow_minus_1 = [-1] + [0] * 200002 + [1]
        assert poly_exact_div(x_pow_minus_1, [-1, 1]) == [1] * 200003


class TestTwoTermDividend:
    # c0 + c*X**d over sign*(X**k - 1): divisible exactly when k | d and
    # c0 == -c, and the quotient is then a geometric series in X**k.
    def test_matches_long_division_exhaustively(self):
        coeffs = (1, -1, 2, -2)
        for d in range(1, 41):
            for k in range(1, d + 1):
                for sign in (1, -1):
                    q = [-sign] + [0] * (k - 1) + [sign]
                    for c0 in coeffs:
                        for c in coeffs:
                            p = [c0] + [0] * (d - 1) + [c]
                            quot, rem = naive_divmod(p, q)
                            if quot is None or rem:
                                with pytest.raises(NotDivisibleError):
                                    poly_exact_div(p, q)
                            else:
                                assert poly_exact_div(p, q) == trim(quot), (p, q)

    def test_routing_skips_the_running_sum(self, monkeypatch):
        def running_sum(*args):
            raise AssertionError("a two-term dividend took the running sum")

        # the per-class sum uses accumulate, the per-block sum map
        monkeypatch.setattr(intpoly, "accumulate", running_sum)
        monkeypatch.setattr(intpoly, "map", running_sum, raising=False)
        for d, k in ((199999, 1), (97969, 313), (200000, 100000), (6, 6)):
            x_pow_minus_1 = [-1] + [0] * (d - 1) + [1]
            for sign in (1, -1):
                q = [-sign] + [0] * (k - 1) + [sign]
                series = ([sign] + [0] * (k - 1)) * (d // k)
                assert poly_exact_div(x_pow_minus_1, q) == series[: d - k + 1]
            with pytest.raises(NotDivisibleError):
                poly_exact_div(x_pow_minus_1, [-1] + [0] * k + [1])
            with pytest.raises(NotDivisibleError):
                poly_exact_div([1] + x_pow_minus_1[1:], [-1] + [0] * (k - 1) + [1])


class TestStrideSums:
    # s[j] = step(s[j-k], s[j]) for increasing j; lengths 0..40 with
    # k = 1..12 take both the per-class and the per-block traversal
    @staticmethod
    def _naive(s, k, step):
        out = list(s)
        for j in range(k, len(out)):
            out[j] = out[j - k] + out[j] if step is None else step(out[j - k], out[j])
        return out

    def test_matches_a_naive_loop(self, monkeypatch):
        calls = []
        accumulate = intpoly.accumulate
        monkeypatch.setattr(
            intpoly, "accumulate", lambda *args: calls.append(1) or accumulate(*args)
        )
        rng = random.Random(35)
        steps = [None] + [lambda acc, x, b=b: x - b * acc for b in (1, -1)]
        traversals = set()
        for n in range(41):
            for k in range(1, 13):
                for step in steps:
                    s = [rng.randint(-9, 9) for _ in range(n)]
                    want = self._naive(s, k, step)
                    del calls[:]
                    assert intpoly._stride_sums(s, k, step) is None
                    assert s == want, (n, k, step)
                    traversals.add(bool(calls))
        assert traversals == {True, False}


def _lift(p, g):
    """p(X**g), built independently of the library."""
    out = [0] * ((len(p) - 1) * g + 1)
    out[::g] = p
    return out


def _random_divisor(rng, length, lead):
    # at least three nonzero terms, so never a two-term route
    return [rng.choice([1, -1, 2])] + [rng.randint(-9, 9) or 1 for _ in range(length - 2)] + [lead]


class TestLattice:
    # Operands that are all polynomials in X**g are divided and multiplied
    # in X**g and lifted; results are checked against the naive oracles.
    @staticmethod
    def _spy(monkeypatch, name, key):
        # key(second argument) of every call to intpoly.<name>
        seen = []
        real = getattr(intpoly, name)

        def spy(p, x):
            seen.append(key(x))
            return real(p, x)

        monkeypatch.setattr(intpoly, name, spy)
        return seen

    @pytest.fixture
    def lifts(self, monkeypatch):
        """The exponent of every substitute_power call."""
        return self._spy(monkeypatch, "substitute_power", int)

    @pytest.fixture
    def divisors(self, monkeypatch):
        """The length of every divisor that reaches long division or the series."""
        return self._spy(monkeypatch, "_div_dense", len)

    def test_lattice_examples(self):
        assert intpoly._lattice([[1, 2, 3]]) == 1
        assert intpoly._lattice([[5], [7]]) == 0
        assert intpoly._lattice([[1, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3]]) == 6
        assert intpoly._lattice([[1, 0, 0, 0, 1], [2], [1, 0, 0, 0, 0, 0, 1]]) == 2
        assert intpoly._lattice([[1, 0, 0, 1, 0, 0, 1], [1, 0, 1]]) == 1
        assert intpoly._lattice([[0, 0, 0, 0, 1, 0, 1]]) == 2

    @pytest.mark.parametrize("g", [2, 3, 6])
    def test_exact_division_on_the_lattice(self, g, lifts, divisors):
        # unit leads reach long division and, past the cutoff in X**g, the
        # series inverse; the lead 2 long division only
        rng = random.Random(100 + g)
        shapes = [(3, 2), (5, 9), (17, 30), (90, 110)]
        for qlen, rlen in shapes:
            for lead in (1, -1, 2):
                q1 = _random_divisor(rng, qlen, lead)
                r1 = [rng.randint(-20, 20) for _ in range(rlen - 1)] + [rng.choice([1, -3])]
                p, q = _lift(naive_mul(q1, r1), g), _lift(q1, g)
                oracle, rem = naive_divmod(p, q)
                assert oracle is not None and not rem
                lifts.clear()
                divisors.clear()
                assert poly_exact_div(p, q) == trim(oracle) == _lift(r1, g)
                assert lifts == [g] and divisors == [qlen]

    @pytest.mark.parametrize("g", [2, 3, 6])
    def test_inexact_division_on_the_lattice(self, g, divisors):
        # a perturbation at X**j moves the operands to the lattice gcd(j, g):
        # on the lattice they keep it, off it they take a finer one, or none
        # at gcd 1; every route must raise as the oracle finds
        rng = random.Random(200 + g)
        for qlen, rlen in [(3, 2), (8, 8), (90, 110)]:
            q1 = _random_divisor(rng, qlen, rng.choice([1, -1]))
            r1 = [rng.randint(-20, 20) for _ in range(rlen - 1)] + [1]
            p, q = _lift(naive_mul(q1, r1), g), _lift(q1, g)
            for j in (rng.randrange(len(p) // g) * g, rng.randrange(1, g), 1):
                bad = list(p)
                bad[j] += rng.choice([1, -1, 4])
                quot, rem = naive_divmod(bad, q)
                assert quot is None or rem
                divisors.clear()
                with pytest.raises(NotDivisibleError):
                    poly_exact_div(bad, q)
                assert divisors == [(len(q) - 1) // math.gcd(j, g) + 1]

    @pytest.mark.parametrize("g", [2, 3, 6])
    def test_divisor_on_a_lattice_the_dividend_is_not_on(self, g, lifts, divisors):
        # q(X**g) * r with a term X**j, g not dividing j, in r is off the
        # lattice, and so is that product plus a constant or plus X
        rng = random.Random(300 + g)
        for qlen, rlen in [(3, 2), (6, 11), (40, 260)]:
            q = _lift(_random_divisor(rng, qlen, 1), g)
            r = [rng.randint(-20, 20) for _ in range(rlen - 1)] + [1]
            r[1] = 7
            p = naive_mul(q, r)
            outcomes = []
            divisors.clear()
            for dividend in (p, naive_add(p, [1]), naive_add(p, [0, 1])):
                quot, rem = naive_divmod(dividend, q)
                if quot is None or rem:
                    with pytest.raises(NotDivisibleError):
                        poly_exact_div(dividend, q)
                    outcomes.append(None)
                else:
                    outcomes.append(poly_exact_div(dividend, q))
                    assert outcomes[-1] == trim(quot)
            assert outcomes == [r, None, None]
            assert lifts == [] and set(divisors) == {len(q)}

    @pytest.mark.parametrize("g", [2, 3, 6])
    def test_product_on_the_lattice(self, g, lifts):
        rng = random.Random(400 + g)
        factors = [
            [rng.randint(-9, 9) for _ in range(length)] + [rng.choice([1, -2])]
            for length in (1, 2, 5, 12, 30)
        ]
        expected = [1]
        for f in factors:
            expected = naive_mul(expected, f)
        assert poly_prod([_lift(f, g) for f in factors]) == _lift(expected, g)
        assert lifts == [g]
        # a product of constants, and of one factor, takes no lattice route
        assert poly_prod([[3], [-2]]) == [-6]
        assert poly_prod([_lift(factors[-1], g)]) == _lift(factors[-1], g)
        assert lifts == [g]

    @pytest.mark.parametrize("g", [2, 3, 6])
    def test_product_with_one_factor_off_the_lattice(self, g, lifts):
        # each factor in turn, shortest to longest, is off the lattice: it has
        # a linear term, and the others are lifted to the same lengths
        rng = random.Random(500 + g)
        lengths = (7, 13, 25, 49)
        for off in range(len(lengths)):
            factors = []
            for i, length in enumerate(lengths):
                if i == off:
                    f = [rng.randint(-9, 9) for _ in range(length - 1)] + [1]
                    f[1] = 5
                else:
                    f = _lift([rng.randint(-9, 9) for _ in range((length - 1) // g)] + [1], g)
                factors.append(f)
            assert [len(f) for f in factors] == list(lengths)
            expected = [1]
            for f in factors:
                expected = naive_mul(expected, f)
            assert poly_prod(factors) == expected
            assert poly_prod(factors[::-1]) == expected
        assert lifts == []

    @given(
        st.lists(st.integers(-30, 30), min_size=1, max_size=10),
        st.integers(-9, 9).filter(bool),
        st.integers(-9, 9).filter(bool),
        st.lists(st.integers(-9, 9), max_size=8),
        st.sampled_from([1, -1]),
        st.integers(2, 7),
        st.integers(0, 10**6),
        st.integers(-5, 5).filter(bool),
    )
    @settings(max_examples=300, deadline=None)
    def test_substituted_quotient_property(self, r, c0, c1, middle, lead, g, at, bump):
        # p = r*q, so p(X**g) / q(X**g) == r(X**g); one perturbed coefficient
        # anywhere in p(X**g) leaves a remainder, since q has two or more terms
        q = [c0, c1] + middle + [lead]
        p = naive_mul(r, q)
        big_p, big_q = _lift(p, g) if p else [], _lift(q, g)
        assert poly_exact_div(big_p, big_q) == (_lift(trim(r), g) if trim(r) else [])
        if not big_p:
            return
        bad = list(big_p)
        bad[at % len(bad)] += bump
        with pytest.raises(NotDivisibleError):
            poly_exact_div(bad, big_q)


class TestOperandsUntouched:
    OPERANDS = [
        [], [0, 0], [5], [1], [-1], [-1, 1], [1, 0, 0, 1], [2, 0, -3],
        [1, 0, 1, 0, 0], [3, -1, 4, 1, 5, -9, 2, 6], (1, 2, 3, 0), (0, -1, 1),
        [1] + [0] * 30 + [-1], [4, -3, 0, 2, 0, 0, 7] * 6,
    ]

    @staticmethod
    def _check(fn, *operands):
        before = [list(op) for op in operands]
        out = fn(*operands)
        assert all(out is not op for op in operands), (fn, operands)
        assert [list(op) for op in operands] == before, (fn, operands)
        return out

    def test_products_and_quotients(self):
        for p in self.OPERANDS:
            for q in self.OPERANDS:
                prod = self._check(poly_mul, p, q)
                self._check(lambda *fs: poly_prod(fs), p, q)
                if any(q):
                    assert self._check(poly_exact_div, prod, q) == trim(p)
            self._check(lambda f: poly_prod([f]), p)
            for q in ([1], [-1]):
                self._check(poly_exact_div, p, q)

    def test_substitute_power(self):
        for p in self.OPERANDS:
            for m in (1, 2, 5):
                self._check(lambda f: substitute_power(f, m), p)


class TestSeriesInverse:
    @staticmethod
    def _check(b, k):
        inv = intpoly._series_inverse(b, k)
        assert len(inv) == k, (b, k)
        low = naive_mul(b, inv)[:k]
        assert low + [0] * (k - len(low)) == [1] + [0] * (k - 1), (b, k)

    def test_inverse_modulo_x_pow_k(self):
        rng = random.Random(9090)
        for _ in range(120):
            size = rng.randint(1, 40)
            b = [rng.choice([1, -1])] + [rng.randint(-6, 6) for _ in range(size - 1)]
            for k in {1, 2, 3, 16, 17, 32, 33, len(b), len(b) + 5, 2 * len(b) + 9}:
                self._check(b, k)

    def test_sparse_divisor_with_zero_tails(self):
        # 1/(1 - X**j) = 1 + X**j + X**(2j) + ...: the corrections of the
        # Newton steps end in zeros, which the result must keep
        for j in (1, 2, 3, 5, 8, 13):
            for c0 in (1, -1):
                b = [c0] + [0] * (j - 1) + [-1]
                for k in (1, 2, 3, 4, 8, 9, 16, 17, j, j + 1, 3 * j + 2, 64, 65):
                    self._check(b, k)


class TestMulBinomial:
    COEFFS = (1, -1, 2, -2, 3, -3)

    def _operands(self, seed):
        # p with zeros inside, at the bottom, and trailing zeros at the top
        # that trimming removes, and one two-term p; k from 1 to beyond len(p)
        rng = random.Random(seed)
        shapes = [[5], [0, 1], [3, 0, 0, -2], [0, 0, 4, 0, 1, 0, 0], [1, 0, 0]]
        for length in (2, 7, 30, 61):
            p = [rng.choice([0, 0, rng.randint(-40, 40)]) for _ in range(length)]
            shapes.append([0] + p + [rng.choice([1, -1, 9])] + [0, 0])
        for p in shapes:
            for k in sorted({1, 2, 3, len(p) - 1, len(p), len(p) + 1, 2 * len(p) + 5}):
                if k >= 1:
                    yield p, k

    def test_matches_naive_mul_either_side(self):
        for p, k in self._operands(31337):
            for c0 in self.COEFFS:
                for ck in self.COEFFS:
                    q = _binomial(c0, ck, k)
                    expected = naive_mul(p, q)
                    assert poly_mul(p, q) == expected, (p, q)
                    assert poly_mul(q, p) == expected, (q, p)
                    assert poly_mul(p, q + [0, 0]) == expected, (p, q)

    def test_result_is_a_fresh_list(self):
        p = [1, 2, 3]
        for q in ([1, 1], [1] + [0] * 5 + [1]):
            out = poly_mul(p, q)
            out[0] = 99
            assert p == [1, 2, 3]

    def test_routing_skips_the_packed_multiply(self, monkeypatch):
        dense = [random.Random(8).randint(-9, 9) for _ in range(600)] + [1]
        cases = [(dense, _binomial(-1, 1, k)) for k in (1, 64, 601, 1000)]
        cases.append(([7, 0, 1], _binomial(2, -3, 1)))
        expected = [naive_mul(p, q) for p, q in cases]

        def general_path(*args):
            raise AssertionError("a two-term operand took a general multiply path")

        monkeypatch.setattr(intpoly, "_mul_packed", general_path)
        for (p, q), want in zip(cases, expected):
            assert poly_mul(p, q) == want
            assert poly_mul(q, p) == want


class TestSubstituteEval:
    def test_examples(self):
        assert substitute_power([1, 0, 1], 2) == [1, 0, 0, 0, 1]
        assert substitute_power([9, -4, 2], 1) == [9, -4, 2]
        assert substitute_power([-1, 1], 3) == [-1, 0, 0, 1]

    def test_composition(self):
        rng = random.Random(3)
        for _ in range(50):
            p = [rng.randint(-20, 20) for _ in range(rng.randint(1, 9))]
            a, b = rng.randint(1, 5), rng.randint(1, 5)
            assert substitute_power(p, a * b) == substitute_power(
                substitute_power(p, a), b
            )

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            substitute_power([1, 1], 0)

    def test_matches_naive_substitution(self):
        rng = random.Random(17)
        polys = [(), [], [0, 0], [7], (3, 0, -2), [0, 1], [1, 2, 0, 0]]
        polys += [[rng.randint(-9, 9) for _ in range(size)] + [1] for size in (1, 5, 40)]
        for p in polys:
            coeffs = trim(p)
            for m in range(1, 8):
                naive = [0] * ((len(coeffs) - 1) * m + 1) if coeffs else []
                for j, c in enumerate(coeffs):
                    naive[j * m] = c
                out = substitute_power(p, m)
                assert out == naive, (p, m)
                assert type(out) is list and out is not p


class TestPowerSums:
    def test_examples(self):
        assert power_sums([-1, 1], 3) == [1, 1, 1, 1]
        assert power_sums([-1, 0, 1], 4) == [2, 0, 2, 0, 2]
        assert power_sums([1, 0, 1], 4) == [2, 0, -2, 0, 2]
        assert power_sums([3, 1], 0) == [1]  # q_max = 0 gives just the degree

    def test_known_roots(self):
        # (x-2)(x-3) = x^2 - 5x + 6
        assert power_sums([6, -5, 1], 4) == [2, 5, 13, 35, 97]

    def test_rejects_non_monic(self):
        with pytest.raises(NotMonicError):
            power_sums([1, 2], 3)
        with pytest.raises(NotMonicError):
            power_sums([5], 3)
        with pytest.raises(NotMonicError):
            power_sums([], 3)

    def test_inverse_examples(self):
        assert coeffs_from_power_sums([0, 0, -2], 2) == [1, 0, 1]
        assert coeffs_from_power_sums([0, 1], 1) == [-1, 1]
        assert coeffs_from_power_sums([0, 1, 1, 1, 1], 4) == [0, 0, 0, -1, 1]

    def test_roundtrip_randomized(self):
        rng = random.Random(42)
        for _ in range(200):
            deg = rng.randint(1, 20)
            p = [rng.randint(-30, 30) for _ in range(deg)] + [1]
            sums = power_sums(p, deg)
            assert coeffs_from_power_sums(sums, deg) == p

    def test_inexact_division_detected(self):
        # S_1 = 0, S_2 = 1 forces a_0 = -1/2
        with pytest.raises(InexactDivisionError):
            coeffs_from_power_sums([0, 0, 1], 2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            coeffs_from_power_sums([0, 1], 2)
        with pytest.raises(ValueError):
            coeffs_from_power_sums([0], 0)
        with pytest.raises(ValueError):
            power_sums([0, 1], -1)


def _random_monic(rng, deg):
    # small coefficients keep the power sums (about max|root|**q) short
    bound = rng.choice((1, 3, 30))
    return [rng.randint(-bound, bound) for _ in range(deg)] + [1]


# N + 1 = 2**k - 1, 2**k, 2**k + 1 and 2**k + 2 for k = 5 .. 8: the doubling
# steps over the precisions ceil((N+1) / 2**i) then go from h to 2*h or to
# 2*h - 1 terms, at the top step and below it
_SCHEDULE_EDGES = [2**k + j for k in range(5, 9) for j in (-2, -1, 0, 1)]


class TestNewtonIdentities:
    """Newton's identities by Newton doubling against the scalar recurrence."""

    def test_power_sums_match_scalar_recurrence(self):
        rng = random.Random(7)
        for deg in sorted(rng.sample(range(1, 301), 40)) + [1] + _SCHEDULE_EDGES:
            p = _random_monic(rng, deg)
            for q_max in (0, rng.randint(0, deg - 1), deg, 2 * deg + 1):
                assert power_sums(p, q_max) == naive_power_sums(p, q_max), (deg, q_max)

    def test_power_sums_far_past_the_degree(self):
        for p in ([-1, 1], [6, -5, 1], [1, -2, 0, 1], [-1, 0, 0, 1], [2, 1, -3, 1]):
            deg = len(p) - 1
            assert power_sums(p, 5000) == naive_power_sums(p, 5000), deg
        # a longer known polynomial, still far shorter than the output
        rng = random.Random(3)
        for deg in (91, 116):
            p = [rng.randint(-1, 1) for _ in range(deg)] + [1]
            assert power_sums(p, 10 * deg) == naive_power_sums(p, 10 * deg), deg

    def test_coeffs_roundtrip_and_scalar_recurrence(self):
        rng = random.Random(11)
        for deg in sorted(rng.sample(range(1, 301), 40)) + [1] + _SCHEDULE_EDGES:
            p = _random_monic(rng, deg)
            sums = power_sums(p, deg)
            assert coeffs_from_power_sums(sums, deg) == p, deg
            assert naive_coeffs_from_power_sums(sums, deg) == p, deg

    def test_extra_power_sums_are_ignored(self):
        p = _random_monic(random.Random(5), 150)
        sums = power_sums(p, 400)
        sums[0] = 12345  # S_0 is never read
        assert coeffs_from_power_sums(sums, 150) == p
        assert coeffs_from_power_sums(tuple(sums), 150) == p

    def test_perturbed_power_sum_is_inexact(self):
        # Raising S_k by 1 raises the step-k numerator by e_0 = 1, so step k
        # (k >= 2) is the first inexact one, whichever doubling reaches it.
        deg = 387
        rng = random.Random(13)
        p = _random_monic(rng, deg)
        sums = power_sums(p, deg)
        boundaries = ((deg + 1) // 2, (deg + 1) // 4, 3 * (deg + 1) // 4)
        for k in (2, 24, *boundaries, deg - 1, deg):
            bad = list(sums)
            bad[k] += 1
            assert naive_coeffs_from_power_sums(bad, deg) is None, k
            with pytest.raises(InexactDivisionError):
                coeffs_from_power_sums(bad, deg)

    def test_first_inexact_step_raises(self, monkeypatch):
        # Indices finish in increasing k: every step before the fault runs,
        # and nothing after it.
        deg = 288
        sums = power_sums(_random_monic(random.Random(17), deg), deg)
        sums[deg // 2] += 1
        steps = []
        real_divmod = divmod

        def spy(a, b):
            steps.append(b)
            return real_divmod(a, b)

        monkeypatch.setattr(intpoly, "divmod", spy, raising=False)
        with pytest.raises(InexactDivisionError):
            coeffs_from_power_sums(sums, deg)
        assert steps == list(range(1, deg // 2 + 1))
        # deg // 2 ends the doubling from 73 to 145 terms; 100 lies inside it
        sums[deg // 2] -= 1
        sums[100] += 1
        steps.clear()
        with pytest.raises(InexactDivisionError):
            coeffs_from_power_sums(sums, deg)
        assert steps == list(range(1, 101))

    def test_newton_ramanujan_matches_the_default_algorithm(self):
        # phi(4096) = 2048 is a power of two; 2999 is prime
        for n in (4096, 4097, 2999, 30030):
            assert cyclo.cyclotomic(n, "newton_ramanujan").poly == cyclo.cyclotomic_poly(n), n


class TestHelpers:
    def test_height(self):
        assert intpoly.poly_height([]) == 0
        assert intpoly.poly_height([1, -7, 3]) == 7

    def test_trim(self):
        assert trim([0, 1, 0, 0]) == [0, 1]
        assert trim([]) == []
        assert trim((1, 2)) == [1, 2]
        assert type(trim((1, 2, 0))) is list

    def test_trim_returns_a_fresh_list(self):
        for p in ([3, 0], [3, 4]):
            out = trim(p)
            out.append(9)
            assert p[-1] != 9


class TestRendering:
    def test_basic(self):
        assert poly_str([]) == "0"
        assert poly_str([1, 0, -1, 0, 1]) == "X^4 - X^2 + 1"
        assert poly_str([-1, 1]) == "X - 1"
        assert poly_str([0, -2]) == "-2*X"
        assert poly_str([7]) == "7"

    def test_custom_variable(self):
        assert poly_str([1, 1, 1], var="t") == "t^2 + t + 1"

    def test_elision(self):
        long = [1] * 101
        text = poly_str(long, max_terms=40)
        assert "terms elided" in text
        assert text.startswith("X^100")
        assert text.endswith("+ 1")

    def test_elision_keeps_at_most_max_terms(self):
        five = [1] * 5
        assert poly_str(five, max_terms=0) == "... (5 terms elided)"
        assert poly_str(five, max_terms=1) == "... (5 terms elided)"
        assert poly_str(five, max_terms=2) == "X^4 + ... (3 terms elided) + 1"
        assert poly_str(five, max_terms=3) == "X^4 + ... (3 terms elided) + 1"
        assert poly_str(five, max_terms=5) == "X^4 + X^3 + X^2 + X + 1"
        with pytest.raises(ValueError):
            poly_str(five, max_terms=-1)
