import itertools
import math
import random

import pytest

from conftest import all_codes, codewords, identity_monomial, random_monomial, strength_by_scan
from grasscodes import codes, linalg
from grasscodes.codes import (
    CRITERIA,
    INFINITE,
    LinearCode,
    MonomialMap,
    apply_monomial,
    classify,
    coordinate_subspace,
    dual,
    dual_min_distance,
    format_generator,
    has_strength,
    min_distance,
    parse_generator,
    strength,
    weight,
)
from grasscodes.errors import (
    BadIndicesError,
    BadTError,
    DimensionMismatchError,
    ParseError,
    TooLargeExactError,
)
from grasscodes.gf import field_new, field_of_order
from grasscodes.grassmann import enumerate_subspaces
from grasscodes.linalg import Subspace

F2 = field_new(2)
F3 = field_new(3)
F5 = field_new(5)


def code(ctx, rows, n=None):
    return LinearCode.from_generator(ctx, rows, n=n)


C32 = code(F2, [(1, 0, 1), (0, 1, 1)])  # [3,2] over GF(2)


def test_weight():
    assert weight((0, 0, 0, 0)) == 0
    assert weight((1, 0, 2, 0)) == 2
    assert weight((1, 1, 1)) == 3





def test_dual_kernel_oracle():
    # oracle: scan all 8 vectors of F_2^3 for orthogonality to both rows
    d = dual(C32)
    expected = {
        v
        for v in itertools.product(range(2), repeat=3)
        if (v[0] + v[2]) % 2 == 0 and (v[1] + v[2]) % 2 == 0
    }
    assert set(codewords(d)) == expected == {(0, 0, 0), (1, 1, 1)}
    assert d.k == 1


def test_dual_trivial_cases():
    full = LinearCode(Subspace.full(F3, 4))
    zero = LinearCode(Subspace.zero(F3, 4))
    assert dual(full).k == 0
    assert dual(zero).k == 4
    assert dual(dual(full)) == full


def test_dual_involution_exhaustive_small():
    for ctx in (F2, F3):
        for k in range(0, 4):
            for c in all_codes(ctx, 3, k):
                assert dual(dual(c)) == c


def test_min_distance_examples():
    assert min_distance(dual(C32)) == 3
    rep = code(F5, [(1, 1, 1, 1, 1)])
    assert min_distance(rep) == 5
    zero = LinearCode(Subspace.zero(F2, 3))
    assert min_distance(zero) == INFINITE


def test_min_distance_bulk_matches_scalar():
    """Bulk numpy enumeration agrees with the pure-python path."""
    rng = random.Random(11)
    for q, n, k in [(2, 9, 5), (3, 7, 4), (5, 6, 3), (8, 5, 3)]:
        ctx = field_of_order(q)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        c = code(ctx, rows, n=n)
        if c.k == 0:
            continue
        slow = min(weight(v) for v in codewords(c) if any(v))
        assert min_distance(c) == slow


def test_min_distance_cap():
    c = LinearCode(Subspace.full(F2, 20))
    with pytest.raises(TooLargeExactError):
        min_distance(c, max_words=1 << 10)


def test_dual_min_distance_examples():
    assert dual_min_distance(C32) == 3
    full = LinearCode(Subspace.full(F5, 3))
    assert dual_min_distance(full) == INFINITE
    degenerate = code(F2, [(1, 0, 0), (0, 1, 0)])
    assert dual_min_distance(degenerate) == 1


def test_has_strength_examples():
    assert has_strength(C32, 2)
    degenerate = code(F2, [(1, 0, 0), (0, 1, 0)])
    assert not has_strength(degenerate, 1)
    # t > k is impossible for proper subcodes
    assert not has_strength(C32, 3)  # k = 2 < 3 <= n
    with pytest.raises(BadTError):
        has_strength(C32, 0)
    with pytest.raises(BadTError):
        has_strength(C32, 4)


def test_full_space_has_every_strength():
    full = LinearCode(Subspace.full(F3, 4))
    for t in range(1, 5):
        for crit in CRITERIA:
            assert has_strength(full, t, crit)


def test_strength_examples():
    assert strength(C32) == 2
    zero_col = code(F2, [(1, 0, 0), (0, 1, 0)])
    assert strength(zero_col) == 0
    vandermonde = code(F5, [(1, 1, 1, 1), (0, 1, 2, 3)])
    assert strength(vandermonde) == 2
    assert classify(vandermonde)["mds"]


def test_strength_matches_dual_distance():
    for ctx in (F2, F3):
        for k in range(0, 5):
            for c in all_codes(ctx, 4, k):
                dmd = dual_min_distance(c)
                expect = c.k if dmd == INFINITE else min(int(dmd) - 1, c.k)
                assert strength(c) == expect


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_strength_matches_column_prefix_kernel(q):
    """`strength` against `strength_all`, the numpy column-prefix kernel,
    for every n <= 6 and every 0 <= k <= n: every subspace when there are
    at most 5,000, otherwise every ceil(V / 5000)-th row in index order.
    (5,6,3) has 2,558,556 subspaces, above the default enumeration cap."""
    ctx = field_of_order(q)
    for n in range(1, 7):
        for k in range(n + 1):
            index = enumerate_subspaces(ctx, n, k, max_count=1 << 22)
            expect = index.strength_all().tolist()
            for i in range(0, len(index), -(-len(index) // 5000)):
                assert strength(LinearCode(index.subspace_at(i))) == expect[i], (q, n, k, i)


def _random_columns_code(ctx, n, k, rng):
    """A code whose k x n generator has zero, repeated, proportional and
    random columns, drawn from a `random.Random`; its rank may fall below
    k."""
    cols = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.1:
            col = [0] * k
        elif kind < 0.35 and cols:
            lam = rng.randrange(1, ctx.q)
            col = [ctx.mul(lam, x) for x in rng.choice(cols)]
        else:
            col = [rng.randrange(ctx.q) for _ in range(k)]
        cols.append(col)
    return LinearCode.from_generator(ctx, zip(*cols), n=n)


def test_strength_matches_scan_and_dual_distance_random():
    """`strength` against the per-subset scan and against the dual
    distance on seeded random codes, q <= 29 and n <= 10; the dual is
    enumerated when it has at most 2^16 words."""
    rng = random.Random(2028)
    for _ in range(400):
        ctx = field_of_order(rng.choice([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 29]))
        n = rng.randint(1, 10)
        c = _random_columns_code(ctx, n, rng.randint(1, n), rng)
        got = strength(c)
        assert got == strength_by_scan(c), (c, c.generator.rows)
        if ctx.q ** (n - c.k) <= 1 << 16:
            dmd = dual_min_distance(c)
            assert got == (c.k if dmd == INFINITE else min(int(dmd) - 1, c.k)), c


def test_strength_runs_no_reduction(monkeypatch):
    """`strength` searches column subsets with its own eliminations: no
    `rref` and no `column_rank`, for degenerate, projective, MDS, full
    and zero codes."""
    rng = random.Random(7)
    cases = [_random_columns_code(field_of_order(q), n, k, rng) for q, n, k in
             [(2, 8, 4), (3, 7, 3), (9, 6, 3), (29, 8, 4)] for _ in range(5)]
    cases += [code(F5, [(1, 1, 1, 1), (0, 1, 2, 3)]), code(F2, [(1, 0, 0), (0, 1, 0)]),
              LinearCode(Subspace.full(F3, 4)), LinearCode(Subspace.zero(F3, 4))]
    expect = [strength_by_scan(c) for c in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("strength must not reduce a column subset")

    monkeypatch.setattr(codes, "rref", refuse)
    monkeypatch.setattr(codes, "column_rank", refuse)
    monkeypatch.setattr(linalg, "rref", refuse)
    assert [strength(c) for c in cases] == expect


def test_criteria_agree_exhaustive_small():
    """Three-way agreement on every [4,k] code over GF(2), GF(3), all t."""
    for ctx in (F2, F3):
        for k in range(1, 5):
            for c in all_codes(ctx, 4, k):
                for t in range(1, 5):
                    answers = {crit: has_strength(c, t, crit) for crit in CRITERIA}
                    assert len(set(answers.values())) == 1, (c, t, answers)


def test_coordinate_subspace_examples():
    s = coordinate_subspace(F2, 3, (1,))
    assert s.dim == 2
    assert set(s.vectors()) == {(0, a, b) for a in (0, 1) for b in (0, 1)}
    cs2 = coordinate_subspace(F2, 4, (1, 3))
    assert set(cs2.vectors()) == {(0, a, 0, b) for a in (0, 1) for b in (0, 1)}
    assert coordinate_subspace(F2, 3, (1, 2, 3)).dim == 0
    # the trusted identity rows are the RREF basis a validated span gives
    for idx in itertools.combinations(range(1, 5), 2):
        cs = coordinate_subspace(F3, 4, idx)
        assert cs == Subspace.from_vectors(F3, 4, cs.basis.rows)
    with pytest.raises(BadIndicesError):
        coordinate_subspace(F2, 3, (2, 1))
    with pytest.raises(BadIndicesError):
        coordinate_subspace(F2, 3, (0, 1))


def test_apply_monomial_examples():
    ident = identity_monomial(F2, 3)
    assert apply_monomial(ident, C32) == C32
    swap12 = MonomialMap(F2, (1, 0, 2), (1, 1, 1))
    swapped = apply_monomial(swap12, C32)
    assert strength(swapped) == 2
    assert swapped == code(F2, [(0, 1, 1), (1, 0, 1)])
    scale = MonomialMap(F3, (0, 1, 2), (2, 1, 1))
    c = code(F3, [(1, 1, 1)])
    assert apply_monomial(scale, c) == code(F3, [(2, 1, 1)])


def test_apply_monomial_mismatch():
    m = identity_monomial(F2, 4)
    with pytest.raises(DimensionMismatchError):
        apply_monomial(m, C32)


@pytest.mark.parametrize("scalars", [(0, 1, 1), (-1, 1, 1), (5, 1, 1), (7, 1, 1), (1, 1)])
def test_monomial_rejects_bad_scalars(scalars):
    """Scalars must be n elements of [1, q): a negative or oversized one
    would otherwise act as some other scalar or fail inside the field."""
    with pytest.raises(DimensionMismatchError):
        MonomialMap(F5, (0, 1, 2), scalars)


def test_monomial_strength_invariance_randomized():
    rng = random.Random(2024)
    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx = field_of_order(q)
        for _ in range(60):
            n = rng.randrange(2, 6)
            k = rng.randrange(1, n + 1)
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
            c = code(ctx, rows, n=n)
            m = random_monomial(ctx, n, rng)
            assert strength(apply_monomial(m, c)) == strength(c)


def test_singleton_mds_characterization():
    """Strength k iff both the code and its dual meet the Singleton bound."""
    for ctx in (F2, F3):
        for n in (3, 4):
            for k in range(1, n):
                for c in all_codes(ctx, n, k):
                    d = dual(c)
                    singleton_both = (
                        min_distance(c) == c.n - c.k + 1
                        and min_distance(d) == d.n - d.k + 1
                    )
                    assert (strength(c) == c.k) == singleton_both


def test_classify_dict():
    info = classify(C32)
    assert info == {
        "q": 2,
        "n": 3,
        "k": 2,
        "strength": 2,
        "dual_min_distance": 3,
        "degenerate": False,
        "projective": True,
        "mds": True,
    }
    full = LinearCode(Subspace.full(F2, 3))
    assert classify(full)["dual_min_distance"] is None
    assert classify(full)["strength"] == 3


def test_format_parse_roundtrip():
    text = format_generator(C32)
    assert text == "2 3 2\n1 0 1\n0 1 1\n"
    assert parse_generator(text) == C32
    commented = "# a comment\n2 3 2\n1 0 1\n# mid comment\n0 1 1\n"
    assert parse_generator(commented) == C32


def test_parse_generator_is_lenient_about_whitespace():
    """Entries split on any whitespace, blank and indented-comment lines are
    skipped, and the final newline is optional; format_generator writes the
    strict form."""
    for text in (
        "2 3 2\n1\t0\t1\n0   1 1",
        "\n  2\t3  2\n\n   # indented comment\n 1 0 1 \n0 1\t1\n\n",
        "2 3 2\r\n1 0 1\r\n0 1 1",
    ):
        assert parse_generator(text) == C32
        assert format_generator(parse_generator(text)) == "2 3 2\n1 0 1\n0 1 1\n"


def test_parse_generator_errors():
    with pytest.raises(ParseError):
        parse_generator("")
    with pytest.raises(ParseError):
        parse_generator("2 3\n1 0 1\n")
    with pytest.raises(ParseError):
        parse_generator("6 3 2\n1 0 1\n0 1 1\n")  # 6 is not a prime power
    with pytest.raises(ParseError):
        parse_generator("2 3 2\n1 0 1\n")  # missing row
    with pytest.raises(ParseError):
        parse_generator("2 3 2\n1 0 1\n1 0 1\n")  # dependent rows
    with pytest.raises(ParseError):
        parse_generator("2 3 2\n1 0 7\n0 1 1\n")  # entry out of range
    with pytest.raises(ParseError):
        parse_generator("2 3 2\n1 0 x\n0 1 1\n")


def test_parse_extension_field():
    c = parse_generator("9 4 2\n1 0 3 5\n0 1 7 2\n")
    assert c.ctx.q == 9
    assert c.n == 4 and c.k == 2


def test_strength_full_and_zero():
    assert strength(LinearCode(Subspace.full(F2, 4))) == 4
    assert strength(LinearCode(Subspace.zero(F2, 4))) == 0
    assert min_distance(LinearCode(Subspace.zero(F2, 4))) == math.inf
