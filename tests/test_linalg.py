import itertools

import pytest

from conftest import dot, vadd
from grasscodes import linalg
from grasscodes.codes import LinearCode
from grasscodes.errors import (
    AmbientMismatchError,
    DimensionMismatchError,
    NotSubspaceError,
)
from grasscodes.gf import field_new, field_of_order
from grasscodes.linalg import (
    MatrixGF,
    Subspace,
    complement_basis,
    hyperplanes_containing,
    intersect,
    kernel,
    projective_reps,
    q_int,
    rref,
    subspace_count,
    subspace_sum,
)

F2 = field_new(2)
F3 = field_new(3)
F5 = field_new(5)


def e(n, i):
    """1-based standard basis vector."""
    return tuple(1 if j == i - 1 else 0 for j in range(n))


def all_subspaces(ctx, n, k):
    """Brute-force oracle: all k-subspaces, by spanning every k-tuple of
    vectors and deduplicating via the canonical basis."""
    vecs = list(itertools.product(range(ctx.q), repeat=n))
    seen = set()
    out = []
    for combo in itertools.combinations(vecs, k):
        s = Subspace.from_vectors(ctx, n, combo)
        if s.dim == k and s not in seen:
            seen.add(s)
            out.append(s)
    return out


def test_rref_hand_example():
    m = MatrixGF(F2, [[1, 0, 1], [1, 1, 0]])
    red, rank = rref(m)
    # hand Gaussian elimination: r2 += r1
    assert red.rows == ((1, 0, 1), (0, 1, 1))
    assert rank == 2


@pytest.mark.parametrize(
    "rows,ncols,error",
    [
        ([[1, 2], [1]], None, DimensionMismatchError),  # ragged
        ([[1, 2], [1, 0, 2]], 2, DimensionMismatchError),  # ragged
        ([[1, 3]], None, ValueError),  # entry q
        ([[0, -1]], 2, ValueError),  # negative entry
        ([[1, 2]], 3, DimensionMismatchError),  # ncols disagrees
        ([], None, DimensionMismatchError),  # no rows, no ncols
    ],
)
def test_constructors_validate_rows(rows, ncols, error):
    """Rows handed in from outside are checked by every public constructor."""
    with pytest.raises(error):
        MatrixGF(F3, rows, ncols=ncols)
    if ncols is not None:
        with pytest.raises(error):
            Subspace.from_vectors(F3, ncols, rows)
    if rows:
        with pytest.raises(error):
            LinearCode.from_generator(F3, rows, n=ncols)
    else:
        with pytest.raises(error):
            LinearCode.from_generator(F3, rows)


def test_rref_zero_and_identity():
    z = MatrixGF(F3, [[0] * 4, [0] * 4])
    red, rank = rref(z)
    assert rank == 0 and red.rows == ((0, 0, 0, 0), (0, 0, 0, 0))
    ident = MatrixGF.identity(F3, 3)
    red, rank = rref(ident)
    assert red == ident and rank == 3


def test_rref_is_projection():
    import random

    rng = random.Random(7)
    for ctx in (F2, F3, field_of_order(4)):
        for _ in range(40):
            rows = [[rng.randrange(ctx.q) for _ in range(4)] for _ in range(3)]
            m = MatrixGF(ctx, rows)
            r1, k1 = rref(m)
            r2, k2 = rref(r1)
            assert r1 == r2 and k1 == k2
            # row space preserved: every original row lies in the span
            s = Subspace(ctx, 4, MatrixGF(ctx, r1.rows[:k1], ncols=4))
            assert all(s.contains_vector(r) for r in rows)


def test_kernel_enumeration_oracle():
    m = MatrixGF(F2, [[1, 1, 1]])
    ker = kernel(m)
    # oracle: enumerate all 8 vectors of F_2^3
    expected = {v for v in itertools.product(range(2), repeat=3) if sum(v) % 2 == 0}
    assert set(ker.vectors()) == expected
    assert ker.dim == 2


def test_kernel_identity_and_zero():
    assert kernel(MatrixGF.identity(F3, 4)).dim == 0
    full = kernel(MatrixGF(F3, [[0] * 4]))
    assert full.dim == 4


def test_kernel_orthogonal_to_rowspace():
    import random

    rng = random.Random(3)
    for ctx in (F2, F3, field_of_order(5)):
        for _ in range(25):
            rows = [[rng.randrange(ctx.q) for _ in range(5)] for _ in range(3)]
            m = MatrixGF(ctx, rows)
            ker = kernel(m)
            _, rank = rref(m)
            assert ker.dim == 5 - rank
            for kv in ker.basis.rows:
                for r in rows:
                    assert dot(ctx, kv, r) == 0


def test_intersect_examples():
    # idempotence
    a = Subspace.from_vectors(F2, 4, [e(4, 1), e(4, 2)])
    assert intersect(a, a) == a
    # complementary coordinate spans
    b = Subspace.from_vectors(F2, 4, [e(4, 3), e(4, 4)])
    assert intersect(a, b).dim == 0
    # derived: span{e1, e1+e2} ∩ span{e2, e3} = span{e2} over GF(2), n=3
    x = Subspace.from_vectors(F2, 3, [e(3, 1), vadd(F2, e(3, 1), e(3, 2))])
    y = Subspace.from_vectors(F2, 3, [e(3, 2), e(3, 3)])
    assert intersect(x, y) == Subspace.from_vectors(F2, 3, [e(3, 2)])


def test_sum_examples():
    a = Subspace.from_vectors(F2, 4, [e(4, 1), e(4, 2)])
    zero = Subspace.zero(F2, 4)
    assert subspace_sum(a, zero) == a
    b = Subspace.from_vectors(F2, 4, [e(4, 3), e(4, 4)])
    assert subspace_sum(a, b).dim == 4
    s1 = Subspace.from_vectors(F2, 3, [e(3, 1)])
    s2 = Subspace.from_vectors(F2, 3, [vadd(F2, e(3, 1), e(3, 2))])
    assert subspace_sum(s1, s2) == Subspace.from_vectors(F2, 3, [e(3, 1), e(3, 2)])


def test_ambient_mismatch():
    a = Subspace.from_vectors(F2, 3, [e(3, 1)])
    b = Subspace.from_vectors(F2, 4, [e(4, 1)])
    with pytest.raises(AmbientMismatchError):
        intersect(a, b)
    c = Subspace.from_vectors(F3, 3, [e(3, 1)])
    with pytest.raises(AmbientMismatchError):
        subspace_sum(a, c)


def test_grassmann_dimension_identity_exhaustive_q2_n4():
    """dim(a+b) + dim(a∩b) = dim a + dim b, and a∩b holds exactly the
    common vectors, over every subspace pair of F_2^4 and over a stride of
    the pairs of F_9^3 (odd characteristic, e > 1, so sub != add)."""
    from conftest import all_subspaces as rref_subspaces

    spaces = []
    for k in range(5):
        spaces.extend(all_subspaces(F2, 4, k))
    assert len(spaces) == 1 + 15 + 35 + 15 + 1
    f9_spaces = [s for k in range(4) for s in rref_subspaces(field_of_order(9), 3, k)]
    assert len(f9_spaces) == 1 + 91 + 91 + 1
    for group, stride in ((spaces, 1), (f9_spaces, 7)):
        pairs = [(s, set(s.vectors())) for s in group]
        for a, va in pairs:
            for b, vb in pairs[::stride]:
                s = subspace_sum(a, b)
                i = intersect(a, b)
                assert s.dim + i.dim == a.dim + b.dim
                assert set(i.vectors()) == va & vb


def test_hyperplanes_containing_counts():
    # codimension 1: exactly one hyperplane, u itself
    x = Subspace.from_vectors(F2, 3, [e(3, 1), e(3, 2)])
    u = Subspace.from_vectors(F2, 3, [e(3, 1)])
    hps = list(hyperplanes_containing(x, u))
    assert hps == [u]
    # GF(2): the 3 lines of F_2^2
    x2 = Subspace.full(F2, 2)
    lines = list(hyperplanes_containing(x2, Subspace.zero(F2, 2)))
    assert len(lines) == q_int(2, 2) == 3
    assert len(set(lines)) == 3
    assert all(h.dim == 1 for h in lines)
    # GF(3): 4 lines
    x3 = Subspace.full(F3, 2)
    lines3 = list(hyperplanes_containing(x3, Subspace.zero(F3, 2)))
    assert len(lines3) == q_int(2, 3) == 4
    assert len(set(lines3)) == 4


def test_hyperplanes_containing_general():
    ctx = field_of_order(4)
    x = Subspace.from_vectors(ctx, 5, [e(5, 1), e(5, 2), e(5, 3)])
    u = Subspace.from_vectors(ctx, 5, [e(5, 1)])
    hps = list(hyperplanes_containing(x, u))
    assert len(hps) == q_int(2, 4) == 5
    for h in hps:
        assert h.dim == 2
        assert x.contains(h)
        assert h.contains(u)
    assert len(set(hps)) == len(hps)
    # order: the i-th hyperplane is the kernel in x of the i-th functional,
    # functionals being the projective combinations of the kernel of u's
    # coordinates over x, ascending
    w = kernel(MatrixGF(ctx, [x.coords_of(r) for r in u.basis.rows], ncols=3))
    functionals = [
        [dot(ctx, lam, col) for col in zip(*w.basis.rows)]
        for lam in projective_reps(ctx, w.dim)
    ]
    assert len(functionals) == len(hps)
    for c, h in zip(functionals, hps):
        assert all(dot(ctx, c, x.coords_of(r)) == 0 for r in h.basis.rows)


def test_hyperplanes_containing_not_subspace():
    x = Subspace.from_vectors(F2, 3, [e(3, 1), e(3, 2)])
    u = Subspace.from_vectors(F2, 3, [e(3, 3)])
    with pytest.raises(NotSubspaceError):
        list(hyperplanes_containing(x, u))
    with pytest.raises(AmbientMismatchError):
        list(hyperplanes_containing(x, Subspace.zero(F2, 4)))


def test_q_int_values():
    assert q_int(3, 2) == 7
    assert q_int(2, 3) == 4
    assert q_int(0, 5) == 0
    assert q_int(1, 9) == 1


def test_subspace_count_oracle():
    # derived by exhaustive enumeration of 2-subspaces of F_2^4
    assert subspace_count(4, 2, 2) == len(all_subspaces(F2, 4, 2)) == 35
    assert subspace_count(3, 1, 3) == len(all_subspaces(F3, 3, 1)) == 13
    assert subspace_count(5, 0, 2) == 1
    assert subspace_count(3, 4, 2) == 0


def test_projective_reps():
    reps = list(projective_reps(F3, 2))
    assert len(reps) == q_int(2, 3) == 4
    # each nonzero vector of F_3^2 is a scalar multiple of exactly one rep
    covered = set()
    for r in reps:
        for c in (1, 2):
            covered.add(tuple(F3.mul(c, x) for x in r))
    assert len(covered) == 8


def test_complement_basis():
    x = Subspace.full(F3, 3)
    u = Subspace.from_vectors(F3, 3, [(1, 2, 0)])
    comp = complement_basis(u, x)
    assert len(comp) == 2
    assert Subspace.from_vectors(F3, 3, list(u.basis.rows) + comp).dim == 3
    with pytest.raises(NotSubspaceError):
        complement_basis(Subspace.from_vectors(F3, 3, [(1, 0, 0)]),
                         Subspace.from_vectors(F3, 3, [(0, 1, 0)]))
    with pytest.raises(AmbientMismatchError):
        complement_basis(Subspace.zero(F3, 2), x)


def test_complement_basis_matches_greedy_scan():
    """The right-to-left pivot rule keeps the same rows as the in-order
    scan that keeps each row growing the span, on every pair inner ⊆ outer
    of F_2^4, F_3^3, F_4^3 and F_9^3."""
    from conftest import all_subspaces as rref_subspaces
    from conftest import complement_basis_greedy

    pairs = 0
    for q, n in ((2, 4), (3, 3), (4, 3), (9, 3)):
        ctx = field_of_order(q)
        spaces = [s for k in range(n + 1) for s in rref_subspaces(ctx, n, k)]
        for outer in spaces:
            for inner in spaces:
                if inner.dim <= outer.dim and outer.contains(inner):
                    assert complement_basis(inner, outer) == complement_basis_greedy(inner, outer)
                    pairs += 1
    assert pairs == 2339


def _count_calls(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


X5 = Subspace.from_vectors(F5, 5, [(1, 0, 1, 1, 1), (0, 1, 1, 2, 3), (0, 0, 1, 4, 2)])
U5 = Subspace.from_vectors(F5, 5, [(1, 0, 1, 1, 1), (0, 1, 1, 2, 3)])


def test_intersect_runs_one_rref(monkeypatch):
    """The meet and its dimension check come from one Zassenhaus RREF."""
    y = Subspace.from_vectors(F5, 5, [(1, 0, 1, 1, 1), (0, 1, 0, 0, 1), (0, 0, 0, 1, 1)])
    rrefs = _count_calls(monkeypatch, linalg, "rref")
    assert intersect(X5, y).dim == 1
    assert len(rrefs) == 1


@pytest.mark.parametrize("inner", [Subspace.zero(F5, 5), U5])
def test_complement_basis_runs_one_rref(monkeypatch, inner):
    rrefs = _count_calls(monkeypatch, linalg, "rref")
    assert len(complement_basis(inner, X5)) == X5.dim - inner.dim
    assert len(rrefs) == 1


def test_hyperplanes_containing_takes_coordinates_once(monkeypatch):
    """u's coordinates over x serve both the containment check and the
    functional system."""
    coords = _count_calls(monkeypatch, Subspace, "coords_of")
    next(hyperplanes_containing(X5, U5))
    assert len(coords) == U5.dim


def test_derived_spans_skip_entry_validation(monkeypatch):
    """Subspaces derived from valid ones are built without the validating
    MatrixGF constructor: with it disabled, coordinate subspaces, sums,
    meets, complements and the columns / coord_meet strength tests run."""
    from grasscodes.codes import LinearCode, coordinate_subspace, has_strength

    x = LinearCode.from_generator(F5, [(1, 0, 1, 1), (0, 1, 1, 2)])
    y = LinearCode.from_generator(F5, [(1, 1, 0, 3), (0, 1, 4, 1)])
    u = Subspace.from_vectors(F5, 4, [x.generator.rows[0]])

    def refuse(self, *args, **kwargs):
        raise AssertionError("MatrixGF validated a derived matrix")

    monkeypatch.setattr(MatrixGF, "__init__", refuse)
    cs = coordinate_subspace(F5, 4, (2, 4))
    assert cs.dim == 2
    assert subspace_sum(x.space, y.space).dim == 4
    assert intersect(x.space, y.space).dim == 0
    assert intersect(x.space, cs).dim == 0
    assert len(complement_basis(u, x.space)) == 1
    for criterion in ("columns", "coord_meet"):
        assert has_strength(x, 2, criterion)
        assert not has_strength(x, 3, criterion)


def test_extended_span_meet_bound():
    """For a strength-t code x, a hyperplane h of x, and any vector y
    outside x, the span <h, y> meets each codimension-t coordinate
    subspace in dimension at most k - t + 1.  Exhaustive at GF(2), n <= 4
    and GF(3), n = 3; the same bound is re-asserted on every constructive
    scan elsewhere."""
    from grasscodes.codes import LinearCode, coordinate_subspace, strength

    cases = [(F2, 3), (F2, 4), (F3, 3)]
    checked = 0
    for ctx, n in cases:
        vectors = list(itertools.product(range(ctx.q), repeat=n))
        for k in range(1, n):
            from conftest import all_subspaces

            for x in all_subspaces(ctx, n, k):
                t_max = strength(LinearCode(x))
                for t in range(1, t_max + 1):
                    coords = [
                        coordinate_subspace(ctx, n, idx)
                        for idx in itertools.combinations(range(1, n + 1), t)
                    ]
                    for h in hyperplanes_containing(x, Subspace.zero(ctx, n)):
                        for y in vectors:
                            if x.contains_vector(y):
                                continue
                            span = Subspace.from_vectors(
                                ctx, n, list(h.basis.rows) + [y]
                            )
                            for c in coords:
                                assert intersect(span, c).dim <= k - t + 1
                                checked += 1
    assert checked > 1000


def test_subspace_canonical_equality():
    # two spanning sets of the same plane give identical canonical bases
    a = Subspace.from_vectors(F3, 3, [(1, 1, 0), (0, 1, 1)])
    b = Subspace.from_vectors(F3, 3, [(1, 2, 2), (2, 2, 1)])
    if a == b:
        assert a.basis.rows == b.basis.rows
    # spanning the same space with redundant vectors
    c = Subspace.from_vectors(F3, 3, [(1, 1, 0), (2, 2, 0), (0, 1, 1)])
    assert c == a
