import random

import numpy as np
import pytest

from conftest import batched_rank, codewords
from grasscodes.bulk import batched_rref, min_weight_in_span, span_words
from grasscodes.codes import LinearCode, min_distance, weight
from grasscodes.gf import field_of_order
from grasscodes.linalg import MatrixGF, rref


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_batched_rref_matches_scalar(q):
    ctx = field_of_order(q)
    rng = random.Random(q)
    mats = [
        [[rng.randrange(q) for _ in range(5)] for _ in range(3)] for _ in range(60)
    ]
    batch = np.array(mats, dtype=np.uint8)
    reduced, ranks = batched_rref(ctx, batch)
    for i, rows in enumerate(mats):
        expect, rank = rref(MatrixGF(ctx, rows))
        assert ranks[i] == rank
        assert [tuple(r) for r in reduced[i].tolist()] == list(expect.rows)


def test_batched_rank_edge_shapes():
    ctx = field_of_order(3)
    assert batched_rank(ctx, np.zeros((0, 2, 3), dtype=np.uint8)).tolist() == []
    assert batched_rank(ctx, np.zeros((4, 0, 3), dtype=np.uint8)).tolist() == [0] * 4
    ident = np.broadcast_to(np.eye(3, dtype=np.uint8), (5, 3, 3))
    assert batched_rank(ctx, np.array(ident)).tolist() == [3] * 5


def test_span_words_matches_manual():
    ctx = field_of_order(5)
    basis = np.array([[1, 0, 2, 3], [0, 1, 4, 1]], dtype=np.uint8)
    encs = np.arange(25)
    words = span_words(ctx, basis, encs)
    for e in encs:
        c0, c1 = e % 5, (e // 5) % 5
        manual = [
            ctx.add(ctx.mul(c0, int(a)), ctx.mul(c1, int(b)))
            for a, b in zip(basis[0], basis[1])
        ]
        assert words[int(e)].tolist() == manual


@pytest.mark.parametrize("q,n,k", [(2, 8, 4), (3, 6, 3), (9, 4, 2)])
def test_min_weight_matches_enumeration(q, n, k):
    ctx = field_of_order(q)
    rng = random.Random(n * q)
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
    code = LinearCode.from_generator(ctx, rows, n=n)
    if code.k == 0:
        return
    brute = min(weight(v) for v in codewords(code) if any(v))
    fast = min_weight_in_span(ctx, [list(r) for r in code.generator.rows])
    assert fast == brute == min_distance(code)
