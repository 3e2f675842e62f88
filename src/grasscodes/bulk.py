"""Vectorized batch linear algebra over small finite fields.

numpy backs the desk-scale exhaustive machinery: many thousands of tiny
matrices processed per call, entries as uint8 encodings, arithmetic via
q x q lookup tables (q <= 256).  Scalar reference implementations of the
same operations live in linalg; the test suite pins their agreement.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldCtx


def batched_rref(ctx: FieldCtx, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RREF every matrix in a (B, r, c) uint8 batch.  Returns (rref, ranks)."""
    add, sub, mul, inv, neg = ctx.np_tables()
    a = np.array(mats, dtype=np.uint8, copy=True)
    if a.ndim != 3:
        raise ValueError("expected a (B, r, c) batch")
    bsz, r, c = a.shape
    if bsz == 0 or r == 0 or c == 0:
        return a, np.zeros(bsz, dtype=np.int64)
    lead = np.zeros(bsz, dtype=np.int64)
    row_ids = np.arange(r)
    for j in range(c):
        col = a[:, :, j]
        cand = (row_ids[None, :] >= lead[:, None]) & (col != 0)
        has = cand.any(axis=1)
        if not has.any():
            continue
        idx = np.nonzero(has)[0]
        piv = cand[idx].argmax(axis=1)
        li = lead[idx]
        swap = piv != li
        if swap.any():
            si = idx[swap]
            sp = piv[swap]
            sl = li[swap]
            tmp = a[si, sp, :].copy()
            a[si, sp, :] = a[si, sl, :]
            a[si, sl, :] = tmp
        pivrow = a[idx, li, :]
        f = inv[pivrow[:, j]]
        pivrow = mul[pivrow, f[:, None]]
        a[idx, li, :] = pivrow
        colv = a[idx, :, j].copy()
        colv[np.arange(len(idx)), li] = 0
        nz = colv.any(axis=1)
        if nz.any():
            sub_idx = idx[nz]
            block = a[sub_idx]
            block = sub[block, mul[colv[nz][:, :, None], pivrow[nz][:, None, :]]]
            a[sub_idx] = block
        lead[idx] = li + 1
        if (lead >= min(r, c)).all():
            break
    return a, lead


def batched_rank(ctx: FieldCtx, mats: np.ndarray) -> np.ndarray:
    """Rank of every matrix in a (B, r, c) uint8 batch."""
    _, ranks = batched_rref(ctx, mats)
    return ranks


def span_words(ctx: FieldCtx, basis: np.ndarray, encs: np.ndarray) -> np.ndarray:
    """Words sum_i d_i * basis[i] for the base-q digit vectors of encs."""
    add, sub, mul, inv, neg = ctx.np_tables()
    basis = np.asarray(basis, dtype=np.uint8)
    k, n = basis.shape
    q = ctx.q
    words = np.zeros((len(encs), n), dtype=np.uint8)
    rem = np.asarray(encs, dtype=np.int64).copy()
    for i in range(k):
        d = (rem % q).astype(np.uint8)
        rem //= q
        words = add[words, mul[d[:, None], basis[i][None, :]]]
    return words


def min_weight_in_span(ctx: FieldCtx, basis, chunk: int = 1 << 16) -> int:
    """Minimum Hamming weight over the nonzero words of the row span.

    Exhaustive over all q^k - 1 nonzero coefficient vectors, chunked.
    basis must have independent rows (weights are still correct otherwise,
    but the zero word would then be revisited under nonzero coefficients).
    """
    basis = np.asarray(basis, dtype=np.uint8)
    k, n = basis.shape
    q = ctx.q
    total = q**k
    best = n + 1
    for start in range(1, total, chunk):
        encs = np.arange(start, min(start + chunk, total), dtype=np.int64)
        words = span_words(ctx, basis, encs)
        w = int((words != 0).sum(axis=1).min())
        if w < best:
            best = w
            if best <= 1:
                break
    return best
