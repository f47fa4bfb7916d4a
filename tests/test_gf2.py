"""Rank and kernel computations over GF(2)."""

import random

from hypothesis import example, given, strategies as st

from graphstates.gf2 import gf2_kernel_basis, gf2_rank_of_rows
from graphstates.graphs import path_graph


def gauss_jordan_kernel(rows, n_cols):
    """Basis of the right null space of int rows by Gauss-Jordan elimination:
    for every returned v, each row r has even parity of r & v.

    The reference for gf2_kernel_basis, independent of the XOR-basis insert:
    pivot search, row swaps and back-substitution, one basis vector per free
    column of the reduced row echelon form.  Does not mutate its input.
    """
    work = list(rows)
    pivot_cols = []
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(work)) if (work[r] >> col) & 1), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and ((work[r] >> col) & 1):
                work[r] ^= work[rank]
        pivot_cols.append(col)
        rank += 1
    basis = []
    for free in sorted(set(range(n_cols)) - set(pivot_cols)):
        v = 1 << free
        for r, pcol in enumerate(pivot_cols):
            if (work[r] >> free) & 1:
                v |= 1 << pcol
        basis.append(v)
    return basis


def _transpose(vectors, width):
    """The other way round: bit j of entry i is bit i of vectors[j]."""
    return [sum(((v >> i) & 1) << j for j, v in enumerate(vectors)) for i in range(width)]


def _reference_rank(vectors, width):
    """Rank of vectors below 2**width, by the Gauss-Jordan reference."""
    return width - len(gauss_jordan_kernel(vectors, width))


def xor_of_selected(columns, v):
    """The xor of the columns that v selects, bit i for columns[i]."""
    out = 0
    for i, c in enumerate(columns):
        if (v >> i) & 1:
            out ^= c
    return out


def _random_rows(rng, n_rows, n_cols):
    return [rng.randrange(1 << n_cols) for _ in range(n_rows)]


def test_rank_identity():
    assert gf2_rank_of_rows([0b001, 0b010, 0b100]) == 3


def test_rank_zero_matrix():
    assert gf2_rank_of_rows([0, 0, 0, 0]) == 0
    assert gf2_rank_of_rows([]) == 0


def test_rank_path_adjacency():
    # path 0-1-2: rows for vertices 0 and 2 are equal, so rank 2
    assert gf2_rank_of_rows(path_graph(3).rows) == 2


def test_rank_sizes_its_basis_from_the_rows():
    # a row wider than any column count the caller might pass
    assert gf2_rank_of_rows([0b100]) == 1
    assert gf2_rank_of_rows([1 << 200, 1 << 200 | 1, 1]) == 2


def test_kernel_identity_empty():
    assert gf2_kernel_basis([1, 2, 4]) == []


def test_kernel_zero_matrix():
    assert sorted(gf2_kernel_basis([0, 0])) == [0b01, 0b10]
    assert gf2_kernel_basis([]) == []


def test_kernel_path_adjacency():
    # symmetric, so its columns are its rows: columns 0 and 2 are equal
    assert gf2_kernel_basis(path_graph(3).rows) == [0b101]


def test_kernel_vectors_annihilate():
    rng = random.Random(0)
    for _ in range(200):
        columns = _random_rows(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        for v in gf2_kernel_basis(columns):
            assert v and xor_of_selected(columns, v) == 0


def test_rank_plus_nullity():
    rng = random.Random(1)
    for _ in range(120):
        columns = _random_rows(rng, rng.randrange(1, 65), rng.randrange(1, 40))
        assert gf2_rank_of_rows(columns) + len(gf2_kernel_basis(columns)) == len(columns)


@given(st.lists(st.integers(0, 63), max_size=10), st.lists(st.integers(0, 9), max_size=4))
@example([], [])
@example([0, 0, 0], [])
@example([5, 3, 5, 6], [0, 1])
def test_kernel_spans_the_gauss_jordan_kernel(columns, repeats):
    columns = columns + [columns[i] for i in repeats if i < len(columns)]
    k = len(columns)
    basis = gf2_kernel_basis(columns)
    rows = _transpose(columns, 6)
    reference = gauss_jordan_kernel(rows, k)
    assert all((r & v).bit_count() % 2 == 0 for r in rows for v in reference)
    assert all(xor_of_selected(columns, v) == 0 for v in basis)
    assert len(basis) == len(reference) == _reference_rank(basis, k)
    assert _reference_rank(basis + reference, k) == len(reference)


def test_rank_invariant_under_row_operations():
    rng = random.Random(2)
    for _ in range(100):
        n_rows, n_cols = rng.randrange(2, 10), rng.randrange(2, 12)
        rows = _random_rows(rng, n_rows, n_cols)
        i, j = rng.sample(range(len(rows)), 2)
        swapped = rows[:]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        added = rows[:]
        added[i] ^= added[j]
        r = gf2_rank_of_rows(rows)
        assert gf2_rank_of_rows(swapped) == r
        assert gf2_rank_of_rows(added) == r


def test_single_entry_toggle_changes_rank_by_at_most_one():
    rng = random.Random(3)
    for _ in range(100):
        n_rows, n_cols = rng.randrange(1, 10), rng.randrange(1, 10)
        rows = _random_rows(rng, n_rows, n_cols)
        toggled = rows[:]
        toggled[rng.randrange(n_rows)] ^= 1 << rng.randrange(n_cols)
        assert abs(gf2_rank_of_rows(toggled) - gf2_rank_of_rows(rows)) <= 1


def test_rank_does_not_mutate_input():
    rows = [0b011, 0b110, 0b101]
    gf2_rank_of_rows(rows)
    gf2_kernel_basis(rows)
    gauss_jordan_kernel(rows, 3)
    assert rows == [0b011, 0b110, 0b101]
