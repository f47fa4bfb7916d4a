"""Rank and kernel computations over GF(2)."""

import random

from graphstates.gf2 import gf2_kernel_basis, gf2_rank_of_rows
from graphstates.graphs import path_graph


def _random_rows(rng, n_rows, n_cols):
    return [rng.randrange(1 << n_cols) for _ in range(n_rows)]


def test_rank_identity():
    assert gf2_rank_of_rows([0b001, 0b010, 0b100], 3) == 3


def test_rank_zero_matrix():
    assert gf2_rank_of_rows([0, 0, 0, 0], 4) == 0


def test_rank_path_adjacency():
    # path 0-1-2: rows for vertices 0 and 2 are equal, so rank 2
    assert gf2_rank_of_rows(path_graph(3).rows, 3) == 2


def test_kernel_identity_empty():
    assert gf2_kernel_basis([1, 2, 4], 3) == []


def test_kernel_zero_matrix():
    assert sorted(gf2_kernel_basis([0, 0], 2)) == [0b01, 0b10]


def test_kernel_path_adjacency():
    assert gf2_kernel_basis(path_graph(3).rows, 3) == [0b101]


def test_kernel_vectors_annihilate():
    rng = random.Random(0)
    for _ in range(200):
        n_rows, n_cols = rng.randrange(1, 9), rng.randrange(1, 9)
        rows = _random_rows(rng, n_rows, n_cols)
        for v in gf2_kernel_basis(rows, n_cols):
            assert all((r & v).bit_count() % 2 == 0 for r in rows)


def test_rank_plus_nullity():
    rng = random.Random(1)
    for _ in range(120):
        n_cols = rng.randrange(1, 65)
        rows = _random_rows(rng, rng.randrange(1, 40), n_cols)
        assert gf2_rank_of_rows(rows, n_cols) + len(gf2_kernel_basis(rows, n_cols)) == n_cols


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
        r = gf2_rank_of_rows(rows, n_cols)
        assert gf2_rank_of_rows(swapped, n_cols) == r
        assert gf2_rank_of_rows(added, n_cols) == r


def test_single_entry_toggle_changes_rank_by_at_most_one():
    rng = random.Random(3)
    for _ in range(100):
        n_rows, n_cols = rng.randrange(1, 10), rng.randrange(1, 10)
        rows = _random_rows(rng, n_rows, n_cols)
        toggled = rows[:]
        toggled[rng.randrange(n_rows)] ^= 1 << rng.randrange(n_cols)
        assert abs(gf2_rank_of_rows(toggled, n_cols) - gf2_rank_of_rows(rows, n_cols)) <= 1


def test_rank_does_not_mutate_input():
    rows = [0b011, 0b110, 0b101]
    gf2_rank_of_rows(rows, 3)
    gf2_kernel_basis(rows, 3)
    assert rows == [0b011, 0b110, 0b101]
