"""Dense linear algebra over GF(2), with rows packed into Python ints.

Bit j of a row int is column j.  Python's arbitrary-precision ints give
word-parallel XOR for free, so elimination works a machine word at a time
without an explicit packing layer.
"""

from __future__ import annotations


def _insert(basis: list[int], x: int) -> int:
    """Reduce x by an XOR basis indexed by leading bit (basis[t] has
    bit_length t) and store what is left: the slot it took, or 0 when x is
    in the span.  Slot 0 is never a leading bit, so basis[slot] = 0 undoes
    an insert either way."""
    while x:
        t = x.bit_length()
        b = basis[t]
        if not b:
            basis[t] = x
            return t
        x ^= b
    return 0


def gf2_rank_of_rows(rows, n_cols: int) -> int:
    """Rank of raw int rows over GF(2); every row must lie below 2**n_cols."""
    basis = [0] * (n_cols + 1)
    return sum(1 for r in rows if _insert(basis, r))


def gf2_kernel_basis(rows, n_cols: int) -> list[int]:
    """Basis of the right null space of int rows: for every returned v, each
    row r has even parity of r & v.

    The basis has n_cols - gf2_rank_of_rows(rows, n_cols) elements, one per
    free column of the reduced row echelon form.  Does not mutate its input.
    """
    work = list(rows)
    pivot_cols: list[int] = []
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, len(work)):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and ((work[r] >> col) & 1):
                work[r] ^= work[rank]
        pivot_cols.append(col)
        rank += 1
    basis = []
    pivot_set = set(pivot_cols)
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = 1 << free
        for r, pcol in enumerate(pivot_cols):
            if (work[r] >> free) & 1:
                v |= 1 << pcol
        basis.append(v)
    return basis
