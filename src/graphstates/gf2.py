"""Dense linear algebra over GF(2), with vectors packed into Python ints.

Bit j of a row int is column j, and of a column int row j.  Python's
arbitrary-precision ints give word-parallel XOR for free, so elimination
works a machine word at a time without an explicit packing layer.

There is one elimination, the XOR-basis insert _insert.  The rank inserts
rows; the kernel inserts columns, each tagged with its index, so a column
that the others cancel leaves the tag of a kernel vector.  Cut ranks, the
rank-index walk and the local-Clifford system of orbits (written one column
per unknown, one component at a time) all go through it.
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


def gf2_rank_of_rows(rows) -> int:
    """Rank over GF(2) of a sequence of raw int rows."""
    basis = [0] * (max(rows, default=0).bit_length() + 1)
    return sum(1 for r in rows if _insert(basis, r))


def gf2_kernel_basis(columns) -> list[int]:
    """Basis of the null space of the matrix with the given int columns:
    bit i of a returned v selects column i, and the selected columns xor to
    zero.

    Column i goes in as column << k | 1 << i, for k columns.  One that the
    columns before it cancel is left with its tag bits alone, in a slot at
    most k, so the kernel is the nonzero slots 1..k.  There are k minus the
    rank of them.  Does not mutate its input.
    """
    k = len(columns)
    basis = [0] * (max(columns, default=0).bit_length() + k + 1)
    for i, c in enumerate(columns):
        _insert(basis, c << k | 1 << i)
    return [v for v in basis[1:k + 1] if v]
