"""Local-complementation orbits, local-Clifford equivalence, and the
classification of connected graphs under local complementation plus
isomorphism.

A labeled orbit is the closure of a graph under complementing vertex
neighborhoods; lc_orbit lists it by breadth-first search on packed keys,
one int per graph holding its rows, where the complement at a is one xor
with a mask looked up by the neighbourhood N(a) and built the first time
the lookup misses (see _orbit_rows).  The sorted keys are decoded a chunk
at a time, one list of interned values per row, zipped into the rows of
the Graphs (see _graphs_of).  Whether
two labeled graphs share an orbit (equivalently, whether their graph states
are local-Clifford equivalent) is decided without the orbit, by a linear
system over GF(2) for the binary part of a local Clifford (Van den Nest,
Dehaene & De Moor, PRA 70, 034302, 2004).  LC never moves a vertex to
another component, so the system is written per component of both graphs,
one column per unknown read straight from the rows (see _lc_system), and
its kernel comes from the one XOR-basis insert of gf2.  The kernel is
searched with Bouchet's lemma (Combinatorica 11, 1991): for connected graphs
with a kernel of dimension above 4, an invertible solution exists only if a
basis vector or a sum of two basis vectors is one.  The test returns a
LocalClifford witness, checked against the stabilizer groups of both graphs.

The classifier lists the classes of connected graphs under local
complementation plus isomorphism up to a vertex cap, level by level: every
class on n vertices holds a one-vertex extension of a class representative
on n - 1 vertices (see _lc_classes), and a walk over canonical forms of
local complements from each new extension lists its members.  A canonical
form (graphs.canonical_form) is one fixed labelling per isomorphism class,
found by individualization-refinement, so a set of them holds each
isomorphism class once; which labelling it is fixes the representatives
that the CLI's JSON and DOT tables print, but not the classes.  The walk
skips the complements that cannot give a new member: at a vertex of degree
at most 1 (the graph itself), at any but the least vertex of a twin set
(an isomorphic image; see graphs.twin_reps), and at the vertex that leads
back to a member already met (local complementation is an involution, and
canonical_form's witness names that vertex).  It also skips an extension
whose subset holds a twin of the representative but not the twin before
it: a twin swap maps it to a lesser subset, already tried.  Every skipped
canonical form is one already seen, so the classes and their member order
are those of the untrimmed walk.  Each class record is built straight from
its members: 2-colorability, which LC does not keep, is asked of every
member; the maximal Schmidt rank and the rank indices (cut ranks) and
persistency are LC-invariant and computed once, on the representative.
"""

from __future__ import annotations

from itertools import combinations, repeat
from typing import NamedTuple

from .entanglement import bounds, rank_indices
from .gf2 import gf2_kernel_basis
from .graphs import (
    CapExceeded,
    Graph,
    _add_vertex,
    _graph,
    bits_of,
    canonical_form,
    connected_components,
    local_complement,
    to_graph6,
    twin_reps,
    two_coloring,
)
from .stabilizer import (
    CL_I,
    CL_Z,
    CLIFFORD_BY_ACTION,
    LocalClifford,
    clifford_compose,
    clifford_conjugate_pauli,
    stabilizer_element,
    stabilizer_generator,
)

ORBIT_LIMIT_DEFAULT = 10 ** 6
CLASSIFY_CAP = 9


def _orbit_rows(g: Graph, limit: int, relabel: bool = False) -> set[int]:
    """The packed keys of every graph reachable from g by local
    complementations, and by swaps of adjacent labels too if relabel,
    listed by breadth-first search.

    A key holds row b of the adjacency in bits n*(n-1-b) .. n*(n-b)-1, so
    row 0 is the highest and keys order as row tuples do.  Complementing
    at a flips, in every row b in N(a), the bits of N(a) other than b: one
    xor with a mask that depends on N(a) alone.  The walk looks the mask up
    by N(a) and builds it only when the lookup raises KeyError, the first
    time it meets N(a), so vertices with one neighbourhood share one mask.
    At degree <= 1 the mask is 0 and the image is the key itself, already
    seen.  Swapping labels i and i+1 exchanges bits i and i+1 of every row,
    then rows i and i+1.  ValueError if limit < 1; CapExceeded once more
    than limit keys are seen.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    n = g.n
    full = (1 << n) - 1
    shifts = [n * (n - 1 - b) for b in range(n)]
    start = sum(r << s for r, s in zip(g.rows, shifts))
    flips: dict[int, int] = {}
    column = sum(1 << s for s in shifts)  # bit 0 of every row
    swaps = [(column << i, full << shifts[i + 1]) for i in range(n - 1)] if relabel else []
    what = "closure" if relabel else "orbit"
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for key in frontier:
            for s in shifts:
                nb = key >> s & full
                try:
                    t = key ^ flips[nb]
                except KeyError:
                    flip = 0
                    for b in bits_of(nb):
                        flip |= (nb ^ 1 << b) << shifts[b]
                    flips[nb] = flip
                    t = key ^ flip
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
                    if len(seen) > limit:
                        raise CapExceeded(f"{what} exceeded {limit} members")
            for bits, row in swaps:
                d = (key ^ key >> 1) & bits  # bit i differs from bit i+1
                t = key ^ d ^ d << 1
                d = (t ^ t >> n) & row  # row i+1 differs from row i
                t ^= d ^ d << n
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
                    if len(seen) > limit:
                        raise CapExceeded(f"{what} exceeded {limit} members")
        frontier = nxt
    return seen


# Keys decoded at a time by _graphs_of.  Its row lists hold one chunk, so
# they stay small next to the orbit: decoding a 24,408-member orbit (n = 10)
# peaks 0.1 MB above the Graphs it keeps with 256-key chunks, 1.6 MB with
# 4096-key chunks and 7.8 MB in one piece (tracemalloc).
_DECODE_CHUNK = 256


def _graphs_of(keys: list[int], n: int) -> list[Graph]:
    """Replace each key of keys, in place, by its Graph.

    The keys are decoded _DECODE_CHUNK at a time, one list per row: row b
    of every key in the chunk, each value interned so that equal rows
    share one int object and a long orbit holds each distinct row once.
    The Graphs are built from those lists, zipped into row tuples, and
    written back over the chunk.  With n = 0 there are no row lists, and
    every key is the graph with no rows.
    """
    full = (1 << n) - 1
    shifts = [n * (n - 1 - b) for b in range(n)]
    intern = {}.setdefault
    for i in range(0, len(keys), _DECODE_CHUNK):
        part = keys[i:i + _DECODE_CHUNK]
        columns = []
        for s in shifts:
            col = [k >> s & full for k in part]
            # in place, so the duplicates are freed before the next row is
            # decoded: a new list for each row raised peak RSS by 0.3 MB
            col[:] = map(intern, col, col)
            columns.append(col)
        rows = zip(*columns) if n else repeat((), len(part))
        keys[i:i + _DECODE_CHUNK] = map(_graph, repeat(n), rows)
    return keys


def lc_orbit(g: Graph, limit: int = ORBIT_LIMIT_DEFAULT) -> list[Graph]:
    """All labeled graphs reachable by local complementations, sorted.
    ValueError if limit < 1, CapExceeded past limit members."""
    return _graphs_of(sorted(_orbit_rows(g, limit)), g.n)


def lc_closure_with_relabelings(g: Graph, limit: int = ORBIT_LIMIT_DEFAULT) -> list[Graph]:
    """Closure under local complementation *and* vertex permutations, sorted.
    ValueError if limit < 1, CapExceeded past limit members."""
    return _graphs_of(sorted(_orbit_rows(g, limit, relabel=True)), g.n)


def _lc_system(g: Graph, h: Graph, mask: int) -> list[int]:
    """The columns of  G_h A + G_h B G_g + C + D G_g = 0  over GF(2) on the
    vertices of mask, a connected component of both graphs.

    A, B, C, D are diagonal, with one column per unknown: a_k, b_k, c_k and
    d_k for every vertex k of mask in ascending order, in that order.  Bit
    j*n + k of a column is its coefficient in entry (j, k), which reads
    h_jk a_k + sum_i h_ji g_ik b_i + [j = k] c_j + g_jk d_j.
    """
    n = g.n
    vs = list(bits_of(mask))
    return ([sum(1 << (j * n + k) for j in bits_of(h.rows[k])) for k in vs]
            + [sum(g.rows[i] << j * n for j in bits_of(h.rows[i])) for i in vs]
            + [1 << (j * n + j) for j in vs]
            + [g.rows[j] << j * n for j in vs])


def _invertible_solution(g: Graph, h: Graph, mask: int) -> int | None:
    """A solution of _lc_system with a_i d_i + b_i c_i = 1 at every vertex,
    bit i of it choosing the i-th unknown of _lc_system, or None."""
    k = mask.bit_count()
    full = (1 << k) - 1
    basis = gf2_kernel_basis(_lc_system(g, h, mask))
    if len(basis) <= 4:
        candidates = [0]
        for u in basis:
            candidates += [v ^ u for v in candidates]
    else:  # Bouchet: some basis vector or sum of two is invertible, if any is
        candidates = basis + [u ^ w for u, w in combinations(basis, 2)]
    for v in candidates:
        a, b, c, d = v & full, (v >> k) & full, (v >> 2 * k) & full, v >> 3 * k
        if (a & d) ^ (b & c) == full:
            return v
    return None


def lc_equivalence_witness(g: Graph, h: Graph) -> LocalClifford | None:
    """A local Clifford W with W|g> = |h> up to global phase, or None when
    the two labeled graph states are not local-Clifford equivalent.

    The binary part of W comes from the linear system of Van den Nest,
    Dehaene and De Moor, solved per connected component (see
    lc_equivalent).  W is then made exact: conjugating each generator K_a of
    g must give the element of h's stabilizer group with the same X-part,
    and the signs that disagree are fixed by Z on the vertices t solving
    x_a . t = s_a over GF(2).  Every conjugated generator is compared with
    h's group, so a wrong binary part raises AssertionError rather than
    returning a false witness.
    """
    if g.n != h.n:
        raise ValueError("graphs must share a vertex set")
    n = g.n
    comps = connected_components(g)
    if comps != connected_components(h):
        return None  # local complementation never moves a vertex between components
    indices = [CL_I] * n
    for mask in comps:
        v = _invertible_solution(g, h, mask)
        if v is None:
            return None
        k = mask.bit_count()
        for i, vertex in enumerate(bits_of(mask)):
            action = tuple((v >> (s * k + i)) & 1 for s in range(4))
            indices[vertex] = CLIFFORD_BY_ACTION[action]
    u = LocalClifford(tuple(indices))
    columns = [0] * (n + 1)  # row a is x_a, then s_a in column n
    for a in range(n):
        image = clifford_conjugate_pauli(u, stabilizer_generator(g, a))
        target = stabilizer_element(h, image.x)
        flip = (image.phase - target.phase) % 4
        if image.z != target.z or flip % 2:
            raise AssertionError("the solution does not map g's stabilizer onto h's")
        for i in bits_of(image.x | (flip // 2) << n):
            columns[i] |= 1 << a
    (t,) = gf2_kernel_basis(columns)  # the X-parts x_a are independent
    flips = [CL_I] * n
    for v in bits_of(t & g.vertex_mask()):
        flips[v] = CL_Z
    return clifford_compose(LocalClifford(tuple(flips)), u)


def lc_equivalent(g: Graph, h: Graph) -> bool:
    """Whether two labeled graphs are related by local complementations,
    that is, whether their graph states are local-Clifford equivalent.

    Decided in polynomial time, without walking the orbit.  A local Clifford
    acts at vertex i as an invertible 2x2 matrix [[a_i, b_i], [c_i, d_i]]
    over GF(2) on the (X, Z) bits, and it maps the stabilizer of g onto that
    of h exactly when the diagonal A, B, C, D solve
    G_h A + G_h B G_g + C + D G_g = 0 with a_i d_i + b_i c_i = 1 at every
    vertex (Van den Nest, Dehaene & De Moor, PRA 70, 034302, 2004).
    Bouchet's lemma below needs connected graphs, so the two component
    partitions are compared first and each component is solved on its own:
    its m^2 equations in 4m unknowns are written one column per unknown and
    solved by the one XOR-basis insert (gf2.gf2_kernel_basis).  When the
    kernel has dimension at most 4 every element is tried; otherwise, for
    connected graphs, an invertible solution exists only if a basis vector or
    the sum of two basis vectors is one (Bouchet, Combinatorica 11, 1991).
    The answer is whether lc_equivalence_witness finds a witness.
    """
    return lc_equivalence_witness(g, h) is not None


# ---------------------------------------------------------------------------
# classification

class ClassRecord(NamedTuple):
    """One equivalence class under local complementation plus isomorphism."""

    class_id: int
    representative: str
    member_count: int
    n_vertices: int
    n_edges: int
    lower: int
    upper: int
    ri_3: tuple[int, ...] | None
    ri_2: tuple[int, ...] | None
    has_two_colorable_member: bool
    edge_histogram: tuple[int, ...]  # entry e: members with e edges


def _lc_classes(n_max: int) -> list[list[Graph]]:
    """The classes of connected graphs with 2 <= n <= n_max under local
    complementation plus isomorphism, each as a list of canonical forms.

    The classes on n vertices are built from those on n - 1.  A connected G
    has a non-cut vertex v, and complementing at any w != v commutes with
    deleting v, so the LC steps that take G - v to the representative of its
    class take G to a member of its own class that extends that
    representative by one vertex.  Extending every representative by every
    nonempty neighbourhood therefore meets every class; a walk over the
    canonical forms (graphs.canonical_form) of local complements from each
    unseen candidate lists its class, one canonical form per isomorphism
    class.  A class's first member represents it at the next level.

    Local complementation generates the orbit (Van den Nest, Dehaene & De
    Moor, PRA 69, 022316, 2004), but three kinds of complement add nothing:
    at a vertex of degree at most 1 it returns the member itself; at a
    vertex that is not the least of its twin set (graphs.twin_reps) it gives
    an isomorphic image of the complement at that least twin; and it is an
    involution, so if image, perm = canonical_form(local_complement(g, a)),
    complementing image at perm.index(a) gives g back.  back maps each
    member not yet walked to a mask of such vertices, from every step that
    met it, and its walk skips the least twin of each.  Likewise, swapping
    two twins of rep is an automorphism, so the extensions by s and by s
    with the twins swapped are isomorphic: s is tried only if each twin of
    rep in it has the twin before it in it too, the least subset of its
    swap orbit, which the loop reaches first.  Every skipped canonical form
    is one already in seen, so the classes and their member order are
    those of the walk over all n complements and every extension.
    """
    classes: list[list[Graph]] = []
    reps = [Graph(1, (0,))]
    for n in range(2, n_max + 1):
        seen: set[Graph] = set()
        level = []
        for rep in reps:
            # (v, u) for each vertex v of rep and the twin u before it
            last: dict[int, int] = {}
            follows = []
            for v, u in enumerate(twin_reps(rep.rows)):
                if u != v:
                    follows.append((1 << v, 1 << last[u]))
                last[u] = v
            for s in range(1, 1 << (n - 1)):
                # a twin without the one before it: a twin swap of rep maps
                # s to a lesser subset with an isomorphic extension, seen
                if any(s & v and not s & u for v, u in follows):
                    continue
                start = canonical_form(_add_vertex(rep, s))[0]
                if start in seen:
                    continue
                seen.add(start)
                members = [start]
                back = {start: 0}  # unwalked member: vertices that lead back
                for g in members:
                    twins = twin_reps(g.rows)
                    skip = 0
                    for v in bits_of(back.pop(g)):
                        skip |= 1 << twins[v]
                    for a, r in enumerate(g.rows):
                        # degree <= 1 gives g back, a twin of a lesser vertex
                        # an isomorphic image, a vertex in skip a member met
                        # already: all are in seen already
                        if r & (r - 1) == 0 or twins[a] != a or skip >> a & 1:
                            continue
                        image, perm = canonical_form(local_complement(g, a))
                        if image in back:
                            back[image] |= 1 << perm.index(a)
                        elif image not in seen:
                            seen.add(image)
                            members.append(image)
                            back[image] = 1 << perm.index(a)
                level.append(members)
        classes.extend(level)
        reps = [members[0] for members in level]
    return classes


def classify(n_max: int) -> list[ClassRecord]:
    """Classify all connected graphs with 2 <= n <= n_max (see _records)."""
    if n_max > CLASSIFY_CAP:
        raise CapExceeded(f"classification capped at n_max<={CLASSIFY_CAP}")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    return _records(_lc_classes(n_max))


def _records(classes: list[list[Graph]]) -> list[ClassRecord]:
    """One record per class of _lc_classes, numbered in table order.

    The representative is the member with the least (edges, graph6), and
    the LC-invariant columns (rank indices, and lower bound and persistency
    from one bounds query) are computed on it alone.  Records sort by (vertices, minimum edges, lower,
    upper, rank indices, class size, members by edge count, representative).
    Up to n = 9 no two classes tie before the representative, so the order
    of the table does not depend on how canonical_form labels graphs.  Up to
    n = 8 the class size already tells every tie apart; at n = 9 seven pairs
    of classes need the edge counts of their members.
    """
    records = []
    for members in classes:
        fewest = min(g.edge_count for g in members)
        rep = min((g for g in members if g.edge_count == fewest), key=to_graph6)
        histogram = [0] * (rep.n * (rep.n - 1) // 2 + 1)
        for g in members:
            histogram[g.edge_count] += 1
        ri_2, ri_3 = rank_indices(rep)
        rep_bounds = bounds(rep)
        records.append(ClassRecord(
            class_id=0,  # numbered after the sort
            representative=to_graph6(rep),
            member_count=len(members),
            n_vertices=rep.n,
            n_edges=rep.edge_count,
            lower=rep_bounds.lower,
            upper=rep_bounds.upper,
            ri_3=ri_3,
            ri_2=ri_2,
            has_two_colorable_member=any(two_coloring(g) is not None for g in members),
            edge_histogram=tuple(histogram),
        ))
    records.sort(key=lambda r: (r.n_vertices, r.n_edges, r.lower, r.upper,
                                r.ri_3 or (), r.ri_2 or (), r.member_count,
                                r.edge_histogram, r.representative))
    return [r._replace(class_id=i) for i, r in enumerate(records, 1)]
