"""Graph-state entanglement toolkit.

Schmidt-rank bounds over GF(2), graph rewrite rules for local Pauli
measurements, local-complementation orbits and classification, and a dense
state-vector oracle for verification.

Everything but the oracle runs on integer tables.  graphstates.oracle is the
one numpy user, and nothing here imports it: import it where dense states
are wanted, as the CLI does for verify alone.
"""

from .gf2 import gf2_kernel_basis, gf2_rank_of_rows
from .graphs import (
    CapExceeded,
    Graph,
    canonical_form,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_edges,
    grid_graph,
    induced_subgraph,
    is_connected,
    local_complement,
    min_vertex_cover,
    parse_graph6,
    path_graph,
    petersen_graph,
    star_graph,
    to_graph6,
    two_coloring,
)
from .stabilizer import (
    LocalClifford,
    PauliOp,
    clifford_compose,
    clifford_conjugate_pauli,
    local_complement_clifford,
    stabilizer_element,
    stabilizer_generator,
)
from .measurement import (
    MeasurementOutcome,
    conjugate_basis,
    measure_pauli,
    measure_via_lc,
)
from .entanglement import (
    BoundsReport,
    bounds,
    lower_bound_max_rank,
    pauli_persistency,
    rank_indices,
    schmidt_rank,
)
from .orbits import (
    ClassRecord,
    classify,
    lc_closure_with_relabelings,
    lc_equivalence_witness,
    lc_equivalent,
    lc_orbit,
)

__version__ = "0.1.0"
