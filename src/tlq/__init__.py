"""Exact computational engine for Temperley-Lieb algebras at roots of unity
and their semisimple Jones quotients.

Everything is exact: scalars live in cyclotomic fields represented as
residues modulo the cyclotomic polynomial, and every headline dimension is
verified by at least two independent computational routes.
"""

from .cellrep import (
    CellVector,
    admissible_t,
    annihilation_check,
    cell_action,
    cell_pairing,
    g_apply,
    g_orbit,
    gram_matrix,
    quotient_labels,
    simple_dim_altsum,
    simple_dim_rank,
)
from .clifford import (
    BladeElement,
    constant_term_trace,
    gamma,
    image_dimension,
    omega,
    phi,
    phi_generator,
    so_commutator_report,
)
from .combinatorics import (
    F_closed,
    catalan,
    catalan_by_convolution,
    fibonacci,
    series_identities,
    two_step_recursion_check,
    w_dim,
    w_recursive,
)
from .diagram import (
    Diagram,
    Forest,
    compose,
    enumerate_monic,
    hook_poly,
    identity,
    nesting_forest,
    rotate_to_flat,
    star,
    through_strands,
    tl_basis,
)
from .exactnum import (
    CycNum,
    CyclotomicField,
    ExactMatrix,
    cyclotomic_field,
    cyclotomic_polynomial,
    quantum_int,
    rank_by_columns,
)
from .quotientdim import (
    dim_q,
    dim_q_closed,
    dims_by_matrix,
    fibonacci_bridge,
    one_step,
    one_step_matrix,
    recursion_matrix,
    seed_vectors,
    simple_dims_closed,
    two_step,
)
from .tlalg import (
    JWIdempotent,
    RadicalSplit,
    TLElement,
    embed,
    embedded_jones_wenzl,
    generator,
    ideal_dimension,
    jones_trace,
    jones_wenzl,
    jones_wenzl_by_recursion,
    radical_split,
    trace_gram_matrix,
    trace_gram_rank,
)

__version__ = "0.1.0"
