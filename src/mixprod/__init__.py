"""Algebraic invariants of mixed product monomial ideals.

Mixed products are the square-free ideals I_qJ_r + I_sJ_t in
K[x_1..x_n, y_1..y_m], where I_k (J_l) is generated by all square-free
degree-k monomials in the x-block (degree-l in the y-block). The package
evaluates their regularity, dimension, depth, projective dimension and
Cohen-Macaulayness twice: by closed formulas on the (k,l) data, and by a
combinatorial oracle (Stanley-Reisner complex, simplicial homology,
Hochster's formula) that never looks at the formulas.
"""

from .core import (
    AMBIENT_CAP,
    Ambient,
    MixedProductSpec,
    MonomialIdeal,
    SqFreeMonomial,
    alexander_dual,
    canonicalize_spec,
    contains_monomial,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    krull_dim,
    minimal_primes,
    realize_spec,
    swap_blocks,
    veronese_ideal,
)
from .errors import (
    AmbientMismatch,
    CapExceeded,
    DegreeOutOfRange,
    EmptyBlock,
    InvalidAmbient,
    MixprodError,
    SupportOutsideVertices,
    TeraiMismatch,
    UnsupportedIdeal,
    UnsupportedShape,
    VerticesOutsideComplex,
    VoidComplex,
)
from .harness import (
    Mismatch,
    SweepConfig,
    SweepReport,
    WitnessFailure,
    enumerate_specs,
    run_sweep,
)
from .homology import (
    GF2,
    GF3,
    RATIONALS,
    FieldSpec,
    SimplicialComplex,
    reduced_homology_ranks,
    restrict,
    stanley_reisner,
)
from .invariants import (
    BettiTable,
    InvariantReport,
    betti_stats,
    has_linear_resolution,
    hochster_betti,
    oracle_report,
)
from .mixed import (
    CmCase,
    KoszulCycleWitness,
    SyzygyWitness,
    cm_classify,
    depth_formula,
    dim_formula,
    formula_report,
    koszul_cycle_witness,
    reg_formula,
    syzygy_witness,
    verify_koszul_cycle,
    verify_syzygy_witness,
)

__version__ = "0.1.0"
