"""Random translation-invariant matrix product states.

Exact Weingarten calculus over the unitary group, the random MPS ensemble,
a channel-folding window density engine, and seeded Monte Carlo experiments
checking that small windows of long random chains look maximally mixed.
"""

__version__ = "0.1.0"

from .engine import (
    DegenerateSampleError,
    DensityMatrix,
    brute_force_reduced_density,
    channel_apply,
    channel_apply_adjoint,
    normalize,
    oracle_sweep,
    purity,
    reduced_density,
    renyi2,
    sup_distance_to_mixed,
)
from .ensembles import (
    EnsembleParams,
    MpsSample,
    assemble_sample,
    haar_unitaries,
    haar_unitary,
    mps_tensors,
    sample_boundaries,
    sample_mps,
    stream,
)
from .symgroup import (
    Permutation,
    character,
    compose,
    cycle_type,
    dimension,
    gamma_permutation,
    inverse,
    lemma_gamma_check,
    partitions,
    schur_dim,
)
from .weingarten import (
    MalformedExpressionError,
    SingularDimensionError,
    TraceExpression,
    WeingartenCache,
    evaluate_trace_expression,
    integrate_monomial,
    load_cache,
    wg,
    wg_bound_ratio,
    wg_from_cycle_type,
    wg_log_slopes,
)
