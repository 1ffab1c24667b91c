"""Sorting uncertain data with queries: exact offline optima, adaptive and
randomized online strategies, advice-driven strategies, and the interval
machinery underneath them.

Every number is an exact rational; every strategy ends by producing a
provably correct order from what it queried.
"""

from types import ModuleType as _Module

from .core import (
    Instance,
    KnowledgeState,
    Permutation,
    Scalar,
    UncertainInterval,
    build_permutation,
    dependent,
    interval,
    is_trivial,
    isqrt_bounds,
    scalar,
    singleton_witness_static,
    singleton_witness_value,
    valid_permutation,
)
from .errors import (
    DeltaNotZero,
    InvariantViolation,
    MissingRealization,
    NotChordal,
    NotSimplicial,
    NotTree,
    ParseError,
    QuerysortError,
    RepeatQuery,
    ScriptExhausted,
    TooLarge,
    TooManyBranches,
    UnresolvedDependency,
)
from .graph import (
    CoTTFunctions,
    DependencyGraph,
    build_graph,
    components,
    cott_graph,
    cott_to_instance,
    find_triangle,
    instance_to_cott,
    is_chordal,
    longest_path_caterpillar,
    max_weight_independent_set,
    mcs_peo,
    min_cost_vertex_cover,
    peo_min_right,
    verify_peo,
)
from .offline import (
    brute_force_optimum,
    canonical_optimum,
    cpcp_brute_force_optimum,
    feasible_query_set,
    forced_query_set,
    oblivious_query_set,
    optimum_query_set,
)
from .online import (
    FIXED,
    HALF,
    SQRT3,
    AdviceOracle,
    CpcpEnvironment,
    Environment,
    RandomCoin,
    RunReport,
    Sqrt3Prob,
    advice_half,
    advice_lg3,
    algorithm1,
    algorithm2,
    algorithm3_cpcp,
    expected_cost_exact,
    no_2component_after_preprocess,
    residual_component_sizes,
    run_oblivious,
    simple_adaptive,
    simple_adaptive_stable_sort,
    vc_adaptive,
)
from .instances import (
    asteroid_expected_edges,
    asteroid_realization,
    deserialize,
    fig1_instance,
    gen_advice_triangles,
    gen_cost_path,
    gen_cpcp_adversary,
    gen_figure3_chain,
    gen_independent_pairs,
    gen_laminar,
    gen_lemma4_pair,
    gen_lemma7_two_triangles,
    gen_nested_star,
    gen_random,
    gen_random_scripted,
    gen_triangle_chain,
    serialize,
)

__version__ = "0.1.0"

# The imports above are the one export list: every name they bind, less the submodules
# that importing binds on the package.
__all__ = sorted(name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _Module))
