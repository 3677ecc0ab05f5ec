"""homlab: exact homological algebra over graded quotient rings.

Everything is computed over a prime field with exact arithmetic:
minimal free resolutions, graded Betti tables, Tor and Ext with
certified zero-tests, depth and complexity, cohomology operators and
pushout modules, and checkers for vanishing-gap statements together
with a random-module self-test corpus.
"""

from .cioperators import (
    ChainMap,
    PeriodicityReport,
    PushoutModule,
    ReductionChain,
    ReductionReport,
    decompose_in_ideal,
    eisenbud_operators,
    eta,
    eta_power,
    k_eta,
    periodicity_isomorphism_check,
    reduction_chain,
    verify_reduction,
)
from .errors import (
    DecompositionError,
    EvenGapError,
    HomlabError,
    InhomogeneousError,
    NotPrimeError,
    NotRegularSequenceError,
    RankMismatchError,
    ResourceCapError,
    RetriesExhaustedError,
    RingParseError,
    WindowTooShortError,
    ZeroModuleError,
)
from .groebner import (
    ModuleGroebnerBasis,
    groebner,
    kernel_of_map,
    minimal_generators,
    normal_form,
    syzygies,
)
from .harness import (
    CheckReport,
    ComplexityEstimate,
    DEFAULT_CORPUS_RINGS,
    SweepSummary,
    check_L34,
    check_T31,
    check_T32,
    check_T35,
    check_T36,
    check_T37,
    check_T38,
    complexity_estimate,
    corpus_sweep,
    explore_condition,
    ext_jump_check,
    length_identity_check,
    random_module,
    reproduce_paper_example,
    residue_field_of,
)
from .homology import (
    FiniteLengthResult,
    HomologyReport,
    ext,
    finite_length_test,
    tor,
    tor_symmetry_check,
)
from .resolution import (
    BettiTable,
    FreeResolution,
    GradedModule,
    ambient_restriction,
    betti_table,
    depth,
    minimal_resolution,
    module_from_json,
    pd_ambient,
    syzygy,
)
from .ring import (
    PrimeField,
    QuotientRing,
    parse_ring,
    render_ring,
    ring_from_json,
    ring_to_json,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
