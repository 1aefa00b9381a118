"""slopechain: exact slope filtrations of finitely generated subgroups of
vector groups, box-point counting, and jet/base-locus experiments.

Everything is exact: rationals are `fractions.Fraction`, symbolic coordinates
are rational combinations of formal transcendence symbols, and quantities of
the shape sum e_j log S_j are kept as integer exponent vectors compared via
rational power products.  No floating point enters any decision; floats only
appear in reports, marked as display approximations.
"""

__version__ = "0.1.0"

from .chain import (
    Chain,
    ChainCertificate,
    MuReport,
    PhiValue,
    RootedRational,
    SlopeValue,
    VerifyOptions,
    build_chain,
    build_chain_greedy,
    compare_slopes,
    frak_S,
    mu_exponents,
    n_formula,
    phi,
    polygon_rows,
    verify_chain,
)
from .errors import (
    AmbiguousCandidates,
    CertificateViolation,
    DimensionMismatch,
    DuplicateSymbol,
    EnumerationTooLarge,
    IndexOutOfRange,
    InternalInvariantError,
    InvalidScale,
    MatrixTooLarge,
    MissingSymbol,
    NotNested,
    ParseError,
    SamplingExhausted,
    SlopechainError,
    SymbolicModelNotSpecialized,
    UsageError,
    ValidationError,
)
from .gamma import (
    CountReport,
    GammaSet,
    card_mod,
    card_translate,
    combine,
    counting_check,
    distribution_checks,
    enumerate_gamma,
    gamma_from_vectors,
)
from .locus import (
    EvalRank,
    KernelBasis,
    LocusReport,
    MonomialBasis,
    eval_rank,
    in_base_locus,
    jet_matrix,
    kernel_basis,
    locus_probe,
    monomial_basis,
    threshold_sweep,
    translate_section,
)
from .model import (
    GroupModel,
    ModelConfig,
    RankProfile,
    Subgroup,
    Sublattice,
    build_model,
    closure,
    enumerate_closures,
    rank_profile,
    span_contains,
    specialize,
)
from .polys import Poly, as_fraction
