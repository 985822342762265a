"""Exact computation of binary-form invariant rings and their syzygies."""

from .rings import (
    ContextMismatchError,
    NonIsobaricError,
    Polynomial,
    RingKind,
    VarContext,
    ZeroPolynomialError,
    degree,
    gen_ring,
    is_isobaric_balanced,
    u_ring,
    weight_u,
    x_ring,
)
from .exponents import grad, powers, powers2
from .derivations import (
    Derivation,
    ResidualDenominatorError,
    apply_derivation,
    expand_u_to_x,
    lowering_derivation,
    project_x_to_u,
    raising_derivation,
    reduced_operator,
)
from .invariants import (
    DegreeMismatchError,
    Generator,
    GeneratorSet,
    UnsupportedFormDegreeError,
    invariant_basis,
    is_member,
    known_degree_table,
    mingenset,
    verify_invariant_u,
    verify_invariant_x,
)
from .syzygies import Syzygy, check_syzygy, expand_in_generators, minimal_syzygies, syzygy_basis
from .textio import PolyParseError, format_poly, parse_poly
from .fixtures import FixtureRecord, fixture_generator_set, load_fixtures

__version__ = "0.1.0"
