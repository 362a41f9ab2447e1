"""Exact factorization of polynomials over the tropical and sign hyperfields.

Multi-valued arithmetic, hyperproduct membership, Newton-polygon root
extraction, division by linear terms over both fields, irreducibility
classification, and brute-force oracles that verify the algebraic laws
at desk scale.  All arithmetic is exact: tropical values are rational
log coordinates, sign values are the integers -1, 0, 1.
"""

from .axioms import check_axioms
from .errors import (
    ConstantPolynomialError,
    DegreeBoundExceeded,
    EmptySumError,
    HyperfieldError,
    InternalInvariantError,
    NotARootError,
    PolynomialParseError,
    ZeroOperandError,
)
from .fields import (
    SIGN,
    SIGN_ALL,
    SIGN_ELEMENTS,
    TROP_ONE,
    TROP_ZERO,
    TROPICAL,
    TropSubset,
    TropValue,
    field_by_name,
    sign_hyperadd,
    trop_contains,
    trop_hyperadd,
)
from .morphisms import (
    check_morphism_laws,
    check_pushforward_lemma,
    nonuniqueness_witness,
    sign_image,
    sign_map,
    t_adic_valuation,
    valuation_image,
)
from .parsing import (
    format_polynomial,
    parse_element,
    parse_polynomial,
    poly_from_json,
    poly_to_json_dict,
)
from .polynomials import (
    NEG_INF,
    Polynomial,
    associated,
    divides_linearly,
    enumerate_product,
    in_product,
    is_root,
    monic_normal,
    poly_sort_key,
    product_coefficient_sets,
    pushforward,
    sign_poly,
    trop_poly,
)
from .signs import (
    Factorization,
    MONIC_IRREDUCIBLES,
    all_factorizations_sign,
    all_quotients_sign,
    classify_irreducibles,
    divide_sign,
    is_irreducible_sign,
    multiplicity_sign,
)
from .tropical import (
    NewtonPolygon,
    RootLocus,
    divide,
    factor,
    is_quotient,
    newton_polygon,
    render_newton_svg,
    roots_with_multiplicities,
    search_quotients,
)

__version__ = "0.1.0"
