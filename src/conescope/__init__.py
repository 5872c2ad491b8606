"""conescope: exact experiments with positive cones of left-orders.

Build computable left-orders on free, free-abelian, Klein bottle and
direct-product groups, enumerate Cayley balls, certify that a cone is
disconnected at a given width (exactly, on trees), exhibit explicit positive
paths where cones are connected, and verify or refute automaton-described
cones.
"""

__version__ = "0.1.0"

from .errors import (
    AllZeroWeights,
    BrokenOrderError,
    CapExceeded,
    ConescopeError,
    ConfigError,
    DegreeTooSmall,
    FactorNotConnectedAtScale,
    ModelMismatch,
    NoDeclaredCofinalCenter,
    NotAccepted,
    PathNotFound,
    UnknownLetter,
    WitnessNotFound,
)
from .words import (
    GeneratorAlphabet,
    Word,
    format_word,
    free_reduce,
    parse_word,
)
from .groups import (
    Ball,
    DirectProduct,
    Element,
    FreeAbelian,
    FreeGroup,
    GroupModel,
    KleinBottle,
    model_from_descriptor,
)
from .quadratic import sqrt2_sign
from .magnus import MagnusSeries, magnus_expand
from .orders import (
    AxiomReport,
    OrderOracle,
    Sign,
    hyperplane_order,
    klein_cone_sign,
    klein_order,
    lex_pair_sign,
    magnus_order,
    magnus_sign,
    order_from_descriptor,
    sqrt2_weights,
    verify_order_axioms,
)
from .geometry import (
    ComponentReport,
    RPath,
    RayReport,
    SeparationResult,
    SurveyClass,
    SurveyReport,
    SwampCertificate,
    Verdict,
    cofinal_positive_path,
    connectivity_survey,
    max_of_ball,
    product_column_swamp,
    product_positive_path,
    r_components,
    sample_tree_paths,
    tree_swamp_certificate,
    verify_maxima_ray,
    verify_separation,
)
from .automata import (
    ConeDfa,
    ConeDfaReport,
    LanguageSample,
    QuasigeodesicReport,
    connectivity_radius,
    dfa_run,
    klein_cone_dfa,
    language_sample,
    quasigeodesic_check,
    random_dfa,
    reachable_evaluations,
    regular_interpolation,
    verify_cone_dfa,
    z2_lex_cone_dfa,
)
from .dot import export_dot
