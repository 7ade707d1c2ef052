"""defslice: knot concordance invariants and definite-4-manifold sliceness
obstructions over symbolic knot expressions, with exact arithmetic.

The expression language covers named atoms (torus knots, the Whitehead
double of the trefoil, user-registered knots), mirrors, connected sums and
cables.  Invariants (tau, the V-sequence, nu+, d1, Levine-Tristram
signatures, surgery correction terms) evaluate exactly where the rule
system pins them and as sound enclosing intervals otherwise; obstruction
verdicts fire only on certified separations.
"""

from .certificates import (
    AtomCertificate,
    CertificateDB,
    CertificateError,
    CertificateGapError,
    UnknownAtomError,
    builtin,
    default_db,
    load_registry,
    nu_equiv_reduce,
)
from .hf_invariants import (
    ContradictionError,
    Evaluator,
    Interval,
    VSeq,
    lens_d,
    wu_phi,
)
from .knotexpr import (
    Atom,
    Cable,
    KnotExpr,
    Mirror,
    ParseError,
    SizeLimitError,
    Sum,
    UNKNOT,
    WHITEHEAD_TREFOIL,
    alexander,
    mirror,
    normalize,
    parse,
    render,
    topologically_slice_certified,
    torus_atom,
)
from .laurent import LaurentPoly, torus_alexander
from .obstructions import (
    KinkinessBound,
    Reason,
    Verdict,
    kinkiness_bounds,
    obstruct_definite,
    obstruct_negative_definite,
    obstruct_positive_definite,
    composite_cable_obstruction,
)
from .qform_verify import (
    QMatrix,
    bcg_cobordism_check,
    c1_square,
    cobordism_form,
    signature_of_form,
)
from .signatures import (
    CombinationCheck,
    JumpPointError,
    SigFn,
    SignatureUnavailable,
    sigma,
    signature_combination_check,
)

__version__ = "0.1.0"
