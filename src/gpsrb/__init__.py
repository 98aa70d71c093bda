"""Series over strictly ordered monoids, coefficient-killing projectors, and
brute-force checkers for when such a projector satisfies the weight -1
identity P(f)P(g) = P(fP(g)) + P(P(f)g) - P(fg).
"""

from .laurent import (
    InsufficientPrecision,
    TruncatedLaurent,
    make_laurent,
    pole_part,
    tl_rb_defect,
)
from .monoids import (
    BadElement,
    BadTable,
    FiniteTable,
    IntLine,
    IntVector,
    MonoidMismatch,
    OrderedMonoid,
    int_window,
    load_table,
    validate_monoid,
    vector_window,
)
from .oracles import (
    RouteDisagreement,
    TheoremReport,
    TooLarge,
    cyclic_table,
    default_corpus,
    idempotent_pair_table,
    scan_cutoffs,
    truncated_addition_table,
    verify_theorem_decomposition,
)
from .outcomes import CheckOutcome
from .parsing import ParseError, parse_expr, parse_series, render_laurent, render_series
from .projectors import (
    Projector,
    closed_under_addition,
    cutoff_violation_pairs,
    indicator_pair_scan,
    rb_defect,
)
from .scalars import (
    QQ,
    Ring,
    RingMismatch,
    ZeroDenominator,
    Zmod,
    ZZ,
)
from .series import Series, indicator

__all__ = [
    "CheckOutcome",
    "FiniteTable",
    "InsufficientPrecision",
    "IntLine",
    "IntVector",
    "MonoidMismatch",
    "OrderedMonoid",
    "ParseError",
    "Projector",
    "QQ",
    "Ring",
    "RingMismatch",
    "RouteDisagreement",
    "Series",
    "TheoremReport",
    "TooLarge",
    "TruncatedLaurent",
    "ZZ",
    "ZeroDenominator",
    "Zmod",
    "BadElement",
    "BadTable",
    "closed_under_addition",
    "cutoff_violation_pairs",
    "cyclic_table",
    "default_corpus",
    "idempotent_pair_table",
    "indicator",
    "indicator_pair_scan",
    "int_window",
    "load_table",
    "make_laurent",
    "parse_expr",
    "parse_series",
    "pole_part",
    "rb_defect",
    "render_laurent",
    "render_series",
    "scan_cutoffs",
    "tl_rb_defect",
    "truncated_addition_table",
    "validate_monoid",
    "vector_window",
    "verify_theorem_decomposition",
]
