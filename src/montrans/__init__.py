"""Subsequential transducers with outputs in a pluggable monoid.

The package provides the output-monoid algebra (``montrans.monoid``), the
machine model with evaluation and serialization (``montrans.transducer``),
four-stage minimization (``montrans.minimize``), exact equivalence and
isomorphism oracles (``montrans.oracle``), an active learner
(``montrans.learner``) and a command-line interface (``montrans.cli``).
"""

from types import ModuleType as _ModuleType

from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    IterationBudgetExceeded,
    MalformedElement,
    MontransError,
    NotDivisible,
    NotMinimalInput,
    SchemaError,
    SearchBoundExceeded,
    UnknownGenerator,
    UnknownLetter,
)
from .learner import (
    Defect,
    DefectKind,
    LearnLimits,
    LearnStats,
    ObservationTable,
    apply_defect,
    build_hypothesis,
    find_defect,
    learn,
    process_counterexample,
)
from .minimize import (
    StagedMinimization,
    check_minimal,
    minimize,
    observe,
    prefix,
    reach,
    state_lgcds,
    total,
)
from .monoid import (
    CommutativeMonoid,
    CyclicGroup,
    FreeMonoid,
    Monoid,
    NatAddMonoid,
    TraceMonoid,
    left_divide_partial,
    lgcd_family,
    make_monoid,
    monoid_from_wire,
    mul_partial,
    red_row,
    render_partial,
)
from .oracle import (
    CounterExample,
    adversarial_oracle,
    brute_force_diff,
    equivalence_oracle,
    iso_check,
    membership_oracle,
)
from .transducer import Transducer, Word, deserialize, parse_word, render_word

#: Every public name bound above; submodules stay out of ``import *``.
__all__ = sorted(k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType))

__version__ = "0.1.0"
