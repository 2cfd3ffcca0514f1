"""Interactive machines, bounded games, and the strategy transformers
that turn premise solvers into conclusion solvers."""

from .bounds import (
    BoundExpr,
    UnaryBound,
    bitsize,
    parse_bound,
    statute_limit,
    unarify,
)
from .comprehension import build_comprehension_solver, comprehension_conclusion
from .formula import (
    aggregate_bounds,
    choice_census,
    classify_units,
    free_vars,
    parse_formula,
    to_text,
    units,
)
from .game import (
    IllegalMove,
    Semiposition,
    TruncationContext,
    evaluate,
    first_illegal_index,
    format_run,
    is_quasilegal,
    legal_status,
    parse_run,
    prudentize,
    truncate,
    windup,
    windup_oracle,
    wins,
)
from .hpm import (
    Configuration,
    HPMSpec,
    HPMStrategy,
    Meter,
    ScriptStrategy,
    Sketch,
    StrategyRunner,
    initial_configuration,
    initial_sketch,
    meter_report,
    parse_hpm,
    play,
    sketch_advance,
    sketch_of_configuration,
    step,
)
from .induction import (
    build_induction_solver,
    central_triple,
    diagnostics,
    sim,
    sim_views,
    validate_aggregation,
)
from .wrappers import (
    build_reason_wrapper,
    build_unconditional_wrapper,
    fetch_symbol,
    h_index,
    update_sketch,
)

__version__ = "0.1.0"
