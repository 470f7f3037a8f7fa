"""Adaptive online-learning rates: formulas, algorithms, and certification.

The library plays and audits adaptive regret bounds for finite online
games: a catalog of closed-form rate evaluators, a constructive two-level
exponential-weights strategy with a certifying potential, sequential
complexity functionals on decorated trees, one-sided tail validators, and
an exact minimax oracle that decides achievability at desk scale.
"""

__version__ = "0.1.0"

from .core import (  # noqa: E402
    BinaryTree,
    Distribution,
    GameSpec,
    RadiusLadder,
    RngSpec,
    expected_loss,
    kl_divergence,
    normalize_log_weights,
    tree_get,
)
from .bounds import (  # noqa: E402
    AdaptiveRate,
    CoveringProfile,
    fixed_vs_best_rate,
    generic_radius_rate,
    kl_radius_rate,
    norm_adaptive_rate,
    pacbayes_rate,
    predictable_rate,
    spectral_rate,
)
from .algorithms import (  # noqa: E402
    TwoLevelRelaxation,
    TwoLevelState,
    fixed_radius_inequality_check,
    highlevel_weights,
    kl_ball_minimizer,
    lowlevel_ew,
    relaxation_value,
    twolevel_predict,
)
from .complexity import (  # noqa: E402
    FunctionTable,
    OffsetForm,
    covering_number,
    covering_number_report,
    dudley_integral,
    offset_expectation,
    seq_rademacher_exact,
    seq_rademacher_mc,
)
from .probtools import (  # noqa: E402
    ChainingInstance,
    OffsetProcessInstance,
    PinelisInstance,
    TailSpec,
    maximal_bound,
    maximal_inequality_mc,
    tail_validate,
    theta_multipliers,
)
from .oracle import (  # noqa: E402
    achievability_check,
    admissibility_check,
    matrix_game_value,
    offset_minimax_value,
    regret_certificate,
)
from .harness import (  # noqa: E402
    ExperimentConfig,
    emit_results,
    generate_environment,
    load_game,
    read_results,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
