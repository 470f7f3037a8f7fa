"""Experiment harness: environments, play-outs, and adaptive-rate audits.

An experiment plays a registered strategy against a generated loss sequence
using exact mixture losses (no sampling noise in the audit), then checks
every comparator on an audit grid against every requested rate: the slack
``rate + certificate - regret`` must stay nonnegative for a certified
strategy. Records serialise to byte-stable JSON and CSV.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .algorithms import (
    LAMBDA_FIXED,
    LAMBDA_MODES,
    TwoLevelRelaxation,
    kl_ball_minimizer,
)
from .bounds import AdaptiveRate
from .core import Distribution, GameSpec, RadiusLadder, RngSpec

ENVIRONMENTS = (
    "stochastic_bernoulli",
    "small_loss_leader",
    "quantile_block",
    "alternating_adversary",
    "file",
)

DEFAULT_SIMPLEX_RESOLUTION = 16
DEFAULT_GRID_BUDGET = 5000
SLACK_TOL_PER_ROUND = 1e-6

CONFIG_SCHEMA = "regretlab/experiment-v1"
RECORDS_SCHEMA = "regretlab/records-v1"
GAME_SCHEMA = "regretlab/game-v1"


def generate_environment(name: str, params: dict, rng: RngSpec) -> np.ndarray:
    """Loss matrix of shape (horizon, experts), entries in [0, 1].

    Deterministic given the RngSpec. Built-ins:
      stochastic_bernoulli   iid Bernoulli(p) losses
      small_loss_leader      one designated expert with (possibly zero) loss
                             rate, the rest at a higher rate
      quantile_block         a fixed fraction of experts shares the strictly
                             minimal cumulative loss
      alternating_adversary  deterministic alternation between expert halves
      file                   {"losses": [[...]]} from a JSON file
    """
    if name not in ENVIRONMENTS:
        raise ValueError(f"unknown environment {name!r}; registry: {ENVIRONMENTS}")
    if name == "file":
        with open(params["path"]) as fh:
            data = json.load(fh)
        losses = np.asarray(data["losses"], dtype=float)
    else:
        k = int(params["experts"])
        n = int(params["horizon"])
        gen = rng.generator()
        if name == "stochastic_bernoulli":
            p = float(params.get("p", 0.5))
            losses = (gen.random((n, k)) < p).astype(float)
        elif name == "small_loss_leader":
            leader = int(params.get("leader", 0))
            leader_rate = float(params.get("leader_rate", 0.0))
            other_rate = float(params.get("other_rate", 0.5))
            losses = (gen.random((n, k)) < other_rate).astype(float)
            losses[:, leader] = (gen.random(n) < leader_rate).astype(float)
        elif name == "quantile_block":
            frac = float(params.get("good_fraction", 1.0 / 8.0))
            n_good = max(int(round(k * frac)), 1)
            losses = (gen.random((n, k)) < 0.5).astype(float)
            losses[0, :] = 1.0                      # forces strict separation
            losses[:, :n_good] = 0.0
        else:
            half = max(k // 2, 1)
            losses = np.zeros((n, k))
            for t in range(n):
                if t % 2 == 0:
                    losses[t, :half] = 1.0
                else:
                    losses[t, half:] = 1.0
    if np.any(~((losses >= 0.0) & (losses <= 1.0))):     # NaN fails both tests
        raise ValueError("environment produced losses outside [0, 1]")
    return losses


def simplex_grid(k: int, resolution: int, budget: int = DEFAULT_GRID_BUDGET) -> list:
    """Uniform weight-vector grid at the largest feasible resolution <= the
    requested one, so the point count stays within budget."""
    m = resolution
    while m > 1 and math.comb(m + k - 1, k - 1) > budget:
        m -= 1
    if math.comb(m + k - 1, k - 1) > budget:
        return []
    points = []
    for cuts in combinations(range(m + k - 1), k - 1):
        prev = -1
        counts = []
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(m + k - 2 - prev)
        points.append(np.asarray(counts, dtype=float) / m)
    return points


@dataclass(frozen=True)
class ExperimentConfig:
    environment: str
    environment_params: dict
    strategy: str
    strategy_params: dict
    rates: tuple
    horizon: int
    experts: int
    replicates: int
    rng: RngSpec
    simplex_resolution: int = DEFAULT_SIMPLEX_RESOLUTION
    grid_budget: int = DEFAULT_GRID_BUDGET
    slack_tol_per_round: float = SLACK_TOL_PER_ROUND
    json_path: str | None = None
    csv_path: str | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.environment not in ENVIRONMENTS:
            raise ValueError(f"unknown environment {self.environment!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; registry: {tuple(STRATEGIES)}")
        for r in self.rates:
            if r not in RATE_BUILDERS:
                raise ValueError(f"unknown rate {r!r}; registry: {tuple(RATE_BUILDERS)}")

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        allowed = {
            "schema", "environment", "strategy", "rates", "horizon", "experts",
            "replicates", "rng", "audit", "output",
        }
        unknown = set(doc) - allowed
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if doc.get("schema") != CONFIG_SCHEMA:
            raise ValueError(f"config schema must be {CONFIG_SCHEMA!r}")
        env = dict(doc["environment"])
        env_name = env.pop("name")
        strat = dict(doc.get("strategy", {"name": "two-level-ew"}))
        strat_name = strat.pop("name")
        audit = dict(doc.get("audit", {}))
        unknown_audit = set(audit) - {"simplex_resolution", "grid_budget", "slack_tol_per_round"}
        if unknown_audit:
            raise ValueError(f"unknown audit fields: {sorted(unknown_audit)}")
        output = dict(doc.get("output", {}))
        unknown_out = set(output) - {"json", "csv"}
        if unknown_out:
            raise ValueError(f"unknown output fields: {sorted(unknown_out)}")
        rng_doc = dict(doc["rng"])
        return ExperimentConfig(
            environment=env_name,
            environment_params=env,
            strategy=strat_name,
            strategy_params=strat,
            rates=tuple(doc.get("rates", ("kl-radius",))),
            horizon=int(doc["horizon"]),
            experts=int(doc["experts"]),
            replicates=int(doc.get("replicates", 1)),
            rng=RngSpec(seed=int(rng_doc["seed"]), algorithm=rng_doc.get("algorithm", "pcg64")),
            simplex_resolution=int(audit.get("simplex_resolution", DEFAULT_SIMPLEX_RESOLUTION)),
            grid_budget=int(audit.get("grid_budget", DEFAULT_GRID_BUDGET)),
            slack_tol_per_round=float(audit.get("slack_tol_per_round", SLACK_TOL_PER_ROUND)),
            json_path=output.get("json"),
            csv_path=output.get("csv"),
        )

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))


def _build_two_level(config: ExperimentConfig):
    params = dict(config.strategy_params)
    mode = params.pop("lambda_mode", LAMBDA_FIXED)
    if mode not in LAMBDA_MODES:
        raise ValueError(f"lambda_mode must be one of {LAMBDA_MODES}")
    i_max = params.pop("i_max", None)
    prior_kind = params.pop("prior", "uniform")
    if params:
        raise ValueError(f"unknown strategy params: {sorted(params)}")
    if prior_kind != "uniform":
        raise ValueError("only the uniform prior is registered")
    prior = Distribution.uniform(config.experts)
    ladder = RadiusLadder(int(i_max)) if i_max else None
    return TwoLevelRelaxation(prior, config.horizon, ladder, mode)


STRATEGIES = {"two-level-ew": _build_two_level}


def _kl_radius_rate(config):
    return AdaptiveRate("kl_radius", prior=Distribution.uniform(config.experts))


def _pac_bayes_rate(config):
    return AdaptiveRate("pac_bayes", prior=Distribution.uniform(config.experts))


def _fixed_vs_best_rate(config):
    return AdaptiveRate("fixed_vs_best", fstar_index=0, class_size=max(config.experts, 2))


def _uniform_rate(config):
    return AdaptiveRate("uniform_constant", value=0.0)


def _predictable_rate(config):
    raise ValueError(
        "rate 'predictable' needs per-round input sequences; the experts "
        "environments have none (strategy/rate incompatibility)"
    )


RATE_BUILDERS = {
    "kl-radius": _kl_radius_rate,
    "pac-bayes": _pac_bayes_rate,
    "fixed-vs-best": _fixed_vs_best_rate,
    "uniform-constant": _uniform_rate,
    "predictable": _predictable_rate,
}


@dataclass
class AuditRecord:
    """One replicate's play-out plus its per-comparator audit rows.

    Row arithmetic is exact bookkeeping: regret + slack = rate + certificate.
    """

    environment: str
    rate_name: str
    replicate: int
    seed: int
    horizon: int
    experts: int
    per_round_losses: list
    certificate: float
    comparators: list = field(default_factory=list)   # dicts: id, regret, rate, slack
    min_slack: float = math.inf
    argmin_comparator: str = ""

    def to_dict(self) -> dict:
        return {
            "environment": self.environment,
            "rate_name": self.rate_name,
            "replicate": self.replicate,
            "seed": self.seed,
            "horizon": self.horizon,
            "experts": self.experts,
            "per_round_losses": list(self.per_round_losses),
            "certificate": self.certificate,
            "comparators": [dict(c) for c in self.comparators],
            "min_slack": self.min_slack,
            "argmin_comparator": self.argmin_comparator,
        }

    @staticmethod
    def from_dict(doc: dict) -> "AuditRecord":
        return AuditRecord(**doc)


def audit_grid(prior: Distribution, resolution: int, budget: int,
               ladder: RadiusLadder, cumulative) -> list:
    """Point masses, a capped simplex grid, and per-rung KL-ball minimisers."""
    k = prior.support_size
    grid = [("e%d" % i, Distribution.point_mass(i, k).weights) for i in range(k)]
    for j, w in enumerate(simplex_grid(k, resolution, budget)):
        grid.append(("grid%d" % j, w))
    for i, radius in enumerate(ladder.radii):
        f_star, _ = kl_ball_minimizer(prior, float(radius), cumulative)
        grid.append(("klball%d" % i, f_star.weights))
    return grid


def run_experiment(config: ExperimentConfig) -> list:
    """Play every replicate and audit every requested rate on the grid."""
    relaxation = STRATEGIES[config.strategy](config)
    rates = {name: RATE_BUILDERS[name](config) for name in config.rates}
    records = []
    for rep in range(config.replicates):
        losses = generate_environment(
            config.environment,
            {"experts": config.experts, "horizon": config.horizon, **config.environment_params},
            RngSpec(seed=config.rng.seed + rep, algorithm=config.rng.algorithm),
        )
        records.extend(_audit_one(config, relaxation, rates, losses, rep))
    return records


def _audit_one(config, relaxation, rates, losses, rep):
    from .algorithms import TwoLevelState, twolevel_predict

    n, k = losses.shape
    state = TwoLevelState(relaxation.prior, relaxation.ladder, relaxation.horizon,
                          relaxation.lambda_mode)
    per_round = []
    for t in range(n):
        q = twolevel_predict(state, t + 1)
        per_round.append(float(np.dot(q.weights, losses[t])))
        state.update(losses[t])
    algo_total = float(sum(per_round))
    cumulative = losses.sum(axis=0)
    certificate = relaxation.value(losses[:0])

    grid = audit_grid(relaxation.prior, config.simplex_resolution, config.grid_budget,
                      relaxation.ladder, cumulative)
    ids = [comp_id for comp_id, _ in grid]
    weights = np.array([w for _, w in grid])
    regret = algo_total - weights @ cumulative
    records = []
    for rate_name, rate in rates.items():
        rate_values = rate.evaluate_many(weights, losses)
        slack = rate_values + certificate - regret
        worst = int(np.argmin(slack))
        records.append(AuditRecord(
            environment=config.environment,
            rate_name=rate_name,
            replicate=rep,
            seed=config.rng.seed + rep,
            horizon=n,
            experts=k,
            per_round_losses=per_round,
            certificate=certificate,
            comparators=[
                {"id": comp_id, "regret": regret_i, "rate": rate_i, "slack": slack_i}
                for comp_id, regret_i, rate_i, slack_i
                in zip(ids, regret.tolist(), rate_values.tolist(), slack.tolist())
            ],
            min_slack=float(slack[worst]),
            argmin_comparator=ids[worst],
        ))
    return records


def min_slack(records) -> float:
    return min((r.min_slack for r in records), default=math.inf)


def emit_results(records, fmt: str, path: str, rng: RngSpec | None = None) -> None:
    """Serialise audit records byte-stably.

    JSON mirrors the record structure plus RngSpec and version metadata and
    round-trips exactly through ``read_results``. CSV flattens each record
    into per-round rows (round, loss) followed by per-comparator rows
    (comparator_id, regret, rate, slack), in fixed order.
    """
    if fmt == "json":
        doc = {
            "schema": RECORDS_SCHEMA,
            "version": __version__,
            "rng": rng.to_dict() if rng is not None else None,
            "records": [r.to_dict() for r in records],
        }
        with open(path, "w") as fh:
            fh.write(_json_text(doc, 0) + "\n")
    elif fmt == "csv":
        lines = ["record,section,round,loss,comparator_id,regret,rate,slack"]
        for i, rec in enumerate(records):
            for t, loss in enumerate(rec.per_round_losses):
                lines.append(f"{i},round,{t},{loss!r},,,,")
            for c in rec.comparators:
                lines.append(
                    f"{i},comparator,,,{c['id']},{c['regret']!r},{c['rate']!r},{c['slack']!r}"
                )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _json_float(x: float) -> str:
    if x - x == 0.0:                            # finite
        return float.__repr__(x)
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


# json.dumps's text for each scalar type, looked up by exact type
_SCALAR_WRITERS = {
    str: encode_basestring_ascii,
    float: _json_float,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json_text(value, depth: int) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for a value nested
    ``depth`` levels deep, byte for byte (ASCII, NaN and infinities allowed).

    The standard library falls back to its pure-Python encoder whenever an
    indent is set; this writer dispatches on the exact type first and joins
    each container's items once, which is faster on audit records.
    """
    writer = _SCALAR_WRITERS.get(type(value))
    if writer is not None:
        return writer(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        texts = [_json_text(v, depth + 1) for v in value]
        brackets = "[]"
    elif isinstance(value, dict):
        if not value:
            return "{}"
        texts = [encode_basestring_ascii(k if isinstance(k, str) else _json_text(k, 0))
                 + ": " + _json_text(v, depth + 1) for k, v in sorted(value.items())]
        brackets = "{}"
    else:
        # subclasses of str, int and float are written as their base type
        for base, writer in _SCALAR_WRITERS.items():
            if isinstance(value, base):
                return writer(value)
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(texts) + "\n" + "  " * depth + brackets[1]


def read_results(path: str) -> list:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != RECORDS_SCHEMA:
        raise ValueError(f"not a {RECORDS_SCHEMA} file")
    return [AuditRecord.from_dict(d) for d in doc["records"]]


def load_game(path: str) -> GameSpec:
    """Read the JSON game description used by the oracle subcommands."""
    with open(path) as fh:
        doc = json.load(fh)
    allowed = {"schema", "outcomes", "horizon", "comparators", "loss_range",
               "simplex_resolution"}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown game fields: {sorted(unknown)}")
    if doc.get("schema") != GAME_SCHEMA:
        raise ValueError(f"game schema must be {GAME_SCHEMA!r}")
    outcomes = np.asarray(doc["outcomes"], dtype=float)
    k = outcomes.shape[1]
    comparators = [np.asarray(c, dtype=float) for c in doc.get("comparators", [])]
    if not comparators:
        comparators = [Distribution.point_mass(i, k).weights for i in range(k)]
    resolution = int(doc.get("simplex_resolution", 0))
    if resolution:
        comparators.extend(simplex_grid(k, resolution))
    return GameSpec.experts_game(
        outcomes, int(doc["horizon"]), comparators,
        loss_range=tuple(doc.get("loss_range", (0.0, 1.0))),
    )
