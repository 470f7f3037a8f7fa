"""Experiment harness: environments, play-outs, and adaptive-rate audits.

An experiment plays the two-level strategy against a generated loss sequence
using exact mixture losses (no sampling noise in the audit), then checks
every comparator on an audit grid against every requested rate: the slack
``rate + certificate - regret`` must stay nonnegative for a certified
strategy. Records serialise to byte-stable JSON and CSV.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
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
from .bounds import AdaptiveRate, rate_kind, require_horizon
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
    requested one, so the point count stays within budget.

    Each (k, resolution, budget) is built once; its points are read-only
    arrays shared by every call."""
    return list(_simplex_points(k, resolution, budget))


@functools.lru_cache(maxsize=None)
def _simplex_points(k: int, resolution: int, budget: int) -> tuple:
    m = resolution
    while m > 1 and math.comb(m + k - 1, k - 1) > budget:
        m -= 1
    if math.comb(m + k - 1, k - 1) > budget:
        return ()
    points = []
    for cuts in combinations(range(m + k - 1), k - 1):
        prev = -1
        counts = []
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(m + k - 2 - prev)
        point = np.asarray(counts, dtype=float) / m
        point.flags.writeable = False
        points.append(point)
    return tuple(points)


@dataclass(frozen=True)
class ExperimentConfig:
    environment: str
    environment_params: dict
    rates: tuple
    horizon: int
    experts: int
    replicates: int
    rng: RngSpec
    lambda_mode: str = LAMBDA_FIXED
    i_max: int = 0                  # 0: the default ladder for the game
    simplex_resolution: int = DEFAULT_SIMPLEX_RESOLUTION
    grid_budget: int = DEFAULT_GRID_BUDGET
    slack_tol_per_round: float = SLACK_TOL_PER_ROUND
    json_path: str | None = None
    csv_path: str | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.experts < 1:
            raise ValueError("experts must be >= 1")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.environment not in ENVIRONMENTS:
            raise ValueError(f"unknown environment {self.environment!r}")
        if self.lambda_mode not in LAMBDA_MODES:
            raise ValueError(f"lambda_mode must be one of {LAMBDA_MODES}")
        if self.i_max < 0:
            raise ValueError("i_max must be >= 0")
        for r in self.rates:
            require_horizon(rate_kind(r), self.horizon)  # rate_kind rejects unknown names

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        doc = _fields(doc, {"schema", "environment", "strategy", "rates", "horizon", "experts",
                            "replicates", "rng", "audit", "output"}, "config fields")
        if doc.get("schema") != CONFIG_SCHEMA:
            raise ValueError(f"config schema must be {CONFIG_SCHEMA!r}")
        env = dict(doc["environment"])
        env_name = env.pop("name")
        strat = _fields(doc.get("strategy", {}), {"name", "lambda_mode", "i_max"}, "strategy params")
        if strat.get("name", TwoLevelRelaxation.name) != TwoLevelRelaxation.name:
            raise ValueError(f"strategy.name must be {TwoLevelRelaxation.name!r}, "
                             f"got {strat['name']!r}")
        audit = _fields(doc.get("audit", {}),
                        {"simplex_resolution", "grid_budget", "slack_tol_per_round"}, "audit fields")
        output = _fields(doc.get("output", {}), {"json", "csv"}, "output fields")
        rng_doc = dict(doc["rng"])
        rates = doc.get("rates", ["kl-radius"])
        if not isinstance(rates, list):
            raise ValueError(f"rates must be a JSON list of rate names, got {rates!r}")
        return ExperimentConfig(
            environment=env_name,
            environment_params=env,
            rates=tuple(rates),
            horizon=_integral(doc["horizon"], "horizon"),
            experts=_integral(doc["experts"], "experts"),
            replicates=_integral(doc.get("replicates", 1), "replicates"),
            rng=RngSpec(seed=_integral(rng_doc["seed"], "rng.seed"),
                        algorithm=rng_doc.get("algorithm", "pcg64")),
            lambda_mode=strat.get("lambda_mode", LAMBDA_FIXED),
            i_max=_integral(strat.get("i_max") or 0, "strategy.i_max"),
            simplex_resolution=_integral(audit.get("simplex_resolution", DEFAULT_SIMPLEX_RESOLUTION),
                                         "audit.simplex_resolution"),
            grid_budget=_integral(audit.get("grid_budget", DEFAULT_GRID_BUDGET), "audit.grid_budget"),
            slack_tol_per_round=float(audit.get("slack_tol_per_round", SLACK_TOL_PER_ROUND)),
            json_path=output.get("json"),
            csv_path=output.get("csv"),
        )

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))


def _fields(doc, allowed: set, what: str) -> dict:
    """A copy of the mapping ``doc``, which may hold only ``allowed`` keys."""
    doc = dict(doc)
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown {what}: {sorted(unknown)}")
    return doc


def _integral(value, field: str) -> int:
    """``value`` as an int, if it is an integral number (not a bool, a string,
    2.5 or NaN); else a ValueError naming ``field``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{field} must be an integer, got {value!r}")


def build_relaxation(experts: int, horizon: int, lambda_mode: str, i_max: int) -> TwoLevelRelaxation:
    """The two-level strategy under the uniform prior, with ``i_max`` rungs,
    or the default ladder for the game when ``i_max`` is 0."""
    ladder = RadiusLadder(i_max) if i_max else None
    return TwoLevelRelaxation(Distribution.uniform(experts), horizon, ladder, lambda_mode)


@dataclass(frozen=True)
class AuditRecord:
    """One replicate's play-out plus its per-comparator audit columns.

    Comparator ``j`` is ``comparator_ids[j]`` with ``regret[j]``, ``rate[j]``
    and ``slack[j]``; the arithmetic is exact bookkeeping:
    regret + slack = rate + certificate. Every column is an immutable tuple,
    of ``str`` for the ids and of ``float`` otherwise, so the records of one
    replicate share their ids, regret and per-round columns, and a writer
    may format each distinct column object once.
    """

    environment: str
    rate_name: str
    replicate: int
    seed: int
    horizon: int
    experts: int
    per_round_losses: tuple
    certificate: float
    comparator_ids: tuple = ()
    regret: tuple = ()
    rate: tuple = ()
    slack: tuple = ()
    min_slack: float = math.inf
    argmin_comparator: str = ""

    def __post_init__(self):
        for name in _COLUMNS:
            kind = str if name == "comparator_ids" else float
            object.__setattr__(self, name, _column(name, getattr(self, name), kind))
        lengths = {name: len(getattr(self, name)) for name in _ROW_KEYS.values()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"comparator columns differ in length: {lengths}")

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
            "comparators": [
                {"id": comp_id, "regret": regret, "rate": rate, "slack": slack}
                for comp_id, regret, rate, slack
                in zip(self.comparator_ids, self.regret, self.rate, self.slack)
            ],
            "min_slack": self.min_slack,
            "argmin_comparator": self.argmin_comparator,
        }

    @staticmethod
    def from_dict(doc: dict) -> "AuditRecord":
        """The record ``to_dict`` wrote; a comparator row must hold exactly
        the keys id, rate, regret and slack."""
        doc = dict(doc)
        rows = doc.pop("comparators", [])
        for j, row in enumerate(rows):
            if not isinstance(row, dict) or row.keys() != _ROW_KEYS.keys():
                keys = sorted(row) if isinstance(row, dict) else type(row).__name__
                raise ValueError(f"comparator row {j} holds {keys}; "
                                 f"expected {sorted(_ROW_KEYS)}")
        columns = {name: [row[key] for row in rows] for key, name in _ROW_KEYS.items()}
        return AuditRecord(**doc, **columns)


# comparator row key -> AuditRecord column
_ROW_KEYS = {"id": "comparator_ids", "rate": "rate", "regret": "regret", "slack": "slack"}
_COLUMNS = ("per_round_losses", *_ROW_KEYS.values())


def _column(name: str, values, kind: type) -> tuple:
    """``values`` as a tuple of exact ``kind`` (``float`` or ``str``); the
    same object when it already is one."""
    try:
        column = tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, not {type(values).__name__}") from None
    if {kind}.issuperset(map(type, column)):
        return column
    accepted = numbers.Real if kind is float else str
    for x in column:
        if isinstance(x, bool) or not isinstance(x, accepted):
            what = "number" if kind is float else "string"
            raise ValueError(f"{name} holds {x!r}, which is not a {what}")
    return tuple(map(kind, column))


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
    relaxation = build_relaxation(config.experts, config.horizon, config.lambda_mode,
                                  config.i_max)
    rates = {name: AdaptiveRate.named(name, config.experts) for name in config.rates}
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
    n, k = losses.shape
    state = relaxation.start()
    certificate = relaxation.value(state)
    per_round = []
    for t in range(n):
        q = relaxation.strategy(state)
        per_round.append(float(np.dot(q.weights, losses[t])))
        state.update(losses[t])
    algo_total = float(sum(per_round))
    cumulative = losses.sum(axis=0)

    grid = audit_grid(relaxation.prior, config.simplex_resolution, config.grid_budget,
                      relaxation.ladder, cumulative)
    ids = tuple(comp_id for comp_id, _ in grid)
    weights = np.array([w for _, w in grid])
    regret = algo_total - weights @ cumulative
    # the replicate's records share these column objects
    per_round = tuple(per_round)
    regret_column = tuple(regret.tolist())
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
            comparator_ids=ids,
            regret=regret_column,
            rate=tuple(rate_values.tolist()),
            slack=tuple(slack.tolist()),
            min_slack=float(slack[worst]),
            argmin_comparator=ids[worst],
        ))
    return records


def min_slack(records) -> float:
    return min((r.min_slack for r in records), default=math.inf)


def emit_results(records, fmt: str, path: str, rng: RngSpec | None = None) -> None:
    """Serialise audit records byte-stably.

    JSON is ``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline,
    where ``doc`` holds the schema, the version, the RngSpec and each
    record's ``to_dict()``; it round-trips exactly through ``read_results``.
    CSV flattens each record into per-round rows (round, loss) followed by
    per-comparator rows (comparator_id, regret, rate, slack), in fixed order.
    Floats are written as ``repr`` writes them, except that JSON spells the
    non-finite ones NaN, Infinity and -Infinity.
    """
    if fmt == "json":
        text = _json_document(records, rng)
    elif fmt == "csv":
        text = _csv_document(records)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)


def _column_texts(spell):
    """``spell(column)`` for each distinct column object, computed on first use.

    Columns are keyed by ``id()``. Each entry holds its column, so no id is
    reused while the cache lives, and columns are immutable tuples, so their
    texts cannot go stale."""
    cache = {}

    def texts(column) -> list:
        hit = cache.get(id(column))
        if hit is None:
            hit = cache[id(column)] = (column, spell(column))
        return hit[1]

    return texts


_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_floats(column) -> list:
    texts = list(map(float.__repr__, column))
    if not _JSON_NONFINITE.keys().isdisjoint(texts):
        texts = [_JSON_NONFINITE.get(t, t) for t in texts]
    return texts


# A record and a comparator row as json.dumps(sort_keys=True, indent=2) lays
# them out inside the document's "records" list.
_JSON_RECORD = """    {
      "argmin_comparator": %s,
      "certificate": %s,
      "comparators": %s,
      "environment": %s,
      "experts": %s,
      "horizon": %s,
      "min_slack": %s,
      "per_round_losses": %s,
      "rate_name": %s,
      "replicate": %s,
      "seed": %s
    }"""
_JSON_ROW = """        {
          "id": %s,
          "rate": %s,
          "regret": %s,
          "slack": %s
        }"""


def _json_document(records, rng) -> str:
    floats = _column_texts(_json_floats)
    ids = _column_texts(lambda column: list(map(encode_basestring_ascii, column)))
    items = []
    for rec in records:
        rows = map(_JSON_ROW.__mod__, zip(ids(rec.comparator_ids), floats(rec.rate),
                                          floats(rec.regret), floats(rec.slack)))
        losses = floats(rec.per_round_losses)
        items.append(_JSON_RECORD % (
            json.dumps(rec.argmin_comparator),
            json.dumps(rec.certificate),
            "[\n" + ",\n".join(rows) + "\n      ]" if rec.comparator_ids else "[]",
            json.dumps(rec.environment),
            json.dumps(rec.experts),
            json.dumps(rec.horizon),
            json.dumps(rec.min_slack),
            "[\n        " + ",\n        ".join(losses) + "\n      ]" if losses else "[]",
            json.dumps(rec.rate_name),
            json.dumps(rec.replicate),
            json.dumps(rec.seed),
        ))
    header = json.dumps({
        "rng": rng.to_dict() if rng is not None else None,
        "schema": RECORDS_SCHEMA,
        "version": __version__,
    }, sort_keys=True, indent=2)
    listing = "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"
    # "records" sorts before the header's keys; header[2:] drops its "{\n"
    return '{\n  "records": ' + listing + ",\n" + header[2:] + "\n"


_CSV_HEADER = "record,section,round,loss,comparator_id,regret,rate,slack"


def _csv_document(records) -> str:
    floats = _column_texts(lambda column: list(map(float.__repr__, column)))
    lines = [_CSV_HEADER]
    for i, rec in enumerate(records):
        lines += map(f"{i},round,%d,%s,,,,".__mod__, enumerate(floats(rec.per_round_losses)))
        lines += map(f"{i},comparator,,,%s,%s,%s,%s".__mod__,
                     zip(rec.comparator_ids, floats(rec.regret), floats(rec.rate),
                         floats(rec.slack)))
    return "\n".join(lines) + "\n"


def read_results(path: str) -> list:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != RECORDS_SCHEMA:
        raise ValueError(f"not a {RECORDS_SCHEMA} file")
    return [AuditRecord.from_dict(d) for d in doc["records"]]


def load_game(path: str) -> GameSpec:
    """Read the JSON game description used by the oracle subcommands.

    ``outcomes`` lists one per-decision loss vector per outcome; the listed
    ``comparators``, or else the point masses, are joined by a simplex grid
    when ``simplex_resolution`` is set."""
    with open(path) as fh:
        doc = _fields(json.load(fh), {"schema", "outcomes", "horizon", "comparators",
                                      "simplex_resolution"}, "game fields")
    if doc.get("schema") != GAME_SCHEMA:
        raise ValueError(f"game schema must be {GAME_SCHEMA!r}")
    outcomes = np.asarray(doc["outcomes"], dtype=float)
    comparators = [np.asarray(c, dtype=float) for c in doc.get("comparators", [])]
    resolution = _integral(doc.get("simplex_resolution", 0), "simplex_resolution")
    if resolution:
        k = outcomes.shape[1]
        # expert indices are the point masses to GameSpec
        comparators = [*(comparators or range(k)), *simplex_grid(k, resolution)]
    return GameSpec.experts_game(outcomes, _integral(doc["horizon"], "horizon"), comparators or None)
