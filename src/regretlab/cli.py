"""Command-line surface: ``lab`` with one subcommand per capability.

Every subcommand writes a machine-readable JSON report and exits 0 only if
all requested checks pass. ``--seed`` overrides the seed found in any
config file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .algorithms import LAMBDA_FIXED, LAMBDA_MODES
from .bounds import RATE_NAMES, AdaptiveRate
from .complexity import FunctionTable, OffsetForm, offset_expectation
from .core import BinaryTree, RngSpec
from .harness import (
    ExperimentConfig,
    build_relaxation,
    emit_results,
    load_game,
    min_slack,
    run_experiment,
)
from .oracle import achievability_check, admissibility_check
from .probtools import (
    ChainingInstance,
    OffsetProcessInstance,
    PinelisInstance,
    tail_validate,
)


def _write_report(path, doc):
    payload = json.dumps(doc, sort_keys=True, indent=2, default=_jsonable) + "\n"
    if path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w") as fh:
            fh.write(payload)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serialisable: {type(obj)}")


def _override_seed(config: ExperimentConfig, seed) -> ExperimentConfig:
    if seed is None:
        return config
    from dataclasses import replace

    return replace(config, rng=RngSpec(seed=int(seed), algorithm=config.rng.algorithm))


def _cmd_run(args) -> int:
    config = _override_seed(ExperimentConfig.from_json(args.config), args.seed)
    records = run_experiment(config)
    if config.json_path:
        emit_results(records, "json", config.json_path, config.rng)
    if config.csv_path:
        emit_results(records, "csv", config.csv_path)
    worst = min_slack(records)
    tol = config.slack_tol_per_round * config.horizon
    passed = worst >= -tol
    per_rate = {name: min_slack(r for r in records if r.rate_name == name) for name in config.rates}
    _write_report(args.report, {
        "command": "run", "version": __version__,
        "records": len(records), "min_slack": worst, "per_rate_min_slack": per_rate,
        "slack_tolerance": tol, "passed": passed,
        "rng": config.rng.to_dict(),
    })
    return 0 if passed else 1


def _cmd_oracle(args) -> int:
    game = load_game(args.game)
    rate = AdaptiveRate.named(args.rate, game.n_decisions, args.rate_value)
    report = achievability_check(game, rate, tol=args.tol)
    _write_report(args.report, {
        "command": "oracle", "version": __version__,
        "rate": args.rate, "value": report.value,
        "refined_value": report.refined_value,
        "achievable": report.achievable, "tol": report.tol,
        "worst_path": list(report.worst_path),
        "node_count": report.node_count, "state_count": report.state_count,
    })
    return 0 if report.achievable else 1


def _cmd_admissible(args) -> int:
    game = load_game(args.game)
    relaxation = build_relaxation(game.n_decisions, game.horizon, args.lambda_mode, args.i_max)
    rng = RngSpec(seed=args.seed if args.seed is not None else 0)
    report = admissibility_check(
        relaxation, game, mode=args.mode, sample_count=args.samples, rng=rng, tol=args.tol
    )
    _write_report(args.report, {
        "command": "admissible", "version": __version__,
        "strategy": relaxation.name, "mode": report.mode,
        "worst_margin": report.worst_margin,
        "worst_prefix": list(report.worst_prefix),
        "recursive_checked": len(report.recursive_margins),
        "terminal_checked": len(report.initial_margins),
        "tol": report.tol, "passed": report.verdict,
    })
    return 0 if report.verdict else 1


def _load_table(args) -> FunctionTable:
    if args.table:
        with open(args.table) as fh:
            doc = json.load(fh)
        return FunctionTable(np.asarray(doc["values"], dtype=float),
                             float(doc.get("bound", 1.0)))
    gen = RngSpec(seed=args.seed if args.seed is not None else 0).generator()
    g, depth = args.random
    return FunctionTable(gen.uniform(-1.0, 1.0, size=(g, 2 ** depth - 1)))


def _cmd_complexity(args) -> int:
    table = _load_table(args)
    rng = RngSpec(seed=args.seed if args.seed is not None else 0)
    form = _make_offset_form(args)
    if args.mode == "exact":
        doc = {"estimate": offset_expectation(table, form), "stderr": 0.0}
    else:
        est, se = offset_expectation(table, form, mode="mc", rng=rng,
                                     replicates=args.replicates)
        doc = {"estimate": est, "stderr": se}
    doc.update({
        "command": "complexity", "version": __version__,
        "mode": args.mode, "offset_form": args.offset_form,
        "functions": table.n_functions, "depth": table.depth,
    })
    _write_report(args.report, doc)
    return 0


def _make_offset_form(args) -> OffsetForm:
    if args.offset_form == "none":
        return OffsetForm("none")
    if args.offset_form == "quadratic":
        return OffsetForm("quadratic", alpha=args.alpha)
    if args.offset_form == "finite-class":
        return OffsetForm("finite_class_penalty")
    if args.offset_form == "chained":
        return OffsetForm("chained_penalty")
    raise ValueError(f"unknown offset form {args.offset_form!r}")


def _cmd_validate_tails(args) -> int:
    with open(args.instance) as fh:
        doc = json.load(fh)
    kind = args.kind
    if kind == "pinelis":
        tree = BinaryTree(int(doc["depth"]), np.asarray(doc["nodes"], dtype=float))
        instance = PinelisInstance(tree, float(doc.get("smoothness", 1.0)))
    elif kind == "chaining":
        instance = ChainingInstance(FunctionTable(np.asarray(doc["values"], dtype=float)))
    elif kind == "offset_process":
        instance = OffsetProcessInstance(
            FunctionTable(np.asarray(doc["values"], dtype=float)),
            alpha=float(doc["alpha"]), gamma=float(doc["gamma"]),
        )
    else:
        raise ValueError(f"unknown tail kind {kind!r}")
    thresholds = [float(x) for x in args.thresholds.split(",")]
    rng = RngSpec(seed=args.seed if args.seed is not None else 0)
    report = tail_validate(kind, instance, thresholds, mode=args.mode,
                           replicates=args.replicates, rng=rng)
    _write_report(args.report, {
        "command": "validate-tails", "version": __version__,
        "kind": kind, "mode": args.mode, "passed": report.passed,
        "points": [
            {"threshold": p.threshold, "empirical": p.empirical, "bound": p.bound,
             "stderr": p.stderr, "passed": p.passed, "skipped": p.skipped, "note": p.note}
            for p in report.points
        ],
    })
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # argparse names the flag and the type ("invalid finite value: 'x'")
    def finite(text) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        return value

    def tolerance(text) -> float:
        value = finite(text)
        if value < 0.0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
        return value

    def positive_int(text) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
        return value

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="override any configured seed")
        p.add_argument("--report", default="-", help="JSON report path (default stdout)")

    p_run = sub.add_parser("run", help="play a configured experiment and emit records")
    p_run.add_argument("-c", "--config", required=True)
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="achievability of a rate on a game file")
    p_oracle.add_argument("--game", required=True)
    p_oracle.add_argument("--rate", required=True, help="one of " + ", ".join(RATE_NAMES))
    p_oracle.add_argument("--rate-value", type=finite, default=0.0,
                          help="constant for the uniform-constant rate")
    p_oracle.add_argument("--tol", type=tolerance, default=1e-7)
    common(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_adm = sub.add_parser("admissible", help="relaxation admissibility on a game file")
    p_adm.add_argument("--game", required=True)
    p_adm.add_argument("--lambda-mode", dest="lambda_mode", default=LAMBDA_FIXED,
                       choices=list(LAMBDA_MODES))
    p_adm.add_argument("--i-max", dest="i_max", type=int, default=0)
    p_adm.add_argument("--mode", default="exhaustive", choices=["exhaustive", "sampled"])
    p_adm.add_argument("--samples", type=positive_int, default=1000)
    p_adm.add_argument("--tol", type=tolerance, default=1e-6)
    common(p_adm)
    p_adm.set_defaults(func=_cmd_admissible)

    p_cx = sub.add_parser("complexity", help="signed-path suprema and offset forms")
    p_cx.add_argument("--table", default=None, help="JSON file with a values matrix")
    p_cx.add_argument("--random", type=_parse_pair, default=(4, 6),
                      help="G,DEPTH for a seeded random table")
    p_cx.add_argument("--mode", default="exact", choices=["exact", "mc"])
    p_cx.add_argument("--replicates", type=int, default=10000)
    p_cx.add_argument("--offset-form", dest="offset_form", default="none",
                      choices=["none", "quadratic", "finite-class", "chained"])
    p_cx.add_argument("--alpha", type=float, default=1.0)
    common(p_cx)
    p_cx.set_defaults(func=_cmd_complexity)

    p_tails = sub.add_parser("validate-tails", help="one-sided tail envelope checks")
    p_tails.add_argument("--kind", required=True,
                         choices=["pinelis", "chaining", "offset_process"])
    p_tails.add_argument("--instance", required=True, help="JSON instance file")
    p_tails.add_argument("--thresholds", required=True, help="comma-separated grid")
    p_tails.add_argument("--mode", default="exact", choices=["exact", "mc"])
    p_tails.add_argument("--replicates", type=int, default=10000)
    common(p_tails)
    p_tails.set_defaults(func=_cmd_validate_tails)
    return parser


def _parse_pair(text):
    g, depth = text.split(",")
    return int(g), int(depth)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
