"""The benchmark workloads and the certification round: inputs, operations
and output checks.

Operation ``i`` of a run draws its inputs from ``numpy.random.default_rng
([seed, i])``, so a seed fixes every input and every operation of a run sees
new ones. Operations with a ``lab`` subcommand go through
``regretlab.cli.main`` in-process; the regret certificate has no subcommand
and is called directly. Every check compares an output with ``reference``
or with a property the output must have, and raises ``CheckError``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import reference as ref


class CheckError(AssertionError):
    """A program output disagrees with its reference or property."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(a, b, tol: float, what: str) -> None:
    """|a - b| <= tol * max(1, |b|), elementwise."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    expect(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    gap = np.abs(a - b) / np.maximum(1.0, np.abs(b))
    expect(bool(np.all(gap <= tol)), f"{what}: off by {float(gap.max()):.3g} (tolerance {tol:g})")


def _write_json(path: str, doc) -> str:
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))
    return path


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _sub_seed(rng) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


BINARY_OUTCOMES = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]


class Op:
    """One operation: its inputs, how to run it, and what it produced."""

    def __init__(self, kind: str, argvs=(), call=None, outputs=(), **facts):
        self.kind = kind
        self.argvs = list(argvs)
        self.call = call
        self.outputs = list(outputs)
        self.facts = facts
        self.result = None

    def run(self) -> bool:
        """Run every step; False when a subcommand reports a failed check."""
        from regretlab import cli

        ok = True
        for argv in self.argvs:
            ok = cli.main(argv) == 0 and ok
        if self.call is not None:
            self.result = self.call()
        return ok

    def fingerprint(self):
        """What a byte-identical rerun must reproduce."""
        contents = []
        for path in self.outputs:
            with open(path, "rb") as fh:
                contents.append(fh.read())
        return contents, self.result


class Workload:
    name = ""
    kinds: tuple = ()

    def make(self, seed: int, index: int, workdir: str) -> Op:
        raise NotImplementedError

    def check(self, op: Op) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# audit: play and audit one replicate with `lab run`.
# ---------------------------------------------------------------------------

class Audit(Workload):
    """``lab run`` at n=512, K=8, fixed scale, three rates, JSON and CSV."""

    name = "audit"
    kinds = ("stochastic_bernoulli", "small_loss_leader", "quantile_block", "alternating_adversary")
    horizon = 512
    experts = 8
    rates = ("kl-radius", "pac-bayes", "fixed-vs-best")
    resolution = 16
    grid_budget = 5000

    def make(self, seed, index, workdir):
        rng = np.random.default_rng([seed, index])
        env = self.kinds[index % len(self.kinds)]
        cfg_seed = _sub_seed(rng)
        paths = {k: os.path.join(workdir, f"audit.{k}") for k in ("json", "csv", "cfg", "report")}
        _write_json(paths["cfg"], {
            "schema": "regretlab/experiment-v1",
            "environment": {"name": env},
            "strategy": {"name": "two-level-ew", "lambda_mode": "fixed_inverse_sqrt_n"},
            "rates": list(self.rates),
            "horizon": self.horizon,
            "experts": self.experts,
            "replicates": 1,
            "rng": {"algorithm": "pcg64", "seed": cfg_seed},
            "audit": {"simplex_resolution": self.resolution, "grid_budget": self.grid_budget},
            "output": {"json": paths["json"], "csv": paths["csv"]},
        })
        return Op(env, argvs=[["run", "-c", paths["cfg"], "--report", paths["report"]]],
                  outputs=[paths["report"], paths["json"], paths["csv"]],
                  env=env, seed=cfg_seed, paths=paths, game_rounds=self.horizon)

    def losses(self, op):
        """The environment's loss matrix, rebuilt through the public generator."""
        from regretlab import RngSpec, generate_environment

        return generate_environment(op.facts["env"],
                                    {"experts": self.experts, "horizon": self.horizon},
                                    RngSpec(op.facts["seed"]))

    def check(self, op):
        paths = op.facts["paths"]
        n = self.horizon
        report = _read_json(paths["report"])
        expect(report["passed"] is True, "lab run reported a failed slack audit")
        doc = _read_json(paths["json"])
        with open(paths["csv"]) as fh:
            csv_lines = fh.read().splitlines()
        check_audit_records(doc, csv_lines, self.losses(op), op.facts["seed"],
                            self.resolution, self.grid_budget, self.rates)
        close(report["min_slack"], min(r["min_slack"] for r in doc["records"]), 0.0,
              "report min_slack")


def check_audit_records(doc, csv_lines, losses, seed, resolution, grid_budget, rates):
    """Recompute every audit record from the losses and the paper's closed forms."""
    n, k = losses.shape
    records = doc["records"]
    expect([r["rate_name"] for r in records] == list(rates), "records out of rate order")
    expect(doc["rng"] == {"algorithm": "pcg64", "seed": seed}, "records carry the wrong rng")
    per_round = ref.two_level_fixed_losses(losses)
    start = ref.two_level_fixed_start(n, k)
    cum = losses.sum(axis=0)
    radii = ref.ladder_radii(n, k)
    grid = ref.simplex_points(k, resolution, grid_budget)
    weights = np.vstack([np.eye(k), grid] + [ref.kl_ball_point(cum, r) for r in radii])
    ids = ([f"e{i}" for i in range(k)] + [f"grid{j}" for j in range(len(grid))]
           + [f"klball{i}" for i in range(radii.size)])
    regret = per_round.sum() - weights @ cum
    csv_rows = []
    for i, rec in enumerate(records):
        name = rec["rate_name"]
        expect((rec["horizon"], rec["experts"], rec["seed"], rec["replicate"]) == (n, k, seed, 0),
               f"{name}: record header")
        close(rec["per_round_losses"], per_round, 1e-9, f"{name}: per-round losses")
        close(rec["certificate"], start, 1e-9, f"{name}: certificate")
        rows = rec["comparators"]
        expect([c["id"] for c in rows] == ids, f"{name}: comparator ids")
        got = np.array([[c["regret"], c["rate"], c["slack"]] for c in rows])
        penalty = ref.PENALTIES[name](weights, losses)
        close(got[:, 0], regret, 1e-8, f"{name}: regret")
        close(got[:, 1], penalty, 1e-8, f"{name}: rate")
        close(got[:, 2], penalty + start - regret, 1e-8, f"{name}: slack")
        worst = int(np.argmin(got[:, 2]))
        expect(rec["min_slack"] == got[worst, 2] and rec["argmin_comparator"] == ids[worst],
               f"{name}: min slack row")
        expect(rec["min_slack"] >= -1e-6 * n, f"{name}: slack {rec['min_slack']} below -1e-6 n")
        csv_rows += [f"{i},round,{t},{x!r},,,," for t, x in enumerate(rec["per_round_losses"])]
        csv_rows += [f"{i},comparator,,,{c['id']},{c['regret']!r},{c['rate']!r},{c['slack']!r}"
                     for c in rows]
    expect(csv_lines[0] == "record,section,round,loss,comparator_id,regret,rate,slack",
           "csv header")
    expect(csv_lines[1:] == csv_rows, "csv rows differ from the json records")


# ---------------------------------------------------------------------------
# certify: the oracle, exhaustive admissibility and a played-out certificate.
# ---------------------------------------------------------------------------

def _binary_game(path, horizon, comparators):
    return _write_json(path, {
        "schema": "regretlab/game-v1",
        "outcomes": BINARY_OUTCOMES,
        "horizon": horizon,
        "comparators": comparators,
    })


def _comparators(rng, mixtures=2):
    ps = rng.uniform(0.05, 0.95, mixtures)
    return [[1.0, 0.0], [0.0, 1.0]] + [[float(p), float(1.0 - p)] for p in ps]


class Certify:
    """The certification round: oracle at n=4 per rate, admissibility at n=3,
    a certificate at n=64.

    Every run plays one round after its timed loop, untimed: these
    operations are mostly interpreter work, whose speed on a shared host
    swings by more than the timing bounds from one minute to the next, so
    they are checked every run and traced in traced runs, while their
    end-to-end effect is read from the reach metrics. The fixed-vs-best
    oracle needs no refinement, so it shares an operation with the
    certificate.
    """

    kinds = ("oracle:kl-radius", "oracle:pac-bayes", "oracle:fixed-vs-best+certificate",
             "admissible")
    oracle_horizon = 4
    admissible_horizon = 3
    certificate_horizon = 64

    def make(self, seed, index, workdir):
        rng = np.random.default_rng([seed, index])
        kind = self.kinds[index % len(self.kinds)]
        report = os.path.join(workdir, "certify.report")
        game = os.path.join(workdir, "certify.game")
        if kind == "admissible":
            comps = _comparators(rng)
            _binary_game(game, self.admissible_horizon, comps)
            argv = ["admissible", "--game", game, "--mode", "exhaustive",
                    "--lambda-mode", "optimized", "--report", report]
            m, n = len(BINARY_OUTCOMES), self.admissible_horizon
            return Op(kind, argvs=[argv], outputs=[report], report=report,
                      game_rounds=sum(m ** t for t in range(1, n + 1)))
        rate = kind.split(":", 1)[1].split("+")[0]
        comps = _comparators(rng)
        _binary_game(game, self.oracle_horizon, comps)
        argvs = [["oracle", "--game", game, "--rate", rate, "--report", report]]
        if not kind.endswith("+certificate"):
            return Op(kind, argvs=argvs, outputs=[report], rate=rate, comparators=comps,
                      report=report, game_rounds=0)
        from regretlab import Distribution, GameSpec, TwoLevelRelaxation, oracle

        n = self.certificate_horizon
        seq = rng.integers(0, len(BINARY_OUTCOMES), n)
        relax = TwoLevelRelaxation(Distribution.uniform(2), n, lambda_mode="optimized")
        spec = GameSpec.experts_game(BINARY_OUTCOMES, n)
        return Op(kind, argvs=argvs, call=lambda: oracle.regret_certificate(relax, spec, seq),
                  outputs=[report], rate=rate, comparators=comps, report=report,
                  sequence=seq, game_rounds=n)

    def check(self, op):
        if op.kind == "admissible":
            check_admissible_report(_read_json(op.facts["report"]), self.admissible_horizon,
                                    len(BINARY_OUTCOMES))
            return
        check_oracle_report(_read_json(op.facts["report"]), op.facts["rate"],
                            op.facts["comparators"], self.oracle_horizon)
        if op.result is not None:
            check_certificate(op.result, op.facts["sequence"], self.certificate_horizon)


def check_oracle_report(report, rate, comparators, horizon):
    """Oracle values against the envelope backward induction, and the verdict."""
    value = ref.envelope_game_value(BINARY_OUTCOMES, horizon, comparators, rate, refine=False)
    close(report["value"], value, 1e-9, f"oracle {rate} value")
    refines = rate in ("kl-radius", "pac-bayes")
    expect((report["refined_value"] is not None) == refines, f"oracle {rate}: refinement")
    certified = report["value"]
    if refines:
        refined = ref.envelope_game_value(BINARY_OUTCOMES, horizon, comparators, rate, refine=True)
        close(report["refined_value"], refined, 1e-9, f"oracle {rate} refined value")
        certified = report["refined_value"]
    expect(report["achievable"] is True and certified <= 1e-7,
           f"oracle {rate}: value {certified} not certified achievable")
    m = len(BINARY_OUTCOMES)
    expect(report["node_count"] == sum(m ** t for t in range(horizon + 1)),
           f"oracle {rate}: node count")
    expect(len(report["worst_path"]) == horizon
           and all(0 <= y < m for y in report["worst_path"]), f"oracle {rate}: worst path")


def check_admissible_report(report, horizon, m):
    expect(report["passed"] is True and report["worst_margin"] >= -1e-6,
           f"admissibility worst margin {report['worst_margin']}")
    expect(report["recursive_checked"] == sum(m ** t for t in range(horizon))
           and report["terminal_checked"] == m ** horizon,
           "admissibility margin count differs from sum_t m^t")


def check_oracle_rung(report, horizon):
    """A reach rung of the oracle: refined kl-radius on the point masses."""
    points = [[1.0, 0.0], [0.0, 1.0]]
    for value, refine in ((report.value, False), (report.refined_value, True)):
        want = ref.envelope_game_value(BINARY_OUTCOMES, horizon, points, "kl-radius",
                                       refine=refine)
        close(value, want, 1e-9, f"oracle rung value (refine={refine})")
    expect(report.achievable is True and report.refined_value <= 1e-7,
           f"oracle rung value {report.refined_value} not certified achievable")
    m = len(BINARY_OUTCOMES)
    expect(report.node_count == sum(m ** t for t in range(horizon + 1)), "oracle rung node count")


def check_admissible_rung(report, horizon):
    m = len(BINARY_OUTCOMES)
    check_admissible_report({"passed": report.verdict, "worst_margin": report.worst_margin,
                             "recursive_checked": len(report.recursive_margins),
                             "terminal_checked": len(report.initial_margins)}, horizon, m)


def check_certificate(cert, sequence, horizon):
    """Per-round losses from the optimized-scale reference; margin >= 0."""
    ys = np.asarray(BINARY_OUTCOMES)[sequence]
    close(cert.per_round_losses, ref.two_level_optimized_losses(ys, horizon), 1e-7,
          "certificate per-round losses")
    close(cert.algorithm_loss, sum(cert.per_round_losses), 1e-12, "certificate algorithm loss")
    start = ref.two_level_optimized_start(horizon, 2)
    close(cert.relaxation_at_start, start, 1e-9, "certificate starting potential")
    expect(start <= 4.0 * math.sqrt(horizon), "starting potential above 4 sqrt(n)")
    eye = np.eye(2)
    best = float(np.min(eye @ ys.sum(axis=0) + ref.kl_radius_penalty(eye, horizon)))
    close(cert.best_penalised_comparator, best, 1e-9, "certificate best comparator")
    close(cert.margin, start - (cert.algorithm_loss - best), 1e-9, "certificate margin")
    expect(cert.margin >= 0.0, f"certificate margin {cert.margin} < 0")


# ---------------------------------------------------------------------------
# complexity: offsets, covers, tail validators and a Monte Carlo supremum.
# ---------------------------------------------------------------------------

class Complexity(Workload):
    """One bundle of ``lab complexity`` and ``lab validate-tails`` calls on fresh tables.

    Most of a bundle is vectorised path enumeration: finite-class and
    quadratic offsets of a wide table, both exact tail validators and a
    Monte Carlo supremum. The chained offset of one small table adds the
    exact cover search, about a tenth of the bundle: cover search is pure
    interpreter work, whose speed on a shared host swings by more than the
    timing bounds, so a larger share would make the workload unsteady.
    """

    name = "complexity"
    kinds = ("bundle",)
    chained_shape = (6, 8)          # functions, depth
    wide_shape = (32, 12)
    tails_shape = (4, 12)
    mc_shape = (4, 20)
    mc_paths = 100_000
    quadratic_alpha = 0.5
    chaining_thresholds = "0.5,1.5,2.5"
    offset_thresholds = "0,1,2,4"

    def make(self, seed, index, workdir):
        rng = np.random.default_rng([seed, index])

        def table(shape):
            g, depth = shape
            return rng.uniform(-1.0, 1.0, (g, 2 ** depth - 1))

        tables = dict(chained=table(self.chained_shape), wide=table(self.wide_shape),
                      chaining=table(self.tails_shape), offset=table(self.tails_shape))
        mc_seed = _sub_seed(rng)
        f = {k: os.path.join(workdir, f"complexity.{k}") for k in tables}
        r = {k: os.path.join(workdir, f"complexity.{k}.report")
             for k in ("chained", "finite", "quadratic", "chaining", "offset", "mc")}
        for key, values in tables.items():
            doc = {"values": values.tolist()}
            if key == "offset":
                doc.update(alpha=1.0, gamma=0.5)
            _write_json(f[key], doc)
        g, depth = self.mc_shape
        argvs = [
            ["complexity", "--table", f["chained"], "--offset-form", "chained",
             "--report", r["chained"]],
            ["complexity", "--table", f["wide"], "--offset-form", "finite-class",
             "--report", r["finite"]],
            ["complexity", "--table", f["wide"], "--offset-form", "quadratic",
             "--alpha", str(self.quadratic_alpha), "--report", r["quadratic"]],
            ["validate-tails", "--kind", "chaining", "--instance", f["chaining"],
             "--thresholds", self.chaining_thresholds, "--report", r["chaining"]],
            ["validate-tails", "--kind", "offset_process", "--instance", f["offset"],
             "--thresholds", self.offset_thresholds, "--report", r["offset"]],
            ["complexity", "--random", f"{g},{depth}", "--mode", "mc",
             "--replicates", str(self.mc_paths), "--seed", str(mc_seed), "--report", r["mc"]],
        ]
        return Op("bundle", argvs=argvs, outputs=list(r.values()), tables=tables,
                  reports=r, game_rounds=0)

    def check(self, op):
        from regretlab import FunctionTable
        from regretlab.complexity import covering_number

        tables, r = op.facts["tables"], op.facts["reports"]
        depth = self.chained_shape[1]
        scales = [2.0 ** j / depth / 2.0 for j in range(int(math.log2(depth)) + 1)]
        chained = tables["chained"]
        est = _read_json(r["chained"])["estimate"]
        close(est, ref.chained_offset(chained), 1e-9, "chained offset")
        expect(est <= 7.0 + 2.0 * math.log(depth), f"chained offset {est} above 7 + 2 log n")
        program = FunctionTable(chained)
        check_cover_sizes(chained, scales, [covering_number(program, a) for a in scales])

        wide = tables["wide"]
        finite = _read_json(r["finite"])["estimate"]
        close(finite, ref.finite_class_offset(wide), 1e-9, "finite-class offset")
        expect(finite <= 1.0, f"finite-class offset {finite} above 1")
        close(_read_json(r["quadratic"])["estimate"],
              ref.quadratic_offset(wide, self.quadratic_alpha), 1e-9, "quadratic offset")

        for key in ("chaining", "offset"):
            check_tail_report(_read_json(r[key]), key)

        mc = _read_json(r["mc"])
        g, n = self.mc_shape
        se = mc["stderr"]
        expect(se > 0.0 and -4.0 * se <= mc["estimate"] <= math.sqrt(2.0 * n * math.log(g)) + 4.0 * se,
               f"Monte Carlo supremum {mc['estimate']} outside [0, sqrt(2 n log G)]")


def check_cover_sizes(values, scales, sizes):
    """Program cover sizes against the brute-force minimum cover."""
    vals = np.atleast_2d(values)
    depth = int(round(math.log2(vals.shape[1] + 1)))
    d2 = ref.pair_distances(vals)
    for alpha, size in zip(scales, sizes):
        want = ref.brute_cover_size(d2, depth, alpha)
        expect(size == want, f"cover size {size} at scale {alpha}, brute force gives {want}")


def check_tail_report(report, kind):
    judged = [p for p in report["points"] if not p["skipped"]]
    expect(report["passed"] is True and judged, f"{kind} tail validator did not pass")
    expect(all(p["empirical"] <= p["bound"] for p in judged),
           f"{kind}: an exact-mode deviation probability exceeds its envelope")


WORKLOADS = {w.name: w for w in (Audit(), Complexity())}
CERTIFY = Certify()
