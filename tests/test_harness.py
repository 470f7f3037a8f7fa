import json
import math

import numpy as np
import pytest

from regretlab import __version__
from regretlab.bounds import RATE_NAMES
from regretlab.cli import main as lab_main
from regretlab.core import RngSpec
from regretlab.harness import (
    RECORDS_SCHEMA,
    AuditRecord,
    ExperimentConfig,
    emit_results,
    generate_environment,
    load_game,
    min_slack,
    read_results,
    run_experiment,
    simplex_grid,
)


def _config(**overrides):
    base = dict(
        environment="small_loss_leader",
        environment_params={},
        strategy="two-level-ew",
        strategy_params={"lambda_mode": "fixed_inverse_sqrt_n"},
        rates=("kl-radius",),
        horizon=64,
        experts=4,
        replicates=2,
        rng=RngSpec(seed=5),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestGenerateEnvironment:
    def test_small_loss_leader_zero_rate(self):
        losses = generate_environment(
            "small_loss_leader", {"experts": 4, "horizon": 32, "leader_rate": 0.0},
            RngSpec(seed=1),
        )
        assert np.all(losses[:, 0] == 0.0)

    def test_quantile_block_shares_minimum(self):
        losses = generate_environment(
            "quantile_block", {"experts": 64, "horizon": 40, "good_fraction": 1 / 8},
            RngSpec(seed=2),
        )
        cum = losses.sum(axis=0)
        winners = np.flatnonzero(cum == cum.min())
        np.testing.assert_array_equal(winners, np.arange(8))

    def test_bernoulli_concentrates(self):
        n = 400
        losses = generate_environment(
            "stochastic_bernoulli", {"experts": 8, "horizon": n, "p": 0.5}, RngSpec(seed=3)
        )
        assert abs(losses.mean() - 0.5) <= 4 * math.sqrt(0.25 / n)

    def test_alternating_adversary(self):
        losses = generate_environment(
            "alternating_adversary", {"experts": 2, "horizon": 4}, RngSpec(seed=4)
        )
        np.testing.assert_array_equal(losses, [[1, 0], [0, 1], [1, 0], [0, 1]])

    def test_deterministic(self):
        args = ("stochastic_bernoulli", {"experts": 3, "horizon": 16}, RngSpec(seed=9))
        np.testing.assert_array_equal(generate_environment(*args), generate_environment(*args))

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ValueError, match="registry"):
            generate_environment("nope", {}, RngSpec(seed=0))

    def test_file_source(self, tmp_path):
        path = tmp_path / "losses.json"
        path.write_text(json.dumps({"losses": [[0.0, 1.0], [1.0, 0.0]]}))
        losses = generate_environment("file", {"path": str(path)}, RngSpec(seed=0))
        np.testing.assert_array_equal(losses, [[0, 1], [1, 0]])

    def test_file_source_rejects_nan(self, tmp_path):
        rows = [[0.0, 1.0]] * 8
        rows[3] = [math.nan, 0.5]
        path = tmp_path / "losses.json"
        path.write_text(json.dumps({"losses": rows}))
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            generate_environment("file", {"path": str(path)}, RngSpec(seed=0))


class TestSimplexGrid:
    def test_counts(self):
        assert len(simplex_grid(2, 16)) == 17
        pts = simplex_grid(3, 4)
        assert len(pts) == math.comb(6, 2)
        for p in pts:
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_budget_cap_reduces_resolution(self):
        pts = simplex_grid(16, 16, budget=5000)
        assert 0 < len(pts) <= 5000

    def test_built_once_and_read_only(self):
        first, again = simplex_grid(3, 5), simplex_grid(3, 5)
        assert first is not again
        assert all(a is b for a, b in zip(first, again))
        with pytest.raises(ValueError):
            first[0][0] = 0.5
        again.append(np.ones(3) / 3)
        assert len(simplex_grid(3, 5)) == math.comb(7, 2)
        # the grid in lexicographic order of its cut points
        assert [p.tolist() for p in simplex_grid(3, 2)] == [
            [0.0, 0.0, 1.0], [0.0, 0.5, 0.5], [0.0, 1.0, 0.0],
            [0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        doc = {
            "schema": "regretlab/experiment-v1",
            "environment": {"name": "small_loss_leader", "leader_rate": 0.0},
            "strategy": {"name": "two-level-ew", "lambda_mode": "fixed_inverse_sqrt_n"},
            "rates": ["kl-radius", "pac-bayes"],
            "horizon": 32,
            "experts": 4,
            "replicates": 2,
            "rng": {"algorithm": "pcg64", "seed": 7},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        config = ExperimentConfig.from_json(str(path))
        assert config.rates == ("kl-radius", "pac-bayes")
        assert config.environment_params == {"leader_rate": 0.0}

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict({
                "schema": "regretlab/experiment-v1",
                "environment": {"name": "small_loss_leader"},
                "horizon": 8, "experts": 2, "rng": {"seed": 1},
                "typo_field": 1,
            })

    def test_schema_required(self):
        with pytest.raises(ValueError, match="schema"):
            ExperimentConfig.from_dict({
                "schema": "wrong/v9",
                "environment": {"name": "small_loss_leader"},
                "horizon": 8, "experts": 2, "rng": {"seed": 1},
            })

    def test_unknown_rate_rejected(self):
        with pytest.raises(ValueError, match="unknown rate"):
            _config(rates=("spectral-banana",))

    @pytest.mark.parametrize("experts", [0, -2])
    def test_too_few_experts_rejected(self, experts):
        with pytest.raises(ValueError, match="experts must be >= 1"):
            _config(experts=experts)

    def test_unknown_strategy_param_rejected(self):
        cfg = _config(strategy_params={"lambda_mode": "optimized", "typo": 1})
        with pytest.raises(ValueError, match="unknown strategy params"):
            run_experiment(cfg)


class TestRunExperiment:
    def test_slack_bookkeeping_identity(self):
        records = run_experiment(_config())
        assert records
        for rec in records:
            for row in rec.comparators:
                assert row["slack"] == row["rate"] + rec.certificate - row["regret"]
            assert rec.min_slack == min(r["slack"] for r in rec.comparators)

    def test_certified_strategy_never_violates(self):
        records = run_experiment(_config(rates=("kl-radius",)))
        assert min_slack(records) >= -1e-6 * 64

    def test_zero_loss_environment(self):
        cfg = _config(environment="small_loss_leader",
                      environment_params={"leader_rate": 0.0, "other_rate": 0.0})
        for rec in run_experiment(cfg):
            for row in rec.comparators:
                assert row["regret"] <= 1e-12
                assert row["slack"] >= row["rate"] - 1e-12

    def test_grid_contains_point_masses_and_refinements(self):
        records = run_experiment(_config(replicates=1))
        ids = [row["id"] for row in records[0].comparators]
        assert "e0" in ids and "e3" in ids
        assert any(i.startswith("grid") for i in ids)
        assert any(i.startswith("klball") for i in ids)

    def test_incompatible_rate_errors(self):
        # the predictable rate needs per-round inputs the experts
        # environments lack, so the registry does not offer it
        with pytest.raises(ValueError, match="unknown rate 'predictable'"):
            _config(rates=("predictable",))

    def test_one_expert_runs(self):
        records = run_experiment(_config(experts=1, replicates=1, rates=RATE_NAMES))
        assert [r.experts for r in records] == [1] * len(RATE_NAMES)

    def test_quantile_audit_with_top_fraction_mixtures(self):
        # competing with the uniform mixture over the best eps-fraction of
        # experts turns the prior-relative term into log(1/eps)
        import regretlab as rl
        from regretlab.algorithms import TwoLevelRelaxation
        from regretlab.bounds import pacbayes_rate

        k, n = 64, 256
        losses = generate_environment(
            "quantile_block", {"experts": k, "horizon": n, "good_fraction": 1 / 8},
            RngSpec(seed=6),
        )
        prior = rl.Distribution.uniform(k)
        relax = TwoLevelRelaxation(prior, n, lambda_mode="fixed_inverse_sqrt_n")
        state = relax.start()
        certificate = relax.value(state)
        algo = 0.0
        for t in range(n):
            q = relax.strategy(state)
            algo += float(np.dot(q.weights, losses[t]))
            state.update(losses[t])
        cum = losses.sum(axis=0)
        for eps in (1 / 2, 1 / 4, 1 / 8):
            top = int(k * eps)
            order = np.argsort(cum)
            w = np.zeros(k)
            w[order[:top]] = 1.0 / top
            f = rl.Distribution(w)
            assert rl.kl_divergence(f, prior) == pytest.approx(math.log(1 / eps), rel=1e-12)
            regret = algo - float(np.dot(w, cum))
            slack = pacbayes_rate(f, prior, losses) + certificate - regret
            assert slack >= 0.0, (eps, slack)


class TestEmitResults:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_results([], "csv", str(path))
        assert path.read_text() == "record,section,round,loss,comparator_id,regret,rate,slack\n"

    def test_json_round_trip(self, tmp_path):
        records = run_experiment(_config(replicates=1, horizon=16))
        path = tmp_path / "records.json"
        emit_results(records, "json", str(path), RngSpec(seed=5))
        back = read_results(str(path))
        assert [r.to_dict() for r in back] == [r.to_dict() for r in records]

    def test_json_bytes_match_json_dumps(self, tmp_path):
        records = run_experiment(_config(replicates=1, horizon=8,
                                         rates=("kl-radius", "uniform-constant")))
        rows = records[0].comparators
        rows[0].update(rate=math.inf, slack=math.inf)
        rows[1].update(rate=math.nan, slack=math.nan)
        rows[2].update(id='grid "\u00e9"\n\\', regret=-0.0, slack=-math.inf)
        records[0].min_slack = -math.inf
        records[1].min_slack = math.nan
        empty = AuditRecord(environment="file", rate_name="kl-radius", replicate=0, seed=0,
                            horizon=0, experts=2, per_round_losses=[], certificate=1e300)
        path = tmp_path / "records.json"
        for recs, rng in ((records + [empty], RngSpec(seed=5)), (records, None), ([], None)):
            emit_results(recs, "json", str(path), rng)
            doc = {
                "schema": RECORDS_SCHEMA,
                "version": __version__,
                "rng": rng.to_dict() if rng is not None else None,
                "records": [r.to_dict() for r in recs],
            }
            expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
            assert path.read_bytes() == expected.encode("ascii")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _config(replicates=2, horizon=32)
        paths = []
        for tag in ("a", "b"):
            records = run_experiment(cfg)
            jp = tmp_path / f"{tag}.json"
            cp = tmp_path / f"{tag}.csv"
            emit_results(records, "json", str(jp), cfg.rng)
            emit_results(records, "csv", str(cp))
            paths.append((jp.read_bytes(), cp.read_bytes()))
        assert paths[0] == paths[1]

    def test_csv_fixed_order(self, tmp_path):
        records = run_experiment(_config(replicates=1, horizon=8))
        path = tmp_path / "records.csv"
        emit_results(records, "csv", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "record,section,round,loss,comparator_id,regret,rate,slack"
        assert lines[1].startswith("0,round,0,")
        assert lines[1 + 8].startswith("0,comparator,,,e0,")


class TestLoadGame:
    def test_load(self, tmp_path):
        doc = {
            "schema": "regretlab/game-v1",
            "outcomes": [[0, 0], [0, 1], [1, 0], [1, 1]],
            "horizon": 3,
            "simplex_resolution": 4,
        }
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        game = load_game(str(path))
        assert game.horizon == 3
        assert game.n_outcomes == 4
        assert len(game.comparators) == 2 + 5

    def test_unknown_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "regretlab/game-v1", "outcomes": [[0]],
                                    "horizon": 1, "oops": True}))
        with pytest.raises(ValueError, match="unknown game fields"):
            load_game(str(path))


class TestCli:
    def _write_config(self, tmp_path, seed=5):
        doc = {
            "schema": "regretlab/experiment-v1",
            "environment": {"name": "small_loss_leader"},
            "strategy": {"name": "two-level-ew", "lambda_mode": "fixed_inverse_sqrt_n"},
            "rates": ["kl-radius"],
            "horizon": 32,
            "experts": 4,
            "replicates": 1,
            "rng": {"algorithm": "pcg64", "seed": seed},
            "output": {"json": str(tmp_path / "rec.json"), "csv": str(tmp_path / "rec.csv")},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_run_and_audit(self, tmp_path):
        config = self._write_config(tmp_path)
        report = tmp_path / "report.json"
        assert lab_main(["run", "-c", str(config), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["passed"] and doc["command"] == "run"
        assert (tmp_path / "rec.json").exists() and (tmp_path / "rec.csv").exists()
        assert lab_main(["audit", "-c", str(config), "--report", str(report)]) == 0

    def test_seed_override_changes_output(self, tmp_path):
        config = self._write_config(tmp_path)
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        lab_main(["run", "-c", str(config), "--report", str(r1)])
        lab_main(["run", "-c", str(config), "--seed", "99", "--report", str(r2)])
        assert json.loads(r1.read_text())["rng"]["seed"] == 5
        assert json.loads(r2.read_text())["rng"]["seed"] == 99

    def test_oracle_exit_codes(self, tmp_path):
        game = tmp_path / "game.json"
        game.write_text(json.dumps({
            "schema": "regretlab/game-v1",
            "outcomes": [[0, 0], [0, 1], [1, 0], [1, 1]],
            "horizon": 3,
        }))
        report = tmp_path / "oracle.json"
        rc = lab_main(["oracle", "--game", str(game), "--rate", "fixed-vs-best",
                       "--report", str(report)])
        doc = json.loads(report.read_text())
        assert rc == 0 and doc["achievable"]
        # 1 + 4 + 16 + 64 histories covered by C(3 + 4, 4) count states
        assert doc["node_count"] == 85 and doc["state_count"] == 35
        rc = lab_main(["oracle", "--game", str(game), "--rate", "uniform-constant",
                       "--rate-value", "0.0", "--report", str(report)])
        assert rc == 1
        # a constant above the horizon is achievable, so the value must reach the rate
        rc = lab_main(["oracle", "--game", str(game), "--rate", "uniform-constant",
                       "--rate-value", "10.0", "--report", str(report)])
        assert rc == 0 and json.loads(report.read_text())["achievable"]
        with pytest.raises(ValueError, match="unknown rate 'bogus'; registry"):
            lab_main(["oracle", "--game", str(game), "--rate", "bogus",
                      "--report", str(report)])

    def test_pac_bayes_horizon_one_rejected_by_run_config(self, tmp_path):
        doc = json.loads(self._write_config(tmp_path).read_text())
        doc.update(environment={"name": "stochastic_bernoulli"}, rates=["pac-bayes"], horizon=1)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as err:
            lab_main(["run", "-c", str(config), "--report", str(tmp_path / "report.json")])
        assert str(err.value) == "rate 'pac-bayes' needs horizon n >= 2, got horizon 1"
        assert not (tmp_path / "rec.json").exists()

    def test_pac_bayes_horizon_one_rejected_by_oracle(self, tmp_path):
        game = tmp_path / "game.json"
        game.write_text(json.dumps({
            "schema": "regretlab/game-v1",
            "outcomes": [[0, 0], [0, 1], [1, 0], [1, 1]],
            "horizon": 1,
        }))
        report = tmp_path / "oracle.json"
        with pytest.raises(ValueError) as err:
            lab_main(["oracle", "--game", str(game), "--rate", "pac-bayes",
                      "--report", str(report)])
        assert str(err.value) == "rate 'pac-bayes' needs horizon n >= 2, got horizon 1"
        assert not report.exists()

    def test_rate_names_come_from_one_registry(self, tmp_path):
        game = tmp_path / "game.json"
        game.write_text(json.dumps({
            "schema": "regretlab/game-v1",
            "outcomes": [[0, 0], [0, 1], [1, 0], [1, 1]],
            "horizon": 2,
        }))
        report = tmp_path / "oracle.json"
        for name in RATE_NAMES:
            assert _config(rates=(name,)).rates == (name,)
            assert lab_main(["oracle", "--game", str(game), "--rate", name,
                             "--report", str(report)]) in (0, 1)
            assert json.loads(report.read_text())["rate"] == name
        for name in ("kl_radius", "spectral", "bogus"):
            with pytest.raises(ValueError) as from_config:
                _config(rates=(name,))
            with pytest.raises(ValueError) as from_oracle:
                lab_main(["oracle", "--game", str(game), "--rate", name, "--report", str(report)])
            assert str(from_config.value) == str(from_oracle.value) == (
                f"unknown rate {name!r}; registry: {RATE_NAMES}")

    def test_admissible_subcommand(self, tmp_path):
        game = tmp_path / "game.json"
        game.write_text(json.dumps({
            "schema": "regretlab/game-v1",
            "outcomes": [[0, 0], [0, 1], [1, 0], [1, 1]],
            "horizon": 4,
            "simplex_resolution": 8,
        }))
        report = tmp_path / "adm.json"
        rc = lab_main(["admissible", "--game", str(game), "--i-max", "3",
                       "--report", str(report)])
        assert rc == 0 and json.loads(report.read_text())["passed"]

    def test_complexity_subcommand(self, tmp_path):
        report = tmp_path / "cx.json"
        rc = lab_main(["complexity", "--random", "4,6", "--offset-form", "finite-class",
                       "--seed", "3", "--report", str(report)])
        assert rc == 0
        assert json.loads(report.read_text())["estimate"] <= 1.0

    def test_validate_tails_subcommand(self, tmp_path):
        inst = tmp_path / "pinelis.json"
        inst.write_text(json.dumps({"depth": 8, "nodes": [[1.0, 0.0]] * (2 ** 8 - 1)}))
        report = tmp_path / "tails.json"
        rc = lab_main(["validate-tails", "--kind", "pinelis", "--instance", str(inst),
                       "--thresholds", "2,4,6", "--report", str(report)])
        assert rc == 0 and json.loads(report.read_text())["passed"]
