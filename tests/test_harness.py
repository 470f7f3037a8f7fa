import json
import locale
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        lambda_mode="fixed_inverse_sqrt_n",
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
        doc = _config_doc(strategy={"name": "two-level-ew", "lambda_mode": "optimized", "typo": 1})
        with pytest.raises(ValueError, match=r"^unknown strategy params: \['typo'\]$"):
            ExperimentConfig.from_dict(doc)


def _config_doc(**fields):
    doc = {
        "schema": "regretlab/experiment-v1",
        "environment": {"name": "small_loss_leader"},
        "strategy": {"name": "two-level-ew", "lambda_mode": "fixed_inverse_sqrt_n"},
        "rates": ["kl-radius"],
        "horizon": 16,
        "experts": 3,
        "rng": {"algorithm": "pcg64", "seed": 5},
    }
    doc.update(fields)
    return doc


def _game_doc(**fields):
    doc = {"schema": "regretlab/game-v1", "outcomes": [[0, 0], [0, 1], [1, 0], [1, 1]],
           "horizon": 2}
    doc.update(fields)
    return doc


class TestFieldChecks:
    """Each config and game field that was truncated, ignored or accepted
    with a single value fails with a ValueError that names it."""

    @pytest.mark.parametrize("fields,message", [
        ({"horizon": 16.9}, "horizon must be an integer, got 16.9"),
        ({"experts": 3.5}, "experts must be an integer, got 3.5"),
        ({"replicates": "2"}, "replicates must be an integer, got '2'"),
        ({"rng": {"seed": 1.7}}, "rng.seed must be an integer, got 1.7"),
        ({"rng": {"seed": True}}, "rng.seed must be an integer, got True"),
        ({"strategy": {"name": "two-level-ew", "i_max": 2.5}},
         "strategy.i_max must be an integer, got 2.5"),
        ({"strategy": {"name": "two-level-ew", "i_max": -1}}, "i_max must be >= 0"),
        ({"audit": {"simplex_resolution": 4.5}},
         "audit.simplex_resolution must be an integer, got 4.5"),
        ({"audit": {"grid_budget": math.nan}}, "audit.grid_budget must be an integer, got nan"),
        ({"strategy": {"name": "two-level-ew", "prior": "uniform"}},
         "unknown strategy params: ['prior']"),
        ({"strategy": {"name": "bogus"}}, "strategy.name must be 'two-level-ew', got 'bogus'"),
        ({"strategy": {"name": "two-level-ew", "lambda_mode": "fast"}}, "lambda_mode must be one of"),
        ({"rates": "kl-radius"}, "rates must be a JSON list of rate names, got 'kl-radius'"),
    ])
    def test_config_field_rejected(self, tmp_path, fields, message):
        out = {"json": str(tmp_path / "rec.json"), "csv": str(tmp_path / "rec.csv")}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_config_doc(output=out, **fields)))
        with pytest.raises(ValueError) as err:
            lab_main(["run", "-c", str(config), "--report", str(tmp_path / "report.json")])
        assert str(err.value).startswith(message)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("fields,same_as", [
        ({"horizon": 16.0, "experts": 3.0, "rng": {"seed": 5.0}}, {}),
        ({"strategy": {"name": "two-level-ew", "lambda_mode": "fixed_inverse_sqrt_n", "i_max": 0}},
         {}),
        ({"strategy": {"lambda_mode": "fixed_inverse_sqrt_n", "i_max": 3.0}},
         {"strategy": {"name": "two-level-ew", "lambda_mode": "fixed_inverse_sqrt_n", "i_max": 3}}),
    ])
    def test_config_field_accepted(self, fields, same_as):
        got = run_experiment(ExperimentConfig.from_dict(_config_doc(**fields)))
        assert got == run_experiment(ExperimentConfig.from_dict(_config_doc(**same_as)))

    def test_typed_strategy_fields(self):
        assert ExperimentConfig.from_dict(_config_doc(strategy={"name": "two-level-ew"})) == _config(
            lambda_mode="fixed_inverse_sqrt_n", i_max=0, rates=("kl-radius",), horizon=16,
            experts=3, replicates=1)
        config = ExperimentConfig.from_dict(_config_doc(
            strategy={"name": "two-level-ew", "lambda_mode": "optimized", "i_max": 3}))
        assert (config.lambda_mode, config.i_max) == ("optimized", 3)
        with pytest.raises(TypeError, match="strategy"):
            _config(strategy="two-level-ew")
        with pytest.raises(TypeError, match="strategy_params"):
            _config(strategy_params={})

    @pytest.mark.parametrize("fields,message", [
        ({"horizon": 2.7}, "horizon must be an integer, got 2.7"),
        ({"simplex_resolution": 1.5}, "simplex_resolution must be an integer, got 1.5"),
        ({"loss_range": [0, 1]}, "unknown game fields: ['loss_range']"),
        ({"outcomes": [[0, 0], [0, math.nan], [1, 0], [1, 1]]},
         "loss entries outside the range [0, 1]"),
        ({"outcomes": [[0, 0], [0, 1.5], [1, 0], [1, 1]]}, "loss entries outside the range [0, 1]"),
    ])
    @pytest.mark.parametrize("command", ["oracle", "admissible"])
    def test_game_field_rejected(self, tmp_path, monkeypatch, fields, message, command):
        from regretlab import cli, oracle

        def unreachable(*args):
            raise AssertionError("reached the walk")

        monkeypatch.setattr(oracle, "_leaf_value", unreachable)
        monkeypatch.setattr(cli, "build_relaxation", unreachable)
        game = tmp_path / "game.json"
        game.write_text(json.dumps(_game_doc(**fields)))
        report = tmp_path / "report.json"
        argv = [command, "--game", str(game), "--report", str(report)]
        with pytest.raises(ValueError) as err:
            lab_main(argv + (["--rate", "kl-radius"] if command == "oracle" else []))
        assert str(err.value) == message
        assert not report.exists()

    @pytest.mark.parametrize("argv,flag", [
        (["oracle", "--rate", "kl-radius", "--tol", "nan"], "--tol"),
        (["oracle", "--rate", "kl-radius", "--tol", "-0.5"], "--tol"),
        (["oracle", "--rate", "kl-radius", "--tol", "inf"], "--tol"),
        (["oracle", "--rate", "uniform-constant", "--rate-value", "nan"], "--rate-value"),
        (["oracle", "--rate", "uniform-constant", "--rate-value", "-inf"], "--rate-value"),
        (["oracle", "--rate", "uniform-constant", "--rate-value", "one"], "--rate-value"),
        (["admissible", "--tol", "nan"], "--tol"),
        (["admissible", "--tol", "-1"], "--tol"),
        (["admissible", "--strategy", "two-level-ew"], "--strategy"),
        (["audit", "-c", "config.json"], "audit"),
        (["admissible", "--mode", "sampled", "--samples", "0"], "--samples"),
    ])
    def test_cli_argument_rejected(self, tmp_path, capsys, argv, flag):
        game = tmp_path / "game.json"
        game.write_text(json.dumps(_game_doc()))
        if argv[0] != "audit":
            argv = argv + ["--game", str(game)]
        with pytest.raises(SystemExit) as err:
            lab_main(argv + ["--report", str(tmp_path / "report.json")])
        assert err.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


    @pytest.mark.parametrize("sample_count", [0, -3])
    def test_sample_count_rejected(self, sample_count):
        from regretlab.core import GameSpec
        from regretlab.oracle import admissibility_check

        class Unreachable:
            def __getattr__(self, name):
                raise AssertionError(f"reached relaxation.{name}")

        game = GameSpec.experts_game(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), 2)
        with pytest.raises(ValueError, match=f"^sample_count must be >= 1, got {sample_count}$"):
            admissibility_check(Unreachable(), game, mode="sampled", sample_count=sample_count,
                                rng=RngSpec(seed=0))


class TestRunExperiment:
    def test_slack_bookkeeping_identity(self):
        records = run_experiment(_config())
        assert records
        for rec in records:
            for regret, rate, slack in zip(rec.regret, rec.rate, rec.slack):
                assert slack == rate + rec.certificate - regret
            assert rec.min_slack == min(rec.slack)

    def test_certified_strategy_never_violates(self):
        records = run_experiment(_config(rates=("kl-radius",)))
        assert min_slack(records) >= -1e-6 * 64

    def test_zero_loss_environment(self):
        cfg = _config(environment="small_loss_leader",
                      environment_params={"leader_rate": 0.0, "other_rate": 0.0})
        for rec in run_experiment(cfg):
            for regret, rate, slack in zip(rec.regret, rec.rate, rec.slack):
                assert regret <= 1e-12
                assert slack >= rate - 1e-12

    def test_grid_contains_point_masses_and_refinements(self):
        records = run_experiment(_config(replicates=1))
        ids = records[0].comparator_ids
        assert "e0" in ids and "e3" in ids
        assert any(i.startswith("grid") for i in ids)
        assert any(i.startswith("klball") for i in ids)

    def test_replicate_records_share_columns(self):
        first, second = run_experiment(_config(replicates=1, rates=("kl-radius", "pac-bayes")))
        for name in ("per_round_losses", "comparator_ids", "regret"):
            assert getattr(first, name) is getattr(second, name), name

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


# Texts compare as their lists of "\n"-separated lines: the lists are equal
# exactly when the texts are, and pytest reports a mismatch of two lists
# quickly, where a diff of two large strings can take minutes.


def _reference_json(records, rng=None) -> list:
    doc = {
        "schema": RECORDS_SCHEMA,
        "version": __version__,
        "rng": rng.to_dict() if rng is not None else None,
        "records": [r.to_dict() for r in records],
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").split("\n")


def _reference_csv(records) -> list:
    lines = ["record,section,round,loss,comparator_id,regret,rate,slack"]
    for i, rec in enumerate(records):
        lines += [f"{i},round,{t},{x!r},,,," for t, x in enumerate(rec.per_round_losses)]
        lines += [f"{i},comparator,,,{c},{regret!r},{rate!r},{slack!r}"
                  for c, regret, rate, slack
                  in zip(rec.comparator_ids, rec.regret, rec.rate, rec.slack)]
    return ("\n".join(lines) + "\n").split("\n")


def _written(path) -> list:
    """The file's text, decoded as ``open(path, "w")`` encoded it and split
    at each newline character only."""
    return path.read_bytes().decode(locale.getpreferredencoding(False)).split("\n")


def _emitted(records, fmt, path, rng=None) -> list:
    emit_results(records, fmt, str(path), rng)
    return _written(path)


def _edge_records():
    """Two records of one replicate with non-finite values, a negative zero
    and an id that needs escaping, plus an empty record."""
    records = run_experiment(_config(replicates=1, horizon=8,
                                     rates=("kl-radius", "uniform-constant")))
    first = records[0]
    ids, regret = list(first.comparator_ids), list(first.regret)
    rate, slack = list(first.rate), list(first.slack)
    rate[0] = slack[0] = math.inf
    rate[1] = slack[1] = math.nan
    ids[2], regret[2], slack[2] = 'grid "é"\n\\', -0.0, -math.inf
    empty = AuditRecord(environment="file", rate_name="kl-radius", replicate=0, seed=0,
                        horizon=0, experts=2, per_round_losses=[], certificate=1e300)
    return [replace(first, comparator_ids=ids, regret=regret, rate=rate, slack=slack,
                    min_slack=-math.inf),
            replace(records[1], min_slack=math.nan), empty]


SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1e308, -1.7976931348623157e308)
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.floats(min_value=1e307, allow_infinity=False).flatmap(
        lambda x: st.sampled_from((x, -x))),
)
IDS = st.text(st.characters(min_codepoint=1, max_codepoint=0x2FF), max_size=6)


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
        assert back == records

    def test_json_bytes_match_json_dumps(self, tmp_path):
        records = _edge_records()
        path = tmp_path / "records.json"
        for recs, rng in ((records, RngSpec(seed=5)), (records[:2], None), ([], None)):
            assert _emitted(recs, "json", path, rng) == _reference_json(recs, rng)
        # the edits reached the file
        text = "\n".join(_emitted(records, "json", path))
        for spelled in ('"rate": Infinity', '"rate": NaN', '"slack": -Infinity',
                        '"regret": -0.0', '"id": "grid \\"\\u00e9\\"\\n\\\\"',
                        '"min_slack": -Infinity', '"min_slack": NaN', '"certificate": 1e+300',
                        '"per_round_losses": []', '"comparators": []'):
            assert spelled in text, spelled

    def test_csv_bytes_match_fstring_rows(self, tmp_path):
        records = _edge_records()
        path = tmp_path / "records.csv"
        for recs in (records, records[:1], []):
            assert _emitted(recs, "csv", path) == _reference_csv(recs)
        text = "\n".join(_emitted(records, "csv", path))
        assert '0,comparator,,,grid "é"\n\\,-0.0,' in text
        assert ",inf,inf\n" in text and ",nan,nan\n" in text and ",-inf\n" in text

    @settings(max_examples=150)
    @given(data=st.data())
    def test_shared_and_copied_columns_write_the_same_bytes(self, data, tmp_path_factory):
        m = data.draw(st.integers(0, 5), label="comparators")
        n = data.draw(st.integers(0, 4), label="rounds")
        n_rates = data.draw(st.integers(1, 3), label="rates")
        column = st.lists(FLOATS, min_size=m, max_size=m).map(tuple)
        ids = data.draw(st.lists(IDS, min_size=m, max_size=m).map(tuple))
        regret = data.draw(column)
        per_round = data.draw(st.lists(FLOATS, min_size=n, max_size=n).map(tuple))
        rates = [data.draw(column) for _ in range(n_rates)]
        # a record's slack may be the very object that is its rate column
        slacks = [rate if data.draw(st.booleans()) else data.draw(column) for rate in rates]
        scalars = [data.draw(st.tuples(FLOATS, FLOATS)) for _ in range(n_rates)]

        def records(share):
            col = (lambda c: c) if share else list
            return [AuditRecord(environment="file", rate_name=f"rate{j}", replicate=0, seed=j,
                                horizon=n, experts=3, per_round_losses=col(per_round),
                                certificate=cert, comparator_ids=col(ids), regret=col(regret),
                                rate=col(rate), slack=col(slack), min_slack=least,
                                argmin_comparator=ids[0] if ids else "")
                    for j, (rate, slack, (cert, least)) in enumerate(zip(rates, slacks, scalars))]

        shared, copied = records(True), records(False)
        assert shared[-1].regret is shared[0].regret
        path = tmp_path_factory.getbasetemp() / "property.out"
        rng = RngSpec(seed=3)
        json_text = _emitted(shared, "json", path, rng)
        assert _emitted(copied, "json", path, rng) == json_text == _reference_json(shared, rng)
        csv_text = _emitted(shared, "csv", path)
        assert _emitted(copied, "csv", path) == csv_text == _reference_csv(shared)

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


class TestAuditRecord:
    def _record(self, **columns):
        base = dict(environment="file", rate_name="kl-radius", replicate=0, seed=0,
                    horizon=2, experts=2, per_round_losses=[0.5, 0.25], certificate=1.0,
                    comparator_ids=["e0", "e1"], regret=[0.0, 0.5], rate=[1.0, 1.0],
                    slack=[2.0, 1.5], min_slack=1.5, argmin_comparator="e1")
        base.update(columns)
        return AuditRecord(**base)

    def test_columns_become_tuples_of_float(self, tmp_path):
        losses = [np.float64(0.5), 1]
        rec = self._record(per_round_losses=losses, regret=np.array([0.0, 0.5]))
        assert rec.per_round_losses == (0.5, 1.0) and rec.regret == (0.0, 0.5)
        for name in ("per_round_losses", "regret", "rate", "slack"):
            column = getattr(rec, name)
            assert type(column) is tuple and {type(x) for x in column} == {float}, name
        assert type(rec.comparator_ids) is tuple
        path = tmp_path / "rec.json"
        before = _emitted([rec], "json", path)
        losses[0] = 9.0
        assert _emitted([rec], "json", path) == before
        # a tuple of floats is kept as it is, so records can share it
        assert self._record(regret=rec.regret).regret is rec.regret

    @pytest.mark.parametrize("name", ["comparator_ids", "regret", "rate", "slack"])
    def test_unequal_columns_rejected(self, name):
        with pytest.raises(ValueError, match=rf"comparator columns differ in length: .*'{name}': 3"):
            self._record(**{name: ["e9", "e8", "e7"] if name == "comparator_ids" else [0.0] * 3})

    @pytest.mark.parametrize("name,bad", [("per_round_losses", "0.5"), ("regret", None),
                                          ("rate", True), ("slack", [1.0]),
                                          ("comparator_ids", 3)])
    def test_non_numeric_values_rejected(self, name, bad):
        column = list(getattr(self._record(), name))
        column[0] = bad
        with pytest.raises(ValueError, match=rf"^{name} holds "):
            self._record(**{name: column})

    def test_non_sequence_column_rejected(self):
        with pytest.raises(ValueError, match="regret must be a sequence, not float"):
            self._record(regret=0.5)

    def test_from_dict_rejects_a_malformed_row(self, tmp_path):
        doc = self._record().to_dict()
        assert AuditRecord.from_dict(doc) == self._record()
        del doc["comparators"][1]["slack"]
        with pytest.raises(ValueError, match=r"comparator row 1 holds \['id', 'rate', 'regret'\]"):
            AuditRecord.from_dict(doc)
        doc["comparators"][1].update(slack=1.5, note="x")
        with pytest.raises(ValueError, match="comparator row 1 holds"):
            AuditRecord.from_dict(doc)
        doc["comparators"][1] = [0.0]
        with pytest.raises(ValueError, match="comparator row 1 holds list"):
            AuditRecord.from_dict(doc)


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

    def test_run_reports_per_rate_min_slack(self, tmp_path):
        doc = json.loads(self._write_config(tmp_path).read_text())
        doc.update(rates=["kl-radius", "pac-bayes", "uniform-constant"], replicates=2)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        assert lab_main(["run", "-c", str(config), "--report", str(report)]) == 0
        got = json.loads(report.read_text())
        assert got["passed"] and got["command"] == "run"
        records = read_results(str(tmp_path / "rec.json"))
        assert got["per_rate_min_slack"] == {
            name: min(r.min_slack for r in records if r.rate_name == name) for name in doc["rates"]}
        assert got["min_slack"] == min(got["per_rate_min_slack"].values())
        # without output paths, run writes the report alone
        del doc["output"]
        config.write_text(json.dumps(doc))
        quiet = tmp_path / "quiet"
        quiet.mkdir()
        assert lab_main(["run", "-c", str(config), "--report", str(quiet / "report.json")]) == 0
        assert [p.name for p in quiet.iterdir()] == ["report.json"]
        assert json.loads((quiet / "report.json").read_text()) == got

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

    @pytest.mark.parametrize("env", ["stochastic_bernoulli", "small_loss_leader",
                                     "quantile_block", "alternating_adversary"])
    def test_run_bytes_at_the_benchmark_shape(self, tmp_path, env):
        doc = {
            "schema": "regretlab/experiment-v1",
            "environment": {"name": env},
            "strategy": {"name": "two-level-ew", "lambda_mode": "fixed_inverse_sqrt_n"},
            "rates": ["kl-radius", "pac-bayes", "fixed-vs-best"],
            "horizon": 512,
            "experts": 8,
            "replicates": 1,
            "rng": {"algorithm": "pcg64", "seed": 17},
            "audit": {"simplex_resolution": 16, "grid_budget": 5000},
        }
        config = tmp_path / "config.json"
        written = {"json": [], "csv": []}
        for formats in (("json", "csv"), ("json",), ("csv",)):
            output = {fmt: str(tmp_path / f"{'+'.join(formats)}.{fmt}") for fmt in formats}
            config.write_text(json.dumps({**doc, "output": output}))
            assert lab_main(["run", "-c", str(config), "--report", str(tmp_path / "r.json")]) == 0
            for fmt, path in output.items():
                written[fmt].append(_written(Path(path)))
        records = run_experiment(ExperimentConfig.from_json(str(config)))
        assert len(records[0].comparator_ids) == 8 + 3432 + 12
        for fmt, want in (("json", _reference_json(records, RngSpec(seed=17))),
                          ("csv", _reference_csv(records))):
            assert len(written[fmt]) == 2
            for lines in written[fmt]:
                assert lines == want, fmt

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
