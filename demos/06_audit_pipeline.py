"""End-to-end audit pipeline, the same path the `lab run` command drives.

A config document picks an environment, a strategy, and the rates to audit.
The harness plays exact mixture losses, sweeps a comparator grid (point
masses, a simplex grid, and the per-rung KL-ball minimisers that stress the
bound hardest), and emits byte-stable records.
"""

import tempfile
from pathlib import Path

from regretlab.harness import (
    ExperimentConfig,
    emit_results,
    min_slack,
    read_results,
    run_experiment,
)

workdir = Path(tempfile.mkdtemp(prefix="regretlab-demo-"))
config_doc = {
    "schema": "regretlab/experiment-v1",
    "environment": {"name": "quantile_block", "good_fraction": 0.25},
    "strategy": {"name": "two-level-ew", "lambda_mode": "fixed_inverse_sqrt_n"},
    "rates": ["kl-radius", "pac-bayes"],
    "horizon": 128,
    "experts": 8,
    "replicates": 3,
    "rng": {"algorithm": "pcg64", "seed": 2024},
    "output": {"json": str(workdir / "records.json"), "csv": str(workdir / "records.csv")},
}
config = ExperimentConfig.from_dict(config_doc)

records = run_experiment(config)
emit_results(records, "json", config.json_path, config.rng)
emit_results(records, "csv", config.csv_path)

print(f"ran {config.replicates} replicates of {config.environment} "
      f"(K={config.experts}, n={config.horizon})")
print(f"audited {len(records)} (replicate, rate) pairs on "
      f"{len(records[0].comparator_ids)} comparators each\n")

print("tightest comparator per record:")
for rec in records:
    print(f"  rep {rec.replicate} {rec.rate_name:10s} min slack {rec.min_slack:9.3f} "
          f"at {rec.argmin_comparator}")

print(f"\noverall min slack: {min_slack(records):.3f} (certified nonnegative)")

round_trip = read_results(config.json_path)
print(f"json round trip intact: {[r.to_dict() for r in round_trip] == [r.to_dict() for r in records]}")
print(f"records written to {workdir}")
