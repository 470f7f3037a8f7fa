"""Benchmark for regretlab: one workload per run, one process, one thread.

    python3 bench/run.py --workload audit --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports regretlab from its
``src`` directory. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` every regretlab
layer is wrapped and the line carries the per-layer metrics instead. After
its timed loop an untraced run climbs the reach ladders and checks every
rung that finished; a traced run plays one untimed, checked certification
round (oracle, admissibility, certificate) instead. A result file with the
machine description and every operation time, and for traced runs the
spans, goes to ``bench/_out``. See bench/README.md.
"""

from __future__ import annotations

import os
import sys
import time

T0 = time.perf_counter()
# Pin BLAS and OpenMP before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

from tracing import CERTIFY_LAYERS, UNTIMED, Tracer, layer_metrics  # noqa: E402
from workloads import (BINARY_OUTCOMES, CERTIFY, WORKLOADS, CheckError,  # noqa: E402
                       check_admissible_rung, check_oracle_rung)

SETUP_REPEATS = 3
# Reach ladders and budgets. Rungs step by two horizons, about 10 to 18 times
# the cost, and each budget sits at the geometric middle of the costs of the
# last rung expected to finish and the first expected to overrun, so machine
# speed may swing by about 3x either way before reach flips (see
# README.md for the rung costs they were set from).
ORACLE_LADDER = (1, 3, 5, 7)
ORACLE_BUDGET_S = 0.85
ADMISSIBLE_LADDER = (2, 4, 6)
ADMISSIBLE_BUDGET_S = 1.2
# Operation indices of the certification round: past any timed operation, and
# a multiple of its kind count so that it plays every kind once, in order.
CERTIFY_OPS = range(1_000_000, 1_000_000 + len(CERTIFY.kinds))


def import_program():
    """Import regretlab from this checkout only, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "regretlab", "__init__.py")):
        sys.exit(f"bench: no regretlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import regretlab
    import regretlab.cli

    if os.path.dirname(os.path.abspath(regretlab.__file__)) != os.path.join(SRC, "regretlab"):
        sys.exit(f"bench: imported regretlab from {regretlab.__file__}, not from {SRC}")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.isfile(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


class Overrun(Exception):
    """A reach rung ran past its budget."""


def _on_alarm(signum, frame):
    raise Overrun()


def within_budget(fn, budget_s: float) -> bool:
    """Run fn, cutting it off with SIGALRM once budget_s has elapsed."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    except Overrun:
        return False
    finally:
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - start <= budget_s


def reach(ladder, budget_s, rung) -> tuple[int, list]:
    """Largest rung, climbing the ladder, that finishes within the budget.

    Also returns ``(n, rung(n))`` for every rung that finished, so that
    their outputs can be checked outside the budget.
    """
    from regretlab.oracle import BudgetError

    best, finished = 0, []
    for n in ladder:
        out = []
        try:
            if not within_budget(lambda: out.append(rung(n)), budget_s):
                break
        except BudgetError:
            break
        finished.append((n, out[0]))
        best = n
    return best, finished


def oracle_rung(n):
    from regretlab import AdaptiveRate, Distribution, GameSpec
    from regretlab.oracle import achievability_check

    game = GameSpec.experts_game(BINARY_OUTCOMES, n)
    return achievability_check(game, AdaptiveRate("kl_radius", prior=Distribution.uniform(2)))


def admissible_rung(n):
    from regretlab import Distribution, GameSpec, TwoLevelRelaxation
    from regretlab.oracle import admissibility_check

    game = GameSpec.experts_game(BINARY_OUTCOMES, n)
    relax = TwoLevelRelaxation(Distribution.uniform(2), n, lambda_mode="optimized")
    return admissibility_check(relax, game, mode="exhaustive")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Setup, the timed closed loop and the checks of one workload run."""

    def __init__(self, workload, seed, seconds, tracer, workdir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.errors: list[str] = []
        self.check_s = 0.0
        self.setup_times: list[float] = []

    def _verify(self, op, label) -> None:
        start = time.perf_counter()
        try:
            self.workload.check(op)
        except CheckError as exc:
            self.errors.append(f"{label}: {exc}")
        self.check_s += time.perf_counter() - start

    def setup(self, import_s: float) -> tuple[float, object]:
        """Median over repeats of input generation plus one warm-up operation."""
        times, prints = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            op = self.workload.make(self.seed, 0, self.workdir)
            ok = op.run()
            times.append(time.perf_counter() - start)
            if not ok:
                self.errors.append("warm-up operation reported a failed check")
            prints.append(op.fingerprint())
        if any(p != prints[0] for p in prints):
            self.errors.append("repeated warm-up operations differ")
        self._verify(op, "warm-up")
        self.setup_times = times
        return import_s + statistics.median(times), prints[0]

    def loop(self, warm_print) -> dict:
        """Whole rounds of operations for about ``seconds`` of operation time.

        A round starts only while half of a round, at the mean round time so
        far, still fits in the budget, so the run overshoots or falls short
        of it by at most half a round.
        """
        kinds = len(self.workload.kinds)
        times, failed, index, game_rounds = [], 0, 0, 0
        while True:
            for _ in range(kinds):
                op = self.workload.make(self.seed, index, self.workdir)
                if self.tracer is not None:
                    self.tracer.op = index
                start = time.perf_counter()
                try:
                    ok = op.run()
                except Exception as exc:  # a crashing operation counts as failed
                    print(f"bench: operation {index} raised {exc!r}", file=sys.stderr)
                    ok = False
                times.append(time.perf_counter() - start)
                if self.tracer is not None:
                    self.tracer.op = UNTIMED
                if ok:
                    if index == 0 and op.fingerprint() != warm_print:
                        self.errors.append("rerun of operation 0 is not byte-identical")
                    self._verify(op, f"operation {index} ({op.kind})")
                else:
                    failed += 1
                if index < kinds:
                    game_rounds += op.facts.get("game_rounds", 0)
                index += 1
            spent = sum(times)
            if spent + 0.5 * spent / (index // kinds) >= self.seconds:
                break
        return {"times": times, "failed": failed, "rounds": index // kinds,
                "game_rounds_first": game_rounds}

    def check_reach(self, oracle_done, admissible_done) -> None:
        start = time.perf_counter()
        for check, done in ((check_oracle_rung, oracle_done),
                            (check_admissible_rung, admissible_done)):
            for n, report in done:
                try:
                    check(report, n)
                except CheckError as exc:
                    self.errors.append(f"reach rung n={n}: {exc}")
        self.check_s += time.perf_counter() - start

    def certify_round(self) -> dict:
        """One untimed, checked round of certification operations."""
        failed, game_rounds = 0, 0
        for index in CERTIFY_OPS:
            op = CERTIFY.make(self.seed, index, self.workdir)
            if self.tracer is not None:
                self.tracer.op = index
            try:
                ok = op.run()
            except Exception as exc:  # a crashing operation counts as failed
                print(f"bench: certification {op.kind} raised {exc!r}", file=sys.stderr)
                ok = False
            if self.tracer is not None:
                self.tracer.op = UNTIMED
            if ok:
                start = time.perf_counter()
                try:
                    CERTIFY.check(op)
                except CheckError as exc:
                    self.errors.append(f"certification {op.kind}: {exc}")
                self.check_s += time.perf_counter() - start
            else:
                failed += 1
            game_rounds += op.facts.get("game_rounds", 0)
        return {"failed": failed, "game_rounds": game_rounds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_program()
    import_s = time.perf_counter() - T0
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(workload, args.seed, args.seconds, tracer, workdir)
    try:
        setup_s, warm_print = runner.setup(import_s)
        run = runner.loop(warm_print)
        rss = peak_rss_mb()
        cert = {"failed": 0, "game_rounds": 0}
        certify_s = 0.0
        if tracer is not None:
            start = time.perf_counter()
            cert = runner.certify_round()
            certify_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = run["times"]
    reach_s = 0.0
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    e2e = {
        "op_s.p50": (statistics.median(times), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
    }
    if tracer is None:
        e2e["setup_s"] = (setup_s, "s")
        e2e["peak_rss_mb"] = (rss, "MB")
        start = time.perf_counter()
        oracle_n, oracle_done = reach(ORACLE_LADDER, ORACLE_BUDGET_S, oracle_rung)
        admissible_n, admissible_done = reach(ADMISSIBLE_LADDER, ADMISSIBLE_BUDGET_S,
                                              admissible_rung)
        reach_s = time.perf_counter() - start
        e2e["reach_n.oracle"] = (oracle_n, "count")
        e2e["reach_n.admissible"] = (admissible_n, "count")
        runner.check_reach(oracle_done, admissible_done)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    else:
        tracer.uninstall()
        loop = layer_metrics(tracer, range(len(workload.kinds)), range(len(times)),
                             run["rounds"], run["game_rounds_first"])
        metrics = {k: v for k, v in loop.items() if not k.startswith("oracle.")}
        rnd = layer_metrics(tracer, CERTIFY_OPS, CERTIFY_OPS, 1, cert["game_rounds"])
        metrics.update({"certify." + k: rnd[k] for k in CERTIFY_LAYERS})
        tracer.save(stem + ".spans.npz")

    for err in runner.errors:
        print(f"bench: check failed: {err}", file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": len(times) + (len(CERTIFY_OPS) if tracer is not None else 0),
        "failed": run["failed"] + cert["failed"],
        "metrics": metrics,
    }
    machine = machine_info()
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=run["rounds"], op_times_s=times,
                  import_s=import_s, setup_repeats_s=runner.setup_times,
                  check_s=runner.check_s, certify_s=certify_s, reach_s=reach_s, wall_s=time.perf_counter() - T0,
                  op_summary={k: v for k, (v, _) in e2e.items()},
                  errors=runner.errors, machine=machine)
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1)
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
