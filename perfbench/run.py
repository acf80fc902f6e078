#!/usr/bin/env python3
"""Benchmark of the anyongas CLI: end-to-end timings and per-layer spans.

    python3 perfbench/run.py --workload eos-density --seed 1 --seconds 40 --trace 0

Run from the root of the repository; the package is imported from src/.
A run builds the workload's invocations from the seed, checks every output
against mpmath or required properties, and repeats whole rounds until the
time is spent.  Two untimed in-process passes warm the process up first.
A round runs each invocation once as its own process (`python -m
anyongas.cli ...`, import included) and twice through
anyongas.cli.main(argv) in this warm process.  The last line of standard
output is one JSON object with correct, attempted, failed and metrics;
attempted is the number of invocations and failed the number that
failed, each counted once however many passes the run makes.

--trace 0 reports the end-to-end metrics:
  setup_s      median wall time of a fresh interpreter importing anyongas.cli,
               one in every round
  cli_wall_s   wall time of the invocations as processes
  compute_s    time of the invocations through main(argv)
  peak_rss_mb  highest resident set of any CLI process, pool workers included,
               read by launch.py, which starts each CLI process
The two times sum each invocation's median over its passes; peak_rss_mb
is the median over rounds of each round's highest value.  --trace 1 runs
only in-process passes, one per round, with spans around the package's
functions, and reports per-layer call counts and self times per round.
"""

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
from checks import parse_output
from workloads import FAULTS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent.relative_to(ROOT)
LAUNCH = Path(__file__).resolve().parent / "launch.py"


@dataclass
class Outcome:
    """Result of one invocation run: its time, status and check problems."""

    invocation: object
    seconds: float
    status: int
    problems: list
    rss_mb: float = 0.0

    @property
    def failed(self):
        return self.status != 0 or bool(self.problems)


class Runner:
    """Runs a workload's invocations as processes or in this process."""

    def __init__(self, invocations):
        self.invocations = invocations
        # (invocation name, output text) -> problems: a pass that writes the
        # same output as an earlier one is not checked again
        self._checked = {}
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        if src not in sys.path:
            sys.path.insert(0, src)
        import anyongas.cli  # noqa: F401  (warm import for the in-process pass)

    def _check(self, invocation, status, message):
        if status != 0:
            last_line = message.strip().splitlines()[-1] if message.strip() else ""
            return [f"exit {status}: {last_line}"]
        try:
            text = (ROOT / invocation.output).read_text()
        except OSError as exc:
            return [f"unreadable output: {exc!r}"]
        key = (invocation.name, text)
        if key not in self._checked:
            try:
                problems = invocation.check(*parse_output(text))
            except (ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            self._checked[key] = problems
        return list(self._checked[key])

    def _clear(self, invocation):
        path = ROOT / invocation.output
        path.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            path.unlink()

    def run_process(self, invocation):
        self._clear(invocation)
        err_path = ROOT / (invocation.output + ".stderr")
        # launch.py times the process and reads its peak memory, so that
        # the benchmark's own memory does not count (see launch.py)
        launched = subprocess.run(
            [sys.executable, str(LAUNCH), str(err_path),
             sys.executable, "-m", "anyongas.cli", *invocation.argv],
            cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, check=True)
        result = json.loads(launched.stdout)
        message = err_path.read_text(errors="replace")
        problems = self._check(invocation, result["status"], message)
        return Outcome(invocation, result["seconds"], result["status"], problems,
                       result["rss_mb"])

    def run_in_process(self, invocation):
        self._clear(invocation)
        cli = sys.modules["anyongas.cli"]
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                status = cli.main(list(invocation.argv))
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is this invocation's failure, not the run's
                traceback.print_exc()
                status = 1
        seconds = time.perf_counter() - start
        return Outcome(invocation, seconds, status,
                       self._check(invocation, status, err.getvalue()))

    def process_pass(self):
        return [self.run_process(inv) for inv in self.invocations]

    def in_process_pass(self):
        with contextlib.chdir(ROOT):
            return [self.run_in_process(inv) for inv in self.invocations]


# in-process passes before any is timed: in one process the first two
# occupation-sweep passes took 3.05 s and 2.78 s, later ones about 2.2 s
WARM_UP_PASSES = 2
# in-process passes per round, so that compute_s is a median of four or more
IN_PROCESS_PASSES = 2


def setup_seconds(runner):
    """Wall time of a fresh interpreter that imports anyongas.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import anyongas.cli"], cwd=ROOT,
                   env=runner.env, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


class Tally:
    """Invocations attempted and failed, each counted once however many
    passes the run makes, so the counts do not depend on its length.

    An invocation fails if it fails in a pass.  The failure is expected
    only if the invocation's named fault explains every problem it shows,
    and only if it shows in every pass.
    """

    def __init__(self, invocations):
        self.attempted = len(invocations)
        self.passes = 0
        self.failures = {}  # invocation name -> (fault, first problem, passes failed)
        self.unexplained = set()  # names of failures no named fault explains

    def add(self, outcomes):
        self.passes += 1
        for outcome in outcomes:
            if not outcome.failed:
                continue
            inv = outcome.invocation
            fault = FAULTS.get(inv.fault)
            if fault is None or not fault.explains(outcome.problems):
                self.unexplained.add(inv.name)
            _, first, count = self.failures.get(
                inv.name, (inv.fault, outcome.problems[0], 0))
            self.failures[inv.name] = (inv.fault, first, count + 1)

    @property
    def failed(self):
        return len(self.failures)

    def unexpected(self):
        """Names of failures that no named fault explains or that skip a pass."""
        return self.unexplained | {name for name, (_, _, count) in self.failures.items()
                                   if count != self.passes}


def run_rounds(seconds, one_round):
    """Run whole rounds, at least one, until the next one, as slow as the
    slowest so far, would overrun `seconds`."""
    start = time.perf_counter()
    results = []
    slowest = 0.0
    while True:
        round_start = time.perf_counter()
        results.append(one_round())
        now = time.perf_counter()
        slowest = max(slowest, now - round_start)
        if now - start + slowest > seconds:
            return results


def measure(runner, tally, seconds):
    """End-to-end metrics, tracing off."""
    setups = []

    def one_round():
        # every kind of sample is taken in every round, so that each median
        # spans the whole run
        setups.append(setup_seconds(runner))
        processes = runner.process_pass()
        tally.add(processes)
        in_process = []
        for _ in range(IN_PROCESS_PASSES):
            in_process.append(runner.in_process_pass())
            tally.add(in_process[-1])
        return processes, in_process

    rounds = run_rounds(seconds, one_round)
    processes = [p for p, _ in rounds]
    in_process = [i for _, passes in rounds for i in passes]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "cli_wall_s": (_sum_of_medians(processes), "s"),
        "compute_s": (_sum_of_medians(in_process), "s"),
        "peak_rss_mb": (statistics.median(max(o.rss_mb for o in p) for p in processes),
                        "MB"),
    }, len(rounds)


def _sum_of_medians(passes):
    # each invocation's median over the passes, summed over the invocations
    return sum(statistics.median(times)
               for times in zip(*([o.seconds for o in p] for p in passes)))


def trace(runner, tally, seconds):
    """Per-layer metrics from in-process passes with spans on."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        def one_round():
            outcomes = runner.in_process_pass()
            tally.add(outcomes)
            return outcomes

        rounds = run_rounds(seconds, one_round)
    finally:
        tracer.uninstall()
    return per_layer_metrics(tracer.totals(), rounds), len(rounds)


def per_layer_metrics(totals, rounds):
    """Per-round calls and self time of every span, plus the named extras."""
    n_rounds = len(rounds)
    metrics = {}
    for name, fields in totals.items():
        metrics[f"{name}.calls"] = (fields["calls"] / n_rounds, "count")
        metrics[f"{name}.self_s"] = (fields["self_s"] / n_rounds, "s")
    solve = totals[spans.SOLVE]
    metrics["cli.main.failed"] = (totals["cli.main"]["failed"] / n_rounds, "count")
    metrics["thermo.solve_fugacity.failed"] = (solve["failed"] / n_rounds, "count")
    metrics["thermo.solve_fugacity.evals_per_call"] = (
        solve["inner"] / solve["calls"] if solve["calls"] else 0.0, "count")
    metrics["kernels.g_series_sum.max_s"] = (totals["kernels.g_series_sum"]["max_s"], "s")
    # compute_s of the traced passes, to set against the untraced compute_s
    metrics["traced.compute_s"] = (_sum_of_medians(rounds), "s")
    return metrics


def repeat_solve_share(invocations):
    """Share of density solves that repeat an earlier one (T-sweep rows)."""
    solves = [key for inv in invocations for key in inv.solves]
    return (len(solves) - len(set(solves))) / len(solves) if solves else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "anyongas" / "cli.py").is_file():
        print(f"no anyongas package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    out = f"{BENCH_DIR}/out/{args.workload}"
    rng = random.Random(f"{args.workload}/{args.seed}")
    invocations = WORKLOADS[args.workload](rng, out)
    start = time.perf_counter()
    runner = Runner(invocations)
    tally = Tally(invocations)
    for _ in range(WARM_UP_PASSES):
        tally.add(runner.in_process_pass())
    seconds = args.seconds - (time.perf_counter() - start)
    if args.trace:
        metrics, n_rounds = trace(runner, tally, seconds)
    else:
        metrics, n_rounds = measure(runner, tally, seconds)

    print(f"workload {args.workload}, seed {args.seed}: {len(invocations)} "
          f"invocations, {n_rounds} rounds, trace {args.trace}")
    if any(inv.solves for inv in invocations):
        print(f"  repeat_solve_share {repeat_solve_share(invocations):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print(f"  attempted {tally.attempted}, failed {tally.failed}")
    unexpected = tally.unexpected()
    for name, (fault, problem, count) in sorted(tally.failures.items()):
        if name in unexpected:
            label, detail = "UNEXPECTED", (
                f"not explained by its named fault ({fault}) in every pass: "
                "the program or the check broke")
        else:
            label, detail = fault, FAULTS[fault].description
        print(f"  failed in {count} of {tally.passes} passes: {name} [{label}]: "
              f"{problem[:160]}\n    {detail}")
    failing = {inv.name for inv in invocations if inv.fault} - set(tally.failures)
    for name in sorted(failing):
        print(f"  note: {name} passed; its fault no longer shows")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
