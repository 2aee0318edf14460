"""Benchmark of kahan-aromas: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory.  The command starts fresh single-threaded interpreters of
its own: a few that only set up (import the program and draw the inputs),
for a median set-up time, and one that sets up and then runs whole rounds of
the workload's operations, as many as fill S seconds on the reference host
(at least one; the count depends only on S, so every run attempts the same
number of operations).  Each round draws inputs of its own from the seed.
Every output of the program is then checked by exact arithmetic in `exact`.

With --trace 0 the last line reports the end-to-end metrics: `setup_s`
(median set-up time), `wall_norm_s` (the summed wall time of all the run's
timed operations) and `peak_rss_mb`.  Both times are scaled to the
reference host's speed by `SpeedSampler`; the raw operation time goes to
standard error.  With --trace 1 the program's public
callables are wrapped in spans (see `tracing`), and the last line reports
per-layer metrics per round; spans and metrics also go to perfbench/out/.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # set-up probes besides the measuring interpreter
CHILD_TIMEOUT_S = 170
ROUNDS_MAX = 1000  # round k of seed N draws its inputs from seed N * ROUNDS_MAX + k
TICK_S = 0.25  # wall seconds between two readings of the host's speed
REFERENCE_S = 0.005  # seconds of SpeedSampler's job on the reference host in its fast phases
SETUP_JOBS = 5  # jobs timed after set-up to read the host's speed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup", "measure"), default="main", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- inside a child interpreter -------------------------------------------------


def set_up(args):
    """Import the program from this checkout and draw the inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import kahan_aromas
    import kahan_aromas.cli  # noqa: F401  (the command line is part of set-up)
    import workloads

    if not Path(kahan_aromas.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"kahan_aromas was imported from {kahan_aromas.__file__}, not from this checkout")
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload]
    rounds = []  # each round draws inputs of its own from the seed
    for k in range(max(1, int(args.seconds / workload.round_s))):
        (workdir / f"round{k}").mkdir(parents=True)
        rounds.append(workload.build(args.seed * ROUNDS_MAX + k, workdir / f"round{k}"))
    return rounds, workdir, time.perf_counter() - START


class SpeedSampler:
    """Reads the host's speed while operations run.

    This host runs the same work up to 1.7x slower in phases of seconds to
    minutes.  Every TICK_S of wall time a SIGALRM handler times a fixed
    exact-arithmetic job like the program's own (the square of a 40-term
    polynomial with small Fraction coefficients), with the garbage collector
    off so that the program's heap does not slow the job.  An operation's
    own time is then scaled by REFERENCE_S over the mean time of the jobs
    run during it and within one tick of it."""

    def __init__(self):
        import random
        from fractions import Fraction

        import exact

        rng = random.Random(0)
        poly = {
            tuple(rng.randint(0, 3) for _ in range(3)) + (rng.randint(0, 2), 0): Fraction(rng.randint(1, 9), rng.randint(1, 6))
            for _ in range(40)
        }
        self._job = lambda: exact.mul(poly, poly)
        self.samples: list[tuple[float, float]] = []  # (start, seconds) of each job

    def job_seconds(self) -> float:
        """Seconds one run of the job takes, with the garbage collector off."""
        collecting = gc.isenabled()
        gc.disable()  # the program's heap must not slow the job down
        t0 = time.perf_counter()
        self._job()
        seconds = time.perf_counter() - t0
        if collecting:
            gc.enable()
        return seconds

    def _tick(self, signum, frame):
        self.samples.append((time.perf_counter(), self.job_seconds()))

    def __enter__(self):
        self._tick(None, None)  # samples before the first and after the last operation
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def own_time(self, start: float, end: float) -> float:
        """Seconds the jobs took inside [start, end)."""
        return sum(s for t, s in self.samples if start <= t < end)

    def normalized(self, start: float, end: float) -> float:
        """The operation's own seconds in [start, end), at reference speed."""
        near = [s for t, s in self.samples if start - TICK_S <= t < end + TICK_S]
        if not near:
            raise RuntimeError("no speed sample near an operation: the sampler did not run")
        return (end - start - self.own_time(start, end)) * REFERENCE_S / statistics.fmean(near)


def corrected_setup_s(raw: float) -> float:
    """Set-up seconds at reference speed, from jobs timed right after set-up."""
    sampler = SpeedSampler()
    return raw * REFERENCE_S / statistics.fmean(sampler.job_seconds() for _ in range(SETUP_JOBS))


def measure(args) -> dict:
    rounds, workdir, setup_s = set_up(args)
    setup_s = corrected_setup_s(setup_s)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    sampler = None if args.trace else SpeedSampler()
    results: list[list] = []  # per round, per operation: (output, error)
    spans: list[list[tuple[float, float]]] = []  # per round, per operation: (start, end)
    try:
        with sampler or contextlib.nullcontext():
            for operations in rounds:
                outputs, round_spans = [], []
                for op in operations:
                    t0 = time.perf_counter()
                    try:
                        outputs.append((op.run(), None))
                    except Exception as exc:  # the program raised: a failed operation
                        outputs.append((None, f"{type(exc).__name__}: {exc}"))
                    round_spans.append((t0, time.perf_counter()))
                results.append(outputs)
                spans.append(round_spans)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shutil.rmtree(workdir)
    own = sampler.own_time if sampler else lambda start, end: 0.0
    times = [[end - start - own(start, end) for start, end in round_spans] for round_spans in spans]
    wall_norm_s = sum(sampler.normalized(*span) for round_spans in spans for span in round_spans) if sampler else None

    failed, wrong, errors = 0, 0, []
    for operations, outputs in zip(rounds, results):
        for op, (output, error) in zip(operations, outputs):
            if error is None:
                try:
                    ok = op.check(output)
                except Exception as exc:  # output the check cannot read is wrong output
                    ok, error = False, f"unreadable output: {type(exc).__name__}: {exc}"
                if not ok:
                    wrong += 1
                    error = error or "check failed"
            if error is not None:
                failed += 1
                errors.append(f"{op.label}: {error}")
    report = {
        "correct": wrong == 0,
        "attempted": sum(map(len, rounds)),
        "failed": failed,
        "errors": errors[:10],
        "rounds": len(times),
        "setup_s": setup_s,
        "wall_s": sum(map(sum, times)),
        "wall_norm_s": wall_norm_s,
        "speed_job_s": sampler and statistics.fmean(s for _, s in sampler.samples),
        "round_walls_s": [sum(t) for t in times],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        report["per_layer"] = tracer.metrics(len(times))
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "rounds": len(times),
                    "traced_wall_s": report["wall_s"],
                    "absent_hooks": tracer.absent,
                    "layers": tracer.layer_totals(),
                    "metrics": report["per_layer"],
                    "spans": tracer.spans,
                }
            )
        )
    return report


# -- the command ----------------------------------------------------------------


def child(args, role: str) -> dict:
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} interpreter exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.role == "setup":
        _, workdir, setup_s = set_up(args)
        shutil.rmtree(workdir)
        print(json.dumps({"setup_s": corrected_setup_s(setup_s)}))
        return 0
    if args.role == "measure":
        print(json.dumps(measure(args)))
        return 0
    if not (ROOT / "src" / "kahan_aromas" / "__init__.py").is_file():
        print(f"no kahan_aromas sources under {ROOT / 'src'}: run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        setups = [] if args.trace else [child(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
        report = child(args, "measure")
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in report["errors"]:
        print(f"failed: {line}", file=sys.stderr)
    if args.trace:
        metrics = report["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [report["setup_s"]]), "unit": "s"},
            "wall_norm_s": {"value": report["wall_norm_s"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(f"rounds={report['rounds']} wall_s={report['wall_s']:.3f} speed_job_s={report['speed_job_s']} round_walls_s={[round(w, 3) for w in report['round_walls_s']]}", file=sys.stderr)
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"], "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
