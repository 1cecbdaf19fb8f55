"""jacobi-mv benchmark: one workload, timed untraced or traced, outputs checked.

    python3 bench/run.py --workload classical --seed 1 --seconds 20 --trace 0

The package is imported from the src/ directory beside bench/ and nowhere
else.  The workload's fixed job list is run in whole passes until --seconds
have passed (at least MIN_PASSES times; a traced run alternates untraced and
traced passes).  Every job's output is checked on every pass.  Times are
given at reference speed (see speed.py).  The last line of stdout is one
JSON object: correct, attempted, failed and the metrics, the end-to-end
ones with --trace 0 and the per-layer ones with --trace 1.  The exit status
is 1 when a check fails or an operation fails.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
WORK_ROOT = os.path.join(BENCH_DIR, ".work")
WORKLOAD_NAMES = ("classical", "atomic", "roundtrip")
SETUP_MIN_SAMPLES = 3
SETUP_BUDGET_S = 2.0  # more set-up samples while they fit in this much wall time
MIN_PASSES = 2
MIN_TRACED_PASSES = 2
DEADLINE_S = 140  # no pass starts after this unless the minimum is not yet met
SETUP_TIMEOUT_S = 60


def _import_program():
    """Import jacobi_mv from this checkout's src/, or exit with status 2."""
    init = os.path.join(SRC, "jacobi_mv", "__init__.py")
    if not os.path.isfile(init):
        print(f"error: {init} not found; run the benchmark inside a jacobi-mv checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import jacobi_mv
    import jacobi_mv.cli  # noqa: F401

    if os.path.abspath(jacobi_mv.__file__) != init:
        print(f"error: imported jacobi_mv from {jacobi_mv.__file__}, not {init}", file=sys.stderr)
        sys.exit(2)


def _setup_seconds(workload: str, seed: int) -> float:
    """A fresh interpreter's time to import the package and make the inputs."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up probe exited with status {proc.returncode}")
    return float(proc.stdout.strip().splitlines()[-1])


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


@dataclass
class Pass:
    times: dict  # job -> seconds at reference speed
    clock_s: float  # the jobs' clock seconds, summed
    factor: float  # clock seconds -> seconds at reference speed, over the pass
    results: dict  # job -> checked result


class Runner:
    """Runs whole passes of a workload and checks every output."""

    def __init__(self, workload, meter):
        self.workload = workload
        self.meter = meter
        self.problems = []
        self.first = {}  # digests of the first results, for byte-stable workloads
        self.attempted = 0
        self.failed = 0

    def run_pass(self) -> Pass:
        """Run every job once, then check every result."""
        meter = self.meter
        times, results, clock_s = {}, {}, 0.0
        pass_mark = meter.probe()
        for job in self.workload.jobs:
            self.attempted += 1
            mark = meter.probe()
            start = meter.clock()
            try:
                raw = job.call()
            except Exception as exc:  # a failing operation is counted and reported
                self.failed += 1
                # no job fails on the workloads as chosen, so a failure is a
                # fault; it also leaves the job out of pass_s
                self.problems.append(f"{job.name} failed: {type(exc).__name__}: {exc}")
                continue
            elapsed = meter.clock() - start
            clock_s += elapsed
            times[job.name] = elapsed * meter.factor_since(mark)
            results[job.name] = job.finish(raw)
        factor = meter.factor_since(pass_mark)
        for job in self.workload.jobs:
            if job.name not in results:
                continue
            try:
                job.check(results[job.name])
            except Exception as exc:  # any exception in a check is a wrong output
                self.problems.append(f"{job.name}: {type(exc).__name__}: {exc}")
            if self.workload.byte_stable:
                digest = hash(results[job.name])  # stable within one process, which suffices
                if self.first.setdefault(job.name, digest) != digest:
                    self.problems.append(f"{job.name}: output differs from the first pass")
        return Pass(times, clock_s, factor, results)


def _done(passes: int, minimum: int, start: float, seconds: float, last: float) -> bool:
    elapsed = time.perf_counter() - start
    return passes >= minimum and (elapsed >= seconds or elapsed + last > DEADLINE_S)


def _untraced(runner, seconds):
    """At least MIN_PASSES passes."""
    passes, start = [], time.perf_counter()
    while True:
        began = time.perf_counter()
        done = runner.run_pass()
        done.results = None  # checked already; kept, they would count in peak_rss_mb
        passes.append(done)
        if _done(len(passes), MIN_PASSES, start, seconds, time.perf_counter() - began):
            return passes


def _traced(runner, seconds, tracer):
    """Alternate untraced and traced passes; per-layer figures of each traced one.

    Alternating puts both sides of the tracing overhead under the same
    machine conditions.  Span times are put at reference speed with the
    traced pass's factor.
    """
    traces, untraced, start = [], [], time.perf_counter()
    while True:
        began = time.perf_counter()
        untraced.append(sum(runner.run_pass().times.values()))
        tracer.install()
        tracer.reset()
        try:
            done = runner.run_pass()
        finally:
            tracer.uninstall()
        layer = {
            name: value * done.factor if _unit(name) == "s" else value
            for name, value in tracer.pass_metrics().items()
        }
        layer["output.max_bits"] = _bits(
            v for job in runner.workload.jobs if job.name in done.results for v in job.values(done.results[job.name])
        )
        traces.append((layer, sum(done.times.values())))
        if _done(len(traces), MIN_TRACED_PASSES, start, seconds, time.perf_counter() - began):
            return traces, untraced


def _job_medians(per_pass):
    names = sorted({name for times in per_pass for name in times})
    return {name: statistics.median(t[name] for t in per_pass if name in t) for name in names}


UNITS = {"_s": "s", "_calls": "count", "_distinct": "count", "_bits": "bits"}


def _unit(name: str) -> str:
    return next(unit for suffix, unit in UNITS.items() if name.endswith(suffix))


def _layer_metrics(traces, problems):
    """Median per-layer times over the traced passes; counts must repeat."""
    out = {}
    for name in traces[0]:
        values = [t[name] for t in traces]
        if _unit(name) == "s":
            out[name] = {"value": statistics.median(values), "unit": "s"}
            continue
        if len(set(values)) != 1:
            problems.append(f"{name} differs between passes: {values}")
        out[name] = {"value": values[0], "unit": _unit(name)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="make the inputs, print the seconds taken")
    args = parser.parse_args(argv)

    _import_program()
    import speed
    import workloads

    work_dir = os.path.join(WORK_ROOT, str(os.getpid()))
    try:
        if args.setup_only:
            # the imports above ran before the meter; the probe right after
            # them stands for their speed
            with speed.Meter() as meter:
                mark = meter.probe()
                workloads.WORKLOADS[args.workload](args.seed, work_dir)
                elapsed = meter.clock() - _T0
                for _ in range(4):
                    meter.probe()
                print(repr(elapsed * meter.factor_since(mark)))
            return 0
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        with speed.Meter() as meter:
            runner = Runner(workload, meter)
            if args.trace:
                from spans import Tracer

                traces, untraced = _traced(runner, args.seconds, Tracer(clock=meter.clock))
            else:
                passes = _untraced(runner, args.seconds)
        if args.trace:
            metrics = _layer_metrics([layer for layer, _ in traces], runner.problems)
            traced = statistics.median(seconds for _, seconds in traces)
            plain = statistics.median(untraced)
            print(
                f"{args.workload}: {len(traces)} traced passes, median {traced:.3f} s; "
                f"untraced passes between them, median {plain:.3f} s; "
                f"tracing overhead {traced - plain:.3f} s (at reference speed)",
                file=sys.stderr,
            )
        else:
            medians = _job_medians([p.times for p in passes])
            setup, began = [], time.perf_counter()
            while len(setup) < SETUP_MIN_SAMPLES or time.perf_counter() - began < SETUP_BUDGET_S:
                setup.append(_setup_seconds(args.workload, args.seed))
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "pass_s": {"value": sum(medians.values()), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            }
            if workload.big_job in medians:
                metrics["big_job_s"] = {"value": medians[workload.big_job], "unit": "s"}
            else:
                runner.problems.append(f"{workload.big_job} failed on every pass")
            for name, seconds in sorted(medians.items(), key=lambda kv: -kv[1]):
                print(f"  {name:36s} {seconds:9.4f} s", file=sys.stderr)
            print(
                f"{args.workload}: {len(passes)} passes of {len(workload.jobs)} jobs; "
                f"clock seconds per pass {', '.join(f'{p.clock_s:.2f}' for p in passes)}; "
                f"speed factors {', '.join(f'{p.factor:.3f}' for p in passes)}; "
                f"set-up samples {', '.join(f'{s:.3f}' for s in setup)} s",
                file=sys.stderr,
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not runner.problems, "attempted": runner.attempted, "failed": runner.failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 1 if runner.problems else 0


if __name__ == "__main__":
    sys.exit(main())
