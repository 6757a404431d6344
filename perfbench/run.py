"""Closed-loop benchmark of the jnf pipeline: one client, one job in flight.

Each job is ``jnf.cli.run`` on one matrix file of a seeded corpus (file
read, parse, char_data, factor, cycle extraction, assembly with its
certificate, JSON emit).  Every output is checked against the ground-truth
block multiset.  Run from the repository root:

    python3 perfbench/run.py --workload qq_split --seed 1 --seconds 55 --trace 0

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}.  ``--trace 0`` reports the end-to-end metrics, with times scaled
to nominal host speed (hostspeed.py); ``--trace 1``
reports the per-layer metrics of perfbench/tracing.py plus the tracing
overhead, and writes the spans to perfbench/work/.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import corpus
import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"

# distinct matrices per run; the timed loop cycles through them
CORPUS_SIZE = 64
SETUP_REPEATS = 11
TAIL_SAMPLES = 10

_SETUP_CHILD = """\
import time
import jnf, jnf.cli
field = jnf.QQ if {p} == 0 else jnf.PrimeField({p})
print(time.monotonic())
"""


def measure_setup(workload):
    """Median seconds, scaled to nominal host speed, from spawning a fresh
    interpreter until ``import jnf`` is done and the workload's field is
    built."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = _SETUP_CHILD.format(p=workload.p)
    samples, refs = [], [hostspeed.reference_s()]
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        samples.append(float(out.stdout) - start)
        refs.append(hostspeed.reference_s())
    return statistics.median(hostspeed.scale(samples, refs))


def tail(times):
    """(percentile, value): the highest whole percentile with at least
    TAIL_SAMPLES samples above it, by nearest rank."""
    n = len(times)
    pct = max(0, 100 * (n - TAIL_SAMPLES) // n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(times)[rank - 1]


def block_multiset(dec):
    counts = {}
    for blk in dec.blocks:
        key = (tuple(dec.field.fmt(c) for c in blk.factor.coeffs),
               blk.cycle_length)
        counts[key] = counts.get(key, 0) + 1
    return sorted([list(t), k, c] for (t, k), c in counts.items())


class Runner:
    """Solves jobs through jnf.cli.run and checks each output."""

    def __init__(self, workload):
        import jnf.cli
        import jnf.io
        self.cli = jnf.cli
        self.parse_json = jnf.io.parse_json
        self.workload = workload
        self.reported = False

    def solve(self, job):
        """(seconds, decomposition or None); None when the job failed."""
        mat, hint, truth = job
        w = self.workload
        config = self.cli.JobConfig(
            input_path=str(mat), field_spec=w.field_spec, form=w.form,
            factors_path=str(hint) if hint else None, output="json")
        start = time.perf_counter()
        try:
            code, report = self.cli.run(config)
        except Exception:  # a raising job is a failed job, never a crash
            elapsed = time.perf_counter() - start
            self._report(f"{mat.name} raised:\n{traceback.format_exc()}")
            return elapsed, None
        elapsed = time.perf_counter() - start
        if code != 0:
            self._report(f"{mat.name} exited with code {code}")
            return elapsed, None
        try:
            dec = self.parse_json(report)
        except Exception:
            self._report(f"{mat.name} emitted unparsable JSON:\n"
                         f"{traceback.format_exc()}")
            return elapsed, None
        if block_multiset(dec) != truth:
            self._report(f"{mat.name}: block multiset differs from the truth")
            return elapsed, None
        return elapsed, dec

    def _report(self, message):
        if not self.reported:
            print(f"perfbench: failed job: {message}", file=sys.stderr)
            self.reported = True

    def loop(self, jobs, seconds, on_job=None, min_jobs=1, refs=None):
        """Closed loop over ``jobs`` (cycling) for ``seconds`` of wall time,
        at least ``min_jobs`` jobs; ``on_job(i)`` runs before the i-th job.
        With a ``refs`` list, the host-speed reference is timed before the
        first job and after each job and appended to it.
        Returns one (solve seconds, passed check) pair per job."""
        records = []
        start = time.perf_counter()
        if refs is not None:
            refs.append(hostspeed.reference_s())
        while (len(records) < min_jobs
               or time.perf_counter() - start < seconds):
            if on_job:
                on_job(len(records))
            elapsed, dec = self.solve(jobs[len(records) % len(jobs)])
            records.append((elapsed, dec is not None))
            if refs is not None:
                refs.append(hostspeed.reference_s())
        return records


def passed_times(records):
    """Solve seconds of the jobs that passed their check; a failed job's
    time is not a latency sample, so a fast failure cannot improve the
    timings."""
    return [elapsed for elapsed, ok in records if ok]


def end_to_end(runner, jobs, args, setup_s):
    """Solve times are scaled to nominal host speed (see hostspeed.py);
    the unscaled median wall time is printed on the ``#`` line."""
    refs = []
    records = runner.loop(jobs, args.seconds, refs=refs)
    scaled = hostspeed.scale([elapsed for elapsed, _ in records], refs)
    times = passed_times([(t, ok) for t, (_, ok) in zip(scaled, records)])
    attempted = len(records)
    failed = attempted - len(times)
    p50 = statistics.median(times)
    pct, tail_s = tail(times)
    print(f"# {args.workload}: n={runner.workload.n} jobs={attempted} "
          f"solve_s_tail=p{pct} ({len(times)} samples) "
          f"wall_s_p50={statistics.median(passed_times(records)):.4f} "
          f"reference_s_p50={statistics.median(refs):.4f}")
    metrics = {
        "solve_s_p50": (p50, "s"),
        "solve_s_tail": (tail_s, "s"),
        "matrices_per_s": (len(times) / sum(times), "1/s"),
        "solved_ratio": (len(times) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    return attempted, failed, metrics


def per_layer(runner, warm, warm_dec, jobs, args):
    """Each matrix is solved twice in a row, untraced and then traced, so
    the overhead compares the same matrices under the same host load.  The
    per-layer numbers come from the traced jobs, the op counts and bit sizes
    from the warm-up matrix."""
    import tracing
    from jnf.io import parse_matrix

    tracer = tracing.Tracer()

    def toggle(i):
        tracer.job = i
        if i % 2:
            tracer.install()
        else:
            tracer.uninstall()

    try:
        records = runner.loop([job for job in jobs for _ in (0, 1)],
                              args.seconds, on_job=toggle, min_jobs=2)
    finally:
        tracer.uninstall()
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(WORK / f"spans-{args.workload}-{args.seed}.jsonl")

    plain, traced = records[0::2], records[1::2]
    metrics = tracer.layer_metrics(len(traced))
    metrics["trace.overhead_s"] = (
        statistics.median(passed_times(traced))
        - statistics.median(passed_times(plain)), "s")

    mat, _, truth = warm
    field = warm_dec.field
    a = parse_matrix(mat.read_text(), field)
    mults = {}
    for coeffs, k, count in truth:
        mults[tuple(coeffs)] = mults.get(tuple(coeffs), 0) + k * count
    charpoly_ops, qadic_ops, b_bits = tracing.op_counts(a, list(mults.items()))
    metrics["charpoly.field_ops"] = (charpoly_ops, "ops")
    metrics["jordan_rational.q_adic_blocks.field_ops"] = (qadic_ops, "ops")
    metrics["charpoly.b_max_bits"] = (b_bits, "bits")
    metrics["io.p_max_bits"] = (
        tracing.max_bits(x for row in warm_dec.p.data for x in row), "bits")
    failed = sum(not ok for _, ok in records)
    print(f"# {args.workload}: untraced jobs={len(plain)} "
          f"traced jobs={len(traced)} spans={len(tracer.spans)}")
    return len(records), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jnf" / "__init__.py").is_file():
        print(f"perfbench: no jnf package under {SRC}", file=sys.stderr)
        return 2
    workload = corpus.WORKLOADS[args.workload]
    setup_s = None if args.trace else measure_setup(workload)
    sys.path.insert(0, str(SRC))
    runner = Runner(workload)

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        warm, jobs = corpus.generate(run_dir, workload, args.seed, CORPUS_SIZE)
        _, warm_dec = runner.solve(warm)
        if warm_dec is None:
            print("perfbench: the warm-up job failed", file=sys.stderr)
            return 1
        if args.trace:
            attempted, failed, metrics = per_layer(runner, warm, warm_dec, jobs, args)
        else:
            attempted, failed, metrics = end_to_end(runner, jobs, args, setup_s)
    except statistics.StatisticsError:
        print("perfbench: no timed job passed its check", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
