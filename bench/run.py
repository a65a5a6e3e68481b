"""Benchmark for otmlab: one workload per run, end to end or per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  With
--trace 0 the run first times SETUP_PROBES fresh processes that import the
CLI and generate the workload inputs (setup_s, their median), then runs
whole rounds of the workload's jobs in this process, starting another
round while fewer than S seconds have passed, and reports the median
round's wall and CPU time and the peak resident memory.  With --trace 1 it
runs pairs of rounds the same way, one traced with spans around every
public function of the seven layers and one untraced, writes the spans to
bench/out/spans-NAME.npz and reports the per-layer metrics.  Either way the outputs of every round are checked after
timing, and the last line of stdout is the JSON result.  The exit status is
0 when every check passed, 1 when one failed, 2 when the run could not start.
"""

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="internal: import and generate inputs, print the time, exit")
    return p.parse_args(argv)


class Harness:
    """Runs jobs for a workload round; spans are recorded only when traced."""

    def __init__(self, tracer=None):
        from click.testing import CliRunner
        from otmlab import cli
        self.main = cli.main
        self.runner = CliRunner()
        self.tracer = tracer

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def cli(self, job, args, outputs=None, expect_reject=False):
        with self.span("cli." + args[0]):
            res = self.runner.invoke(self.main, args)
        rec = {"job": job, "exit_code": res.exit_code, "stderr": res.stderr,
               "outputs": outputs or {}, "expect_reject": expect_reject}
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            rec["exception"] = repr(res.exception)
        return rec

    def call(self, job, fn, *args):
        try:
            return {"job": job, "exit_code": 0, "result": fn(*args)}
        except ValueError as exc:
            return {"job": job, "exit_code": 1, "exception": repr(exc)}


def run_rounds(workload, harness, rundir, seconds, first_index=0):
    """Whole rounds: the first, then another while under `seconds` elapsed."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rdir = rundir / ("r%d" % (first_index + len(rounds)))
        rdir.mkdir(parents=True)
        t0, c0 = time.perf_counter(), time.process_time()
        records = workload.run_round(harness, rdir)
        rounds.append({"records": records, "wall": time.perf_counter() - t0,
                       "cpu": time.process_time() - c0})
    return rounds


def traced_rounds(workload, rundir, seconds):
    """Pairs of a traced and an untraced round, at least one pair, while
    under `seconds` elapsed; the overhead is the difference of their
    median walls."""
    import otmlab
    from otmlab import cli, entropy, hashfam, nets, otm, quantum, tails
    from spans import Tracer
    tracer = Tracer()
    plain, traced = Harness(), Harness(tracer)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        for h in (traced, plain):
            if h is traced:
                tracer.install([otmlab, hashfam, quantum, tails, entropy, nets, otm, cli])
            try:
                rnd = run_rounds(workload, h, rundir, 0, first_index=len(rounds))[0]
            finally:
                tracer.uninstall()
            rnd["traced"] = h is traced
            rounds.append(rnd)
    overhead = (statistics.median(r["wall"] for r in rounds if r["traced"])
                - statistics.median(r["wall"] for r in rounds if not r["traced"]))
    return rounds, tracer, overhead


def check_rounds(workload, rounds):
    """(attempted, failed, error message or None) over every round."""
    from checks import CheckFailed
    attempted = failed = 0
    error = None
    for i, rnd in enumerate(rounds):
        bad = workload.failures(rnd["records"])
        attempted += len(rnd["records"])
        failed += len(bad)
        for j in sorted(bad):
            rec = rnd["records"][j]
            print("round %d: job %s failed: exit %s %s" % (
                i, rec["job"], rec["exit_code"],
                rec.get("exception") or (rec.get("stderr") or "").strip()[:200]),
                file=sys.stderr)
        if error is not None:
            continue
        try:
            workload.check(rnd["records"], bad)
        except (CheckFailed, LookupError, OSError, TypeError, ValueError) as exc:
            # a missing or malformed artifact is as wrong as a wrong value
            error = "round %d: %s: %s" % (i, type(exc).__name__, exc)
    return attempted, failed, error


def setup_times(args):
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("setup probe failed: %s" % proc.stderr.strip()[-500:])
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_unit(name):
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "otmlab" / "__init__.py").is_file():
        print("bench: no otmlab sources under %s; run from a full checkout"
              % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe:
        import otmlab.cli  # noqa: F401  (the program's imports are what is timed)
        import click.testing  # noqa: F401
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print("bench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    outdir = OUT / args.workload

    if args.probe:
        WORKLOADS[args.workload](args.seed, outdir / ("probe-%d" % time.monotonic_ns()))
        print(repr(time.time()))
        return 0

    shutil.rmtree(outdir, ignore_errors=True)
    setup = setup_times(args) if args.trace == 0 else []
    workload = WORKLOADS[args.workload](args.seed, outdir / "inputs")
    rundir = outdir / "rounds"

    if args.trace == 0:
        rounds = run_rounds(workload, Harness(), rundir, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "wall_s": metric(statistics.median(r["wall"] for r in rounds), "s"),
            "cpu_s": metric(statistics.median(r["cpu"] for r in rounds), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        from spans import layer_metrics
        rounds, tracer, overhead = traced_rounds(workload, rundir, args.seconds)
        tracer.dump(OUT / ("spans-%s.npz" % args.workload))
        traced = [r for r in rounds if r["traced"]]
        metrics = {name: metric(value, layer_unit(name))
                   for name, value in layer_metrics(tracer, len(traced), overhead).items()}

    attempted, failed, error = check_rounds(workload, rounds)
    correct = error is None
    if error:
        print("bench: check failed: %s" % error, file=sys.stderr)
    print("%s seed=%d rounds=%d attempted=%d failed=%d correct=%s" % (
        args.workload, args.seed, len(rounds), attempted, failed, correct), file=sys.stderr)
    print("  round walls: %s s" % " ".join("%.3f" % r["wall"] for r in rounds), file=sys.stderr)
    for name, m in metrics.items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
