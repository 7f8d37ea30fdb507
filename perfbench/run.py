"""Run one benchmark workload against the qkrall sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is one thread in a closed loop: each job starts when the previous
job's verdict is in.  A run sets the program up several times (import from
``src/``, job generation, temporary directory) and reports the median, then
runs passes over the workload's jobs until another pass would end after
``--seconds``; every run makes at least one pass.  Each pass runs in a child
forked from the set-up process, one pass at a time, so no cache a pass
fills reaches the next.

A fixed reference computation (``measure.reference_work``) runs just before
each job and just after each set-up.  Every timing is reported at the
reference speed: its measured seconds times ``measure.REFERENCE_S`` over the
reference's measured seconds.  That takes out the drift of a shared
machine's speed, which moves raw times by up to a factor of two from one
minute to the next.

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric.  With ``--trace 1`` the run makes one untraced pass,
then the same pass again with timing wrappers on the layers' public
functions, and reports the per-layer metrics instead; the spans are written
to ``.perfbench-out/``.  The run exits 2 without a result line when the
program or a verdict check cannot be set up.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import measure
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
MODULES = ("errors", "exact", "linalg", "operators", "families", "dops",
           "moments", "krall", "search", "cli")
SETUPS = 5

# End-to-end metrics of an untraced run: (name, unit).
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("job_s.p50", "s"),
              ("checks_per_s", "1/s"), ("peak_rss_mb", "MB")]

_clock = time.perf_counter


class SetupError(Exception):
    """The program or a verdict check cannot be set up."""


class PassError(Exception):
    """A forked pass ended without handing back its results."""


def load_program(root: Path) -> SimpleNamespace:
    """Import qkrall from root/src, afresh, and nowhere else."""
    package_dir = root / "src" / "qkrall"
    if not (package_dir / "__init__.py").is_file():
        raise SetupError(f"no program sources at {package_dir}")
    for name in [m for m in sys.modules
                 if m == "qkrall" or m.startswith("qkrall.")]:
        del sys.modules[name]
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("qkrall")
    if Path(package.__file__).resolve().parent != package_dir.resolve():
        raise SetupError(f"qkrall imported from {package.__file__}")
    mods = {name: importlib.import_module(f"qkrall.{name}")
            for name in MODULES}
    return SimpleNamespace(package=package, modules=[package, *mods.values()],
                           **mods)


def set_up(name: str, seed: int):
    """Everything before the first job: program, jobs, scratch directory."""
    prog = load_program(ROOT)
    digests_path = HERE / "digests.json"
    if not digests_path.is_file():
        raise SetupError(f"missing {digests_path}")
    workload = workloads.make(name, prog, seed,
                              workloads.load_digests(digests_path))
    jobs = workload.jobs(0)
    if name != "cli-mix":
        missing = [j.key for j in jobs if j.key not in workload.digests]
        if missing:
            raise SetupError(f"no recorded digest for {missing}")
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    return prog, workload, jobs, scratch


@dataclass
class JobResult:
    job: workloads.Job
    seconds: float
    verdict: workloads.Verdict
    # Time of the reference computation at the machine's speed during the
    # job (measure.SpeedGauge).
    ref_seconds: float


@dataclass
class PassResult:
    wall: float
    results: list[JobResult] = field(default_factory=list)


class Context:
    """Per-run scratch space for the jobs' report directories."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.passes = 0
        self.report_bytes = 0

    def job_dir(self, job: workloads.Job) -> Path:
        return (self.scratch / f"pass-{self.passes}"
                / job.key.replace("/", "-"))


def run_job(prog, workload, job, ctx) -> workloads.Verdict:
    try:
        verdict = workload.run(prog, job, ctx)
    except Exception as exc:  # noqa: BLE001 - a crash is the job's verdict
        verdict = workloads.Verdict()
        verdict.problems.append(f"uncaught {type(exc).__name__}: {exc}")
    verdict.finish(job.expected_checks)
    return verdict


def run_pass(prog, workload, jobs, ctx, tracer=None) -> PassResult:
    ctx.passes += 1
    gc.collect()
    out = PassResult(wall=0.0)
    # A traced pass gauges the speed only just before and after each job,
    # so that no probe lands inside a span.
    gauge = measure.SpeedGauge(None if tracer else measure.PROBE_PERIOD)
    started = _clock()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = i
        verdict, seconds, ref = gauge.time(
            lambda: run_job(prog, workload, job, ctx))
        out.results.append(JobResult(job, seconds, verdict, ref))
    out.wall = _clock() - started
    return out


def forked_pass(prog, workload, jobs, ctx) -> PassResult:
    """run_pass in a forked child; the parent waits for it to end.

    The child sends back each job's time and verdict, so whatever state the
    pass leaves in the program (a filled cache, a grown heap) dies with it.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            done = run_pass(prog, workload, jobs, ctx)
            payload = {"wall": done.wall, "jobs": [
                [r.seconds, r.verdict.checks, r.verdict.problems,
                 r.verdict.digest, r.ref_seconds] for r in done.results]}
            with os.fdopen(write_fd, "w", encoding="utf-8") as pipe:
                json.dump(payload, pipe)
            status = 0
        except BaseException:  # noqa: BLE001 - reported, then the child ends
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, encoding="utf-8") as pipe:
            text = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    ctx.passes += 1
    if status != 0 or not text:
        raise PassError(f"pass {ctx.passes} ended with wait status {status}")
    payload = json.loads(text)
    out = PassResult(wall=payload["wall"])
    for job, (seconds, checks, problems, digest, ref) in zip(
            jobs, payload["jobs"]):
        verdict = workloads.Verdict(checks, problems, digest)
        out.results.append(JobResult(job, seconds, verdict, ref))
    return out


def run_passes(prog, workload, ctx, seconds: float) -> list[PassResult]:
    """Forked passes until another one would end after `seconds`; at least
    one.  Pass i runs workload.jobs(i)."""
    passes = []
    started = _clock()
    while True:
        jobs = workload.jobs(len(passes))
        passes.append(forked_pass(prog, workload, jobs, ctx))
        if _clock() - started + passes[-1].wall > seconds:
            return passes


def tally(passes: list[PassResult]) -> tuple[bool, int, int]:
    """(correct, attempted, failed): a run is correct when every failed job
    is a known defect."""
    results = [r for p in passes for r in p.results]
    failed = [r for r in results if r.verdict.failed]
    return (all(r.job.known_defect for r in failed), len(results),
            len(failed))


def at_reference_speed(seconds: float, ref_seconds: float) -> float:
    """The seconds the work would take with the reference computation
    taking measure.REFERENCE_S."""
    return seconds / ref_seconds * measure.REFERENCE_S


def job_seconds(passes: list[PassResult]) -> dict[str, float]:
    """Each job's median time at the reference speed over the passes, by
    job key."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for r in p.results:
            times.setdefault(r.job.key, []).append(
                at_reference_speed(r.seconds, r.ref_seconds))
    return {key: statistics.median(ts) for key, ts in times.items()}


def peak_rss_mb() -> float:
    """ru_maxrss of this process or of the largest pass child, in MB."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024


def end_to_end(setups: list[tuple[float, float]],
               passes: list[PassResult]) -> dict:
    """setups are (seconds, reference seconds) pairs.  wall_s is one pass
    with every job at its median over the passes; job_s.p50 is the median
    of those job times.  All at the reference speed."""
    jobs = list(job_seconds(passes).values())
    checks = sum(r.verdict.checks for p in passes for r in p.results)
    return {
        "setup_s": statistics.median(at_reference_speed(*s) for s in setups),
        "wall_s": sum(jobs),
        "job_s.p50": statistics.median(jobs),
        "checks_per_s": checks / len(passes) / sum(jobs),
        "peak_rss_mb": peak_rss_mb(),
    }


def report_lines(name: str, values: dict, passes: list[PassResult],
                 n_setups: int) -> list[str]:
    """Human-readable summary: every metric by name and unit."""
    results = [r for p in passes for r in p.results]
    over = f"median over {len(passes)} passes"
    n_jobs = len(passes[0].results)
    notes = {"setup_s": f"median of {n_setups}",
             "wall_s": f"{n_jobs} jobs, each at its {over}",
             "job_s.p50": f"median of {n_jobs} jobs, each at its {over}"}
    refs = [r.ref_seconds for r in results]
    lines = [f"{name} times at the reference speed, {measure.REFERENCE_S} s "
             f"for the reference computation; measured: reference "
             f"{statistics.median(refs):.6g} s (median of {len(refs)}), "
             f"pass {statistics.median(p.wall for p in passes):.6g} s "
             f"(median of {len(passes)})"]
    for metric, unit in END_TO_END:
        note = notes.get(metric)
        lines.append(f"{name} {metric} = {values[metric]:.6g} {unit}"
                     + (f" ({note})" if note else ""))
    tail = measure.tail([r.seconds for r in results])
    if tail is None:
        lines.append(f"{name} job_s.tail omitted: {len(results)} jobs, fewer "
                     f"than {measure.MIN_BEYOND} beyond the median")
    else:
        p, value, beyond = tail
        lines.append(f"{name} job_s.tail = {value:.6g} s at p{p:g} "
                     f"({beyond} of {len(results)} jobs beyond)")
    failed = [r for r in results if r.verdict.failed]
    lines.append(f"{name} failed_share = {len(failed) / len(results):.6g} "
                 f"({len(failed)} of {len(results)} jobs)")
    for r in failed:
        tag = f"known defect: {r.job.known_defect}" if r.job.known_defect \
            else "UNEXPECTED"
        lines.append(f"  failed {r.job.key} [{tag}] "
                     f"{' '.join(r.job.argv)} :: {'; '.join(r.verdict.problems)}")
    return lines


def write_record(path: Path, args, passes: list[PassResult], metrics: dict,
                 setups: list[tuple[float, float]]) -> None:
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "reference_s": measure.REFERENCE_S,
        "setups_s": [list(s) for s in setups], "metrics": metrics,
        "passes": [{"wall_s": p.wall, "jobs": [
            {"key": r.job.key, "argv": list(r.job.argv),
             "seconds": r.seconds, "ref_s": r.ref_seconds,
             "checks": r.verdict.checks,
             "digest": r.verdict.digest, "problems": r.verdict.problems}
            for r in p.results]} for p in passes],
    }
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up_repeatedly(args, scratches: list[Path]):
    """SETUPS gauged set-ups; keep the last."""
    setups = []
    gauge = measure.SpeedGauge()
    for _ in range(SETUPS):
        (prog, workload, jobs, scratch), seconds, ref = gauge.time(
            lambda: set_up(args.workload, args.seed))
        scratches.append(scratch)
        setups.append((seconds, ref))
    return prog, workload, jobs, Context(scratch), setups


def traced_run(args, prog, workload, jobs, ctx, setups):
    """One untraced pass, forked so that it leaves the program as set up,
    then the same jobs traced in this process; per-layer metrics."""
    passes = [forked_pass(prog, workload, jobs, ctx)]
    tracer = tracing.Tracer()
    remove = tracing.install(prog, tracer)
    ctx.report_bytes = 0
    try:
        traced = run_pass(prog, workload, jobs, ctx, tracer)
    finally:
        remove()
    tracer.totals["cli.report_bytes"] = ctx.report_bytes
    overhead = (sum(job_seconds([traced]).values())
                - sum(job_seconds(passes).values()))
    values = tracing.layer_metrics(tracer, overhead)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    tracer.write(OUT / f"{args.workload}-seed{args.seed}-trace1-spans.csv")
    lines = report_lines(args.workload, end_to_end(setups, passes), passes,
                         len(setups))
    lines += [f"{args.workload} {name} = {values[name]:.6g} {units[name]}"
              for name in units]
    lines += tracing.leads(args.workload, tracer.self_times())
    return passes + [traced], values, units, lines


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    scratches: list[Path] = []
    try:
        try:
            prog, workload, jobs, ctx, setups = set_up_repeatedly(args,
                                                                  scratches)
        except (SetupError, ImportError, OSError, ValueError) as exc:
            print(f"benchmark set-up failed: {exc}", file=sys.stderr)
            return 2
        try:
            if args.trace:
                passes, values, units, lines = traced_run(
                    args, prog, workload, jobs, ctx, setups)
            else:
                passes = run_passes(prog, workload, ctx, args.seconds)
                values = end_to_end(setups, passes)
                units = dict(END_TO_END)
                lines = report_lines(args.workload, values, passes,
                                     len(setups))
        except PassError as exc:
            print(f"benchmark pass failed: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        if args.workload == "cli-mix":
            for p in passes:
                for r in p.results:
                    print("argv", json.dumps(list(r.job.argv)))
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units}
        write_record(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
                     ".json", args, passes, metrics, setups)
        correct, attempted, failed = tally(passes)
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        for scratch in scratches:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
