"""Set up and run one pass of one workload in this process; stream what
happened as JSON lines.

run.py starts one such process per pass, so no state carries from one pass
to the next, every pass pays the same first-use costs, a crash or a hang
costs one pass, and peak memory belongs to one workload.  Records, one per
line on stdout:

  {"kind": "setup", "s": ..., versions}     import, input generation, warm-up
  {"kind": "job", "pass": k, "traced": b, "name": ..., "s": ...,
   "fail": reason or null, "wrong": b}      one per job
  {"kind": "pass", "pass": k, "traced": b, "s": ...}
  {"kind": "end", "pass": k, "traced": b, "peak_rss_mb": ..., "totals": {...}}

Usage: python3 perfbench/worker.py --workload NAME --seed N --pass K
       --trace 0|1 --workdir DIR
"""
from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class JobTimeout(BaseException):
    """Raised in the job by SIGALRM; a BaseException so that no handler in
    the program under test swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


@contextmanager
def time_cap(seconds: float):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def job_paths(job, workdir: Path) -> tuple[Path, Path]:
    return workdir / ("%s.in.json" % job.name), workdir / ("%s.out" % job.name)


def write_inputs(jobs, workdir: Path) -> None:
    for job in jobs:
        if job.problem is not None:
            job_paths(job, workdir)[0].write_text(json.dumps(job.problem))


def _reason(exc: BaseException) -> str:
    lines = str(exc).splitlines()
    return ("%s: %s" % (type(exc).__name__, lines[0] if lines else ""))[:200]


def run_job(job, workdir: Path, cap_s: float):
    """Run one job and check its output.

    Returns (seconds, failure reason or None, wrong), where wrong means that
    the job exited 0 but its output failed the check.  The time covers the
    job, not the check.
    """
    from equicell import cli
    from workloads import Output

    inp, out = job_paths(job, workdir)
    out.unlink(missing_ok=True)
    argv = [a.format(inp=inp, out=out) for a in job.argv]
    stdout = io.StringIO()
    t0 = perf_counter()
    try:
        with time_cap(cap_s), redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            if job.call is not None:
                job.call()
                code = 0
            else:
                code = cli.main(argv)
    except JobTimeout:
        return perf_counter() - t0, "time cap of %gs reached" % cap_s, False
    except SystemExit as exc:   # argparse rejecting the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        return perf_counter() - t0, _reason(exc), False
    seconds = perf_counter() - t0
    if code != 0:
        return seconds, "exit code %s" % code, False
    data = out.read_bytes() if out.exists() else None
    try:
        why = job.check(Output(code, stdout.getvalue(), data))
    except Exception as exc:
        why = "check raised " + _reason(exc)
    return seconds, why, why is not None


def run_pass(workload, workdir: Path, k: int, traced: bool, emit) -> None:
    """One pass over the job set: a closed loop with one client, each job
    sent when the previous one has ended."""
    from layers import Tracer

    tracer = Tracer() if traced else None
    uninstall = tracer.install() if tracer else None
    t0 = perf_counter()
    try:
        for job in workload.jobs:
            s, why, wrong = run_job(job, workdir, workload.cap_s)
            emit({"kind": "job", "pass": k, "traced": traced, "name": job.name,
                  "s": s, "fail": why, "wrong": wrong})
    finally:
        if uninstall is not None:
            uninstall()
    emit({"kind": "pass", "pass": k, "traced": traced, "s": perf_counter() - t0})
    emit({"kind": "end", "pass": k, "traced": traced,
          "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
          "totals": dict(tracer.totals) if tracer else {}})


def setup(name: str, seed: int, workdir: Path):
    """Import the package under test, make the inputs, run the warm-up job."""
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import equicell.cli  # noqa: F401
    import workloads

    if not Path(equicell.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError("equicell imported from %s, not from %s"
                           % (equicell.__file__, SRC))
    workload = workloads.build(name, seed)
    write_inputs(workload.jobs + (workload.warmup,), workdir)
    _, why, _ = run_job(workload.warmup, workdir, workload.cap_s)
    if why is not None:
        raise RuntimeError("warm-up job failed: %s" % why)
    versions = {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__}
    return workload, versions


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass", type=int, required=True, dest="k")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args(argv)

    def emit(record):
        print(json.dumps(record), flush=True)

    workload, versions = setup(args.workload, args.seed, args.workdir)
    emit(dict(kind="setup", s=perf_counter() - T_START, **versions))
    run_pass(workload, args.workdir, args.k, bool(args.trace), emit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
