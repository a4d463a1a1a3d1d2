"""The benchmark's workloads: which jobs each runs and how each output is checked.

A job is one user request to equicell: a CLI invocation run in process through
`equicell.cli.main`, or one library call.  Inputs come from the workload seed
only; the program sees nothing but the generated files and arguments.

This module does not import equicell, so the benchmark driver can read the
workload and metric tables before the package under test is located.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

QUADRILATERAL = ((0.0, 0.0), (2.0, 0.0), (1.6, 1.1), (0.2, 0.8))
PENTAGON = ((0.0, 0.0), (1.8, 0.1), (2.2, 1.0), (1.0, 1.9), (-0.3, 1.1))
TRIANGLE = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))

EQUALIZE_TOL = 1e-6
WEIGHTS_TOL = 1e-10

# name -> (unit, better); the order is the order of the printed table.  The
# median job time is printed but not among these: on equalize the median job
# takes under a second, and its spread between runs on a 2-core VM reached
# 37%, above the largest bound a gated metric may have.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "job_s.max": ("s", "lower"),
    "ok_frac": ("frac", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "labels.enumerate_s": ("s", "lower"),
    "labels.count": ("count", "lower"),
    "poset.face_matrix_s": ("s", "lower"),
    "poset.face_pairs": ("count", "lower"),
    "poset.covers": ("count", "higher"),
    "poset.cover_yield": ("covers/pair", "higher"),
    "poset.self_s": ("s", "lower"),
    "poset.validate_s": ("s", "lower"),
    "obstruction.incidence_s": ("s", "lower"),
    "obstruction.coboundary_s": ("s", "lower"),
    "obstruction.report_s": ("s", "lower"),
    "obstruction.witness_bits": ("bits", "lower"),
    "equalize.self_s": ("s", "lower"),
    "equalize.evals": ("count", "lower"),
    "weights.solves": ("count", "lower"),
    "weights.self_s": ("s", "lower"),
    "weights.builds_per_solve": ("builds/solve", "lower"),
    "powerdiagram.builds": ("count", "lower"),
    "powerdiagram.build_s": ("s", "lower"),
    "geometry.clips_per_build": ("clips/build", "lower"),
    "jsonio.dumps_s": ("s", "lower"),
    "jsonio.bytes": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


@dataclass(frozen=True)
class Output:
    """What a job left behind: its exit code, stdout and --output file."""

    code: int
    stdout: str
    data: bytes | None


@dataclass(frozen=True)
class Job:
    """One request.  In argv, "{inp}" and "{out}" name the job's own files.

    check runs only on exit code 0 and returns why the output is wrong, or
    None.  call, when set, replaces the CLI invocation by a library call.
    """

    name: str
    check: Callable[[Output], str | None]
    argv: tuple[str, ...] = ()
    problem: dict | None = None
    call: Callable[[], None] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    warmup: Job
    cap_s: float  # per-job time cap; a job that reaches it fails


def output_digest(out: Output) -> str:
    h = hashlib.sha256(out.stdout.encode())
    h.update(b"\0")
    h.update(out.data if out.data is not None else b"")
    return h.hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def digest_check(name: str, digests: dict[str, str]) -> Callable[[Output], str | None]:
    """Outputs must be byte-identical to those recorded for this job."""
    want = digests.get(name)

    def check(out: Output) -> str | None:
        if want is None:
            return "no recorded digest for %s" % name
        got = output_digest(out)
        return None if got == want else "digest %s != recorded %s" % (got[:12], want[:12])
    return check


def _area(poly) -> float:
    return 0.5 * abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
                         in zip(poly, poly[1:] + poly[:1])))


def partition_check(polygon, n: int, tol: float,
                    equal_perimeters: bool) -> Callable[[Output], str | None]:
    """equipart output: converged, n nonempty cells of area A/n within tol*A,
    and for equalize mode a perimeter spread within tol."""
    A = _area(list(polygon))

    def check(out: Output) -> str | None:
        try:
            res = json.loads(out.data)
        except (TypeError, ValueError):
            return "no readable JSON output"
        if res.get("converged") is not True:
            return "converged is not true"
        areas = res.get("areas", [])
        if len(areas) != n or any(c is None for c in res.get("cells", [None])):
            return "expected %d nonempty cells" % n
        worst = max(abs(a - A / n) for a in areas)
        if not worst <= tol * A:
            return "area error %.3e exceeds tol*A" % worst
        if equal_perimeters and not res.get("spread", float("inf")) <= tol:
            return "perimeter spread %r exceeds tol" % res.get("spread")
        return None
    return check


def _equipart(name, problem, tol, check, *extra) -> Job:
    argv = ("equipart", "--input", "{inp}", "--output", "{out}", "--tol", repr(tol)) + extra
    return Job(name=name, argv=argv, problem=problem, check=check)


def equalize_job(name, polygon, n, seed) -> Job:
    problem = {"mode": "equalize", "polygon": [list(v) for v in polygon], "n": n}
    return _equipart(name, problem, EQUALIZE_TOL,
                     partition_check(polygon, n, EQUALIZE_TOL, True), "--seed", str(seed))


def weights_job(name, polygon, sites) -> Job:
    problem = {"mode": "weights", "polygon": [list(v) for v in polygon],
               "sites": [list(p) for p in sites]}
    return _equipart(name, problem, WEIGHTS_TOL,
                     partition_check(polygon, len(sites), WEIGHTS_TOL, False))


def _inside(polygon, p) -> bool:
    # counterclockwise convex polygon: p is strictly left of every edge
    return all((x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0) > 0
               for (x0, y0), (x1, y1) in zip(polygon, polygon[1:] + polygon[:1]))


def spread_sites(polygon, n, rng, grow=0.0, interior=True):
    """n points by jittered-grid sampling of the polygon's bounding box grown
    by `grow`: one uniform point in each of n cells of a k x k grid taken in
    random order, skipping points outside the polygon when `interior`.

    Every seed gives an equally spread set, so solves cost about the same
    from seed to seed; independent uniform points make the Newton and rescue
    step counts vary by up to a factor of five (44 to 217 builds for the
    half-outside set).
    """
    xs = [v[0] for v in polygon]
    ys = [v[1] for v in polygon]
    x0, y0 = min(xs) - grow, min(ys) - grow
    w, h = max(xs) + grow - x0, max(ys) + grow - y0
    k = math.isqrt(n - 1) + 1
    while True:
        cells = [(i, j) for i in range(k) for j in range(k)]
        rng.shuffle(cells)
        out = []
        for i, j in cells:
            p = (x0 + (i + rng.random()) * w / k, y0 + (j + rng.random()) * h / k)
            if not interior or _inside(polygon, p):
                out.append(p)
                if len(out) == n:
                    return out
        k += 1


# CLI jobs of the complex workload, whose outputs are checked by digest
COMPLEX_CLI = {
    "complex-d2-n5": ("complex", "--d", "2", "--n", "5", "--output", "{out}"),
    "complex-d3-n5": ("complex", "--d", "3", "--n", "5", "--output", "{out}"),
    "complex-d4-n4": ("complex", "--d", "4", "--n", "4", "--output", "{out}"),
    "strata-d2-n5": ("complex", "--kind", "stratification", "--d", "2", "--n", "5",
                     "--output", "{out}"),
    "strata-d1-n6": ("complex", "--kind", "stratification", "--d", "1", "--n", "6",
                     "--output", "{out}"),
    "obstruction-n6-verify": ("obstruction", "--n", "6", "--verify"),
    "obstruction-n5-verify": ("obstruction", "--n", "5", "--verify"),
    "obstruction-n6000": ("obstruction", "--n", "6000"),
}


def _validate_covers_d2_n4() -> None:
    from equicell import poset
    poset.validate_covers(poset.enumerate_cells(2, 4))


def complex_workload(digests: dict[str, str]) -> Workload:
    """Fixed (d, n) problems: the seed does not change them.  Job order is
    fixed too, since the first job of a process pays first-use costs."""
    jobs = [Job(name=name, argv=argv, check=digest_check(name, digests))
            for name, argv in COMPLEX_CLI.items()]
    # validate_covers raises on any disagreement, so returning is the check
    jobs.append(Job(name="validate-covers-d2-n4", call=_validate_covers_d2_n4,
                    check=lambda out: None))
    warmup = Job(name="warmup", argv=("complex", "--d", "2", "--n", "3"),
                 check=lambda out: None if "checks=ok" in out.stdout else "checks failed")
    return Workload("complex", tuple(jobs), warmup, cap_s=30.0)


EQUALIZE_CASES = ([("quad", QUADRILATERAL, n) for n in (2, 3, 4)]
                  + [("pentagon", PENTAGON, n) for n in (2, 3, 4, 5, 6)]
                  + [("triangle", TRIANGLE, 3)])


def equalize_workload(seed: int) -> Workload:
    jobs = [equalize_job("%s-n%d" % (shape, n), poly, n, seed)
            for shape, poly, n in EQUALIZE_CASES]
    warmup = equalize_job("warmup", TRIANGLE, 2, seed)
    # the slowest converging case takes about 3 s; the quadrilateral at n = 3
    # searches for about 37 s without converging, so it reaches the cap
    return Workload("equalize", tuple(jobs), warmup, cap_s=6.0)


# (name, site count, bounding-box growth, interior only); growing the box by
# 0.15 puts about half of the sites outside the pentagon.  A solve's step
# count varies with the site set, so each size but the smallest has more than
# one job or a like-sized partner: the median job is an n = 150 solve, and the
# slowest is one of three solves of about the same cost.
WEIGHTS_CASES = (
    ("interior-n50", 50, 0.0, True),
    *(("interior-n150-%d" % i, 150, 0.0, True) for i in range(4)),
    *(("interior-n300-%d" % i, 300, 0.0, True) for i in range(2)),
    ("half-outside-n100", 100, 0.15, False),
)


def weights_workload(seed: int) -> Workload:
    rng = random.Random(seed)
    jobs = [weights_job(name, PENTAGON, spread_sites(PENTAGON, n, rng, grow, interior))
            for name, n, grow, interior in WEIGHTS_CASES]
    warmup = weights_job("warmup", PENTAGON, spread_sites(PENTAGON, 8, rng))
    return Workload("weights", tuple(jobs), warmup, cap_s=30.0)


WORKLOADS = ("complex", "equalize", "weights")


def build(name: str, seed: int) -> Workload:
    if name == "complex":
        return complex_workload(load_digests())
    if name == "equalize":
        return equalize_workload(seed)
    if name == "weights":
        return weights_workload(seed)
    raise ValueError("unknown workload %r" % name)
