"""Exit-contract fuzz corpus for the command-line interface.

`corpus()` lists fixed-seed random inputs for all four subcommands:
`equipart` files in both modes, with convex polygons at scales 1e-12 to
1e150 and offsets up to 1e15, clockwise, collinear, duplicate-vertex,
degenerate and non-convex polygons, coincident and far sites, bad `n`,
`tol` and `seed` values, and malformed JSON; `label` files with bad,
non-finite and huge coordinates; `complex` and `obstruction` runs with
huge `n` or `d` and odd EQUICELL_BUDGET values; and last, every subcommand
with an output that cannot be written.  Bad `--seed` and `--tol`
values are ones argparse accepts (a negative seed, a NaN tol); a value
argparse itself refuses ends in its usage message, outside this contract.

`run_case` runs one input in process through `equicell.cli.main`, with
stdout and stderr captured, every warning shown (so it lands on stderr) and
a per-input alarm, and returns the violations of the exit contract:

- the exit code is 0, 1 or 2, and no exception escapes;
- exit 2 prints exactly one `error:` line, nothing on stdout and no
  output file;
- exit 0 prints nothing to stderr, and its JSON output parses;
- `equipart` at exit 0 gives every cell an area within the solve's
  tolerance times A of A/n, A the shoelace area of the input polygon:
  `tol` for `weights`, 1e-11 for `equalize`.

Run `python tests/fuzz.py [count]` to check the first `count` inputs (all
by default); it prints each violation and exits 1 if there is any.  Only
`random` and numpy are used beyond the standard library and equicell.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import signal
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from equicell import cli  # noqa: E402

SEED = 20121
COSTLY_SEED = 20122   # the costlier equalize inputs at the end of the corpus
TINY_TOL_SEED = 20123   # the weights inputs with tol far below the size, after them
TIMEOUT_S = 60
EQUALIZE_SOLVE_TOL = 1e-11   # the tol of every weight solve in the search
ROUNDING = 1e-13             # slack, relative to A, for the area check


@dataclass
class Case:
    """One CLI run.  argv and files may hold `{dir}`, the run's scratch
    directory; files maps names in it to their bytes.  An `equipart` case
    that can exit 0 names its polygon and the tolerance its areas meet."""

    name: str
    argv: list
    files: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    polygon: list | None = None
    area_tol: float | None = None


def _convex(rng: random.Random, k: int, scale: float, offset: float) -> list:
    # k points on a random ellipse, counterclockwise, moved by offset
    a, b = scale, scale * rng.uniform(0.2, 1.0)
    turn = rng.uniform(0, 2 * math.pi)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(k))
    ox, oy = offset * rng.choice((-1, 1)), offset * rng.uniform(-1, 1)
    pts = []
    for t in angles:
        x, y = a * math.cos(t), b * math.sin(t)
        pts.append([ox + x * math.cos(turn) - y * math.sin(turn),
                    oy + x * math.sin(turn) + y * math.cos(turn)])
    return pts


def _variant(rng: random.Random, pts: list) -> tuple[str, list]:
    # the polygon as written in the input file
    kind = rng.choice(("plain", "plain", "clockwise", "collinear", "duplicate"))
    pts = [list(p) for p in pts]
    if kind == "clockwise":
        pts.reverse()
    elif kind == "collinear":
        i = rng.randrange(len(pts))
        p, q = pts[i], pts[(i + 1) % len(pts)]
        pts.insert(i + 1, [(p[0] + q[0]) / 2, (p[1] + q[1]) / 2])
    elif kind == "duplicate":
        i = rng.randrange(len(pts))
        pts.insert(i, list(pts[i]))
    return kind, pts


def _inside(rng: random.Random, pts: list, m: int) -> list:
    # m random convex combinations of the vertices
    out = []
    for _ in range(m):
        w = [rng.random() ** 3 for _ in pts]
        s = sum(w)
        out.append([sum(wi * p[0] for wi, p in zip(w, pts)) / s,
                    sum(wi * p[1] for wi, p in zip(w, pts)) / s])
    return out


def _equipart(name, doc, argv=(), polygon=None, area_tol=None, raw=None):
    text = raw if raw is not None else json.dumps(doc).encode()
    return Case(name, ["equipart", "--input", "{dir}/in.json", *argv],
                {"in.json": text}, polygon=polygon, area_tol=area_tol)


def _with_output(rng: random.Random, case: Case) -> Case:
    # write to a file, to stdout, or (rarely) to a directory that is missing
    r = rng.random()
    if r < 0.5:
        case.argv += ["--output", "{dir}/out.json"]
    elif r < 0.55:
        case.argv += ["--output", "{dir}/missing/out.json"]
    return case


def _weights_case(rng: random.Random, i: int) -> Case:
    scale = 10.0 ** rng.uniform(-12, 150)
    offset = rng.choice((0.0, scale * 10.0 ** rng.uniform(-3, 8),
                         10.0 ** rng.uniform(0, 15)))
    base = _convex(rng, rng.randint(3, 9), scale, offset)
    kind, poly = _variant(rng, base)
    m = rng.choice((1, 2, 3, 5, 8, 13, 21, 34, 55))
    sites = _inside(rng, base, m)
    how = rng.choice(("inside", "inside", "inside", "outside", "coincident", "far"))
    if how == "outside":
        cx, cy = sites[0]
        sites[-1] = [cx + 3 * scale * rng.uniform(-1, 1), cy + 3 * scale]
    elif how == "coincident" and m > 1:
        sites[-1] = list(sites[0])
    elif how == "far":
        sites[-1] = [sites[-1][0] + 10.0 ** rng.uniform(140, 300), sites[-1][1]]
    doc = {"mode": "weights", "polygon": poly, "sites": sites}
    tol = 1e-10
    argv = []
    r = rng.random()
    if r < 0.3:
        tol = rng.choice((1e-6, 1e-8, 1e-12, 1e-30))
        doc["tol"] = tol
    elif r < 0.4:
        tol = rng.choice((1e-4, 1e-9))
        argv = ["--tol", repr(tol)]
    if rng.random() < 0.2:
        argv += ["--format", "csv"]
    case = _equipart("weights-%d-%s-%s" % (i, kind, how), doc, argv,
                     poly, None if "csv" in argv else tol)
    return _with_output(rng, case)


def _equalize_case(rng: random.Random, i: int) -> Case:
    # n = 2 on random polygons and n = 3 on regular ones, with tol and
    # offset relative to the size, since tol bounds an absolute perimeter
    # spread and the printed sites resolve only ulp(offset)
    scale = 10.0 ** rng.uniform(-10, 150)
    offset = rng.choice((0.0, scale * 10.0 ** rng.uniform(-2, 5)))
    n = 2 if rng.random() < 0.6 else 3
    if n == 2:
        base = _convex(rng, rng.randint(3, 8), scale, offset)
    else:
        k, turn = rng.choice((3, 4, 5, 6)), rng.uniform(0, 2 * math.pi)
        base = [[offset + scale * math.cos(turn + 2 * math.pi * j / k),
                 offset + scale * math.sin(turn + 2 * math.pi * j / k)] for j in range(k)]
    kind, poly = _variant(rng, base)
    doc = {"mode": "equalize", "polygon": poly, "n": n,
           "tol": scale * rng.choice((1e-4, 1e-6, 1e-8)), "seed": rng.randrange(4)}
    case = _equipart("equalize-%d-%s-n%d" % (i, kind, n), doc, (), poly,
                     EQUALIZE_SOLVE_TOL)
    return _with_output(rng, case)


def _costly_equalize_case(rng: random.Random, i: int) -> Case:
    # n = 4 to 7 on random polygons, each a search of many Gauss-Newton
    # steps, with tol far below the size
    scale = 10.0 ** rng.uniform(-6, 6)
    offset = rng.choice((0.0, scale * 10.0 ** rng.uniform(-2, 3)))
    n = rng.randint(4, 7)
    kind, poly = _variant(rng, _convex(rng, rng.randint(3, 9), scale, offset))
    doc = {"mode": "equalize", "polygon": poly, "n": n,
           "tol": scale * rng.choice((1e-6, 1e-8)), "seed": rng.randrange(4)}
    case = _equipart("equalize-%d-%s-n%d" % (i, kind, n), doc, (), poly,
                     EQUALIZE_SOLVE_TOL)
    return _with_output(rng, case)


def _tiny_tol_case(rng: random.Random, i: int, scale: float, tol: float) -> Case:
    # 40 interior sites with a tol at or below what the shares' rounding
    # allows: 1e-15 converges, and 1e-17 and 1e-30 end at exit 1 with the
    # unconverged result written
    base = _convex(rng, rng.randint(3, 9), scale, 0.0)
    doc = {"mode": "weights", "polygon": base, "sites": _inside(rng, base, 40), "tol": tol}
    return _equipart("weights-%d-scale%g-tol%g" % (i, scale, tol), doc,
                     ["--output", "{dir}/out.json"], base, tol)


SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
BAD_EQUIPART = [
    ("empty", None, b""),
    ("truncated", None, b'{"mode": "weights", "polygon": [[0, 0], [1, 0'),
    ("not-utf8", None, b"\xff\xfe{}"),
    ("list", [1, 2, 3], None),
    ("no-mode", {"polygon": SQUARE, "n": 2}, None),
    ("bad-mode", {"mode": "areas", "polygon": SQUARE, "n": 2}, None),
    ("two-vertices", {"mode": "equalize", "polygon": [[0, 0], [1, 0]], "n": 2}, None),
    ("string-vertex", {"mode": "equalize", "polygon": [[0, 0], [1, "0"], [0, 1]], "n": 2}, None),
    ("bool-vertex", {"mode": "equalize", "polygon": [[0, 0], [1, True], [0, 1]], "n": 2}, None),
    ("nan-vertex", None, b'{"mode": "equalize", "polygon": [[0, 0], [1, NaN], [0, 1]], "n": 2}'),
    ("inf-vertex", None, b'{"mode": "equalize", "polygon": [[0, 0], [Infinity, 0], [0, 1]], "n": 2}'),
    ("huge-int-vertex", {"mode": "equalize", "polygon": [[0, 0], [10 ** 400, 0], [0, 1]], "n": 2}, None),
    ("collinear-only", {"mode": "weights", "polygon": [[0, 0], [1, 1], [2, 2]],
                        "sites": [[0, 0]]}, None),
    ("non-convex", {"mode": "equalize", "polygon": [[0, 0], [2, 0], [1, 0.2], [2, 2], [0, 2]],
                    "n": 2}, None),
    ("n-true", {"mode": "equalize", "polygon": SQUARE, "n": True}, None),
    ("n-one", {"mode": "equalize", "polygon": SQUARE, "n": 1}, None),
    ("n-negative", {"mode": "equalize", "polygon": SQUARE, "n": -5}, None),
    ("n-float", {"mode": "equalize", "polygon": SQUARE, "n": 2.5}, None),
    ("n-string", {"mode": "equalize", "polygon": SQUARE, "n": "3"}, None),
    ("n-huge", {"mode": "equalize", "polygon": SQUARE, "n": 10 ** 30}, None),
    ("n-over-budget", {"mode": "equalize", "polygon": SQUARE, "n": 200}, None),
    ("tol-true", {"mode": "equalize", "polygon": SQUARE, "n": 2, "tol": True}, None),
    ("tol-string", {"mode": "equalize", "polygon": SQUARE, "n": 2, "tol": "1e-6"}, None),
    ("tol-zero", {"mode": "weights", "polygon": SQUARE, "sites": [[0.2, 0.2], [0.7, 0.6]],
                  "tol": 0}, None),
    ("tol-negative", {"mode": "weights", "polygon": SQUARE, "sites": [[0.2, 0.2]],
                      "tol": -1e-6}, None),
    ("tol-huge-int", {"mode": "equalize", "polygon": SQUARE, "n": 2, "tol": 10 ** 400}, None),
    ("tol-nan", None, b'{"mode": "equalize", "polygon": [[0,0],[1,0],[1,1],[0,1]], "n": 2, "tol": NaN}'),
    ("tol-inf", None, b'{"mode": "weights", "polygon": [[0,0],[1,0],[1,1],[0,1]],'
                      b' "sites": [[0.2, 0.2]], "tol": Infinity}'),
    ("seed-negative", {"mode": "equalize", "polygon": SQUARE, "n": 2, "seed": -1}, None),
    ("seed-float", {"mode": "equalize", "polygon": SQUARE, "n": 2, "seed": 1.5}, None),
    ("seed-bool", {"mode": "equalize", "polygon": SQUARE, "n": 2, "seed": False}, None),
    ("no-sites", {"mode": "weights", "polygon": SQUARE}, None),
    ("empty-sites", {"mode": "weights", "polygon": SQUARE, "sites": []}, None),
    ("flat-sites", {"mode": "weights", "polygon": SQUARE, "sites": [0.2, 0.3]}, None),
    ("string-site", {"mode": "weights", "polygon": SQUARE, "sites": [[0.2, "a"]]}, None),
    ("nan-site", None, b'{"mode": "weights", "polygon": [[0,0],[1,0],[1,1],[0,1]],'
                       b' "sites": [[0.2, 0.2], [NaN, 0.5]]}'),
    ("huge-int-site", {"mode": "weights", "polygon": SQUARE,
                       "sites": [[0.2, 0.2], [10 ** 400, 0.5]]}, None),
]
BAD_FLAGS = [["--tol", "nan"], ["--tol", "inf"], ["--tol", "-1"], ["--tol", "0"],
             ["--tol", "1e-400"], ["--seed", "-1"], ["--seed", "-99999999999999999999"]]


def _bad_equipart_cases() -> list:
    cases = [_equipart("bad-" + name, doc, raw=raw) for name, doc, raw in BAD_EQUIPART]
    for flags in BAD_FLAGS:
        cases.append(_equipart("flag" + "".join(flags), {"mode": "equalize",
                                                          "polygon": SQUARE, "n": 2},
                               flags))
    return cases


def _label_case(rng: random.Random, i: int) -> Case:
    d, n = rng.randint(1, 4), rng.randint(1, 8)
    grid = rng.choice((1, 3, 1000))   # few values: many ties
    pts = [[rng.randrange(grid) * rng.choice((1, 0.5, 1e-300, 1e300)) for _ in range(d)]
           for _ in range(n)]
    raw = None
    how = rng.choice(("plain", "plain", "plain", "nan", "inf", "string", "bool",
                      "ragged", "huge", "empty", "not-list"))
    if how in ("nan", "inf"):
        # the first number in the text is pts[0][0]
        raw = json.dumps({"points": pts}).replace(
            json.dumps(pts[0][0]), "NaN" if how == "nan" else "-Infinity", 1).encode()
    elif how == "string":
        pts[-1][0] = "1"
    elif how == "bool":
        pts[0][-1] = True
    elif how == "ragged":
        pts[-1].append(0)
    elif how == "huge":
        pts[0][0] = 10 ** 400
    elif how == "empty":
        pts = []
    elif how == "not-list":
        pts = {"x": 1}
    text = raw if raw is not None else json.dumps({"points": pts}).encode()
    case = Case("label-%d-%s" % (i, how), ["label", "--input", "{dir}/pts.json"],
                {"pts.json": text})
    if rng.random() < 0.5:
        case.argv += ["--output", "{dir}/out.json"]
    return case


BUDGETS = ("0", "1", "-1", "abc", "", "1e6", " 77 ", "99999999999999999999999999", "2.5")


def _complex_case(rng: random.Random, i: int) -> Case:
    kind = rng.choice(("complement", "stratification"))
    d, n = rng.choice(((2, 3), (1, 4), (3, 3), (2, 2048), (4000000, 2), (1, 10 ** 6),
                       (10 ** 18, 10 ** 18), (0, 3), (2, 1), (2, -4), (3, 7)))
    env = {"EQUICELL_BUDGET": rng.choice(BUDGETS)} if rng.random() < 0.5 else {}
    if (d, n) == (3, 7):
        # its 3,674,160 cell labels fit the default budget, and its covers
        # would take gigabytes under a huge one
        kind, env = "complement", {}
    argv = ["complex", "--d", str(d), "--n", str(n), "--kind", kind]
    if rng.random() < 0.5:
        argv += ["--format", rng.choice(("json", "csv")), "--output", "{dir}/out.txt"]
    return Case("complex-%d-d%d-n%d" % (i, min(d, 99), min(n, 99)), argv, env=env)


def _obstruction_case(rng: random.Random, i: int) -> Case:
    n = rng.choice((2, 6, 8, 12, 18, 40, 2 ** 61 - 1, 10 ** 40 + 1, 1, 0, -7))
    d = rng.choice((2, 3, 1, 10 ** 9))
    argv = ["obstruction", "--n", str(n), "--d", str(d)]
    if rng.random() < 0.5:
        argv.append("--verify")
    if rng.random() < 0.5:
        argv += ["--output", "{dir}/out.json"]
    env = {"EQUICELL_BUDGET": rng.choice(BUDGETS)} if n > 100 or rng.random() < 0.5 else {}
    if n > 100 and env["EQUICELL_BUDGET"] in ("99999999999999999999999999", ""):
        env["EQUICELL_BUDGET"] = "1000"   # factoring a huge prime is the budget's job
    return Case("obstruction-%d-n%d" % (i, min(n, 10 ** 6)), argv, env=env)


UNWRITABLE = {   # argv of each subcommand, and its input file's contents
    "complex": (["complex", "--d", "2", "--n", "3"], {}),
    "obstruction": (["obstruction", "--n", "6", "--verify"], {}),
    "label": (["label", "--input", "{dir}/in.json"], {"points": [[0, 0], [1, 0], [0, 1]]}),
    "equipart": (["equipart", "--input", "{dir}/in.json"],
                 {"mode": "weights", "polygon": SQUARE, "sites": [[0.25, 0.5], [0.6, 0.5]]}),
}


def _unwritable_cases() -> list:
    # every subcommand with its --output under a regular file, at an existing
    # directory and in a missing one; then an SVG that cannot be written,
    # beside a good --output and beside JSON on stdout
    cases = []
    for command, (argv, doc) in UNWRITABLE.items():
        for where, path in (("under-a-file", "{dir}/in.json/out"), ("at-a-directory", "{dir}"),
                            ("in-a-missing-directory", "{dir}/missing/out")):
            cases.append(Case("unwritable-%s-output-%s" % (command, where),
                              argv + ["--output", path], {"in.json": json.dumps(doc).encode()}))
    argv, doc = UNWRITABLE["equipart"]
    for name, more in (("beside-output", ["--output", "{dir}/out.json"]), ("beside-stdout", [])):
        cases.append(Case("unwritable-equipart-svg-" + name,
                          argv + more + ["--svg", "{dir}/missing/out.svg"],
                          {"in.json": json.dumps(doc).encode()}))
    return cases


def corpus(seed: int = SEED) -> list:
    """The fixed corpus: interleaved random cases of every kind with the
    hand-written bad `equipart` inputs and flags among them, then costlier
    `equalize` searches drawn from their own seed, so that adding them
    changed none of the inputs before, a named past failure, the outputs
    that cannot be written, and `weights` inputs whose tol is far below the
    polygon's size, again from their own seed."""
    rng = random.Random(seed)
    makers = (_weights_case, _weights_case, _weights_case, _equalize_case,
              _label_case, _label_case, _complex_case, _obstruction_case)
    cases = [makers[i % len(makers)](rng, i) for i in range(260)]
    bad = _bad_equipart_cases()
    # spread the hand-written cases through the corpus, so a slice holds some
    for k, case in enumerate(bad):
        cases.insert(7 * k + 3, case)
    costly = random.Random(COSTLY_SEED)
    cases += [_costly_equalize_case(costly, len(cases) + k) for k in range(16)]
    # inputs that once failed, by name: the equalize Jacobian took its
    # vertices from the absolute cells, and on a square 1e10 out two of
    # them coincided (ZeroDivisionError)
    far = [[1e10, 1e10], [10000000001, 1e10], [10000000001, 10000000001],
           [1e10, 10000000001]]
    cases.append(_equipart("equalize-far-square-n5", {
        "mode": "equalize", "polygon": far, "n": 5, "seed": 0, "tol": 1e-6},
        (), far, EQUALIZE_SOLVE_TOL))
    cases += _unwritable_cases()
    tiny = random.Random(TINY_TOL_SEED)
    for scale in (1.0, 1e6):
        for tol in (1e-15, 1e-17, 1e-30):
            cases.append(_tiny_tol_case(tiny, len(cases), scale, tol))
    return cases


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def _area(polygon) -> float:
    # shoelace in the frame of the first vertex, either winding
    (ox, oy), m = polygon[0], len(polygon)
    pts = [(x - ox, y - oy) for x, y in polygon]
    return abs(sum(pts[i][0] * pts[(i + 1) % m][1] - pts[(i + 1) % m][0] * pts[i][1]
                   for i in range(m))) / 2


def run_case(case: Case, timeout: int = TIMEOUT_S) -> list[str]:
    """The violations of the exit contract by one run of `case`."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in case.files.items():
            Path(tmp, name).write_bytes(data)
        argv = [a.replace("{dir}", tmp) for a in case.argv]
        outputs = [a for a in argv if a.startswith(tmp) and a not in
                   [str(Path(tmp, name)) for name in case.files]]
        saved = {k: os.environ.get(k) for k in case.env}
        os.environ.update(case.env)
        out, err = io.StringIO(), io.StringIO()
        old = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(timeout)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("always")
                code = cli.main(argv)
        except _Timeout:
            return ["no exit within %d s" % timeout]
        except BaseException as e:   # noqa: BLE001 - any escape is a violation
            return ["%s escaped: %s" % (type(e).__name__, e)]
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        return _check(case, code, out.getvalue(), err.getvalue(), outputs)


def _check(case, code, stdout, stderr, outputs) -> list[str]:
    bad = []
    if code not in (0, 1, 2):
        return ["exit code %r" % (code,)]
    written = [p for p in outputs if Path(p).is_file()]
    lines = stderr.splitlines()
    if code == 2:
        if len(lines) != 1 or not lines[0].startswith("error: "):
            bad.append("exit 2 with stderr %r" % stderr[:300])
        if stdout:
            bad.append("exit 2 with stdout %r" % stdout[:300])
        if written:
            bad.append("exit 2 wrote %s" % written)
    if code != 0:
        return bad
    if stderr:
        bad.append("exit 0 with stderr %r" % stderr[:300])
    csv = "csv" in case.argv
    texts = [Path(p).read_text() for p in written if not csv]
    if case.argv[0] == "equipart" and not csv and not written:
        texts.append(stdout)
    docs = []
    for text in texts:
        try:
            docs.append(json.loads(text))
        except ValueError as e:
            bad.append("exit 0 wrote JSON that does not parse: %s" % e)
    if case.area_tol is not None:
        area = _area(case.polygon)
        for doc in docs:
            areas = np.array(doc["areas"])
            dev = float(np.abs(areas - area / len(areas)).max())
            if not dev <= (case.area_tol + ROUNDING) * area:
                bad.append("an area is %.3g * A from A/n, over tol %g"
                           % (dev / area, case.area_tol))
    return bad


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    cases = corpus()[:int(args[0])] if args else corpus()
    failed = 0
    start = time.perf_counter()
    for case in cases:
        t0 = time.perf_counter()
        bad = run_case(case)
        dt = time.perf_counter() - t0
        if bad:
            failed += 1
            print("FAIL %s (%.2f s): %s" % (case.name, dt, "; ".join(bad)))
    print("%d inputs, %d with violations, %.1f s"
          % (len(cases), failed, time.perf_counter() - start))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
