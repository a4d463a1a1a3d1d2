"""Command-line front end.

Subcommands: complex (enumerate a cell or stratum poset and validate its
counts), obstruction (run the map-existence decision), equipart (equal-area /
equal-perimeter decompositions of a convex polygon), label (classify a point
configuration).  Exit codes: 0 success, 1 failed internal check or
non-convergence, 2 malformed input, enumeration budget exceeded or an output
file or stdout that cannot be written.  Outputs are written only after all
computation succeeds, and every output file before stdout (see _emit): an
exit 2 prints one `error:` line, nothing on stdout and no file, and
identical invocations produce identical bytes.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import contextmanager
from itertools import chain
from math import factorial
from pathlib import Path

from . import jsonio
from .equalize import EqualizeError, equalize_perimeters
from .geometry import ConvexPolygon, check_cell_area
from .labels import fox_neuwirth_label
from .obstruction import (expected_incidence_row, facet_ridge_class_counts,
                          obstruction_report)
from .poset import (BudgetExceededError, KIND_COMPLEMENT, KIND_STRATIFICATION, charge,
                    enumerate_cells, euler_characteristic, f_vector, poset_csv_chunks,
                    poset_json_chunks)
from .powerdiagram import perimeter_spread
from .svgout import render_power_diagram_svg
from .weights import WeightSolveError, check_tol, solve_equal_measure_weights

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_INPUT = 2


def _fail(msg: str, code: int) -> int:
    print("error: %s" % msg, file=sys.stderr)
    return code


class OutputError(Exception):
    """An output file could not be written."""


def _emit(stdout, files=()):
    """Write a run's outputs: stdout, an iterable of string chunks, and files,
    (path, text) pairs with text a string or an iterable of chunks.  Each file
    is first written whole to a temp file beside it; if one cannot be, the
    temps made so far are removed and OutputError is raised before stdout is
    touched.  Then stdout is written and flushed, so that a closed stdout
    fails here under any buffering, then each device or pipe named, such as
    /dev/stdout, directly, and last each temp is renamed over its target
    (through a symlink, the file it names)."""
    temps, devices = [], []
    try:
        for k, (path, text) in enumerate(files):
            chunks = [text] if isinstance(text, str) else text
            target = Path(path)
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if target.exists() and not target.is_file():
                devices.append((path, chunks))
                continue
            target = target.resolve()
            tmp = target.with_name(".%s.%d.%d.tmp" % (target.name, os.getpid(), k))
            with open(tmp, "x") as f:
                temps.append((path, tmp, target))
                f.writelines(chunks)
        path = None   # an error writing stdout is main's to report
        sys.stdout.writelines(stdout)
        sys.stdout.flush()
        for path, chunks in devices:
            with open(path, "w") as f:
                f.writelines(chunks)
        for path, tmp, target in temps:
            os.replace(tmp, target)
    except BaseException as e:
        for _, tmp, _ in temps:
            tmp.unlink(missing_ok=True)
        if isinstance(e, OSError) and path is not None:
            raise OutputError("cannot write %s: %s" % (path, e.strerror or e)) from None
        raise


def cmd_complex(args) -> int:
    try:
        poset = enumerate_cells(args.d, args.n, args.kind, budget=args.budget)
    except (BudgetExceededError, ValueError) as e:
        return _fail(str(e), EXIT_INPUT)
    fv = poset.f_vector()
    chi = poset.euler_characteristic()
    if args.kind == KIND_COMPLEMENT:
        ok = (fv == f_vector(args.d, args.n)
              and chi == euler_characteristic(args.d, args.n))
    else:
        ok = fv[0] == 1 and fv[-1] == factorial(args.n)
    stdout = ["kind=%s d=%d n=%d\n" % (args.kind, args.d, args.n),
              "elements=%d covers=%d\n" % (len(poset.labels), len(poset.covers)),
              "f_vector=%s\n" % (fv,),
              "euler_characteristic=%d\n" % chi,
              "checks=%s\n" % ("ok" if ok else "FAILED")]
    write = poset_json_chunks if args.format == "json" else poset_csv_chunks
    if args.output is not None:
        _emit(stdout, [(args.output, write(poset))])
    else:  # CSV goes to stdout, JSON only to a file
        _emit(chain(stdout, write(poset)) if args.format == "csv" else stdout)
    return EXIT_OK if ok else EXIT_CHECK


@contextmanager
def _int_digits_unlimited():
    """Lift the int-to-str digit limit (Python 3.11 on), which a witness entry
    can exceed, inside the block only: parsing input keeps the limit."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def cmd_obstruction(args) -> int:
    try:
        rep = obstruction_report(args.d, args.n, budget=args.budget)
        counts = (facet_ridge_class_counts(args.d, args.n, args.budget).tolist()
                  if args.verify else None)
    except (BudgetExceededError, ValueError) as e:
        return _fail(str(e), EXIT_INPUT)
    stdout = ["n=%d d=%d gcd=%d group=%s map_exists=%s\n"
              % (rep.n, rep.d, rep.gcd, rep.group, rep.map_exists)]
    out = {
        "d": rep.d,
        "n": rep.n,
        "gcd": rep.gcd,
        "prime_power": ({"p": rep.prime_power[0], "k": rep.prime_power[1]}
                        if rep.prime_power else None),
        "group": rep.group,
        "map_exists": rep.map_exists,
        "witness": list(rep.witness.values) if rep.witness else None,
    }
    with _int_digits_unlimited():
        if rep.witness is not None:
            stdout.append("witness=%s\n" % (rep.witness.values,))
        files = [] if args.output is None else [(args.output, jsonio.dumps(out))]
    failed = None
    if counts is not None:  # one facet's row stands for all (obstruction docstring)
        if tuple(counts) != expected_incidence_row(args.n):
            failed = "incidence"
        elif rep.witness is not None and sum(
                c * x for c, x in zip(counts, rep.witness.values)) != 1:
            failed = "coboundary"
        stdout.append("verify=%s\n" % ("ok" if failed is None else "FAILED"))
    _emit(stdout, files)
    if failed:
        print("%s check FAILED" % failed, file=sys.stderr)
    return EXIT_CHECK if failed else EXIT_OK


def _number(v) -> float:
    # a coordinate must be a JSON number: float() also takes true and "0.2"
    if type(v) not in (int, float):
        raise ValueError("coordinates must be numbers, not %s" % type(v).__name__)
    return float(v)


def _load_polygon(data) -> ConvexPolygon:
    verts = data.get("polygon")
    if (not isinstance(verts, list) or len(verts) < 3
            or any(not isinstance(v, list) or len(v) != 2 for v in verts)):
        raise ValueError("polygon must be a list of [x, y] pairs")
    return ConvexPolygon(tuple((_number(x), _number(y)) for x, y in verts))


def _diagram_payload(diag, iterations, converged) -> dict:
    # every diagram a solve returns or raises with has every cell nonempty
    return {
        "sites": [list(p) for p in diag.sites.points],
        "weights": list(diag.weights),
        "cells": [([list(v) for v in c] if c is not None else None) for c in diag.cells],
        "areas": list(diag.areas),
        "perimeters": list(diag.perimeters),
        "spread": perimeter_spread(diag),
        "iterations": iterations,
        "converged": converged,
    }


def _payload_csv(payload) -> str:
    rows = ["index,site_x,site_y,weight,area,perimeter"]
    for i, site in enumerate(payload["sites"]):
        rows.append(",".join([str(i)] + [json.dumps(v, allow_nan=False) for v in (
            site[0], site[1], payload["weights"][i],
            payload["areas"][i], payload["perimeters"][i])]))
    return "\n".join(rows) + "\n"


def cmd_equipart(args) -> int:
    try:
        data = json.loads(Path(args.input).read_text())
    except (OSError, ValueError) as e:  # ValueError: bad JSON or UTF-8
        return _fail("cannot read input: %s" % e, EXIT_INPUT)
    if not isinstance(data, dict):
        return _fail("input must be a JSON object", EXIT_INPUT)
    mode = data.get("mode")
    if mode not in ("weights", "equalize"):
        return _fail("mode must be 'weights' or 'equalize'", EXIT_INPUT)
    try:
        polygon = _load_polygon(data)
    except (ValueError, OverflowError) as e:
        return _fail("bad polygon: %s" % e, EXIT_INPUT)
    # a flag overrides the input file, which overrides the mode's default
    seed = args.seed if args.seed is not None else data.get("seed", 0)
    if type(seed) is not int or seed < 0:
        return _fail("seed must be a non-negative integer", EXIT_INPUT)
    tol = args.tol if args.tol is not None else data.get(
        "tol", 1e-10 if mode == "weights" else 1e-6)
    try:
        check_tol(tol)
    except ValueError as e:
        return _fail(str(e), EXIT_INPUT)

    if mode == "weights":
        raw = data.get("sites")
        if (not isinstance(raw, list) or not raw
                or any(not isinstance(v, list) or len(v) != 2 for v in raw)):
            return _fail("mode 'weights' needs sites, a list of [x, y] pairs", EXIT_INPUT)
        nparts = len(raw)
    else:
        nparts = data.get("n")
        if not isinstance(nparts, int) or nparts < 2:
            return _fail("mode 'equalize' needs integer n >= 2", EXIT_INPUT)
    try:
        with _int_digits_unlimited():  # n may have as many digits as JSON allows
            task = "%s with n=%d" % (mode, nparts)
            limit = charge(None, task, "site pairs per power-diagram build",
                           nparts * (nparts - 1))
            if mode == "equalize":  # least squares on the (n-1) x (2n-3) Jacobian
                charge(limit, task, "multiply-adds per Gauss-Newton step",
                       nparts * (nparts - 1) * (2 * nparts - 3))
        check_cell_area(polygon, nparts)
    except (BudgetExceededError, ValueError) as e:
        return _fail(str(e), EXIT_INPUT)

    if mode == "weights":
        try:
            sites = tuple((_number(x), _number(y)) for x, y in raw)
            diag, iters = solve_equal_measure_weights(polygon, sites, tol=tol)
            converged = True
        except WeightSolveError as e:
            diag, iters, converged = e.diagram, e.iterations, False
        except (ValueError, TypeError, OverflowError) as e:
            return _fail("bad sites: %s" % e, EXIT_INPUT)
    else:
        try:
            result = equalize_perimeters(polygon, nparts, tol=tol, seed=seed)
        except EqualizeError as e:
            return _fail(str(e), EXIT_CHECK)
        diag, iters, converged = result.diagram, result.evaluations, result.converged

    payload = _diagram_payload(diag, iters, converged)
    text = jsonio.dumps(payload) if args.format == "json" else _payload_csv(payload)
    files = [] if args.output is None else [(args.output, text)]
    if args.svg is not None:
        files.append((args.svg, render_power_diagram_svg(diag)))
    _emit([text] if args.output is None else [], files)
    return EXIT_OK if converged else EXIT_CHECK


def cmd_label(args) -> int:
    try:
        data = json.loads(Path(args.input).read_text())
    except (OSError, ValueError) as e:  # ValueError: bad JSON or UTF-8
        return _fail("cannot read input: %s" % e, EXIT_INPUT)
    pts = data.get("points") if isinstance(data, dict) else None
    if (not isinstance(pts, list) or not pts
            or any(not isinstance(p, list) or not p for p in pts)):
        return _fail("input needs a nonempty 'points' list of coordinate lists",
                     EXIT_INPUT)
    try:
        lab = fox_neuwirth_label(tuple(tuple(_number(v) for v in p) for p in pts))
    except (ValueError, TypeError, OverflowError) as e:
        return _fail("bad points: %s" % e, EXIT_INPUT)
    out = {
        "label": lab.to_string(),
        "sigma": list(lab.sigma),
        "seps": list(lab.seps),
        "d": lab.d,
        "n": lab.n,
    }
    _emit([lab.to_string() + "\n"], [] if args.output is None
          else [(args.output, jsonio.dumps(out))])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="equicell")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("complex", help="enumerate a poset and validate counts")
    pc.add_argument("--d", type=int, required=True)
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--kind", choices=(KIND_COMPLEMENT, KIND_STRATIFICATION),
                    default=KIND_COMPLEMENT)
    pc.add_argument("--format", choices=("json", "csv"), default="json")
    pc.add_argument("--budget", type=int, default=None,
                    help="budget on labels and covers (or set EQUICELL_BUDGET)")
    pc.add_argument("--output", default=None)
    pc.set_defaults(func=cmd_complex)

    po = sub.add_parser("obstruction", help="run the map-existence decision")
    po.add_argument("--n", type=int, required=True)
    po.add_argument("--d", type=int, default=2)
    po.add_argument("--verify", action="store_true",
                    help="re-check incidences and the coboundary on the complex")
    po.add_argument("--budget", type=int, default=None,
                    help="budget on trial divisions, witness entries and, with"
                         " --verify, ridge row entries (or set EQUICELL_BUDGET)")
    po.add_argument("--output", default=None)
    po.set_defaults(func=cmd_obstruction)

    pe = sub.add_parser("equipart", help="equal-area (and equal-perimeter) cells")
    pe.add_argument("--input", required=True)
    pe.add_argument("--output", default=None)
    pe.add_argument("--svg", default=None)
    pe.add_argument("--format", choices=("json", "csv"), default="json")
    pe.add_argument("--tol", type=float, default=None)
    pe.add_argument("--seed", type=int, default=None)
    pe.set_defaults(func=cmd_equipart)

    pl = sub.add_parser("label", help="classify a point configuration")
    pl.add_argument("--input", required=True)
    pl.add_argument("--output", default=None)
    pl.set_defaults(func=cmd_label)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OutputError as e:
        return _fail(str(e), EXIT_INPUT)
    except BrokenPipeError as e:  # stdout closed: flush the rest to devnull at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _fail("cannot write stdout: %s" % (e.strerror or e), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
