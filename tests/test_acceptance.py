"""Acceptance gate: ten end-to-end criteria at their stated tolerances.

Each test prints exactly one [PASS]/[FAIL] line and asserts the same
condition, so `pytest -s tests/test_acceptance.py` yields a one-line
report per criterion while plain `pytest` still enforces all of them.
"""

import time
from itertools import permutations
from math import comb, factorial

import numpy as np

from equicell import (
    CellLabel,
    ConvexPolygon,
    Sites,
    area_jacobian,
    binomial_gcd,
    coboundary_witness,
    enumerate_cells,
    enumerate_labels,
    equalize_perimeters,
    f_vector,
    fox_neuwirth_label,
    group_action,
    is_face_complement,
    obstruction_report,
    perimeter_spread,
    power_diagram,
    solve_equal_measure_weights,
    verify_coboundary_on_complex,
    vertex_coordinates,
)
from equicell.obstruction import expected_incidence_row

from support import (
    UNIT_SQUARE,
    UNIT_TRIANGLE,
    check_diamond,
    check_partial_order,
    facet_coboundaries,
    facet_incidence_vector,
    random_sites_inside,
    rigid_motion,
    top_cells,
    vertex_set_close,
)


def report(num, ok, detail):
    print("[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", num, detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def test_criterion_01_cell_counts():
    sizes = ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3))
    t0 = time.perf_counter()
    ok = True
    for d, n in sizes:
        fv = f_vector(d, n)
        top = (d - 1) * (n - 1)
        ok = ok and fv[0] == factorial(n) and fv[top] == factorial(n)
        ok = ok and fv[top - 1] == (n - 1) * factorial(n)
        ok = ok and sum(fv) == factorial(n) * d ** (n - 1)
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    report(1, ok, "vertex/facet/ridge/total counts at 6 sizes (%.1f s)" % dt)


def test_criterion_02_planar_three_point_complex():
    poset = enumerate_cells(2, 3)
    fv_ok = poset.f_vector() == (6, 12, 6)
    lo, hi = poset.covers.T
    uppers = np.bincount(lo, minlength=len(poset.dims))
    edges_ok = bool((uppers[poset.dims == 1] == 3).all())
    facet = CellLabel.from_bar_string("123")
    i = np.flatnonzero((poset.labels == facet.sigma + facet.seps).all(axis=1))[0]
    labels = enumerate_labels(2, 3)
    boundary = {labels[j].to_bar_string() for j in lo[hi == i].tolist()}
    want = {"1|23", "13|2", "3|12", "23|1", "2|13", "12|3"}
    ok = fv_ok and edges_ok and boundary == want
    report(2, ok, "f=(6,12,6), each edge in 3 hexagons, boundary of 123 exact")


def test_criterion_03_incidence_rows():
    t0 = time.perf_counter()
    ok = True
    for d, n in ((2, 3), (2, 4), (2, 5), (3, 3)):
        poset = enumerate_cells(d, n)
        want = expected_incidence_row(n)
        for facet in top_cells(d, n):
            if facet_incidence_vector(facet, poset) != want:
                ok = False
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    report(3, ok, "every facet meets (C(n,1)..C(n,n-1)) ridge classes "
                  "(%.1f s)" % dt)


def test_criterion_04_coordinate_roundtrip():
    ok = True
    total = 0
    for d in (1, 2, 3):
        for n in (2, 3, 4):
            for lab in enumerate_labels(d, n):
                total += 1
                if fox_neuwirth_label(vertex_coordinates(lab)) != lab:
                    ok = False
    report(4, ok, "exact label->coordinates->label on %d cells" % total)


def test_criterion_05_gcd_table():
    def factored_gcd(n):
        m, primes, f = n, set(), 2
        while m > 1:
            while m % f == 0:
                primes.add(f)
                m //= f
            f += 1
        return primes.pop() if len(primes) == 1 else 1

    t0 = time.perf_counter()
    table_ok = all(binomial_gcd(n) == factored_gcd(n) for n in range(2, 65))
    spots_ok = [binomial_gcd(n) for n in (4, 6, 9, 12, 32)] == [2, 1, 3, 1, 2]
    dt = time.perf_counter() - t0
    ok = table_ok and spots_ok and dt < 1.0
    report(5, ok, "row gcd matches factorization for n=2..64 (%.2f s)" % dt)


def test_criterion_06_obstruction_classification():
    want = ["Z/2", "Z/3", "Z/2", "Z/5", "trivial", "Z/7", "Z/2", "Z/3"]
    groups_ok = [obstruction_report(2, n).group
                 for n in range(2, 10)] == want
    trivial_ok = all(obstruction_report(2, n).group == "trivial"
                     for n in (6, 10, 12))
    witness_ok = True
    for n in (6, 10, 12, 15, 30):
        vals = coboundary_witness(n).values
        if sum(x * comb(n, j) for j, x in zip(range(1, n), vals)) != 1:
            witness_ok = False
    ok = groups_ok and trivial_ok and witness_ok
    report(6, ok, "groups for n=2..9, trivial composites, exact witnesses")


def test_criterion_07_coboundary_on_full_complex():
    t0 = time.perf_counter()
    size_ok = len(enumerate_labels(2, 6)) == 23040
    row_ok = verify_coboundary_on_complex(2, 6, coboundary_witness(6)) == 1
    # every facet, through the all-facet oracle
    vals = facet_coboundaries(2, 6, coboundary_witness(6))
    facets_ok = row_ok and len(vals) == 720 and all(v == 1 for v in vals.values())
    dt = time.perf_counter() - t0
    ok = size_ok and facets_ok and dt < 600.0
    report(7, ok, "witness coboundary is 1 on all 720 facets of the "
                  "23040-cell complex (%.1f s)" % dt)


def test_criterion_08_equal_area_weights():
    sites = Sites(((0.25, 0.5), (0.6, 0.5)))
    solved, _ = solve_equal_measure_weights(UNIT_SQUARE, sites, tol=1e-12)
    closed_form_ok = abs(solved.weights[0] - 0.02625) <= 1e-9

    rng = np.random.default_rng(20260822)
    random_ok = True
    for _ in range(3):
        pts = Sites(random_sites_inside(rng, UNIT_SQUARE, 5))
        t0 = time.perf_counter()
        solved, _ = solve_equal_measure_weights(UNIT_SQUARE, pts, tol=1e-10)
        dt = time.perf_counter() - t0
        areas = np.array(power_diagram(UNIT_SQUARE, pts, solved.weights).areas)
        if np.abs(areas - 0.2).max() > 1e-9 or dt >= 1.0:
            random_ok = False

    base = np.array(solve_equal_measure_weights(UNIT_SQUARE, pts,
                                                tol=1e-10)[0].weights)
    restart_ok = True
    for _ in range(10):
        w0 = tuple(rng.normal(scale=0.05, size=5))
        again, _ = solve_equal_measure_weights(UNIT_SQUARE, pts, tol=1e-10, w0=w0)
        if np.abs(np.array(again.weights) - base).max() > 1e-8:
            restart_ok = False

    ok = closed_form_ok and random_ok and restart_ok
    report(8, ok, "closed-form weight to 1e-9, random instances to 1e-9 "
                  "under 1 s, 10 restarts agree to 1e-8")


def test_criterion_09_equal_area_and_perimeter():
    cases = ((UNIT_SQUARE, 2), (UNIT_SQUARE, 3), (UNIT_SQUARE, 4),
             (UNIT_TRIANGLE, 2), (UNIT_TRIANGLE, 3))
    ok = True
    worst_dt = 0.0
    for poly, n in cases:
        t0 = time.perf_counter()
        res = equalize_perimeters(poly, n, tol=1e-6)
        dt = time.perf_counter() - t0
        worst_dt = max(worst_dt, dt)
        areas = np.array(res.diagram.areas)
        share = poly.area / n
        if not (res.converged and perimeter_spread(res.diagram) <= 1e-6
                and np.abs(areas - share).max() <= 1e-9 and dt < 300.0):
            ok = False
    report(9, ok, "square n=2,3,4 and triangle n=2,3 reach spread <= 1e-6 "
                  "with equal areas (slowest %.1f s)" % worst_dt)


def test_criterion_10_property_suites():
    failures = []

    def attempt(name, fn):
        try:
            fn()
        except AssertionError:
            failures.append(name)

    p23 = enumerate_cells(2, 3)
    s13 = enumerate_cells(1, 3, kind="stratification")
    attempt("partial-order", lambda: (check_partial_order(p23),
                                      check_partial_order(s13)))
    attempt("diamond", lambda: check_diamond(p23))

    def action_checks():
        labels = enumerate_labels(2, 3)
        perms = list(permutations((1, 2, 3)))
        for pi in perms:
            if pi == (1, 2, 3):
                continue
            assert all(group_action(pi, lab) != lab for lab in labels)
        for pi in perms:
            moved = [group_action(pi, lab) for lab in labels]
            for a, la in zip(labels, moved):
                for b, lb in zip(labels, moved):
                    assert is_face_complement(a, b) == is_face_complement(la, lb)
    attempt("group-action", action_checks)

    def gradient_check():
        rng = np.random.default_rng(7)
        sites = Sites(random_sites_inside(rng, UNIT_SQUARE, 4))
        w = rng.normal(scale=0.01, size=4)
        w -= w.mean()

        def areas_at(wv):
            return np.array(power_diagram(UNIT_SQUARE, sites,
                                          tuple(wv)).areas)

        J = area_jacobian(power_diagram(UNIT_SQUARE, sites, tuple(w)))
        h = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            col = (areas_at(w + e) - areas_at(w - e)) / (2 * h)
            assert np.abs(col - J[:, j]).max() <= 1e-5
    attempt("dual-gradient", gradient_check)

    def motion_check():
        sites = Sites(((0.2, 0.3), (0.7, 0.6), (0.4, 0.8)))
        w = (0.01, -0.004, -0.006)
        move = rigid_motion(0.7, (0.3, -0.2))
        poly2 = ConvexPolygon(tuple(move(v) for v in UNIT_SQUARE.vertices))
        sites2 = Sites(tuple(move(p) for p in sites.points))
        diag = power_diagram(UNIT_SQUARE, sites, w)
        diag2 = power_diagram(poly2, sites2, w)
        for c1, c2 in zip(diag.cells, diag2.cells):
            moved = ConvexPolygon(tuple(move(v) for v in c1))
            assert vertex_set_close(moved, ConvexPolygon(c2), 1e-9)
    attempt("rigid-motion", motion_check)

    ok = not failures
    detail = ("order, diamond, action, dual gradient, rigid motion all green"
              if ok else "failing: " + ", ".join(failures))
    report(10, ok, detail)
