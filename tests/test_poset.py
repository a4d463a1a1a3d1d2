"""Tests for face predicates, enumeration, graded poset structure, budgets,
and JSON export of cell posets."""

import json
from dataclasses import replace
from math import factorial

import numpy as np
import pytest

import support
from equicell import (BudgetExceededError, CellLabel,
                      InvalidLabelError, KIND_COMPLEMENT, KIND_STRATIFICATION,
                      enumerate_cells, enumerate_labels, euler_characteristic,
                      f_vector, group_action, is_face_complement,
                      is_face_stratification, resolve_budget,
                      separator_min, stratum_dimension, validate_covers)
from equicell import poset as poset_module
from equicell import cli
from equicell.poset import (_cover_count, _leq, boundary, cond_rows, face_matrix,
                            gov_rows, label_count, poset_csv_chunks, poset_json_chunks)

BIG = CellLabel((3, 8, 1, 4, 7, 6, 5, 2), (2, 1, 2, 1, 1, 2, 2), 2)
BIG_FINER = CellLabel((3, 1, 8, 4, 7, 6, 5, 2), (2, 2, 2, 1, 1, 2, 2), 2)


def bar(text):
    return CellLabel.from_bar_string(text)


class TestFacePredicates:
    def test_stratification_example(self):
        assert is_face_stratification(BIG, BIG_FINER)

    def test_stratification_reflexive(self):
        assert is_face_stratification(BIG, BIG)

    def test_distinct_chambers_not_related(self):
        a = CellLabel((1, 2, 3), (1, 1), 1)
        b = CellLabel((2, 1, 3), (1, 1), 1)
        assert not is_face_stratification(a, b)
        assert not is_face_stratification(b, a)

    def test_complement_edge_of_hexagon(self):
        assert is_face_complement(bar("13|2"), bar("123"))

    def test_complement_vertex_of_hexagon(self):
        assert is_face_complement(bar("1|2|3"), bar("123"))

    def test_equal_dimension_cells_unrelated(self):
        assert not is_face_complement(bar("3|12"), bar("3|21"))

    def test_mismatched_shape_raises(self):
        with pytest.raises(InvalidLabelError):
            is_face_complement(bar("12"), CellLabel((1, 2), (1,), 3))
        with pytest.raises(InvalidLabelError):
            is_face_stratification(bar("123"), CellLabel((1, 2, 3, 4), (1, 1, 1), 2))

    def test_complement_rejects_tie_separators(self):
        tie = CellLabel((1, 2), (3,), 2)
        with pytest.raises(InvalidLabelError):
            is_face_complement(tie, tie)


class TestEnumeration:
    def test_complement_counts(self):
        for d, n in [(1, 3), (2, 3), (2, 4), (3, 3)]:
            labels = enumerate_labels(d, n)
            assert len(labels) == factorial(n) * d ** (n - 1)
            assert len(set(labels)) == len(labels)

    def test_lexicographic_order(self):
        labels = enumerate_labels(2, 3)
        keys = [(lab.sigma, lab.seps) for lab in labels]
        assert keys == sorted(keys)

    def test_stratification_count_line_case(self):
        labels = enumerate_labels(1, 3, KIND_STRATIFICATION)
        assert len(labels) == 13

    def test_stratification_tie_break_filter(self):
        for lab in enumerate_labels(2, 3, KIND_STRATIFICATION):
            for k, s in enumerate(lab.seps):
                if s == 3:
                    assert lab.sigma[k] < lab.sigma[k + 1]


class TestFVector:
    def test_planar_three_points(self):
        assert f_vector(2, 3) == (6, 12, 6)

    def test_planar_four_points(self):
        assert f_vector(2, 4) == (24, 72, 72, 24)

    def test_spatial_three_points(self):
        assert f_vector(3, 3) == (6, 12, 18, 12, 6)

    def test_two_points_sphere_decomposition(self):
        assert f_vector(3, 2) == (2, 2, 2)
        assert f_vector(4, 2) == (2, 2, 2, 2)

    def test_count_identities(self):
        for d, n in [(2, 3), (2, 4), (3, 3), (4, 2), (2, 5)]:
            fv = f_vector(d, n)
            top = (d - 1) * (n - 1)
            assert len(fv) == top + 1
            assert fv[0] == factorial(n)
            assert fv[top] == factorial(n)
            if top >= 1:
                assert fv[top - 1] == (n - 1) * factorial(n)
            assert sum(fv) == factorial(n) * d ** (n - 1)


    def test_matches_the_enumerated_poset(self):
        for d in range(1, 4):
            for n in range(2, 6):
                assert f_vector(d, n) == enumerate_cells(d, n).f_vector()

    def test_closed_form_needs_no_enumeration(self):
        # 12! * 2**11 cells, far beyond any enumeration budget
        fv = f_vector(2, 12)
        assert len(fv) == 12 and fv[0] == fv[-1] == factorial(12)
        assert sum(fv) == factorial(12) * 2 ** 11
        assert euler_characteristic(2, 12) == 0


class TestEuler:
    def test_alternating_sum_of_the_f_vector(self):
        for d in range(1, 6):
            for n in range(2, 7):
                fv = f_vector(d, n)
                alternating = sum((-1) ** k * c for k, c in enumerate(fv))
                assert euler_characteristic(d, n) == alternating

    def test_even_d_vanishes(self):
        assert euler_characteristic(2, 3) == 0
        assert euler_characteristic(2, 4) == 0
        assert euler_characteristic(4, 3) == 0

    def test_odd_d_is_factorial(self):
        assert euler_characteristic(1, 4) == 24
        assert euler_characteristic(3, 3) == 6


class TestPosetStructure:
    def test_hexagon_complex_shape(self):
        p = enumerate_cells(2, 3)
        assert len(p.labels) == 24
        assert len(p.covers) == 60
        assert p.f_vector() == (6, 12, 6)

    def test_line_stratification_shape(self):
        p = enumerate_cells(1, 3, KIND_STRATIFICATION)
        assert len(p.labels) == 13
        assert p.f_vector() == (1, 6, 6)
        assert len(p.covers) == 18

    def test_zero_dimensional_complex_has_no_covers(self):
        p = enumerate_cells(1, 3)
        assert len(p.labels) == 6
        assert support.as_tuples(p.covers) == ()

    def test_cover_validation_passes(self):
        for d, n, kind in [(2, 3, KIND_COMPLEMENT), (3, 3, KIND_COMPLEMENT),
                           (1, 3, KIND_STRATIFICATION), (2, 3, KIND_STRATIFICATION)]:
            validate_covers(enumerate_cells(d, n, kind))

    def test_cover_validation_rejects_missing_pair(self):
        p = enumerate_cells(2, 3)
        broken = replace(p, covers=p.covers[:-1])
        with pytest.raises(ValueError):
            validate_covers(broken)

    def test_cover_validation_rejects_bogus_pair(self):
        p = enumerate_cells(2, 3)
        dims, covers = support.as_tuples(p.dims), support.as_tuples(p.covers)
        lo = dims.index(0)
        hi = next(i for i in range(len(dims))
                  if dims[i] == 1 and (lo, i) not in set(covers))
        with pytest.raises(ValueError):
            validate_covers(broken(p, covers + ((lo, hi),)))

    def test_partial_order_axioms(self):
        rng = np.random.default_rng(5)
        for d, n in [(2, 3), (3, 3), (2, 4)]:
            support.check_partial_order(enumerate_cells(d, n), rng)
        support.check_partial_order(
            enumerate_cells(1, 3, KIND_STRATIFICATION), rng)
        support.check_partial_order(
            enumerate_cells(2, 3, KIND_STRATIFICATION), rng)

    def test_diamond_property(self):
        assert support.check_diamond(enumerate_cells(2, 3)) == 36
        support.check_diamond(enumerate_cells(2, 4))
        support.check_diamond(enumerate_cells(3, 3))

    def test_each_ridge_in_three_facets(self):
        p = enumerate_cells(2, 3)
        els = enumerate_labels(p.d, p.n, p.kind)
        idx = {lab: i for i, lab in enumerate(els)}
        uppers = {i: [] for i in range(len(els))}
        for lo, hi in p.covers:
            uppers[lo].append(hi)
        for lab in els:
            if p.dims[idx[lab]] == 1:
                assert len(uppers[idx[lab]]) == 3


def dense_covers(d, n, kind=KIND_COMPLEMENT):
    """Covers of the poset from the dense face test on adjacent layers."""
    p = enumerate_cells(d, n, kind)
    els = enumerate_labels(d, n, kind)
    covers = []
    for k in range(max(p.dims)):
        los, his = (np.flatnonzero(p.dims == j).tolist() for j in (k, k + 1))
        mat = face_matrix([els[i] for i in los], [els[i] for i in his], kind)
        covers += [(los[a], his[b]) for a, b in zip(*np.nonzero(mat))]
    return tuple(sorted(covers))


class TestBoundary:
    def test_hexagon_facet_unshuffles(self):
        faces = boundary((1, 2, 3), (2, 2))
        assert sorted(faces) == sorted([
            ((1, 2, 3), (1, 2)), ((2, 1, 3), (1, 2)), ((3, 1, 2), (1, 2)),
            ((1, 2, 3), (2, 1)), ((1, 3, 2), (2, 1)), ((2, 3, 1), (2, 1))])

    def test_vertex_has_no_faces(self):
        assert boundary((2, 1, 3), (1, 1)) == []

    def test_faces_are_lower_covers(self):
        for lab in enumerate_labels(3, 4):
            for sigma, seps in boundary(lab.sigma, lab.seps):
                face = CellLabel(sigma, seps, 3)
                assert sum(seps) == sum(lab.seps) - 1
                assert is_face_complement(face, lab)

    @pytest.mark.parametrize("d,n", [(1, 3), (2, 3), (2, 4), (2, 5), (3, 3),
                                     (3, 4), (4, 3), (4, 4)])
    def test_covers_match_dense_face_test(self, d, n):
        assert support.as_tuples(enumerate_cells(d, n).covers) == dense_covers(d, n)


STRATA_SIZES = [(1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5),
                (3, 3), (3, 4), (4, 3), (4, 4)]


class TestStrataCovers:
    @pytest.mark.parametrize("d,n", STRATA_SIZES)
    def test_covers_match_dense_face_test(self, d, n):
        assert support.as_tuples(enumerate_cells(d, n, KIND_STRATIFICATION).covers) == \
            dense_covers(d, n, KIND_STRATIFICATION)

    def test_faces_are_upper_covers(self):
        for lab in enumerate_labels(2, 4, KIND_STRATIFICATION):
            for sigma, seps in boundary(lab.sigma, lab.seps):
                coarser = CellLabel(sigma, seps, 2)
                assert stratum_dimension(coarser) == stratum_dimension(lab) + 1
                assert is_face_stratification(coarser, lab)


def broken(p, covers):
    """p with its covers replaced by the given pairs, as an (M, 2) int64 array."""
    return replace(p, covers=np.array(covers, dtype=np.int64).reshape(-1, 2))


def shuffled(covers):
    """The covering pairs in a fixed random order, no longer sorted."""
    return np.random.default_rng(7).permutation(np.asarray(covers))


def moved_cover(p):
    """The covers of p with one pair moved to a non-face of the same element
    (its lower end for cells, its upper end for strata), so that every count
    the check makes stays the same."""
    covers = list(support.as_tuples(p.covers))
    lo, hi = covers[0]
    if p.kind == KIND_COMPLEMENT:
        other = next(i for i in np.flatnonzero(p.dims == p.dims[lo]).tolist()
                     if (i, hi) not in covers)
        covers[0] = (other, hi)
    else:
        other = next(i for i in np.flatnonzero(p.dims == p.dims[hi]).tolist()
                     if (lo, i) not in covers)
        covers[0] = (lo, other)
    return covers


class TestLocalValidation:
    @pytest.mark.parametrize("d,n,kind", [
        (2, 5, KIND_COMPLEMENT), (3, 4, KIND_COMPLEMENT), (3, 5, KIND_COMPLEMENT),
        (2, 5, KIND_STRATIFICATION), (1, 6, KIND_STRATIFICATION)])
    def test_passes(self, d, n, kind):
        p = enumerate_cells(d, n, kind)
        validate_covers(p)
        validate_covers(broken(p, shuffled(p.covers)))

    def test_cover_count_is_the_number_of_faces(self):
        for d, n, kind in [(3, 4, KIND_COMPLEMENT), (2, 4, KIND_STRATIFICATION)]:
            for lab in enumerate_labels(d, n, kind):
                faces = boundary(lab.sigma, lab.seps)
                assert _cover_count(lab.seps) == len(set(faces)) == len(faces)

    @pytest.fixture(params=[(2, 4, KIND_COMPLEMENT), (2, 4, KIND_STRATIFICATION)])
    def poset(self, request):
        return enumerate_cells(*request.param)

    def test_rejects_dropped_cover(self, poset):
        with pytest.raises(ValueError, match="covers, expected"):
            validate_covers(broken(poset, poset.covers[1:]))

    def test_rejects_extra_non_face(self, poset):
        covers, dims = support.as_tuples(poset.covers), poset.dims
        extra = next((lo, hi) for lo in range(len(dims)) for hi in range(len(dims))
                     if dims[hi] == dims[lo] + 1 and (lo, hi) not in set(covers))
        with pytest.raises(ValueError, match="not a face pair"):
            validate_covers(broken(poset, covers + (extra,)))

    def test_rejects_pair_two_dimensions_apart(self, poset):
        covers = poset.covers
        lo, hi = next((lo, hi) for lo, mid in covers.tolist()
                      for hi in covers[covers[:, 0] == mid, 1].tolist())
        with pytest.raises(ValueError, match="dimension gap"):
            validate_covers(broken(poset, support.as_tuples(poset.covers) + ((lo, hi),)))

    def test_rejects_duplicated_cover(self, poset):
        covers = support.as_tuples(poset.covers)
        with pytest.raises(ValueError, match="stored twice"):
            validate_covers(broken(poset, covers + covers[:1]))

    def test_rejects_moved_cover(self, poset):
        for covers in (moved_cover(poset), shuffled(moved_cover(poset))):
            with pytest.raises(ValueError, match="not a face pair"):
                validate_covers(broken(poset, covers))

    def test_diamond_catches_what_a_blind_face_test_lets_through(
            self, poset, monkeypatch):
        monkeypatch.setattr(poset_module, "_leq", lambda kind, rows, lo, hi: True)
        for covers in (moved_cover(poset), shuffled(moved_cover(poset))):
            with pytest.raises(ValueError, match="middle elements"):
                validate_covers(broken(poset, covers))


class TestEquivariance:
    def test_exhaustive_small(self):
        from itertools import permutations
        labels = enumerate_labels(2, 3)
        for pi in permutations((1, 2, 3)):
            moved = [group_action(pi, lab) for lab in labels]
            assert sorted((m.sigma, m.seps) for m in moved) == \
                [(lab.sigma, lab.seps) for lab in labels]
            from equicell import cell_dimension
            for lab, m in zip(labels, moved):
                assert cell_dimension(m) == cell_dimension(lab)
            for a in labels[:12]:
                for b in labels[:12]:
                    assert is_face_complement(a, b) == is_face_complement(
                        group_action(pi, a), group_action(pi, b))

    def test_random_pairs_larger(self):
        rng = np.random.default_rng(17)
        labels = enumerate_labels(3, 3)
        for _ in range(200):
            pi = tuple(int(v) for v in rng.permutation(3) + 1)
            a = labels[int(rng.integers(len(labels)))]
            b = labels[int(rng.integers(len(labels)))]
            assert is_face_complement(a, b) == is_face_complement(
                group_action(pi, a), group_action(pi, b))


class TestBudget:
    def test_large_enumeration_refused(self):
        with pytest.raises(BudgetExceededError):
            enumerate_labels(3, 8)
        with pytest.raises(BudgetExceededError):
            enumerate_cells(3, 8)

    def test_explicit_budget_param(self):
        with pytest.raises(BudgetExceededError):
            enumerate_labels(2, 3, budget=10)
        assert len(enumerate_labels(2, 3, budget=24)) == 24

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("EQUICELL_BUDGET", "10")
        assert resolve_budget(None) == 10
        with pytest.raises(BudgetExceededError):
            enumerate_labels(2, 3)
        # explicit argument wins over the environment
        assert len(enumerate_labels(2, 3, budget=100)) == 24

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("EQUICELL_BUDGET", "zero")
        with pytest.raises(ValueError):
            resolve_budget(None)

    def test_charge(self, monkeypatch):
        # the budget comes back when the need fits; None never fits
        assert poset_module.charge(10, "task", "things", 10) == 10
        with pytest.raises(BudgetExceededError) as err:
            poset_module.charge(10, "task", "things", 11)
        assert str(err.value) == "task needs 11 things, budget is 10"
        with pytest.raises(BudgetExceededError) as err:
            poset_module.charge(10 ** 9, "task", "2^n things")
        assert str(err.value) == "task needs 2^n things, budget is 1000000000"
        monkeypatch.setenv("EQUICELL_BUDGET", "3")
        assert poset_module.charge(None, "task", "things", 0) == 3
        monkeypatch.setenv("EQUICELL_BUDGET", "three")
        with pytest.raises(ValueError, match="bad EQUICELL_BUDGET"):
            poset_module.charge(None, "task", "things", 0)

    def test_negative_budget_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_budget(-1)
        assert resolve_budget(0) == 0
        monkeypatch.setenv("EQUICELL_BUDGET", "-1")
        with pytest.raises(ValueError):
            resolve_budget(None)

    def test_label_count_complement(self):
        for d, n in [(2, 3), (3, 4), (2, 5)]:
            assert label_count(d, n, KIND_COMPLEMENT) == factorial(n) * d ** (n - 1)

    def test_label_count_stratification(self):
        for d, n in [(1, 2), (1, 3), (2, 3), (2, 4), (1, 6), (3, 4)]:
            actual = len(enumerate_labels(d, n, KIND_STRATIFICATION))
            assert actual == label_count(d, n, KIND_STRATIFICATION)
        assert label_count(2, 6, KIND_STRATIFICATION) == 66605
        assert label_count(4000000, 2, KIND_STRATIFICATION) == 8000001


class TestJson:
    def test_schema_and_order(self):
        p = enumerate_cells(2, 3)
        doc = json.loads("".join(poset_json_chunks(p)))
        assert set(doc) == {"d", "n", "kind", "elements", "covers"}
        assert doc["d"] == 2 and doc["n"] == 3 and doc["kind"] == "complement"
        assert len(doc["elements"]) == 24
        first = doc["elements"][0]
        assert set(first) == {"sigma", "seps", "dim"}
        keys = [(tuple(e["sigma"]), tuple(e["seps"])) for e in doc["elements"]]
        assert keys == sorted(keys)
        assert all(len(pair) == 2 for pair in doc["covers"])

    def test_dims_recorded(self):
        p = enumerate_cells(2, 3)
        doc = json.loads("".join(poset_json_chunks(p)))
        for el, dim in zip(doc["elements"], p.dims):
            assert el["dim"] == dim


def generic_json(p):
    """The JSON export through json.dumps, built from CellLabels."""
    labels = enumerate_labels(p.d, p.n, p.kind)
    return json.dumps({
        "d": p.d, "n": p.n, "kind": p.kind,
        "elements": [{"sigma": list(lab.sigma), "seps": list(lab.seps), "dim": dim}
                     for lab, dim in zip(labels, p.dims.tolist())],
        "covers": [list(pair) for pair in p.covers.tolist()]}, indent=2) + "\n"


class TestColumnar:
    @pytest.mark.parametrize("d,n,kind", [(2, 4, KIND_COMPLEMENT),
                                          (1, 4, KIND_STRATIFICATION),
                                          (2, 3, KIND_STRATIFICATION)])
    def test_face_test_matches_scalar_on_all_pairs(self, d, n, kind):
        p = enumerate_cells(d, n, kind)
        els = enumerate_labels(d, n, kind)
        gov = gov_rows(p.labels)
        oracle = [support.governing_row(lab) for lab in els]
        assert [tuple(g.ravel().tolist()) for g in gov] == oracle
        for lab, row in zip(els, oracle):
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    if a != b:
                        j = row[(a - 1) * n + b - 1]
                        assert separator_min(lab, a, b) == (
                            ("before", j) if j else ("after", row[(b - 1) * n + a - 1]))
        size = len(p.labels)
        x, y = np.repeat(np.arange(size), size), np.tile(np.arange(size), size)
        want = [support.cond_pair(els[i], els[j]) for i, j in zip(x.tolist(), y.tolist())]
        assert cond_rows(gov[x], gov[y]).tolist() == want
        # lower x[k] under upper y[k]: cond(upper, lower) for cells,
        # cond(lower, upper) for strata, read off the same all-pairs table
        scalar = (np.array(want).reshape(size, size).T.ravel().tolist()
                  if kind == KIND_COMPLEMENT else want)
        assert _leq(kind, p.labels, x, y, chunk=1000).tolist() == scalar
        pred = [is_face_complement(els[i], els[j]) if kind == KIND_COMPLEMENT
                else is_face_stratification(els[j], els[i])
                for i, j in zip(x.tolist(), y.tolist())]
        assert pred == scalar

    @pytest.mark.parametrize("kind", [KIND_COMPLEMENT, KIND_STRATIFICATION])
    def test_face_test_across_chunks(self, kind):
        # gov arrays built 7 rows at a time and pairs answered 7 at a time:
        # the covers and random pairs, shuffled, some repeated, most of them
        # reaching across gov chunks, against the scalar criterion
        p = enumerate_cells(2, 4, kind)
        els = enumerate_labels(2, 4, kind)
        rng = np.random.default_rng(0)
        pairs = np.concatenate([p.covers, rng.integers(len(p.labels), size=(2000, 2))])
        pairs = np.concatenate([pairs, pairs[:300]])[rng.permutation(len(pairs) + 300)]
        want = [support.scalar_leq(p, els[i], els[j]) for i, j in pairs.tolist()]
        assert set(want) == {True, False}
        assert _leq(kind, p.labels, pairs[:, 0], pairs[:, 1], chunk=7).tolist() == want

    @pytest.mark.parametrize("d,n,kind", [(1, 2, KIND_COMPLEMENT), (1, 3, KIND_COMPLEMENT),
                                          (2, 2, KIND_COMPLEMENT), (3, 5, KIND_COMPLEMENT),
                                          (1, 3, KIND_STRATIFICATION),
                                          (2, 4, KIND_STRATIFICATION)])
    def test_exports_match_the_generic_writers(self, d, n, kind):
        p = enumerate_cells(d, n, kind)
        text = "".join(poset_json_chunks(p))
        assert text == generic_json(p)
        rows = ["%d,%d,%s" % (i, dim, lab.to_string())
                for i, (lab, dim) in enumerate(zip(enumerate_labels(d, n, kind),
                                                   p.dims.tolist()))]
        assert "".join(poset_csv_chunks(p)) == "\n".join(["index,dim,label"] + rows) + "\n"

    @pytest.mark.parametrize("d,n,kind,m", [(2, 4, KIND_COMPLEMENT, 864),
                                            (2, 3, KIND_STRATIFICATION, 102),
                                            (1, 3, KIND_COMPLEMENT, 0)])
    def test_build_gives_int64_dims_and_cover_pairs(self, d, n, kind, m):
        # the poset takes its arrays as enumerate_cells builds them, with no
        # coercion, so the build itself must give these dtypes and shapes
        p = enumerate_cells(d, n, kind)
        assert p.dims.dtype == np.int64 and p.dims.shape == (len(p.labels),)
        assert p.covers.dtype == np.int64 and p.covers.shape == (m, 2)
        assert "".join(poset_json_chunks(p)) == generic_json(p)

    def test_labels_built_only_on_request(self):
        p = enumerate_cells(2, 4)
        assert p.f_vector() == (24, 72, 72, 24) and p.euler_characteristic() == 0
        validate_covers(p)
        assert "".join(poset_csv_chunks(p)) and "".join(poset_json_chunks(p))
        # the poset holds only the fields its build set; enumerate_labels
        # lists the same labels as CellLabels, in the same order
        assert set(vars(p)) == {"kind", "d", "n", "labels", "dims", "covers"}
        labels = enumerate_labels(2, 4)
        assert len(labels) == 192
        assert [lab.sigma + lab.seps for lab in labels] == list(map(tuple, p.labels.tolist()))

    @pytest.mark.parametrize("d,n,kind", [(2, 5, KIND_COMPLEMENT), (3, 4, KIND_COMPLEMENT),
                                          (1, 5, KIND_STRATIFICATION),
                                          (2, 4, KIND_STRATIFICATION),
                                          (2, 5, KIND_STRATIFICATION),
                                          (3, 4, KIND_STRATIFICATION)])
    def test_cover_count_is_exact(self, d, n, kind):
        covers = len(enumerate_cells(d, n, kind).covers)
        with pytest.raises(BudgetExceededError, match=" needs %d covers," % covers):
            enumerate_cells(d, n, kind, budget=covers - 1)

    def test_budget_bounds_covers(self):
        with pytest.raises(BudgetExceededError, match="needs 864 covers"):
            enumerate_cells(2, 4, budget=863)
        assert len(enumerate_cells(2, 4, budget=864).covers) == 864
        # labels alone are checked where no covers are built
        assert len(enumerate_labels(2, 4, budget=192)) == 192

    def test_streamed_output_is_atomic(self, tmp_path, capsys):
        target = tmp_path / "poset.json"
        target.write_text("old")

        def failing():
            yield "partial"
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            cli._emit(["summary\n"], [(str(target), failing())])
        assert target.read_text() == "old"
        assert [f.name for f in tmp_path.iterdir()] == ["poset.json"]
        assert capsys.readouterr().out == ""
