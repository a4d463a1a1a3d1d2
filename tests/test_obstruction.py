"""Tests for ridge orbits, incidence vectors, the binomial gcd criterion,
witness cochains, and coboundary evaluation on the complex."""

import time
from math import comb, factorial

import numpy as np
import pytest

import support
from equicell import (BudgetExceededError, CellLabel, RidgeOrbitCochain, binomial_gcd,
                      binomial_valuation, coboundary_witness, enumerate_cells,
                      expected_incidence_row, obstruction_report, prime_power,
                      verify_coboundary_on_complex)
from equicell import obstruction
from equicell.obstruction import facet_ridge_class_counts
from equicell.poset import KIND_COMPLEMENT, face_matrix
from support import facet_incidence_vector, ridge_cells, ridge_orbit_index, top_cells


def carries_adding(a, b, p):
    """Number of carries when adding a and b in base p, counted directly."""
    count = 0
    carry = 0
    while a or b or carry:
        s = a % p + b % p + carry
        carry = 1 if s >= p else 0
        count += carry
        a //= p
        b //= p
    return count


class TestRidgeOrbitIndex:
    def test_planar_examples(self):
        assert ridge_orbit_index(CellLabel((1, 2, 3), (1, 2), 2)) == 1
        assert ridge_orbit_index(CellLabel((1, 3, 2), (2, 1), 2)) == 2

    def test_spatial_example(self):
        assert ridge_orbit_index(CellLabel((2, 1, 4, 3), (3, 3, 2), 3)) == 3

    def test_constant_on_orbits(self):
        from itertools import permutations
        from equicell import group_action
        ridge = CellLabel((1, 3, 2), (2, 1), 2)
        for pi in permutations((1, 2, 3)):
            assert ridge_orbit_index(group_action(pi, ridge)) == 2

    def test_rejects_non_ridges(self):
        with pytest.raises(ValueError):
            ridge_orbit_index(CellLabel((1, 2, 3), (2, 2), 2))  # facet
        with pytest.raises(ValueError):
            ridge_orbit_index(CellLabel((1, 2, 3), (1, 1), 2))  # two low seps
        with pytest.raises(ValueError):
            ridge_orbit_index(CellLabel((1, 2), (1,), 1))  # d too small


class TestIncidenceVectors:
    def test_hexagon(self):
        p = enumerate_cells(2, 3)
        facet = CellLabel((1, 2, 3), (2, 2), 2)
        assert facet_incidence_vector(facet, p) == (3, 3)

    def test_every_facet_of_phi_2_4(self):
        p = enumerate_cells(2, 4)
        for facet in top_cells(2, 4):
            assert facet_incidence_vector(facet, p) == (4, 6, 4)

    def test_every_facet_of_phi_2_6_is_quick(self):
        p = enumerate_cells(2, 6)
        start = time.perf_counter()
        rows = {facet_incidence_vector(facet, p) for facet in top_cells(2, 6)}
        assert rows == {expected_incidence_row(6)}
        assert time.perf_counter() - start < 5.0

    def test_two_point_sphere(self):
        p = enumerate_cells(3, 2)
        for facet in top_cells(3, 2):
            assert facet_incidence_vector(facet, p) == (2,)

    def test_rejects_non_facet(self):
        p = enumerate_cells(2, 3)
        with pytest.raises(ValueError):
            facet_incidence_vector(CellLabel((1, 2, 3), (1, 2), 2), p)

    def test_expected_row(self):
        assert expected_incidence_row(3) == (3, 3)
        assert expected_incidence_row(6) == (6, 15, 20, 15, 6)

    def test_class_count_matrix(self):
        for d, n in [(2, 3), (2, 4), (3, 3)]:
            counts = facet_ridge_class_counts(d, n)
            want = expected_incidence_row(n)
            assert counts.shape == (n - 1,)
            assert tuple(counts) == want
            every = support.all_facet_class_counts(d, n)
            assert every.shape == (len(top_cells(d, n)), n - 1)
            assert (every == np.array(want)).all()

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_class_counts_are_the_binomial_row(self, n):
        counts = facet_ridge_class_counts(2, n)
        assert counts.shape == (n - 1,)
        assert tuple(counts) == expected_incidence_row(n)
        assert (support.all_facet_class_counts(2, n) == counts).all()

    @pytest.mark.parametrize("d,n", [(2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
                                     (3, 3), (3, 4), (3, 5), (4, 4)])
    def test_every_facet_has_the_identity_facet_row(self, d, n):
        # the S_n-orbit argument: the all-facet oracle repeats the one row
        every = support.all_facet_class_counts(d, n)
        assert every.shape == (factorial(n), n - 1)
        assert (every == facet_ridge_class_counts(d, n)).all()

    @pytest.mark.parametrize("n", range(8, 17))
    def test_class_counts_past_seven(self, n):
        # the prime powers 8, 9, 11, 13 and 16 included, at the default budget
        assert tuple(facet_ridge_class_counts(2, n)) == expected_incidence_row(n)

    @pytest.mark.parametrize("d,n", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)])
    def test_class_counts_match_dense_face_test(self, d, n):
        ridges = ridge_cells(d, n)
        inc = face_matrix(ridges, top_cells(d, n), KIND_COMPLEMENT)  # (R, F)
        classes = np.array([ridge_orbit_index(r) - 1 for r in ridges])
        dense = np.stack([inc[classes == j].sum(axis=0) for j in range(n - 1)],
                         axis=1)
        assert (facet_ridge_class_counts(d, n) == dense).all()

    def test_bad_boundary_rule_shows_as_count_mismatch(self, monkeypatch):
        real = obstruction.boundary

        def with_non_faces(sigma, seps):
            # the first face, read backwards, is a ridge but not a face of
            # the facet
            faces = real(sigma, seps)
            faces[0] = (faces[0][0][::-1], faces[0][1])
            return faces

        monkeypatch.setattr(obstruction, "boundary", with_non_faces)
        counts = facet_ridge_class_counts(2, 4)
        assert tuple(counts) != expected_incidence_row(4)
        assert tuple(counts) == (3, 6, 4)
        every = support.all_facet_class_counts(2, 4, boundary=with_non_faces)
        assert (every == counts).all()

    def test_a_face_two_dimensions_down_shows_in_the_row(self, monkeypatch):
        # every move of a facet lowers one separator, so no filter on the
        # moves hides a wrong one: a face two dimensions down is counted
        real = obstruction.boundary
        monkeypatch.setattr(obstruction, "boundary", lambda sigma, seps: real(
            sigma, seps) + [((1, 2, 3, 4, 5), (1, 1, 2, 2))])
        assert tuple(facet_ridge_class_counts(2, 5)) != expected_incidence_row(5)


class TestBinomialGcd:
    def test_spot_values(self):
        assert binomial_gcd(4) == 2
        assert binomial_gcd(6) == 1
        assert binomial_gcd(9) == 3
        assert binomial_gcd(12) == 1
        assert binomial_gcd(32) == 2
        assert binomial_gcd(2) == 2
        assert binomial_gcd(7) == 7

    def test_matches_direct_gcd_small(self):
        from math import gcd
        for n in range(2, 40):
            direct = 0
            for j in range(1, n):
                direct = gcd(direct, comb(n, j))
            assert binomial_gcd(n) == direct

    def test_matches_direct_gcd_up_to_three_hundred(self):
        from math import gcd
        for n in range(2, 301):
            assert binomial_gcd(n) == gcd(*(comb(n, j) for j in range(1, n)))

    def test_huge_prime_power_is_immediate(self):
        # walking the half row would take about 2**39 big-integer steps
        t0 = time.perf_counter()
        assert binomial_gcd(2 ** 40) == 2
        assert time.perf_counter() - t0 < 1.0

    def test_classification_up_to_ten_thousand(self):
        # gcd is p exactly when n is a power of p, 1 otherwise
        for n in range(2, 10001):
            pp = prime_power(n)
            assert binomial_gcd(n) == (pp[0] if pp else 1)


class TestPrimePower:
    def test_examples(self):
        assert prime_power(8) == (2, 3)
        assert prime_power(12) is None
        assert prime_power(7) == (7, 1)
        assert prime_power(64) == (2, 6)
        assert prime_power(36) is None
        assert prime_power(27) is not None
        assert prime_power(30) is None

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            prime_power(1)

    def test_trial_division_stops_at_the_budget(self):
        # 10**14 + 31 is prime: ruling out every factor takes 10**7 - 1 divisions
        with pytest.raises(BudgetExceededError, match="9999999 trial divisions"):
            prime_power(100000000000031, budget=1000)
        with pytest.raises(BudgetExceededError, match="trial divisions"):
            obstruction_report(2, 100000000000031, budget=1000)
        # 1009**2: the least factor is the 1008th candidate
        with pytest.raises(BudgetExceededError):
            prime_power(1009 ** 2, budget=1006)
        assert prime_power(1009 ** 2, budget=1007) == (1009, 2)

    def test_search_that_ends_within_the_budget_answers(self):
        assert prime_power(2 ** 40, budget=0) == (2, 40)
        assert prime_power(7, budget=0) == (7, 1)  # 2 is the only candidate
        assert prime_power(6000, budget=0) is None
        assert prime_power(1000003, budget=999) == (1000003, 1)  # 999 candidates


class TestValuation:
    def test_kummer_carry_rule(self):
        rng = np.random.default_rng(23)
        primes = (2, 3, 5, 7, 11, 13)
        for _ in range(400):
            n = int(rng.integers(2, 2001))
            j = int(rng.integers(1, n))
            p = primes[int(rng.integers(len(primes)))]
            assert binomial_valuation(n, j, p) == carries_adding(j, n - j, p)

    def test_total_factorization(self):
        # valuations over all primes rebuild the binomial coefficient
        for n, j in [(10, 4), (20, 7), (50, 25)]:
            value = comb(n, j)
            rebuilt = 1
            for p in range(2, n + 1):
                if all(p % q for q in range(2, p)):
                    rebuilt *= p ** binomial_valuation(n, j, p)
            assert rebuilt == value


class TestWitness:
    def test_six_points(self):
        w = coboundary_witness(6)
        assert len(w.values) == 5
        assert sum(x * comb(6, j + 1) for j, x in enumerate(w.values)) == 1

    def test_various_composites(self):
        for n in (6, 10, 12, 15, 30, 100):
            w = coboundary_witness(n)
            assert sum(x * comb(n, j + 1) for j, x in enumerate(w.values)) == 1

    def test_backward_pass_matches_forward_rescaling(self):
        for n in list(range(2, 301)) + [6000]:
            try:
                want = support.forward_witness(n)
            except ValueError:
                with pytest.raises(ValueError):
                    coboundary_witness(n)
            else:
                assert coboundary_witness(n).values == want, n

    def test_prime_powers_have_no_witness(self):
        for n in (2, 3, 4, 8, 9, 25):
            with pytest.raises(ValueError):
                coboundary_witness(n)

    def test_cochain_length_validation(self):
        with pytest.raises(ValueError):
            RidgeOrbitCochain(4, (1, 0))


class TestReport:
    def test_group_progression(self):
        want = ["Z/2", "Z/3", "Z/2", "Z/5", "trivial", "Z/7", "Z/2", "Z/3"]
        got = [obstruction_report(2, n).group for n in range(2, 10)]
        assert got == want

    def test_trivial_composites(self):
        for n in (6, 10, 12):
            rep = obstruction_report(2, n)
            assert rep.group == "trivial"
            assert rep.map_exists
            assert rep.witness is not None

    def test_planar_three_points(self):
        rep = obstruction_report(2, 3)
        assert rep.group == "Z/3" and not rep.map_exists and rep.witness is None

    def test_spatial_six_points(self):
        rep = obstruction_report(3, 6)
        assert rep.group == "trivial" and rep.map_exists
        vals = rep.witness.values
        assert sum(x * comb(6, j + 1) for j, x in enumerate(vals)) == 1

    def test_eight_points(self):
        assert obstruction_report(2, 8).group == "Z/2"

    def test_witness_must_fit_budget(self):
        with pytest.raises(BudgetExceededError, match="witness"):
            obstruction_report(2, 12, budget=10)
        assert len(obstruction_report(2, 12, budget=11).witness.values) == 11
        # no witness to build for a prime power, however large
        assert obstruction_report(2, 2 ** 40, budget=0).gcd == 2

    def test_independent_of_d(self):
        for n in range(2, 13):
            base = obstruction_report(2, n)
            for d in (3, 4, 7):
                rep = obstruction_report(d, n)
                assert rep.gcd == base.gcd
                assert rep.map_exists == base.map_exists
                assert rep.group == base.group


class TestCoboundary:
    def test_hexagon_single_orbit_cochain(self):
        cochain = RidgeOrbitCochain(3, (1, 0))
        assert verify_coboundary_on_complex(2, 3, cochain) == 3
        vals = support.facet_coboundaries(2, 3, cochain)
        assert len(vals) == 6
        assert set(vals.values()) == {3}

    def test_zero_cochain(self):
        cochain = RidgeOrbitCochain(4, (0, 0, 0))
        assert verify_coboundary_on_complex(2, 4, cochain) == 0
        assert set(support.facet_coboundaries(2, 4, cochain).values()) == {0}

    def test_arbitrary_cochains_match_binomial_row(self):
        rng = np.random.default_rng(31)
        for d, n in [(2, 3), (2, 4), (3, 3)]:
            for _ in range(5):
                x = [int(v) for v in rng.integers(-9, 10, size=n - 1)]
                cochain = RidgeOrbitCochain(n, x)
                want = sum(xi * comb(n, j + 1) for j, xi in enumerate(x))
                assert verify_coboundary_on_complex(d, n, cochain) == want
                vals = support.facet_coboundaries(d, n, cochain)
                assert set(vals.values()) == {want}
                assert len(vals) == len(top_cells(d, n))

    def test_witness_on_actual_complex(self):
        w = coboundary_witness(6)
        assert verify_coboundary_on_complex(2, 6, w) == 1
        assert set(support.facet_coboundaries(2, 6, w).values()) == {1}

    def test_cell_generators(self):
        assert len(top_cells(2, 4)) == 24
        assert len(ridge_cells(2, 4)) == 72
        for r in ridge_cells(2, 4):
            assert sorted(r.seps) == [1, 2, 2]
