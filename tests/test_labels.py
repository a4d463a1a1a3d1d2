"""Tests for label construction, dimensions, strings, coordinates, and the
symmetric-group action."""

from fractions import Fraction
from itertools import permutations, product
from math import factorial

import numpy as np
import pytest

from equicell import (CellLabel, Configuration, InvalidLabelError,
                      cell_dimension, fox_neuwirth_label, group_action,
                      separator_min, stratum_dimension, vertex_coordinates)

BIG = CellLabel((3, 8, 1, 4, 7, 6, 5, 2), (2, 1, 2, 1, 1, 2, 2), 2)
BIG_FINER = CellLabel((3, 1, 8, 4, 7, 6, 5, 2), (2, 2, 2, 1, 1, 2, 2), 2)


class TestConstruction:
    def test_valid_label(self):
        lab = CellLabel((1, 3, 2), (2, 1), 2)
        assert lab.n == 3 and lab.d == 2
        assert lab.is_cell

    def test_sigma_must_be_permutation(self):
        with pytest.raises(InvalidLabelError):
            CellLabel((1, 1, 2), (1, 1), 2)
        with pytest.raises(InvalidLabelError):
            CellLabel((1, 2, 4), (1, 1), 2)

    def test_separator_range(self):
        with pytest.raises(InvalidLabelError):
            CellLabel((1, 2), (0,), 2)
        with pytest.raises(InvalidLabelError):
            CellLabel((1, 2), (4,), 2)  # above d+1
        # d+1 itself is a legal tie separator
        assert not CellLabel((1, 2), (3,), 2).is_cell

    def test_tie_break_normalization(self):
        # letters joined by a d+1 separator must increase
        assert CellLabel((1, 3, 2), (3, 1), 2).sigma == (1, 3, 2)
        with pytest.raises(InvalidLabelError):
            CellLabel((3, 1, 2), (3, 1), 2)
        with pytest.raises(InvalidLabelError):
            CellLabel((1, 3, 2), (3, 3), 2)  # run 1,3,2 not increasing

    def test_sep_count(self):
        with pytest.raises(InvalidLabelError):
            CellLabel((1, 2, 3), (1,), 2)

    def test_equality_and_hash(self):
        a = CellLabel((1, 3, 2), (2, 1), 2)
        b = CellLabel((1, 3, 2), (2, 1), 2)
        assert a == b and hash(a) == hash(b)
        assert a != CellLabel((1, 3, 2), (1, 1), 2)


class TestDimensions:
    def test_stratum_dimension_examples(self):
        assert stratum_dimension(BIG) == 10
        assert stratum_dimension(BIG_FINER) == 9

    def test_origin_stratum_dimension_zero(self):
        for d, n in [(1, 3), (2, 4), (3, 3)]:
            lab = CellLabel(tuple(range(1, n + 1)), (d + 1,) * (n - 1), d)
            assert stratum_dimension(lab) == 0

    def test_cell_dimension_examples(self):
        assert cell_dimension(CellLabel((1, 2, 3), (2, 2), 2)) == 2
        assert cell_dimension(CellLabel((1, 2, 3), (1, 1), 2)) == 0
        assert cell_dimension(CellLabel((1, 3, 2), (2, 1), 2)) == 1

    def test_cell_dimension_extremes(self):
        # top cells have all separators d, vertices all ones
        lab = CellLabel((2, 1, 4, 3), (3, 3, 3), 3)
        assert cell_dimension(lab) == (3 - 1) * (4 - 1)
        assert cell_dimension(CellLabel((2, 1, 4, 3), (1, 1, 1), 3)) == 0

    def test_cell_dimension_rejects_tie_separator(self):
        with pytest.raises(InvalidLabelError):
            cell_dimension(CellLabel((1, 2), (3,), 2))


class TestSeparatorMin:
    def test_adjacent_pair(self):
        lab = CellLabel((1, 3, 2), (2, 1), 2)
        assert separator_min(lab, 1, 3) == ("before", 2)

    def test_spanning_pair(self):
        lab = CellLabel((1, 3, 2), (2, 1), 2)
        assert separator_min(lab, 1, 2) == ("before", 1)

    def test_big_example(self):
        assert separator_min(BIG, 3, 2) == ("before", 1)

    def test_after_direction(self):
        lab = CellLabel((1, 3, 2), (2, 1), 2)
        assert separator_min(lab, 2, 1) == ("after", 1)

    def test_bad_letters(self):
        lab = CellLabel((1, 2), (1,), 1)
        with pytest.raises(ValueError):
            separator_min(lab, 1, 1)
        with pytest.raises(ValueError):
            separator_min(lab, 0, 2)


class TestStrings:
    def test_to_string_token_syntax(self):
        assert CellLabel((1, 3, 2), (2, 1), 2).to_string() == "1<2 3<1 2"

    def test_bar_shorthand(self):
        lab = CellLabel.from_bar_string("13|2")
        assert lab == CellLabel((1, 3, 2), (2, 1), 2)
        assert lab.to_bar_string() == "13|2"
        assert CellLabel.from_bar_string("1|2|3") == CellLabel((1, 2, 3), (1, 1), 2)
        assert CellLabel.from_bar_string(" 123 ") == CellLabel((1, 2, 3), (2, 2), 2)

    def test_bar_string_requires_d2_cells(self):
        with pytest.raises(InvalidLabelError):
            CellLabel((1, 2), (1,), 3).to_bar_string()
        with pytest.raises(InvalidLabelError):
            CellLabel((1, 2), (3,), 2).to_bar_string()

    def test_malformed_strings(self):
        for text in ("", "|", "1<2", "1<2 9", "1<0 2", "12|", "|12", "1||2", "x|y",
                     "1 2", "11", "13"):
            with pytest.raises(InvalidLabelError):
                CellLabel.from_bar_string(text)
        with pytest.raises(InvalidLabelError):
            CellLabel.from_bar_string("12", d=3)


class TestVertexCoordinates:
    def test_three_points_on_line(self):
        cfg = vertex_coordinates(CellLabel((1, 3, 2), (1, 1), 1))
        assert cfg.points == ((Fraction(-1),), (Fraction(1),), (Fraction(0),))

    def test_tie_separator_gives_zero_step(self):
        cfg = vertex_coordinates(CellLabel((1, 2, 3), (1, 2), 1))
        vals = [p[0] for p in cfg.points]
        assert vals == [Fraction(-2, 3), Fraction(1, 3), Fraction(1, 3)]

    def test_chain_is_centered_progression(self):
        n = 5
        cfg = vertex_coordinates(CellLabel(tuple(range(1, n + 1)), (1,) * (n - 1), 1))
        vals = [p[0] for p in cfg.points]
        assert vals == [Fraction(2 * k - (n - 1), 2) for k in range(n)]

    def test_columns_sum_to_zero(self):
        cfg = vertex_coordinates(BIG)
        for axis in range(2):
            assert sum(p[axis] for p in cfg.points) == 0


class TestFoxNeuwirth:
    def test_hand_example(self):
        cfg = Configuration(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
        assert fox_neuwirth_label(cfg) == CellLabel((1, 3, 2), (2, 1), 2)

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pts = rng.normal(size=(5, 3))
            shift = rng.normal(size=3)
            a = fox_neuwirth_label(Configuration(tuple(map(tuple, pts))))
            b = fox_neuwirth_label(Configuration(tuple(map(tuple, pts + shift))))
            assert a == b

    def test_big_permutation_realized(self):
        cfg = vertex_coordinates(BIG)
        lab = fox_neuwirth_label(cfg)
        assert lab.sigma == (3, 8, 1, 4, 7, 6, 5, 2)
        assert lab == BIG

    def test_coincident_points_get_tie_separator(self):
        cfg = Configuration(((1.0, 2.0), (1.0, 2.0)))
        assert fox_neuwirth_label(cfg) == CellLabel((1, 2), (3,), 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coordinates_rejected(self, bad):
        # NaN compares false both ways, so it used to yield a label
        with pytest.raises(ValueError, match="^coordinates must be finite numbers$"):
            fox_neuwirth_label([(bad, 0.0), (0.0, 0.0), (1.0, 2.0)])

    def test_huge_fraction_is_labelled(self):
        # exact and finite, though too large for a float
        lab = fox_neuwirth_label([(Fraction(10 ** 400), 0), (0, 0), (1, 2)])
        assert lab == CellLabel((2, 3, 1), (1, 1), 2)


class TestRoundtrip:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_complement_labels(self, d, n):
        count = 0
        for sigma in permutations(range(1, n + 1)):
            for seps in product(range(1, d + 1), repeat=n - 1):
                lab = CellLabel(sigma, seps, d)
                back = fox_neuwirth_label(vertex_coordinates(lab))
                assert back == lab
                count += 1
        assert count == factorial(n) * d ** (n - 1)


class TestGroupAction:
    def test_relabels_letters_keeps_separators(self):
        lab = CellLabel((1, 3, 2), (2, 1), 2)
        pi = (2, 3, 1)  # 1->2, 2->3, 3->1
        moved = group_action(pi, lab)
        assert moved.seps == (2, 1)
        assert moved.sigma == (2, 1, 3)

    def test_identity_and_composition(self):
        rng = np.random.default_rng(11)
        lab = CellLabel((2, 1, 4, 3), (3, 1, 2), 3)
        ident = tuple(range(1, 5))
        assert group_action(ident, lab) == lab
        for _ in range(25):
            pi = tuple(int(v) for v in rng.permutation(4) + 1)
            rho = tuple(int(v) for v in rng.permutation(4) + 1)
            comp = tuple(pi[rho[a] - 1] for a in range(4))
            assert group_action(comp, lab) == group_action(pi, group_action(rho, lab))

    def test_action_is_free(self):
        # no complement label at (2,3) is fixed by a non-identity permutation
        for sigma in permutations((1, 2, 3)):
            for seps in product((1, 2), repeat=2):
                lab = CellLabel(sigma, seps, 2)
                for pi in permutations((1, 2, 3)):
                    if pi == (1, 2, 3):
                        continue
                    assert group_action(pi, lab) != lab

    def test_orbit_size_is_factorial(self):
        lab = CellLabel((1, 3, 2), (2, 1), 2)
        orbit = {group_action(pi, lab) for pi in permutations((1, 2, 3))}
        assert len(orbit) == 6
        lab4 = CellLabel((2, 4, 1, 3), (2, 1, 2), 2)
        orbit4 = {group_action(pi, lab4) for pi in permutations((1, 2, 3, 4))}
        assert len(orbit4) == 24

    def test_rejects_tie_labels(self):
        with pytest.raises(InvalidLabelError):
            group_action((2, 1), CellLabel((1, 2), (3,), 2))

    def test_rejects_bad_permutation(self):
        with pytest.raises(ValueError):
            group_action((1, 1, 3), CellLabel((1, 2, 3), (1, 1), 2))
