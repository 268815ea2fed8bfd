import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitepw.maya import (
    BentPoint,
    MayaDiagram,
    Partition,
    partitions_of,
    rim,
)

from conftest import (
    all_partitions_up_to,
    diagrams,
    frobenius_sides,
    max_element,
    partitions,
    random_partition,
    walk_at,
)


def _bent_points(m, lo, hi):
    return [m.bent_point(n) for n in range(lo, hi + 1)]


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_basic(self):
        lam = Partition((4, 4, 3, 1, 1))
        assert lam.length == 5 and lam.size == 13
        assert lam.part(1) == 4 and lam.part(6) == 0

    def test_conjugate_example(self):
        assert Partition((4, 4, 3, 1, 1)).conjugate() == Partition((5, 3, 3, 2))
        assert Partition().conjugate() == Partition()
        assert Partition((3, 2, 1)).conjugate() == Partition((3, 2, 1))

    @given(partitions)
    def test_conjugate_involution(self, lam):
        assert lam.conjugate().conjugate() == lam
        assert lam.conjugate().size == lam.size

    def test_counts(self):
        assert len(list(partitions_of(12))) == 77
        assert len(list(all_partitions_up_to(12))) == 272
        assert list(partitions_of(0)) == [Partition()]

    def test_parse_round_trip(self):
        lam = Partition((4, 4, 1))
        assert Partition.parse(str(lam)) == lam
        assert Partition.parse("()") == Partition()
        assert Partition(tuple(json.loads(json.dumps(lam.to_json())))) == lam

    def test_even(self):
        assert Partition((2, 2, 1, 1)).is_even()
        assert not Partition((2, 1, 1)).is_even()
        assert Partition().is_even()


class TestMayaBasics:
    def test_validation(self):
        # outside input; shift and from_partition build their results
        # without these checks
        with pytest.raises(ValueError):
            MayaDiagram((1, 2), ())
        with pytest.raises(ValueError):
            MayaDiagram((1, 1), ())
        with pytest.raises(ValueError):
            MayaDiagram((), (2, 2))
        with pytest.raises(ValueError):
            MayaDiagram((-1,), ())

    def test_membership(self):
        m = MayaDiagram.parse("5,2,1|2,1")
        assert 2 in m and 1 in m and 0 not in m
        assert -1 in m and -2 not in m and -3 not in m and -6 not in m and -7 in m

    def test_min_hole_max_element(self):
        m = MayaDiagram.parse("5,2,1|2,1")
        assert m.min_hole() == -6 and max_element(m) == 2
        assert MayaDiagram.parse("|").min_hole() == 0
        assert max_element(MayaDiagram.parse("|")) == -1
        assert max_element(MayaDiagram.parse("1,0|")) == -3

    def test_parse_str_round_trip(self):
        for text in ("5,2,1|2,1", "5,2|", "|1,2,4,5", "|"):
            m = MayaDiagram.parse(text)
            assert MayaDiagram.parse(str(m)) == m

    @given(diagrams)
    def test_serialization_round_trips(self, m):
        assert MayaDiagram.parse(str(m)) == m


class TestPartitionBijection:
    def test_known_values(self):
        assert MayaDiagram.parse("5,2,1|2,1").partition() == Partition((4, 4, 3, 1, 1))
        assert MayaDiagram.parse("|").partition() == Partition()
        assert MayaDiagram.parse("|5,4,2,1").partition() == Partition((2, 2, 1, 1))

    def test_standard_form_examples(self):
        assert MayaDiagram.from_partition(Partition((4, 4, 3, 1, 1))).t == (8, 7, 5, 2, 1)
        assert MayaDiagram.from_partition(Partition()) == MayaDiagram.parse("|")
        assert MayaDiagram.from_partition(Partition((2, 2, 1, 1))).t == (5, 4, 2, 1)
        assert MayaDiagram.from_partition(Partition((4, 4, 1, 1))).t == (7, 6, 2, 1)

    def test_round_trip_exhaustive(self):
        for lam in all_partitions_up_to(12):
            m = MayaDiagram.from_partition(lam)
            assert m.partition() == lam
            assert MayaDiagram(m.s, m.t) == m

    def test_round_trip_randomized_large(self):
        rng = random.Random(31337)
        for _ in range(120):
            lam = random_partition(rng, 40)
            assert MayaDiagram.from_partition(lam).partition() == lam

    @given(diagrams, st.integers(min_value=-20, max_value=20))
    @settings(max_examples=150)
    def test_shift_invariance(self, m, k):
        assert m.shift(k).partition() == m.partition()


class TestShift:
    def test_examples(self):
        assert MayaDiagram.parse("|0").shift(-1) == MayaDiagram.parse("|")
        gh25 = MayaDiagram.from_sets(range(2, 7))
        assert gh25.shift(-7) == MayaDiagram.parse("6,5|")
        m = MayaDiagram.parse("5,2,1|2,1")
        assert m.shift(0) == m
        assert m.shift(6) == MayaDiagram.parse("|8,7,5,2,1")
        assert m.shift(3) == MayaDiagram.parse("2|5,4,2")

    @given(diagrams, st.integers(min_value=-15, max_value=15))
    def test_shift_inverse(self, m, k):
        assert m.shift(k).shift(-k) == m

    @given(st.builds(MayaDiagram, frobenius_sides(6, 14), frobenius_sides(6, 14)),
           st.integers(min_value=-15, max_value=15))
    @settings(max_examples=300)
    def test_shift_matches_membership(self, m, k):
        # shift builds its Frobenius symbol without the constructor's checks:
        # the result must be the diagram {x + k : x in M}, and a valid one
        shifted = m.shift(k)
        assert all((x + k in shifted) == (x in m) for x in range(-40, 41))
        rebuilt = MayaDiagram(shifted.s, shifted.t)
        assert rebuilt == shifted and hash(rebuilt) == hash(shifted)

    def test_standardize(self):
        m = MayaDiagram.parse("5,2,1|2,1")
        std, k = m.standardize()
        assert std == MayaDiagram.parse("|8,7,5,2,1") and k == -6
        assert not std.s and 0 not in std.t
        already = MayaDiagram.parse("|3,1")
        assert already.standardize() == (already, 0)

    @given(diagrams)
    def test_standardize_unique(self, m):
        std, k = m.standardize()
        assert not std.s and 0 not in std.t
        assert m.shift(-k) == std and std.shift(k) == m


class TestBentDiagram:
    def test_window_and_values(self):
        m = MayaDiagram.from_partition(Partition((4, 4, 3, 1, 1)))
        assert m.bent_point(0) == BentPoint(0, 0, 5)
        assert m.bent_point(9) == BentPoint(9, 4, 0)

    @given(diagrams)
    @settings(max_examples=100)
    def test_step_rule(self, m):
        lo, hi = m.min_hole() - 3, max_element(m) + 3
        pts = _bent_points(m, lo, hi)
        for a, b in zip(pts, pts[1:]):
            step = (b.holes_below - a.holes_below,
                    b.filled_at_or_above - a.filled_at_or_above)
            assert step in ((1, 0), (0, -1))
            assert (step == (0, -1)) == (a.n in m)

    @given(diagrams, st.integers(min_value=-8, max_value=8))
    @settings(max_examples=100)
    def test_index_shift_rule(self, m, k):
        shifted = m.shift(-k)
        for n in range(-4, 5):
            a = shifted.bent_point(n)
            b = m.bent_point(n + k)
            assert (a.holes_below, a.filled_at_or_above) == \
                (b.holes_below, b.filled_at_or_above)

    @given(diagrams, st.integers(min_value=-12, max_value=12),
           st.integers(min_value=0, max_value=16))
    @settings(max_examples=100)
    def test_girth_walk(self, m, lo, width):
        # the sparse walk, read straight between its ascending points, is
        # the shifted girth and the membership on every window
        ks = [k for k, _, _ in m.walk()]
        assert ks == sorted(set(ks))
        assert [walk_at(m, k) for k in range(lo, lo + width + 1)] == \
            [(m.shift(-k).girth, k in m) for k in range(lo, lo + width + 1)]


class TestRim:
    def test_small(self):
        assert rim(Partition()) == frozenset()
        assert rim(Partition((1,))) == frozenset({(1, 1)})

    def test_rim_equals_positive_bent_part(self):
        for lam in all_partitions_up_to(12):
            m = MayaDiagram.from_partition(lam)
            lo, hi = m.min_hole() - 1, max_element(m) + 2
            bent_positive = {
                (p.holes_below, p.filled_at_or_above)
                for p in _bent_points(m, lo, hi)
                if p.holes_below > 0 and p.filled_at_or_above > 0
            }
            assert bent_positive == set(rim(lam)), lam


class TestFlips:
    def test_add_remove(self):
        m = MayaDiagram.parse("|2,1")
        assert m.add(0) == MayaDiagram.parse("|2,1,0")
        assert m.add(0).remove(0) == m
        with pytest.raises(ValueError):
            m.add(1)
        with pytest.raises(ValueError):
            m.remove(0)

    def test_negative_flip(self):
        m = MayaDiagram.parse("1|")
        assert -2 not in m
        assert m.add(-2) == MayaDiagram.parse("|")
        assert MayaDiagram.parse("|").remove(-2) == m
