import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hermitepw.minorder as minorder
from hermitepw.maya import BentPoint, MayaDiagram, Partition
from hermitepw.minorder import (
    durfee_symbol,
    girth_level_set,
    inside_corners,
    min_order_after_insert,
    minimal_girth,
    minimal_girth_of_diagram,
)
from hermitepw.xhermite import XHermiteFamily

from conftest import (
    all_partitions_up_to,
    diagrams,
    max_element,
    random_diagram,
    random_partition,
    split_window,
    walk_at,
)


def min_origin(lam, n):
    """The (order, origin) that xhermite builds the degree-n member at."""
    _, order, _, origin, _ = XHermiteFamily(lam).placement(n)
    return order, origin


def brute_minimum(m):
    # one step wider than the library's search on each side
    lo, hi = m.min_hole() - 1, max_element(m) + 2
    vals = {k: m.shift(-k).girth for k in range(lo, hi + 1)}
    r = min(vals.values())
    return r, [k for k in range(lo, hi + 1) if vals[k] == r]


def corner_label(lam, v):
    # k_v from the corner inventory: the largest valley at girth level v
    return max((k for k, g in minimal_girth(lam).corners if g == v), default=None)


class TestGirth:
    def test_examples(self):
        assert MayaDiagram.parse("5,2,1|2,1").girth == 5
        assert MayaDiagram.parse("|").girth == 0
        assert MayaDiagram.parse("5,2|").girth == 2

    def test_walk_matches_shifted_girth(self, rng):
        for _ in range(50):
            m = random_diagram(rng, max_girth=5, max_val=9)
            assert [walk_at(m, k)[0] for k in range(-6, 7)] == \
                [m.shift(-k).girth for k in range(-6, 7)]


class TestMinimalGirth:
    def test_golden(self):
        rep = minimal_girth(Partition((2, 2, 1, 1)))
        assert (rep.r, rep.origins) == (2, (6,))
        rep = minimal_girth(Partition((4, 4, 1, 1)))
        assert (rep.r, rep.origins) == (3, (3,))
        assert minimal_girth(Partition()).r == 0

    def test_non_unique_origins(self):
        rep = minimal_girth(Partition((4, 4, 3, 1, 1)))
        assert rep.r == 4 and rep.origins == (3, 9)

    def test_origins_are_corners(self):
        for lam in all_partitions_up_to(10):
            m = MayaDiagram.from_partition(lam)
            rep = minimal_girth(lam)
            for k in rep.origins:
                assert (k - 1) in m and k not in m

    def test_brute_force_exhaustive(self):
        for lam in all_partitions_up_to(12):
            m = MayaDiagram.from_partition(lam)
            r, origins = brute_minimum(m)
            rep = minimal_girth(lam)
            assert (rep.r, list(rep.origins)) == (r, origins), lam

    def test_corner_inventory(self):
        rep = minimal_girth(Partition((2, 2, 1, 1)))
        assert rep.corners == ((0, 4), (3, 3), (6, 2))

    def test_valleys_match_the_full_walk_exhaustive(self):
        # the valleys come from the entries of (s | t) alone; the shifted
        # girth over a window wider than [min_hole, max_element + 1] is the
        # oracle, for every partition of size <= 12 at every origin of that
        # window
        cases = 0
        for lam in all_partitions_up_to(12):
            std = MayaDiagram.from_partition(lam)
            for j in range(std.min_hole() - 1, max_element(std) + 3):
                m = std.shift(-j)
                lo, hi = m.min_hole() - 3, max_element(m) + 4
                walk = {k: m.shift(-k).girth for k in range(lo, hi + 1)}
                valleys = [(k, g) for k, g in walk.items() if k - 1 in m and k not in m]
                r = min(walk.values())
                assert minorder._valleys(m) == valleys, (lam, j)
                assert minimal_girth_of_diagram(m) == (r, [k for k, g in walk.items() if g == r])
                cases += 1
            rep = minimal_girth(lam)
            assert list(rep.corners) == minorder._valleys(std)
        assert cases == 3238

    def test_valley_search_does_not_walk(self, monkeypatch):
        # its cost follows the Frobenius symbol, not the distance between
        # its entries: each search reads one sparse walk of the 7 points next
        # to the entries and the origin, and no integer is tested on its own
        walks, real_walk = [], MayaDiagram.walk
        monkeypatch.setattr(MayaDiagram, "walk", lambda m: walks.append(real_walk(m)) or walks[-1])
        monkeypatch.setattr(MayaDiagram, "__contains__", None)
        m = MayaDiagram((3,), (10 ** 6, 2))
        assert minimal_girth_of_diagram(m) == (3, [0])
        assert minorder._valleys(m) == [(-4, 5), (0, 3), (3, 4), (10 ** 6 + 1, 10 ** 6)]
        assert [len(w) for w in walks] == [7, 7]


# conftest.diagrams has every entry in [0, 10]: holes and elements of t lie
# in [-11, 10], outside [-11, 11] the walk moves away from its minimum by 1
# per step, and every point of level <= 7 lies in [-18, 18]
ORACLE_WINDOW = range(-30, 31)


class TestSparseWalk:
    @given(diagrams, st.integers(min_value=0, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_matches_shift_oracle(self, m, r):
        g = {k: m.shift(-k).girth for k in ORACLE_WINDOW}
        holes, elements = split_window(m, ORACLE_WINDOW.start, ORACLE_WINDOW.stop)
        assert (m.min_hole(), max_element(m)) == (holes[0], elements[-1])
        assert m.shift(-holes[0]) == MayaDiagram.from_partition(m.partition())
        for n in range(-13, 14):
            below = sum(1 for h in holes if h < n)
            assert m.bent_point(n) == BentPoint(n, below, sum(1 for e in elements if e >= n))
            assert sum(m.bent_point(n)[1:]) == g[n]
        assert minorder._valleys(m) == \
            [(k, g[k]) for k in ORACLE_WINDOW if k - 1 in m and k not in m]
        low = min(g.values())
        assert minimal_girth_of_diagram(m) == (low, [k for k in ORACLE_WINDOW if g[k] == low])
        assert girth_level_set(m, r) == [k for k in ORACLE_WINDOW if g[k] == r]

    def test_far_apart_entries_closed_forms(self, monkeypatch):
        # no integer is tested on its own, so the distance between the
        # entries costs nothing
        monkeypatch.setattr(MayaDiagram, "__contains__", None)
        # holes -4, 0, 1 and 3..10^6-1: g(k) = k + 1 on [3, 10^6] and k - 1
        # from 10^6 + 1 on
        m = MayaDiagram((3,), (10 ** 6, 2))
        assert m.partition() == Partition((10 ** 6, 3, 1, 1, 1))
        assert (m.min_hole(), max_element(m)) == (-4, 10 ** 6)
        assert m.bent_point(5 * 10 ** 5) == BentPoint(5 * 10 ** 5, 5 * 10 ** 5, 1)
        assert m.bent_point(10 ** 6 + 1) == BentPoint(10 ** 6 + 1, 10 ** 6, 0)
        assert minorder._valleys(m) == [(-4, 5), (0, 3), (3, 4), (10 ** 6 + 1, 10 ** 6)]
        assert minimal_girth_of_diagram(m) == (3, [0])
        assert girth_level_set(m, 4) == [-1, 1, 3]
        assert girth_level_set(m, 10 ** 6) == [1 - 10 ** 6, 10 ** 6 - 1, 10 ** 6 + 1]
        # the standard diagram of (10^9): g(k) = 1 - k below 0 and 1 + k up to 10^9
        m = MayaDiagram((), (10 ** 9,))
        assert m.partition() == Partition((10 ** 9,))
        assert (m.min_hole(), max_element(m)) == (0, 10 ** 9)
        assert m.bent_point(10 ** 9) == BentPoint(10 ** 9, 10 ** 9, 1)
        assert minorder._valleys(m) == [(0, 1), (10 ** 9 + 1, 10 ** 9)]
        assert minimal_girth_of_diagram(m) == (1, [0])
        assert girth_level_set(m, 2) == [-1, 1]
        assert girth_level_set(m, 10 ** 9) == [1 - 10 ** 9, 10 ** 9 - 1, 10 ** 9 + 1]


class TestLevelSets:
    def test_levels_vs_valleys(self):
        lam = Partition((2, 2, 1, 1))
        m = MayaDiagram.from_partition(lam)
        assert girth_level_set(m, 2) == [6]
        assert girth_level_set(m, 3) == [3, 5, 7]
        assert [k for k, g in minimal_girth(lam).corners if g == 3] == [3]
        assert corner_label(lam, 3) == 3
        assert corner_label(lam, 2) == 6
        assert minorder._levels(m)[:4] == (2, 6, 3, [6])

    def test_corner_labels_golden(self):
        lam = Partition((4, 4, 1, 1))
        assert corner_label(lam, 3) == 3
        assert corner_label(lam, 4) == 8
        assert minorder._levels(MayaDiagram.from_partition(lam))[:3] == (3, 3, 8)

    def test_empty_level(self):
        # r = 0 at the one valley 0; level 1 holds -1 and 1, neither a valley
        m = MayaDiagram.parse("|")
        assert minorder._levels(m) == (0, 0, None, [0], [-1, 1], [-2, 2])

    @given(diagrams, st.integers(min_value=-6, max_value=6),
           st.integers(min_value=0, max_value=13))
    @example(MayaDiagram(), 0, 0)
    @example(MayaDiagram(), 0, 5)
    @example(MayaDiagram((), (7, 4, 2, 1)), 3, 1)     # below the minimum
    @example(MayaDiagram((9, 4), (8, 1)), -5, 13)
    @settings(max_examples=300, deadline=None)
    def test_level_set_matches_brute_force(self, m, j, r):
        # every level, below the minimum too, on shifted diagrams; the
        # brute-force window is far wider than the library's
        m = m.shift(j)
        ks = range(m.min_hole() - 30, max_element(m) + 31)
        assert girth_level_set(m, r) == [k for k in ks if m.shift(-k).girth == r]


class TestInsideCorners:
    def test_examples(self):
        ic = inside_corners(Partition((4, 4, 3, 1, 1)))
        assert ic.strict == ((3, 2), (1, 3))
        assert ic.degenerate == ((4, 0), (0, 5))
        single = inside_corners(Partition((7,)))
        assert single.strict == ()
        assert single.degenerate == ((7, 0), (0, 1))

    def test_against_cell_rule(self):
        for lam in all_partitions_up_to(12):
            f = lam.ferrers()
            expected = tuple(sorted(
                ((i, j) for (i, j) in f
                 if (i + 1, j) in f and (i, j + 1) in f and (i + 1, j + 1) not in f),
                key=lambda c: c[1]))
            assert inside_corners(lam).strict == expected, lam


class TestDurfee:
    def test_golden_symbols(self):
        small = MayaDiagram.parse("8,5,2|5,2")
        d = durfee_symbol(small)
        assert (d.mu, d.nu, d.p, d.q) == (Partition((6, 4, 2)), Partition((4, 2)), 3, 2)
        assert str(d) == "[6,4,2 | 4,2]_{3x2}"
        gh = durfee_symbol(MayaDiagram.parse("7,6,5|"))
        assert (gh.mu, gh.nu, gh.p, gh.q) == (Partition((5, 5, 5)), Partition(), 3, 0)

    def test_standard_form_gives_partition_itself(self):
        for lam in all_partitions_up_to(9):
            m = MayaDiagram.from_partition(lam)
            d = durfee_symbol(m)
            assert d.nu == lam and d.p == 0

    def test_accounting_at_every_corner(self):
        for lam in all_partitions_up_to(10):
            m = MayaDiagram.from_partition(lam)
            for k, _ in minimal_girth(lam).corners:
                d = durfee_symbol(m.shift(-k))
                assert d.p * d.q + d.mu.size + d.nu.size == lam.size, (lam, k)

    def test_rejects_non_corner(self):
        with pytest.raises(ValueError):
            durfee_symbol(MayaDiagram.parse("|1,0"))
        with pytest.raises(ValueError):
            durfee_symbol(MayaDiagram.parse("3,0|"))


class TestInsert:
    def test_case_b_golden(self):
        m = MayaDiagram.from_partition(Partition((2, 2, 1, 1)))
        rep = min_order_after_insert(m, 6)
        assert rep.case == "b" and rep.r == 2 and 7 in rep.origins

    def test_insert_origin_eight(self):
        m = MayaDiagram.from_partition(Partition((4, 4, 1, 1)))
        for n in (9, 10, 11):
            rep = min_order_after_insert(m, n - 6)
            assert 8 in rep.origins, n

    def test_insert_at_upper_corner_label(self):
        # inserting exactly at the girth-4 corner label bumps the order;
        # 8 itself stops being an origin
        m = MayaDiagram.from_partition(Partition((4, 4, 1, 1)))
        rep = min_order_after_insert(m, 8)
        assert rep.case == "d" and rep.r == 4
        assert rep.origins == (3, 9)

    def test_rejects_present_element(self):
        with pytest.raises(ValueError):
            min_order_after_insert(MayaDiagram.parse("|1"), 1)

    def test_cases_match_recomputation(self, rng):
        seen = {"a": 0, "b": 0, "c": 0, "d": 0}
        for _ in range(500):
            lam = random_partition(rng, 12)
            m = MayaDiagram.from_partition(lam).shift(rng.randint(-4, 4))
            # every hole below max(0, max(M) + 1) and the next four
            choices = split_window(m, m.min_hole(), max(0, max_element(m) + 1) + 4)[0]
            new = rng.choice(choices)
            rep = min_order_after_insert(m, new)
            seen[rep.case] += 1
            r, origins = minimal_girth_of_diagram(m.add(new))
            assert rep.r == r, (m, new)
            assert list(rep.origins) == origins, (m, new)
        assert all(v > 0 for v in seen.values()), seen

    def test_theorem_exhaustive(self):
        # every family member with |lam| <= 12 and n < |lam| + 40: the four
        # cases against a search of the enlarged diagram, and xhermite's
        # pick of the origin a member is built at
        seen = {"a": 0, "b": 0, "c": 0, "d": 0}
        for lam in all_partitions_up_to(12):
            m, offset = MayaDiagram.from_partition(lam), lam.size - lam.length
            for n in range(lam.size + 40):
                pos = n - offset
                if pos in m:
                    continue
                rep = min_order_after_insert(m, pos)
                seen[rep.case] += 1
                r, origins = minimal_girth_of_diagram(m.add(pos))
                assert (rep.r, list(rep.origins)) == (r, origins), (lam, n)
                pick = max((k for k in origins if k < pos), default=origins[-1])
                assert min_origin(lam, n) == (r, pick), (lam, n)
        assert seen == {"a": 429, "b": 272, "c": 98, "d": 10081}

    def test_monotone_by_one(self, rng):
        for _ in range(120):
            m = random_diagram(rng, max_girth=5, max_val=9)
            r0, _ = minimal_girth_of_diagram(m)
            new = rng.choice(split_window(m, m.min_hole(), max(0, max_element(m) + 1) + 1)[0])
            r1, _ = minimal_girth_of_diagram(m.add(new))
            assert abs(r1 - r0) <= 1


class TestXhermiteMinOrigin:
    def test_branch_selection(self):
        lam = Partition((2, 2, 1, 1))
        assert min_origin(lam, 2) == (1, 6)
        assert min_origin(lam, 5) == (1, 6)
        assert min_origin(lam, 8) == (2, 7)
        assert min_origin(lam, 9) == (3, 6)
        lam2 = Partition((4, 4, 1, 1))
        assert min_origin(lam2, 6) == (2, 3)
        assert min_origin(lam2, 9) == (3, 8)
        assert min_origin(lam2, 10) == (3, 8)
        assert min_origin(lam2, 11) == (3, 8)
        assert min_origin(lam2, 14) == (4, 3)
        assert min_origin(lam2, 15) == (4, 3)

    def test_outputs_pinned(self):
        # every admissible member with |lam| <= 10 and n < |lam| + 30
        lines = []
        for lam in all_partitions_up_to(10):
            m, offset = MayaDiagram.from_partition(lam), lam.size - lam.length
            lines += [f"{lam}|{n}|{min_origin(lam, n)}"
                      for n in range(lam.size + 30) if n - offset not in m]
        assert len(lines) == 4170
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            "f25c58584ecc3d61d92589f0b9efa5255e4e6471e2c6f09db5fbb7e0cfeffe1b"

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            min_origin(Partition((2, 2, 1, 1)), 3)
        with pytest.raises(ValueError):
            min_origin(Partition((1,)), -1)

    def test_large_n_tail(self):
        for lam in (Partition((2, 1)), Partition((3, 3)), Partition((2, 2, 2))):
            r, k_r, *_ = minorder._levels(MayaDiagram.from_partition(lam))
            n = 40
            assert min_origin(lam, n) == (r + 1, k_r)

    def test_against_insert_machinery(self, rng):
        for _ in range(250):
            lam = random_partition(rng, 10)
            m = MayaDiagram.from_partition(lam)
            offset = lam.size - lam.length
            n = rng.randint(0, 24)
            if (n - offset) in m or n < 0:
                continue
            r_n, origin = min_origin(lam, n)
            rep = min_order_after_insert(m, n - offset)
            assert r_n == rep.r, (lam, n)
            assert origin in rep.origins, (lam, n, origin, rep)

    def test_corner_data_from_one_walk(self):
        # the theorem inputs against the corner inventory of minimal_girth's
        # one walk and the level sets
        for lam in all_partitions_up_to(10):
            m = MayaDiagram.from_partition(lam)
            r = minimal_girth(lam).r
            levels = [girth_level_set(m, v) for v in (r, r + 1, r + 2)]
            assert minorder._levels(m) == (
                r, corner_label(lam, r), corner_label(lam, r + 1), *levels)

    def test_fifty_members_make_fifty_searches(self, monkeypatch):
        # each member is placed by one minimal-girth search of its own
        # enlarged diagram, and the insertion theorem is never called
        import hermitepw.hermite as hermite
        import hermitepw.xhermite as xhermite

        lam = Partition((4, 4, 1, 1))
        m, offset = MayaDiagram.from_partition(lam), lam.size - lam.length
        degrees = [n for n in range(80) if n - offset not in m][:50]
        xhermite._member.cache_clear()
        xhermite._family(lam).weight
        searched, theorem = [], []
        real_search, real_theorem = minorder.minimal_girth_of_diagram, minorder.min_order_after_insert
        for module in (minorder, hermite, xhermite):
            monkeypatch.setattr(module, "minimal_girth_of_diagram",
                                lambda d: searched.append(d) or real_search(d))
        monkeypatch.setattr(minorder, "min_order_after_insert",
                            lambda *a: theorem.append(a) or real_theorem(*a))
        for n in degrees:
            xhermite.min_order_form(lam, n)
        assert len(degrees) == 50
        assert searched == [m.add(n - offset) for n in degrees]
        assert theorem == []
