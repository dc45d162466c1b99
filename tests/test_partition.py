"""Partition constructors: balance bounds, determinism, and serialization."""

import hashlib
import json
import math
import re
from unittest import mock

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from condgof import (
    Partition,
    backend,
    gessaman_partition,
    marginal_grid_partition,
    rtp_partition,
)
from condgof.errors import InsufficientDataError, InvalidArgumentError, UncoveredPointError
from condgof.mc import law_grid_partition
from condgof.partition import (
    partition_from_dict,
    partition_to_dict,
    product_partition,
)

from locate_oracle import locate_scan


def _json_text(part):
    """The partition's document as JSON text, the way the CLI writes it."""
    return json.dumps(partition_to_dict(part), indent=2)


def splits_per_axis(part, T):
    """Splits on each axis of a tree on distinct data: T - 1 new thresholds per split."""
    return [np.unique(u[np.isfinite(u)]).size // (T - 1) for u in part.upper.T]


def cell_counts(part, x):
    """Rows of x in each cell of part, located by locate0."""
    return np.bincount(part.locate0(x), minlength=part.J)


def _uniform(n, k, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.uniform(-1.0, 1.0, (n, k))


class TestCell:
    def test_contains_is_right_closed(self):
        part = Partition(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]), "fixed")
        assert part.locate0(np.array([[1.0, 1.0]])).tolist() == [0]
        with pytest.raises(UncoveredPointError):
            part.locate0(np.array([[0.0, 0.5]]))
        with pytest.raises(InvalidArgumentError, match="points have dimension 3, partition has 2"):
            part.locate0(np.zeros((1, 3)))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(InvalidArgumentError):
            Partition(np.array([[1.0]]), np.array([[0.0]]), "fixed")
        for lower, upper, origin, message in (
            ([[0.0]], [[1.0]], "voronoi", "unknown partition origin 'voronoi'"),
            (np.empty((0, 1)), np.empty((0, 1)), "fixed", "at least one cell"),
            ([[np.nan]], [[1.0]], "fixed", "must not be NaN"),
        ):
            with pytest.raises(InvalidArgumentError, match=message):
                Partition(lower, upper, origin)
        # ragged, non-numeric, complex, text and object bounds and points are refused
        # as the package's error
        part = Partition([[0.0]], [[1.0]])
        for bad in (
            [[0.0], [0.0, 1.0]], [["a"]], [[{}]], np.array([[0.5 + 2j]]), [[0.5j]],
            [[" -inf "]], [["1e0"]], [[b"0.5"]], np.array([[0.5]], dtype=object),
        ):
            with pytest.raises(InvalidArgumentError, match="rectangular array of numbers"):
                Partition(bad, [[1.0]])
            with pytest.raises(InvalidArgumentError, match="rectangular array of numbers"):
                Partition([[0.0]], bad)
            with pytest.raises(InvalidArgumentError, match="rectangular array of numbers"):
                part.locate0(bad)


class TestGessaman:
    def test_k1_t3_n10_sizes(self):
        x = _uniform(10, 1, 0)
        part, _ = gessaman_partition(x, 3)
        counts = sorted(cell_counts(part, x), reverse=True)
        assert counts == [4, 3, 3]

    def test_k2_t2_n8_even(self):
        x = _uniform(8, 2, 1)
        part, _ = gessaman_partition(x, 2)
        assert part.J == 4
        assert list(cell_counts(part, x)) == [2, 2, 2, 2]

    def test_balance_bound_many_datasets(self):
        for seed in range(200):
            rng = np.random.Generator(np.random.Philox(seed))
            n = int(rng.integers(30, 200))
            k = int(rng.integers(1, 4))
            T = int(rng.integers(2, 4))
            if n < T**k:
                continue
            x = rng.normal(0.0, 1.0, (n, k))
            part, _ = gessaman_partition(x, T)
            counts = cell_counts(part, x)
            assert part.J == T**k
            assert counts.sum() == n
            assert counts.max() - counts.min() <= 1, (seed, counts)

    def test_covers_space_beyond_sample(self):
        x = _uniform(50, 2, 5)
        part, _ = gessaman_partition(x, 2)
        probes = _uniform(500, 2, 6) * 10.0  # far outside the sample range
        idx = part.locate0(probes)
        assert (idx >= 0).all()

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            gessaman_partition(_uniform(7, 3, 2), 2)  # needs 8
        # 2**64 would wrap to 0 in numpy's int64
        with pytest.raises(InsufficientDataError, match="T\\^k = 18446744073709551616 points"):
            gessaman_partition(_uniform(10, 64, 2), np.int64(2))
        with pytest.raises(InsufficientDataError, match="need at least T = 3 points, got 2"):
            marginal_grid_partition(_uniform(2, 2, 2), 3)
        x = _uniform(20, 2, 2)
        for T in (2.5, 2.0, np.float64(2.0), "2", 1):
            with pytest.raises(InvalidArgumentError, match="T must be an integer >= 2"):
                gessaman_partition(x, T)
            with pytest.raises(InvalidArgumentError, match="T must be an integer >= 2"):
                marginal_grid_partition(x, T)
        for bad in ([[0.0, 1.0], [0.5]], [["a", 1.0]], [[{}, 1.0]]):
            for build in (gessaman_partition, marginal_grid_partition):
                with pytest.raises(InvalidArgumentError, match="rectangular array of numbers"):
                    build(bad, 2)
        for build in (gessaman_partition, marginal_grid_partition):
            with pytest.raises(InvalidArgumentError, match="covariates contain non-finite"):
                build(np.vstack([x, [[0.0, np.inf]]]), 2)

    def test_duplicate_heavy_data(self):
        x = np.array([[0.0]] * 7 + [[1.0]] * 5)
        part, _ = gessaman_partition(x, 2)
        counts = cell_counts(part, x)
        # all duplicates of the splitting value go left
        assert sorted(counts) == [5, 7]
        with pytest.raises(InsufficientDataError):
            gessaman_partition(np.zeros((10, 1)), 2)  # one distinct value


class TestMarginalGrid:
    def test_cell_count_and_cover(self):
        x = _uniform(100, 2, 7)
        part, _ = marginal_grid_partition(x, 3)
        assert part.J == 9
        assert part.origin == "fixed"
        assert (part.locate0(x) >= 0).all()

    def test_k1_matches_gessaman(self):
        # with one axis both rules are equal-count slicing
        x = _uniform(60, 1, 8)
        a = cell_counts(marginal_grid_partition(x, 3)[0], x)
        b = cell_counts(gessaman_partition(x, 3)[0], x)
        assert sorted(a) == sorted(b)


class TestRtp:
    def test_terminal_count_formula(self):
        for seed in range(40):
            rng = np.random.Generator(np.random.Philox(seed))
            k = int(rng.integers(1, 5))
            r = int(rng.integers(1, 4))
            T = int(rng.integers(2, 4))
            J = 1 + k * r * (T - 1)
            n = int(rng.integers(max(4 * J, 20), 8 * J + 40))
            x = rng.normal(0.0, 1.0, (n, k))
            part, cells = rtp_partition(x, T, r, seed=seed)
            assert part.J == J
            assert cells.dtype == np.int64
            assert splits_per_axis(part, T) == [r] * k
            counts = cell_counts(part, x)
            assert counts.sum() == n
            assert (counts > 0).all()

    def test_count_ratio_bound(self):
        # Splitting the current max cell into near-equal thirds can leave a
        # previous max of size T*min + (T-1) untouched, e.g. 39 -> (13,13,13)
        # -> (5,4,4) thrice -> two (2,2,1) splits gives max 5, min 1 at T=3.
        # So the universal guarantee is max <= T*min + (T-1).
        for seed in range(200):
            rng = np.random.Generator(np.random.Philox(1000 + seed))
            k = int(rng.integers(1, 4))
            r = int(rng.integers(1, 4))
            T = int(rng.integers(2, 4))
            J = 1 + k * r * (T - 1)
            n = int(rng.integers(2 * J, 12 * J))
            x = rng.uniform(-1, 1, (n, k))
            part, _ = rtp_partition(x, T, r, seed=seed)
            counts = cell_counts(part, x)
            assert counts.max() <= T * counts.min() + (T - 1), (seed, counts)

    def test_count_ratio_bound_binary(self):
        # For T=2 the guarantee tightens to max <= 2*min + 1: the parent of
        # the final min cell had at most 2*min + 1 points, and every other
        # terminal cell descends from a node no larger than that parent.
        for seed in range(200):
            rng = np.random.Generator(np.random.Philox(4000 + seed))
            k = int(rng.integers(1, 4))
            r = int(rng.integers(1, 5))
            J = 1 + k * r
            n = int(rng.integers(J, 12 * J))
            x = rng.uniform(-1, 1, (n, k))
            part, _ = rtp_partition(x, 2, r, seed=seed)
            counts = cell_counts(part, x)
            assert counts.max() <= 2 * counts.min() + 1, (seed, counts)

    def test_deterministic_in_seed(self):
        x = _uniform(300, 3, 9)
        p1, t1 = rtp_partition(x, 2, 2, seed=42)
        p2, t2 = rtp_partition(x, 2, 2, seed=42)
        p3, _ = rtp_partition(x, 2, 2, seed=43)
        assert p1 == p2
        assert np.array_equal(p1.locate0(x), p2.locate0(x))
        assert p1 != p3 or not np.array_equal(p1.locate0(x), p3.locate0(x))

    def test_axis_budget_respected(self):
        x = _uniform(200, 2, 10)
        part, _ = rtp_partition(x, 2, 3, seed=4)
        assert splits_per_axis(part, 2) == [3, 3]

    def test_t2_nonempty_at_n_equals_j(self):
        # n = J is the tight feasibility edge for binary splits
        for seed in range(60):
            k, r = 2, 2
            J = 1 + k * r
            x = _uniform(J, k, 2000 + seed)
            part, _ = rtp_partition(x, 2, r, seed=seed)
            assert list(sorted(cell_counts(part, x))) == [1] * J

    def test_equal_depth_balance(self):
        # kr = 7 = (2^3 - 1)/(2 - 1) admits a perfectly balanced binary tree
        for seed in range(30):
            x = _uniform(500, 7, 3000 + seed)
            part, _ = rtp_partition(x, 2, 1, seed=seed, equal_depth=True)
            counts = cell_counts(part, x)
            assert part.J == 8
            assert counts.max() - counts.min() <= 1

    def test_equal_depth_reshapes_budget(self):
        # kr = 2 with T = 2 is reshaped up to the smallest full tree, kr = 3
        x = _uniform(120, 2, 11)
        part, _ = rtp_partition(x, 2, 1, seed=1, equal_depth=True)
        assert part.J == 4
        assert sum(splits_per_axis(part, 2)) == 3

    def test_cells_disjoint_and_covering(self):
        x = _uniform(150, 2, 12)
        part, _ = rtp_partition(x, 3, 2, seed=5)
        probes = _uniform(2000, 2, 13) * 5.0
        lo, up = part.bounds()
        hits = ((probes[:, None, :] > lo[None]) & (probes[:, None, :] <= up[None])).all(
            axis=2
        )
        assert (hits.sum(axis=1) == 1).all()

    def test_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            rtp_partition(_uniform(4, 2, 14), 2, 2, seed=0)  # J = 5 > n
        # an absurd r or T is refused before the axis multiset is built
        with pytest.raises(InsufficientDataError, match=r"J = 2000000000000000001 points, got 30"):
            rtp_partition(_uniform(30, 2, 14), 2, 10**18, seed=0)
        for T, r in ((2, np.int64(2**62)), (np.int64(2**62), 2)):
            for equal_depth in (False, True):
                with pytest.raises(InsufficientDataError, match="got 30"):
                    rtp_partition(_uniform(30, 2, 14), T, r, seed=0, equal_depth=equal_depth)
        x = _uniform(30, 2, 14)
        bad = [
            dict(T=2, r=1, seed=-1),
            dict(T=2, r=1, seed=1.5),
            dict(T=2, r=1, seed=None),
            dict(T=2.5, r=1, seed=0),
            dict(T=2, r=1.5, seed=0),
            dict(T=2, r=0, seed=0),
            dict(T=2, r=True, seed=0),
            dict(T=2, r=1, seed=True),
            dict(T=np.float64(2.0), r=1, seed=0),
        ]
        for args in bad:
            with pytest.raises(InvalidArgumentError, match="must be an integer"):
                rtp_partition(x, **args)
        for covariates in ([[0.0, 1.0], [0.5]], [["a", 1.0]], [[{}, 1.0]]):
            with pytest.raises(InvalidArgumentError, match="rectangular array of numbers"):
                rtp_partition(covariates, 2, 1, seed=0)
        # Monte Carlo partition seeds span the whole uint64 range
        for seed in (2**64 - 1, np.uint64(2**64 - 1), np.int64(3)):
            part, _ = rtp_partition(x, 2, 1, seed=seed)
            assert part.seed == int(seed)


class TestLocate:
    def test_boundary_points_belong_left(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        part, _ = gessaman_partition(x, 2)
        # threshold sits at the last point of the left group: cells are right-closed
        j = part.locate0(np.array([1.0, 2.0, 2.0000001, 4.0]))
        assert j[0] == j[1] != j[2] == j[3]


def _probes(part, rng, n):
    """Points whose coordinates are mostly cell bounds or their neighbours.

    Each axis draws from its bounds (infinities included), the next float
    above each finite bound, NaN, +inf, -inf and a few stray values, so
    most rows lie on some cell face and many rows repeat.
    """
    cols = []
    for d in range(part.k):
        bounds = np.unique(np.concatenate((part.lower[:, d], part.upper[:, d])))
        finite = bounds[np.isfinite(bounds)]
        pool = np.concatenate(
            (bounds, np.nextafter(finite, np.inf), [np.nan, np.inf, -np.inf], rng.uniform(-3, 3, 4))
        )
        cols.append(rng.choice(pool, n))
    return np.column_stack(cols)


def _assert_kernel_is_oracle(part, pts):
    """locate_cells gives the box scan's int64 indices."""
    got = backend.locate_cells(pts, part.lower, part.upper)
    np.testing.assert_array_equal(got, locate_scan(pts, part.lower, part.upper))
    assert got.dtype == np.int64


def _built(kind, x, T, r, seed):
    if kind == "rtp":
        return rtp_partition(x, T, r, seed)[0]
    if kind == "gessaman":
        return gessaman_partition(x, T)[0]
    return marginal_grid_partition(x, T)[0]


class TestLocateTable:
    """backend.locate_cells against the box scan of tests/locate_oracle.py."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["rtp", "gessaman", "grid"]),
        st.integers(1, 3),
        st.integers(2, 3),
        st.integers(1, 3),
        st.sampled_from([None, 1, 0]),
        st.integers(0, 2**32 - 1),
    )
    def test_built_partitions(self, kind, k, T, r, decimals, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        x = rng.normal(size=(int(rng.integers(30, 300)), k))
        if decimals is not None:
            x = np.round(x, decimals)  # heavy ties on every axis
        try:
            part = _built(kind, x, T, r, seed)
        except InsufficientDataError:
            assume(False)
        _assert_kernel_is_oracle(part, np.concatenate((x, _probes(part, rng, 400))))
        # a file partition without one cell does not tile R^k: its points are uncovered
        doc = partition_to_dict(part)
        gone = int(rng.integers(part.J))
        del doc["cells"][gone]
        if doc["cells"]:
            holed = partition_from_dict(doc)
            _assert_kernel_is_oracle(holed, np.concatenate((x, _probes(part, rng, 400))))
            cells = part.locate0(x)
            want = np.where(cells == gone, -1, cells - (cells > gone))
            np.testing.assert_array_equal(backend.locate_cells(x, *holed.bounds()), want)

    def test_bounded_file_partition(self):
        # a grid on [0, 1]^2 read from a file leaves everything outside it uncovered
        part = partition_from_dict(
            partition_to_dict(product_partition([[0.0, 0.3, 1.0], [0.0, 0.5, 0.7, 1.0]]))
        )
        rng = np.random.Generator(np.random.Philox(3))
        pts = np.concatenate((_probes(part, rng, 500), rng.uniform(-0.5, 1.5, (500, 2))))
        _assert_kernel_is_oracle(part, pts)
        probes = np.array([[0.0, 0.5], [0.3, 0.5], [0.3, 0.6], [1.0, 1.0], [1.0, 1.1]])
        assert backend.locate_cells(probes, *part.bounds()).tolist() == [-1, 0, 1, 5, -1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_overlapping_boxes_first_cell_wins(self, k, J, seed):
        # the Partition constructor allows overlaps; only partition_from_dict rejects them
        rng = np.random.Generator(np.random.Philox(seed))
        values = np.array([-np.inf, -1.0, 0.0, 0.5, 1.0, np.inf])
        a = rng.integers(0, 5, (J, k))
        b = a + 1 + (rng.integers(0, 6, (J, k)) % (6 - 1 - a))
        part = Partition(values[a], values[b])
        _assert_kernel_is_oracle(part, _probes(part, rng, 300))

    def test_overlap_goes_to_the_first_cell(self):
        part = Partition(np.array([[0.0], [-1.0], [1.0]]), np.array([[2.0], [3.0], [np.inf]]))
        pts = np.array([[-1.0], [-0.5], [0.0], [1.5], [2.0], [2.5], [3.0], [np.inf], [np.nan]])
        _assert_kernel_is_oracle(part, pts)
        idx = backend.locate_cells(pts, part.lower, part.upper)
        assert idx.tolist() == [-1, 1, 1, 0, 0, 1, 1, 2, -1]

    def test_non_finite_coordinates(self):
        part, _ = rtp_partition(_uniform(200, 2, 30), 2, 2, seed=1)
        top = int(np.argmax(np.isposinf(part.upper).all(axis=1)))  # the cell holding (+inf, +inf)
        pts = np.array(
            [[np.nan, 0.0], [0.0, np.nan], [-np.inf, 0.0], [0.0, -np.inf], [np.inf, np.inf]]
        )
        _assert_kernel_is_oracle(part, pts)
        idx = backend.locate_cells(pts, part.lower, part.upper)
        assert idx.tolist() == [-1, -1, -1, -1, top]
        with pytest.raises(UncoveredPointError, match="row 0"):
            part.locate0(pts)

    @pytest.mark.parametrize("J", [63, 64, 65, 128, 129])
    def test_word_boundaries(self, J):
        # the J cells fill ceil(J / 64) words: the last one nearly full (63), full
        # (64, 128) or holding one cell (65, 129)
        edges = np.linspace(0.0, 1.0, J + 1)
        part = product_partition([edges])
        rng = np.random.Generator(np.random.Philox(J))
        pts = np.concatenate((_probes(part, rng, 2000), rng.uniform(-0.1, 1.1, (2000, 1))))
        _assert_kernel_is_oracle(part, pts)
        # the same cells in reverse order move each point to the other end of the words
        _assert_kernel_is_oracle(Partition(part.lower[::-1], part.upper[::-1]), pts)
        # cells J to 2J - 1 cover the whole line: a point outside [0, 1] falls
        # to cell J, one inside keeps its own cell
        wide = Partition(
            np.concatenate((part.lower, np.full((J, 1), -np.inf))),
            np.concatenate((part.upper, np.full((J, 1), np.inf))),
        )
        _assert_kernel_is_oracle(wide, pts)

    def test_no_axes(self):
        # with k = 0 every cell is all of R^0, and the first one wins
        part = Partition(np.zeros((3, 0)), np.zeros((3, 0)))
        pts = np.zeros((4, 0))
        _assert_kernel_is_oracle(part, pts)
        assert backend.locate_cells(pts, part.lower, part.upper).tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("k, T, r", [(6, 3, 10), (24, 2, 1)])
    def test_many_axes(self, k, T, r):
        # rtp trees of 121 and 25 cells: each point ANDs the sets of 6 or 24 axes
        x = _uniform(2000, k, 40 + k)
        part, cells = rtp_partition(x, T, r, seed=k)
        rng = np.random.Generator(np.random.Philox(k))
        pts = np.concatenate((x, _probes(part, rng, 2000)))
        _assert_kernel_is_oracle(part, pts)
        np.testing.assert_array_equal(backend.locate_cells(x, *part.bounds()), cells)
        with pytest.raises(UncoveredPointError, match="row 1"):
            part.locate0(np.concatenate((x[:1], np.full((1, k), np.nan))))


class TestSerialization:
    def test_round_trip_gessaman(self):
        x = _uniform(90, 2, 16)
        part, _ = gessaman_partition(x, 3)
        clone = partition_from_dict(partition_to_dict(part))
        assert clone == part
        assert np.array_equal(clone.locate0(x), part.locate0(x))

    def test_round_trip_rtp_json(self):
        x = _uniform(90, 3, 17)
        part, _ = rtp_partition(x, 2, 2, seed=99)
        clone = partition_from_dict(json.loads(_json_text(part)))
        assert clone == part
        assert clone.seed == 99 and clone.T == 2 and clone.r == 2

    def test_infinite_bounds_survive(self):
        part, _ = rtp_partition(_uniform(50, 1, 18), 2, 1, seed=0)
        clone = partition_from_dict(json.loads(_json_text(part)))
        assert np.isneginf(clone.lower[:, 0]).any()
        assert np.isposinf(clone.upper[:, 0]).any()

    def test_malformed_document(self):
        with pytest.raises(InvalidArgumentError):
            partition_from_dict({"origin": "fixed"})
        with pytest.raises(InvalidArgumentError):
            partition_from_dict({"cells": [{"lower": ["abc"], "upper": [1.0]}]})
        one = [{"lower": [0.0], "upper": [1.0]}]
        for field in ("seed", "T", "r"):
            for value in ("x", "3", 1.7, 3.0, True):
                with pytest.raises(InvalidArgumentError, match=f"{field} must be an integer"):
                    partition_from_dict({"cells": one, field: value})
        # bounds are finite numbers or exactly "inf"/"-inf", never coerced
        for bound in (True, "3", " 1e400 ", "Infinity", math.inf, 10**400):
            match = f"cell 1 bounds .* got {re.escape(repr(bound))}"
            with pytest.raises(InvalidArgumentError, match=match):
                partition_from_dict({"cells": one + [{"lower": [1.0], "upper": [bound]}]})
        with pytest.raises(InvalidArgumentError, match=r"unknown keys \['orign'\]"):
            partition_from_dict({"cells": one, "orign": "rtp"})
        with pytest.raises(InvalidArgumentError, match="cell 0 must hold exactly lower and upper"):
            partition_from_dict({"cells": [dict(one[0], weight=1.0)]})
        with pytest.raises(InvalidArgumentError, match="must be a JSON object"):
            partition_from_dict([one])
        clone = partition_from_dict({"cells": one, "origin": "rtp", "seed": 3, "T": 2, "r": 1})
        assert (clone.origin, clone.seed, clone.T, clone.r) == ("rtp", 3, 2, 1)
        for cells in (
            [],  # no cell
            [{"lower": [1.0], "upper": [0.0]}],  # inverted bounds
            [{"lower": [0.0], "upper": [0.0]}],  # empty cell
            [{"lower": [0.0], "upper": ["nan"]}],
            [{"lower": [0.0], "upper": [1.0]}, {"lower": [1.0, 0.0], "upper": [2.0, 1.0]}],
        ):
            with pytest.raises(InvalidArgumentError):
                partition_from_dict({"cells": cells})
        # overlapping boxes: in 1-d, and a 2-d box across the face two others share
        with pytest.raises(InvalidArgumentError, match="cells 0 and 1 overlap"):
            partition_from_dict(
                {"cells": [{"lower": ["-inf"], "upper": [0.5]}, {"lower": [0.0], "upper": ["inf"]}]}
            )
        boxes = [
            {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            {"lower": [1.0, 0.0], "upper": [2.0, 1.0]},
            {"lower": [0.5, 0.5], "upper": [1.5, 2.0]},
        ]
        with pytest.raises(InvalidArgumentError, match="cells 0 and 2 overlap"):
            partition_from_dict({"cells": boxes})
        # shared faces are legal: a cell is lower < x <= upper
        assert partition_from_dict({"cells": boxes[:2]}).J == 2


def _pinned_cases():
    """Seeded builds whose documents are pinned across versions."""
    x2 = _uniform(240, 2, 21)
    x3 = _uniform(300, 3, 22)
    dup = np.round(_uniform(240, 2, 23), 1)  # heavy duplicates
    yield "gessaman_T2", gessaman_partition(x3, 2)[0]
    yield "gessaman_T3", gessaman_partition(x2, 3)[0]
    yield "grid_T3", marginal_grid_partition(x3, 3)[0]
    yield "law_normal", law_grid_partition("normal", 2, 3)
    yield "law_uniform", law_grid_partition("uniform", 3, 2)
    for T in (2, 3):
        for r in (1, 2, 3):
            yield f"rtp_T{T}_r{r}", rtp_partition(x3, T, r, seed=31 + r)[0]
            yield f"rtp_T{T}_r{r}_dup", rtp_partition(dup, T, r, seed=41 + r)[0]
    yield "rtp_T2_equal_depth", rtp_partition(x3, 2, 2, seed=5, equal_depth=True)[0]
    yield "rtp_T3_equal_depth", rtp_partition(x2, 3, 3, seed=6, equal_depth=True)[0]


class TestPinnedDocuments:
    # sha256 of _json_text for each case: a seeded build must write
    # the same document in every version, so these change only on purpose
    DIGESTS = {
        "gessaman_T2": "c35259d2565853a822e973c3229f572d0c3b626ba9b5fad7760522cdc7253cf9",
        "gessaman_T3": "f3124b25dc8a58c01d61234306b34f63df390233dea9a54f4e1dee7d9e1f5f98",
        "grid_T3": "87bf551e012d2acae2b885c2489ae38d48aab82e5c959491eb8b920342a6fb31",
        "law_normal": "1944492bbaa6e08dd222b49f1de623751d51bca61d80b42976b4c7604f6c66eb",
        "law_uniform": "e40d5de3a3c735d465fb6113517aa3ea9a1ebd6c8463a55699c5a38da3b61d6e",
        "rtp_T2_r1": "4636e3bc9d3b50ddbc1557937c800ca957ff0747bf7cb3bea9a653b67e960c33",
        "rtp_T2_r1_dup": "4681b8f1a4e6b2ef4e5a1744a8d3b872b120b25d0e7ac4f88274b614402e16d7",
        "rtp_T2_r2": "2724d5bd16b2068c2055195e2c490449466659960262d0cb26cc3614f68203d2",
        "rtp_T2_r2_dup": "af07d04dc2149b22fcf671a9de677adc8e43631f56d3c36f71a64f075a065578",
        "rtp_T2_r3": "379739ba3148f31042921bc75c7725546bdbced71bf82383036124083d5924b6",
        "rtp_T2_r3_dup": "3a31ff81620b4210f08c6b10f468e3ac613c0749de6ba9032d4bc1645adab6ed",
        "rtp_T3_r1": "181b9a621fa888b90c6e14007e55b2811fe82057aa106d3337fb097572ef837c",
        "rtp_T3_r1_dup": "02142dfe6b89b136eb64e59a36f9cf0c1f1e936e99975c2c3531988caeee0d98",
        "rtp_T3_r2": "285f1a838e33484bbcda9b6dc13244476bb5739c83f91d8e0bea233d157e2957",
        "rtp_T3_r2_dup": "56a5f362417ca3680e7ad532321a1abd32610201600f6ea2774cdcb0e8d157da",
        "rtp_T3_r3": "5b1e69a79a7766f2163705a60eedde8591a0c9a8d46d17250d9737b7e7665b81",
        "rtp_T3_r3_dup": "aa65da426842c066b11c83b922ae04481fc6c688ba87f7465cb9e492e8ee8877",
        "rtp_T2_equal_depth": "e1e31dc48266e88976a45c1ff0a3310a24775330833e34cc5dfd2b11cc907be2",
        "rtp_T3_equal_depth": "1ccd1cce811ac557e2a260612c48c1b09b63de7893ae7a5f111a2e76c8d89c1a",
    }

    def test_documents_unchanged(self):
        got = {
            name: hashlib.sha256(_json_text(part).encode()).hexdigest()
            for name, part in _pinned_cases()
        }
        assert got == self.DIGESTS


def _stable_split_cuts(sorted_vals, T):
    """The cut rule walking each run of duplicates one element at a time."""
    m = sorted_vals.shape[0]
    if m < T:
        raise InsufficientDataError(f"cannot split {m} points into {T} nonempty groups")
    base, extra = divmod(m, T)
    sizes = [base + 1] * extra + [base] * (T - extra)
    cuts = []
    pos = 0
    for g in range(T - 1):
        pos += sizes[g]
        if cuts:
            pos = max(pos, cuts[-1] + 1)
        while pos < m and sorted_vals[pos] == sorted_vals[pos - 1]:
            pos += 1
        if pos >= m:
            raise InsufficientDataError(
                f"duplicate coordinate values leave fewer than {T} distinct groups"
            )
        cuts.append(pos)
    return cuts


def _stable_split_node(rows, lo, up, cols, axis, T):
    """The split primitive with one stable argsort per split, as the reference."""
    pts = cols.T
    coord = pts[rows, axis]
    order = np.argsort(coord, kind="stable")  # stable: ties keep row order
    sorted_vals = coord[order]
    cuts = _stable_split_cuts(sorted_vals, T)
    edges = [lo[axis]] + [float(sorted_vals[c - 1]) + 0.0 for c in cuts] + [up[axis]]
    if any(edges[i] >= edges[i + 1] for i in range(T)):
        raise InsufficientDataError(
            "split thresholds are not strictly inside the cell bounds"
        )
    stops = [0] + cuts + [rows.shape[0]]
    out = []
    for g in range(T):
        nlo = lo.copy()
        nup = up.copy()
        nlo[axis] = edges[g]
        nup[axis] = edges[g + 1]
        out.append((rows[order[stops[g] : stops[g + 1]]], nlo, nup))
    return out


def _stable_cut(rows, col, T):
    """The cut rule's (groups, thresholds) of one coordinate, from _stable_split_node."""
    whole = np.array([-np.inf]), np.array([np.inf])
    children = _stable_split_node(rows, *whole, col[None], 0, T)
    return [c[0] for c in children], [float(c[2][0]) for c in children[:-1]]


def _stable_only():
    """Patch condgof.partition back to stable sorts and the element-wise cut walk."""
    return mock.patch.multiple(
        "condgof.partition", _split_node=_stable_split_node, _cut=_stable_cut
    )


def _oracle_data(seed):
    """(kind, x, T, r) of one seeded build; a third of them heavy with duplicates."""
    rng = np.random.Generator(np.random.Philox(seed))
    kind = ("rtp", "rtp_equal_depth", "gessaman", "grid")[seed % 4]
    k, T, r = int(rng.integers(1, 5)), int(rng.integers(2, 4)), int(rng.integers(1, 4))
    least = T**k if kind == "gessaman" else 1 + k * r * (T - 1)
    # some configs fall a few points short, so failures are compared too
    n = int(rng.integers(max(least - 3, 2), max(2 * least, 60) + 200))
    x = rng.uniform(-1.0, 1.0, (n, k))
    mode = seed % 3
    if mode == 1:  # heavy duplicates, zeros of both signs among them
        x = np.round(x * rng.integers(1, 4))
    if mode == 2:  # a few signed zeros in otherwise distinct values
        x[rng.uniform(size=x.shape) < 0.05] = 0.0
    x[x == 0.0] = np.where(rng.uniform(size=int((x == 0.0).sum())) < 0.5, -0.0, 0.0)
    return kind, x, T, r


def _oracle_build(seed, kind, x, T, r):
    """The build of _oracle_data as a callable returning (partition, cells)."""
    builders = {
        "rtp": lambda: rtp_partition(x, T, r, seed),
        "rtp_equal_depth": lambda: rtp_partition(x, T, r, seed, equal_depth=True),
        "gessaman": lambda: gessaman_partition(x, T),
        "grid": lambda: marginal_grid_partition(x, T),
    }
    return builders[kind]


def _outcome(build):
    """(document, cells) of a build, or the exception type and message it raised."""
    try:
        part, cells = build()
    except InsufficientDataError as exc:
        return type(exc), str(exc)
    return _json_text(part), cells.tolist()


class TestSplitOracle:
    """The cut rule's rank selection against one stable argsort per split."""

    def test_matches_stable_reference(self):
        failures = 0
        for seed in range(320):
            build = _oracle_build(seed, *_oracle_data(seed))
            got = _outcome(build)
            with _stable_only():
                want = _outcome(build)
            assert got == want, f"config seed {seed}"
            failures += got[0] is InsufficientDataError
        assert 0 < failures < 160  # both outcomes are exercised

    def test_build_cells_equal_locate0(self):
        # the cells a build hands over are exactly the ones locate0 finds
        built = 0
        for seed in range(320):
            kind, x, T, r = _oracle_data(seed)
            try:
                part, cells = _oracle_build(seed, kind, x, T, r)()
            except InsufficientDataError:
                continue
            assert cells.dtype == np.int64
            np.testing.assert_array_equal(cells, part.locate0(x), err_msg=f"config seed {seed}")
            built += 1
        assert built > 160

    def test_output_ignores_row_order_and_zero_signs(self):
        # a build reads only the covariate values: permuting the rows and
        # flipping the sign of every zero must not move the document, and
        # each row must keep its cell
        zero_bounds = []
        for seed in range(320):
            kind, x, T, r = _oracle_data(seed)
            perm = np.random.Generator(np.random.Philox(seed)).permutation(x.shape[0])
            shuffled = x[perm]
            shuffled[shuffled == 0.0] *= -1.0
            got = _outcome(_oracle_build(seed, kind, shuffled, T, r))
            want = _outcome(_oracle_build(seed, kind, x, T, r))
            if want[0] is not InsufficientDataError:  # row i of shuffled is row perm[i] of x
                want = want[0], [want[1][i] for i in perm]
            assert got == want, f"config seed {seed}"
            if got[0] is not InsufficientDataError:
                zero_bounds += re.findall(r"^ +(-?0\.0),?$", got[0], re.MULTILINE)
        # zero thresholds are exercised, and each is written 0.0
        assert len(zero_bounds) > 20 and set(zero_bounds) == {"0.0"}

    @pytest.mark.parametrize("mode", ["distinct", "duplicates", "signed_zeros"])
    def test_benchmark_shape_matches_stable_reference(self, mode):
        # the rtp build of the mc_wald_large benchmark: n = 20,000, k = 4, T = 2, r = 20
        x = _shape_data(mode, 20_000, 4, seed=71, decimals=2)

        def build():
            return rtp_partition(x, 2, 20, seed=72)

        got = _outcome(build)
        with _stable_only():
            assert got == _outcome(build)
        assert got[0] is not InsufficientDataError

    @pytest.mark.parametrize("T", [4, 5])
    @pytest.mark.parametrize("mode", ["distinct", "duplicates", "signed_zeros"])
    def test_many_groups_match_stable_reference(self, mode, T):
        # T - 1 cuts per split: each group is peeled off the points the last one left
        x = _shape_data(mode, 3000, 3, seed=80 + T, decimals=1)
        for builder in (gessaman_partition, marginal_grid_partition):
            got = _outcome(lambda: builder(x, T))
            with _stable_only():
                assert got == _outcome(lambda: builder(x, T)), builder.__name__


def _shape_data(mode, n, k, seed, decimals):
    """n x k covariates: distinct, rounded to `decimals` places, or with zeros of both signs."""
    x = _uniform(n, k, seed)
    if mode == "duplicates":  # rounding small negatives also leaves -0.0
        return np.round(x, decimals)
    if mode == "signed_zeros":
        rng = np.random.Generator(np.random.Philox(seed + 1))
        zero = rng.uniform(size=x.shape) < 0.05
        x[zero] = np.where(rng.uniform(size=int(zero.sum())) < 0.5, -0.0, 0.0)
    return x
