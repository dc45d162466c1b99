"""Partition constructors: balance bounds, determinism, and serialization."""

import numpy as np
import pytest

from condgof import (
    Cell,
    Partition,
    cell_counts,
    gessaman_partition,
    locate_cell,
    marginal_grid_partition,
    partition_from_dict,
    partition_from_json,
    partition_to_dict,
    partition_to_json,
    rtp_partition,
)
from condgof.errors import InsufficientDataError, InvalidArgumentError


def _uniform(n, k, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.uniform(-1.0, 1.0, (n, k))


class TestCell:
    def test_contains_is_right_closed(self):
        c = Cell(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert c.contains(np.array([1.0, 1.0]))
        assert not c.contains(np.array([0.0, 0.5]))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(InvalidArgumentError):
            Cell(np.array([1.0]), np.array([0.0]))


class TestGessaman:
    def test_k1_t3_n10_sizes(self):
        x = _uniform(10, 1, 0)
        part = gessaman_partition(x, 3)
        counts = sorted(cell_counts(part, x), reverse=True)
        assert counts == [4, 3, 3]

    def test_k2_t2_n8_even(self):
        x = _uniform(8, 2, 1)
        part = gessaman_partition(x, 2)
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
            part = gessaman_partition(x, T)
            counts = cell_counts(part, x)
            assert part.J == T**k
            assert counts.sum() == n
            assert counts.max() - counts.min() <= 1, (seed, counts)

    def test_covers_space_beyond_sample(self):
        x = _uniform(50, 2, 5)
        part = gessaman_partition(x, 2)
        probes = _uniform(500, 2, 6) * 10.0  # far outside the sample range
        idx = part.locate0(probes)
        assert (idx >= 0).all()

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            gessaman_partition(_uniform(7, 3, 2), 2)  # needs 8

    def test_duplicate_heavy_data(self):
        x = np.array([[0.0]] * 7 + [[1.0]] * 5)
        part = gessaman_partition(x, 2)
        counts = cell_counts(part, x)
        # all duplicates of the splitting value go left
        assert sorted(counts) == [5, 7]
        with pytest.raises(InsufficientDataError):
            gessaman_partition(np.zeros((10, 1)), 2)  # one distinct value


class TestMarginalGrid:
    def test_cell_count_and_cover(self):
        x = _uniform(100, 2, 7)
        part = marginal_grid_partition(x, 3)
        assert part.J == 9
        assert part.origin == "fixed"
        assert (part.locate0(x) >= 0).all()

    def test_k1_matches_gessaman(self):
        # with one axis both rules are equal-count slicing
        x = _uniform(60, 1, 8)
        a = cell_counts(marginal_grid_partition(x, 3), x)
        b = cell_counts(gessaman_partition(x, 3), x)
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
            part, tree = rtp_partition(x, T, r, seed=seed)
            assert part.J == J
            assert len(tree.terminal_nodes()) == J
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
        _, tree = rtp_partition(x, 2, 3, seed=4)
        assert tree.split_axis_counts().tolist() == [3, 3]

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
        part, tree = rtp_partition(x, 2, 1, seed=1, equal_depth=True)
        assert part.J == 4
        assert int(tree.split_axis_counts().sum()) == 3

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


class TestLocate:
    def test_locate_cell_is_one_based(self):
        x = _uniform(40, 2, 15)
        part = gessaman_partition(x, 2)
        j = locate_cell(part, x[7])
        assert 1 <= j <= part.J
        assert part.locate0(x[7][None, :])[0] == j - 1

    def test_boundary_points_belong_left(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        part = gessaman_partition(x, 2)
        # threshold sits at the last point of the left group
        assert locate_cell(part, np.array([2.0])) == locate_cell(part, np.array([1.0]))
        assert locate_cell(part, np.array([2.0000001])) == locate_cell(
            part, np.array([4.0])
        )


class TestSerialization:
    def test_round_trip_gessaman(self):
        x = _uniform(90, 2, 16)
        part = gessaman_partition(x, 3)
        clone = partition_from_dict(partition_to_dict(part))
        assert clone == part
        assert np.array_equal(clone.locate0(x), part.locate0(x))

    def test_round_trip_rtp_json(self):
        x = _uniform(90, 3, 17)
        part, _ = rtp_partition(x, 2, 2, seed=99)
        clone = partition_from_json(partition_to_json(part))
        assert clone == part
        assert clone.seed == 99 and clone.T == 2 and clone.r == 2

    def test_infinite_bounds_survive(self):
        part, _ = rtp_partition(_uniform(50, 1, 18), 2, 1, seed=0)
        clone = partition_from_json(partition_to_json(part))
        bounds = np.array([c.lower[0] for c in clone.cells])
        assert np.isneginf(bounds).any()

    def test_malformed_document(self):
        with pytest.raises(InvalidArgumentError):
            partition_from_dict({"origin": "fixed"})
        with pytest.raises(InvalidArgumentError):
            partition_from_dict({"cells": [{"lower": ["abc"], "upper": [1.0]}]})
        with pytest.raises(InvalidArgumentError):
            partition_from_dict({"cells": [{"lower": [0.0], "upper": [1.0]}], "seed": "x"})
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
