"""Response binning and the L x J cross-classification table."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condgof import (
    ContingencyTable,
    InvalidArgumentError,
    EmptyCellError,
    UGrid,
    balanced_grid,
    gessaman_partition,
)
from condgof.models import bin_pivots
from condgof.tabulate import require_positive_columns, tabulate_cells


def cell_counts(part, x):
    """Rows of x in each cell of part, located by locate0."""
    return np.bincount(part.locate0(x), minlength=part.J)


def cross_classify(v, x, grid, part):
    """The table of values v in [0, 1] binned on grid against part's cells, located by locate0."""
    return tabulate_cells(bin_pivots(v, grid.thresholds), part.locate0(x), grid, part.J)


def bin_v(grid, v):
    """1-based bin of one value under the binning rule, thresholds as edges."""
    return int(bin_pivots([v], grid.thresholds)[0]) + 1


class TestUGrid:
    def test_balanced(self):
        g = balanced_grid(4)
        assert g.L == 4
        np.testing.assert_allclose(g.thresholds, [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(g.widths, [0.25, 0.25, 0.25, 0.25])

    def test_single_bin(self):
        g = balanced_grid(1)
        assert g.L == 1
        np.testing.assert_array_equal(g.thresholds, [0.0, 1.0])

    def test_three_bins_exact_widths(self):
        g = balanced_grid(3)
        assert g.widths.sum() == pytest.approx(1.0, abs=1e-15)
        assert g.thresholds[1] == pytest.approx(1.0 / 3.0, abs=1e-16)

    def test_custom_thresholds(self):
        g = UGrid(np.array([0.0, 0.1, 0.6, 1.0]))
        assert g.L == 3
        np.testing.assert_allclose(g.widths, [0.1, 0.5, 0.4])

    def test_rejects_bad_grids(self):
        for L in (0, True, 2.5, 2.0, "2"):
            with pytest.raises(InvalidArgumentError, match="L must be an integer >= 1"):
                balanced_grid(L)
        with pytest.raises(InvalidArgumentError):
            UGrid(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(InvalidArgumentError):
            UGrid(np.array([0.1, 0.5, 1.0]))
        with pytest.raises(InvalidArgumentError):
            UGrid(np.array([0.0, 0.5, 0.9]))
        with pytest.raises(InvalidArgumentError):
            UGrid(np.array([0.3]))
        for bad in ([0.0, [0.5, 0.7], 1.0], [0.0, "a", 1.0], [0.0, {}, 1.0]):
            with pytest.raises(InvalidArgumentError, match="thresholds must be a rectangular"):
                UGrid(bad)

    def test_thresholds_frozen(self):
        g = balanced_grid(2)
        with pytest.raises(ValueError):
            g.thresholds[0] = 0.5

    def test_equality(self):
        assert balanced_grid(4) == balanced_grid(4)
        assert balanced_grid(4) != balanced_grid(5)


class TestBinV:
    def test_left_endpoint_goes_to_first_bin(self):
        assert bin_v(balanced_grid(4), 0.0) == 1

    def test_interior_threshold_belongs_left(self):
        # bins are right-closed, so 0.25 is still bin 1 for L = 4
        g = balanced_grid(4)
        assert bin_v(g, 0.25) == 1
        assert bin_v(g, 0.25 + 1e-12) == 2
        assert bin_v(g, 0.5) == 2
        assert bin_v(g, 1.0) == 4

    def test_matches_interval_membership(self):
        g = UGrid(np.array([0.0, 0.2, 0.35, 0.9, 1.0]))
        rng = np.random.Generator(np.random.Philox(5))
        for v in rng.uniform(0, 1, 500):
            ell = bin_v(g, v)
            assert g.thresholds[ell - 1] < v <= g.thresholds[ell] or (
                v == 0.0 and ell == 1
            )


def _xy(seed, n, k):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.uniform(0, 1, n), rng.uniform(-1, 1, (n, k))


class TestCrossClassify:
    def test_hand_example(self):
        # x < 0 lands in cell 1, x >= 0 in cell 2 after a median cut at 0
        x = np.array([-0.5, -0.25, 0.25, 0.5])
        part, _ = gessaman_partition(x, 2)
        v = np.array([0.1, 0.9, 0.1, 0.9])
        table = cross_classify(v, x, balanced_grid(2), part)
        np.testing.assert_array_equal(table.O, [[1, 1], [1, 1]])
        np.testing.assert_array_equal(table.column_counts, [2, 2])
        assert table.n == 4
        assert table.L == 2 and table.J == 2

    def test_margins_consistent(self):
        v, x = _xy(11, 400, 2)
        part, _ = gessaman_partition(x, 2)
        g = balanced_grid(4)
        table = cross_classify(v, x, g, part)
        np.testing.assert_array_equal(table.O.sum(axis=0), cell_counts(part, x))
        np.testing.assert_array_equal(
            table.O.sum(axis=1),
            np.bincount([bin_v(g, vi) - 1 for vi in v], minlength=4),
        )
        assert table.O.sum() == 400
        np.testing.assert_allclose(table.q_hat, table.column_counts / 400)
        np.testing.assert_allclose(table.widths, g.widths)

    def test_row_order_irrelevant(self):
        v, x = _xy(13, 300, 2)
        part, _ = gessaman_partition(x, 2)
        g = balanced_grid(3)
        base = cross_classify(v, x, g, part)
        perm = np.random.Generator(np.random.Philox(14)).permutation(300)
        shuffled = cross_classify(v[perm], x[perm], g, part)
        np.testing.assert_array_equal(base.O, shuffled.O)

    def test_1d_covariate_promoted(self):
        v, x = _xy(15, 120, 1)
        part, _ = gessaman_partition(x[:, 0], 3)
        t1 = cross_classify(v, x[:, 0], balanced_grid(2), part)
        t2 = cross_classify(v, x, balanced_grid(2), part)
        np.testing.assert_array_equal(t1.O, t2.O)

    def test_uniform_v_matches_expected_counts(self):
        # independent uniform v: E O_{lj} = count_j * width_l
        rng = np.random.Generator(np.random.Philox(77))
        n = 40000
        x = rng.uniform(-1, 1, (n, 2))
        v = rng.uniform(0, 1, n)
        part, _ = gessaman_partition(x, 2)
        g = balanced_grid(4)
        table = cross_classify(v, x, g, part)
        expected = table.column_counts[None, :] * g.widths[:, None]
        # each count is Binomial(count_j, w_l); allow 4 sigma
        sd = np.sqrt(expected * (1 - g.widths[:, None]))
        assert (np.abs(table.O - expected) <= 4 * sd + 1).all()


class TestContingencyTable:
    def _raw(self):
        return dict(O=np.array([[3, 2], [1, 4]]), grid=balanced_grid(2))

    def test_roundtrip_fields(self):
        t = ContingencyTable(**self._raw())
        assert [f.name for f in dataclasses.fields(t)] == ["O", "grid"]
        assert t.L == 2 and t.J == 2 and t.n == 10
        np.testing.assert_array_equal(t.column_counts, [4, 6])
        np.testing.assert_array_equal(t.q_hat, [0.4, 0.6])
        np.testing.assert_array_equal(t.widths, [0.5, 0.5])
        with pytest.raises(ValueError):
            t.O[0, 0] = 9
        with pytest.raises(AttributeError):
            t.n = 11

    def test_rejects_bad_counts_and_grid_mismatch(self):
        for O, grid in (
            (np.array([[3, 2], [1, -4]]), balanced_grid(2)),
            (np.array([3, 2, 1]), balanced_grid(2)),
            (np.array([[3, 2], [1, 4]]), balanced_grid(3)),
            (np.array([[3, 2], [1, 4]]), balanced_grid(1)),
        ):
            with pytest.raises(InvalidArgumentError):
                ContingencyTable(O=O, grid=grid)

    def test_rejects_non_count_values_and_non_grids(self):
        grid = balanced_grid(2)
        for O, got in (
            ([[1.7, 2.9], [0.5, 3]], "1.7"),
            (np.array([[3.0, np.nan], [1.0, 4.0]]), "nan"),
            ([[3.0, 2.0], [np.inf, 4.0]], "inf"),
            ([[3.0, 2.0], [1e300, 4.0]], "1e+300"),
        ):
            message = f"^counts must be whole numbers, got {re.escape(got)}$"
            with pytest.raises(InvalidArgumentError, match=message):
                ContingencyTable(O=O, grid=grid)
        with pytest.raises(InvalidArgumentError, match="^O must be a 2-d count matrix, got a "):
            ContingencyTable(O=[[1, 2], [3]], grid=grid)
        for O in ([["3", "2"], ["1", "4"]], [[True, False], [True, True]]):
            with pytest.raises(InvalidArgumentError, match="^counts must be whole numbers, got "):
                ContingencyTable(O=O, grid=grid)
        for bad in ([0.0, 0.5, 1.0], np.array([0.0, 0.5, 1.0]), None):
            with pytest.raises(InvalidArgumentError, match="^grid must be a UGrid, got "):
                ContingencyTable(O=[[3, 2], [1, 4]], grid=bad)
        # whole-valued float counts are counts
        t = ContingencyTable(O=[[3.0, 2.0], [1.0, 4.0]], grid=grid)
        assert t.O.dtype == np.int64
        np.testing.assert_array_equal(t.O, [[3, 2], [1, 4]])

    # each margin against a fresh computation from O and the thresholds
    MARGINS = {
        "widths": lambda O, t: np.diff(t),
        "column_counts": lambda O, t: O.sum(axis=0),
        "n": lambda O, t: int(O.sum()),
        "q_hat": lambda O, t: O.sum(axis=0) / int(O.sum()),
        "expected": lambda O, t: np.outer(np.diff(t), O.sum(axis=0)),
    }

    def _uneven(self):
        O = np.random.Generator(np.random.Philox(31)).integers(1, 60, (3, 5))
        return ContingencyTable(O=O, grid=UGrid(np.array([0.0, 0.15, 0.7, 1.0])))

    @pytest.mark.parametrize("name", MARGINS)
    def test_margin_equals_a_fresh_computation(self, name):
        t = self._uneven()
        fresh = self.MARGINS[name](t.O, t.grid.thresholds)
        value = getattr(t, name)
        assert type(value) is type(fresh)
        if name != "n":
            assert value.dtype == fresh.dtype
        assert np.array_equal(value, fresh)  # bit for bit

    @pytest.mark.parametrize("name", [m for m in MARGINS if m != "n"])
    def test_margin_is_read_only(self, name):
        value = getattr(self._uneven(), name)
        with pytest.raises(ValueError, match="read-only"):
            value[0] = 0

    @pytest.mark.parametrize("name", MARGINS)
    def test_margin_is_computed_once(self, name):
        t = self._uneven()
        assert getattr(t, name) is getattr(t, name)

    def test_empty_column_guard(self):
        t = ContingencyTable(O=np.array([[2, 0], [3, 0]]), grid=balanced_grid(2))
        with pytest.raises(EmptyCellError, match="cell 2"):
            require_positive_columns(t)
        require_positive_columns(ContingencyTable(**self._raw()))


# property checks over arbitrary grids and samples


@st.composite
def _grids(draw):
    cuts = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=0.99),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    return UGrid(np.array([0.0] + sorted(cuts) + [1.0]))


@settings(max_examples=200, deadline=None)
@given(_grids(), st.floats(min_value=0.0, max_value=1.0))
def test_bin_contains_value(grid, v):
    ell = bin_v(grid, v)
    assert 1 <= ell <= grid.L
    assert grid.thresholds[ell - 1] < v or (v == 0.0 and ell == 1)
    assert v <= grid.thresholds[ell]


@settings(max_examples=100, deadline=None)
@given(_grids(), st.integers(min_value=0, max_value=2**31 - 1))
def test_table_margins_always_consistent(grid, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    n = int(rng.integers(8, 200))
    x = rng.normal(size=(n, 2))
    v = rng.uniform(0, 1, n)
    part, _ = gessaman_partition(x, 2)
    table = cross_classify(v, x, grid, part)
    assert table.O.shape == (grid.L, 4)
    assert table.O.sum() == n
    np.testing.assert_array_equal(table.O.sum(axis=0), table.column_counts)
    assert table.q_hat.sum() == pytest.approx(1.0, abs=1e-12)
