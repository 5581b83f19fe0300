"""Panel containers, partitions, and CSV round-trips."""

import os

import numpy as np
import pytest

from factorcluster.errors import PanelFormatError
from factorcluster.panel import (
    ClusterPartition,
    FactorPanel,
    ReturnsPanel,
    align,
    load_matrix_csv,
    load_panel_csv,
    load_partition_csv,
    save_matrix_csv,
    save_panel_csv,
    save_partition_csv,
    symmetrize,
    write_text_atomic,
)


def make_panel(t_len=4, n=3, seed=0, cls=ReturnsPanel):
    rng = np.random.default_rng(seed)
    times = tuple(f"2000-01-{d:02d}" for d in range(1, t_len + 1))
    names = tuple(f"s{j}" for j in range(n))
    return cls(times, names, rng.normal(size=(t_len, n)))


def test_symmetrize_is_exactly_symmetric():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(7, 7))
    s = symmetrize(m)
    assert np.array_equal(s, s.T)
    assert np.allclose(s, (m + m.T) / 2)


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(ValueError):
        symmetrize(np.zeros((2, 3)))


def test_panel_values_are_frozen():
    panel = make_panel()
    with pytest.raises(ValueError):
        panel.values[0, 0] = 1.0


@pytest.mark.parametrize("cls", [ReturnsPanel, FactorPanel])
def test_panel_rows_is_a_read_only_view_of_the_same_type(cls):
    panel = make_panel(t_len=6, n=3, cls=cls)
    sub = panel.rows(1, 4)
    assert type(sub) is cls
    assert sub.times == panel.times[1:4]
    assert sub.names == panel.names
    assert np.shares_memory(sub.values, panel.values)
    assert np.array_equal(sub.values, panel.values[1:4])
    assert not sub.values.flags.writeable
    assert sub.n_periods == 3 and sub.n_series == 3


@pytest.mark.parametrize("start,stop", [(0, 1), (3, 4), (2, 2), (5, 9)])
def test_panel_rows_needs_two_rows(start, stop):
    with pytest.raises(PanelFormatError, match="at least 2 rows"):
        make_panel(t_len=4).rows(start, stop)


def test_panel_shape_properties():
    panel = make_panel(t_len=5, n=2)
    assert panel.n_periods == 5
    assert panel.n_series == 2


@pytest.mark.parametrize(
    "times,names,shape",
    [
        (("2000-01-01",), ("a",), (1, 1)),          # too few rows
        (("2000-01-01", "2000-01-01"), ("a",), (2, 1)),  # non-increasing times
        (("2000-01-02", "2000-01-01"), ("a",), (2, 1)),  # decreasing times
        (("2000-01-01", "2000-01-02"), ("a", "a"), (2, 2)),  # duplicate names
        (("2000-01-01", "2000-01-02"), ("a,b",), (2, 1)),    # comma in label
        (("2000-01-01", "2000-01-02"), ("",), (2, 1)),       # empty label
    ],
)
def test_panel_rejects_bad_labels(times, names, shape):
    with pytest.raises(PanelFormatError):
        ReturnsPanel(times, names, np.zeros(shape))


def test_panel_rejects_nonfinite():
    values = np.zeros((2, 2))
    values[1, 0] = np.nan
    with pytest.raises(PanelFormatError, match="non-finite"):
        ReturnsPanel(("2000-01-01", "2000-01-02"), ("a", "b"), values)


def test_panel_rejects_shape_mismatch():
    with pytest.raises(PanelFormatError):
        ReturnsPanel(("2000-01-01", "2000-01-02"), ("a",), np.zeros((2, 2)))


def test_panel_csv_round_trip_bitwise(tmp_path):
    panel = make_panel(t_len=6, n=4, seed=2)
    path = str(tmp_path / "panel.csv")
    save_panel_csv(panel, path)
    back = load_panel_csv(path, kind="returns")
    assert back.times == panel.times
    assert back.names == panel.names
    assert np.array_equal(back.values, panel.values)


def test_load_panel_kind_selects_type(tmp_path):
    panel = make_panel()
    path = str(tmp_path / "p.csv")
    save_panel_csv(panel, path)
    assert isinstance(load_panel_csv(path, kind="returns"), ReturnsPanel)
    assert isinstance(load_panel_csv(path, kind="factors"), FactorPanel)
    with pytest.raises(ValueError):
        load_panel_csv(path, kind="prices")


def test_load_panel_reports_row_and_column(tmp_path):
    path = str(tmp_path / "bad.csv")
    write_text_atomic(path, "date,a,b\n2000-01-01,1.0,2.0\n2000-01-02,1.0,oops\n")
    with pytest.raises(PanelFormatError, match=r"row 3, column 3"):
        load_panel_csv(path)


def test_load_panel_rejects_bad_header(tmp_path):
    path = str(tmp_path / "bad.csv")
    write_text_atomic(path, "time,a\n2000-01-01,1.0\n2000-01-02,2.0\n")
    with pytest.raises(PanelFormatError, match="must be 'date'"):
        load_panel_csv(path)


def test_load_panel_rejects_ragged_rows(tmp_path):
    path = str(tmp_path / "bad.csv")
    write_text_atomic(path, "date,a,b\n2000-01-01,1.0,2.0\n2000-01-02,1.0\n")
    with pytest.raises(PanelFormatError, match="row 3"):
        load_panel_csv(path)


def test_load_panel_rejects_unsorted_dates(tmp_path):
    path = str(tmp_path / "bad.csv")
    write_text_atomic(path, "date,a\n2000-01-02,1.0\n2000-01-01,2.0\n")
    with pytest.raises(PanelFormatError, match="strictly increase"):
        load_panel_csv(path)


def test_load_panel_rejects_infinite_cell(tmp_path):
    path = str(tmp_path / "bad.csv")
    write_text_atomic(path, "date,a\n2000-01-01,inf\n2000-01-02,2.0\n")
    with pytest.raises(PanelFormatError, match="non-finite"):
        load_panel_csv(path)


def test_load_panel_missing_file_raises():
    with pytest.raises(PanelFormatError, match="cannot read"):
        load_panel_csv("/nonexistent/panel.csv")


def test_matrix_csv_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 3)) * 10.0 ** rng.integers(-8, 8, size=(5, 3))
    path = str(tmp_path / "m.csv")
    save_matrix_csv(m, path)
    assert np.array_equal(load_matrix_csv(path), m)


def test_matrix_csv_vector_becomes_column(tmp_path):
    v = np.array([1.0, 2.0, 3.0])
    path = str(tmp_path / "v.csv")
    save_matrix_csv(v, path)
    back = load_matrix_csv(path)
    assert back.shape == (3, 1)
    assert np.array_equal(back[:, 0], v)


def test_matrix_csv_rejects_ragged(tmp_path):
    path = str(tmp_path / "bad.csv")
    write_text_atomic(path, "1.0,2.0\n3.0\n")
    with pytest.raises(PanelFormatError, match="row 2"):
        load_matrix_csv(path)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "out.csv")
    write_text_atomic(path, "hello\n")
    write_text_atomic(path, "world\n")
    assert sorted(os.listdir(tmp_path)) == ["out.csv"]
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "world\n"


def test_failed_streamed_write_keeps_old_file(tmp_path, monkeypatch):
    import factorcluster.panel as panel_module

    path = str(tmp_path / "m.csv")
    save_matrix_csv(np.eye(2), path)
    before = read_bytes(path)

    def fails_mid_stream(values, labels=None):
        yield "1,2,3"
        raise RuntimeError("write interrupted")

    monkeypatch.setattr(panel_module, "_format_rows", fails_mid_stream)
    with pytest.raises(RuntimeError, match="interrupted"):
        save_matrix_csv(np.ones((3, 3)), path)
    assert read_bytes(path) == before
    assert sorted(os.listdir(tmp_path)) == ["m.csv"]


def test_partition_normalizes_group_order():
    part = ClusterPartition.from_groups([(5, 3), (0, 2), (1, 4)], 6)
    assert part.groups == ((0, 2), (1, 4), (3, 5))
    assert part.n_clusters == 3
    assert part.sizes == (2, 2, 2)


def test_partition_from_labels_matches_groups():
    part = ClusterPartition.from_labels(["b", "a", "b", "c", "a"])
    assert part.groups == ((0, 2), (1, 4), (3,))


def test_partition_labels_and_membership_agree():
    part = ClusterPartition.from_groups([(0, 3), (1, 2), (4,)], 5)
    labels = part.labels
    a = part.membership
    assert a.shape == (5, 3)
    assert np.array_equal(a.sum(axis=1), np.ones(5, dtype=np.int64))
    for i in range(5):
        assert a[i, labels[i]] == 1


def test_partition_labels_and_membership_are_cached_and_read_only():
    part = ClusterPartition.from_groups([(0, 3), (1, 2, 5), (4,)], 6)
    # the loops each access ran before the arrays were cached
    labels = np.empty(6, dtype=np.int64)
    membership = np.zeros((6, 3), dtype=np.int64)
    for k, g in enumerate(part.groups):
        labels[list(g)] = k
        membership[list(g), k] = 1
    for name, want in (("labels", labels), ("membership", membership)):
        got = getattr(part, name)
        assert getattr(part, name) is got
        assert not got.flags.writeable
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize(
    "groups,n",
    [
        ((), 0),                      # no groups
        (((0, 1), (1, 2)), 3),        # overlap
        (((0,), (2,)), 3),            # hole
        (((0, 1),), 3),               # incomplete cover
        (((1, 0),), 2),               # unsorted group
    ],
)
def test_partition_rejects_invalid(groups, n):
    with pytest.raises(ValueError):
        ClusterPartition(groups, n)


def test_partition_csv_round_trip(tmp_path):
    part = ClusterPartition.from_groups([(0, 2, 4), (1, 3)], 5)
    names = ("n0", "n1", "n2", "n3", "n4")
    path = str(tmp_path / "part.csv")
    save_partition_csv(part, names, path)
    back = load_partition_csv(path, names)
    assert back == part


def test_partition_csv_ids_start_at_one(tmp_path):
    part = ClusterPartition.from_groups([(0,), (1,)], 2)
    path = str(tmp_path / "part.csv")
    save_partition_csv(part, ("a", "b"), path)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "name,cluster_id\na,1\nb,2\n"


def test_load_partition_rejects_gap_in_ids(tmp_path):
    path = str(tmp_path / "part.csv")
    write_text_atomic(path, "name,cluster_id\na,1\nb,3\n")
    with pytest.raises(PanelFormatError, match="contiguous"):
        load_partition_csv(path, ("a", "b"))


def test_load_partition_rejects_missing_series(tmp_path):
    path = str(tmp_path / "part.csv")
    write_text_atomic(path, "name,cluster_id\na,1\n")
    with pytest.raises(PanelFormatError, match="missing"):
        load_partition_csv(path, ("a", "b"))


def test_align_intersects_in_time_order():
    r = ReturnsPanel(
        ("2000-01-01", "2000-01-02", "2000-01-04"),
        ("a",),
        np.array([[1.0], [2.0], [4.0]]),
    )
    f = FactorPanel(
        ("2000-01-02", "2000-01-03", "2000-01-04"),
        ("f1",),
        np.array([[20.0], [30.0], [40.0]]),
    )
    ra, fa = align(r, f)
    assert ra.times == fa.times == ("2000-01-02", "2000-01-04")
    assert np.array_equal(ra.values[:, 0], [2.0, 4.0])
    assert np.array_equal(fa.values[:, 0], [20.0, 40.0])


def test_align_returns_its_inputs_when_dates_match():
    times = ("2000-01-01", "2000-01-02")
    r = ReturnsPanel(times, ("a",), np.zeros((2, 1)))
    f = FactorPanel(times, ("f1",), np.ones((2, 1)))
    ra, fa = align(r, f)
    assert ra is r and fa is f


def test_align_requires_two_shared_dates():
    r = ReturnsPanel(("2000-01-01", "2000-01-02"), ("a",), np.zeros((2, 1)))
    f = FactorPanel(("2000-01-02", "2000-01-03"), ("f1",), np.zeros((2, 1)))
    with pytest.raises(PanelFormatError, match="share only 1"):
        align(r, f)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_save_matrix_csv_exact_bytes(tmp_path):
    path = str(tmp_path / "m.csv")
    save_matrix_csv(np.array([[-0.0, 5e-324, 1e300], [0.1, 1 / 3, 200.0]]), path)
    assert read_bytes(path) == (
        b"-0,4.9406564584124654e-324,1.0000000000000001e+300\n"
        b"0.10000000000000001,0.33333333333333331,200\n"
    )
    save_matrix_csv(np.array([1e-7, -2.5]), path)
    assert read_bytes(path) == b"9.9999999999999995e-08\n-2.5\n"


def test_save_panel_csv_exact_bytes(tmp_path):
    panel = ReturnsPanel(
        ("2000-01-03", "2000-01-04"), ("a", "b"), np.array([[0.1, -1e-5], [2.0, 1e16]])
    )
    path = str(tmp_path / "p.csv")
    save_panel_csv(panel, path)
    assert read_bytes(path) == (
        b"date,a,b\n"
        b"2000-01-03,0.10000000000000001,-1.0000000000000001e-05\n"
        b"2000-01-04,2,10000000000000000\n"
    )


def test_load_panel_rejects_empty_cell(tmp_path):
    path = str(tmp_path / "bad.csv")
    write_text_atomic(path, "date,a,b\n2000-01-01,1.0,2.0\n2000-01-02,,2.0\n")
    with pytest.raises(PanelFormatError, match=r"non-numeric cell '' \(row 3, column 2\)"):
        load_panel_csv(path)


def test_matrix_csv_rejects_non_numeric_cell(tmp_path):
    path = str(tmp_path / "bad.csv")
    write_text_atomic(path, "1.0,2.0\n3.0,x\n")
    with pytest.raises(PanelFormatError, match=r"non-numeric cell 'x' \(row 2, column 2\)"):
        load_matrix_csv(path)


def test_matrix_csv_rejects_non_finite_cell(tmp_path):
    path = str(tmp_path / "bad.csv")
    write_text_atomic(path, "1.0,2.0\nnan,4.0\n")
    with pytest.raises(PanelFormatError, match=r"non-finite cell 'nan' \(row 2, column 1\)"):
        load_matrix_csv(path)
