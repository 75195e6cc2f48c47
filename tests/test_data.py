"""Dataset loading, scaling, splitting, and task construction."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aeimpute import data

from conftest import traced_peak, write_table


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_shapes_and_minmax(self, tmp_path):
        p = write(tmp_path, "1,10\n2,20\n3,15\n")
        ds = data.load_csv(p)
        assert ds.n_rows == 3 and ds.n_columns == 2
        assert ds.columns[0].column == "A1"
        assert ds.columns[1].min == 10 and ds.columns[1].max == 20
        assert not ds.normalized

    def test_credit_like_shape(self, credit_like):
        path, meta = credit_like
        ds = data.load_csv(path, schema=meta["kinds"])
        assert ds.n_rows == 1000 and ds.n_columns == 25

    def test_heart_like_shape(self, heart_like):
        path, meta = heart_like
        ds = data.load_csv(path, schema=meta["kinds"])
        assert ds.n_rows == 270 and ds.n_columns == 14

    def test_wrong_arity_names_row(self, tmp_path):
        p = write(tmp_path, "1,2,3\n4,5\n")
        with pytest.raises(data.CsvFormatError, match="row 2"):
            data.load_csv(p, schema=["numeric", "numeric", "numeric"])

    def test_schema_arity_mismatch(self, tmp_path):
        p = write(tmp_path, "1,2\n")
        with pytest.raises(data.CsvFormatError, match="13"):
            data.load_csv(p, schema=["numeric"] * 13)

    def test_non_numeric_names_row_and_column(self, tmp_path):
        p = write(tmp_path, "1,2\n1,oops\n")
        with pytest.raises(data.CsvFormatError, match=r"row 2, column 2"):
            data.load_csv(p)

    def test_non_finite_token_rejected(self, tmp_path):
        p = write(tmp_path, "1,2\nnan,3\n")
        with pytest.raises(data.CsvFormatError, match=r"row 2, column 1"):
            data.load_csv(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "")
        with pytest.raises(data.CsvFormatError, match="no data rows"):
            data.load_csv(p)

    def test_header_row(self, tmp_path):
        p = write(tmp_path, "age,score\n1,2\n3,4\n")
        ds = data.load_csv(p, header=True)
        assert [c.column for c in ds.columns] == ["age", "score"]
        assert ds.n_rows == 2

    # The report's CSV files write names unquoted, so a name may not hold a
    # comma, a double quote or a line break; a header field is read quoted.
    @pytest.mark.parametrize("field, name", [('"a,b"', "a,b"), ('"a\nb"', "a\nb"), ('"""a"', '"a')],
                             ids=["comma", "line-break", "leading-quote"])
    def test_a_header_name_the_report_cannot_hold_is_rejected(self, tmp_path, field, name):
        p = write(tmp_path, f"x,{field},y\n1,2,3\n4,5,6\n")
        with pytest.raises(data.CsvFormatError) as caught:
            data.load_csv(p, header=True)
        assert str(caught.value) == (f"{p}: column 2: the name {name!r} holds a comma, a double quote "
                                     "or a line break, which the report's CSV files cannot hold")

    def test_a_columns_pair_name_passes_the_same_rule(self, tmp_path):
        p = write(tmp_path, "1,2\n3,4\n")
        with pytest.raises(data.CsvFormatError, match=r"column 1: the name 'a\"b' holds a comma"):
            data.load_csv(p, schema=[('a"b', "numeric"), "numeric"])

    # Excel's "CSV UTF-8" export starts the file with a byte-order mark.
    @pytest.mark.parametrize("text, header", [("1,2\n3,4\n", False), ("age,score\n1,2\n3,4\n", True)],
                             ids=["no-header", "header"])
    def test_a_byte_order_mark_reads_as_the_file_without_it(self, tmp_path, text, header):
        plain = data.load_csv(write(tmp_path, text), header=header)
        marked = data.load_csv(write(tmp_path, "\ufeff" + text, name="bom.csv"), header=header)
        assert marked.columns == plain.columns
        np.testing.assert_array_equal(marked.rows, plain.rows)

    # The first bad row or cell in reading order is named, whichever kind of
    # fault comes first, counting data rows only: the header and blank lines
    # are skipped.
    @pytest.mark.parametrize(
        "text, error",
        [
            ("a,b,c\n\n1,2,3\n\n4,5\n6,x,7\n", "row 2 has 2 fields, expected 3"),
            ("a,b,c\n1,2,3\n\n4,oops,6\n\n7,8\n", "row 2, column 2 ('b'): not a finite number: 'oops'"),
            ("a,b,c\n1,2,3\n\n4, inf ,6\n7,8\n9,x,1\n", "row 2, column 2 ('b'): not a finite number: 'inf'"),
            ("\na,b,c\n1,2,3\n4,5,6\n\n7,8,nan\n", "row 3, column 3 ('c'): not a finite number: 'nan'"),
            ("a,b,c\n1,x,3\n4,5\n", "row 1, column 2 ('b'): not a finite number: 'x'"),
            ("a,b,c\n1,2,3\n4,5,1e400\n6,x\n", "row 2, column 3 ('c'): not a finite number: '1e400'"),
        ],
        ids=["arity-first", "token-first", "infinite-first", "nan-last", "first-row", "overflow"],
    )
    def test_first_fault_named_with_header_and_blank_lines(self, tmp_path, text, error):
        p = write(tmp_path, text)
        with pytest.raises(data.CsvFormatError) as caught:
            data.load_csv(p, header=True)
        assert str(caught.value) == f"{p}: {error}"

    def test_a_bad_file_is_opened_once(self, tmp_path, monkeypatch):
        p = write(tmp_path, "1,2\n3,4\n5,x\n")
        opened = []
        path_open = Path.open
        monkeypatch.setattr(Path, "open", lambda self, *a, **k: opened.append(self) or path_open(self, *a, **k))
        with pytest.raises(data.CsvFormatError, match="row 3, column 2"):
            data.load_csv(p)
        assert opened == [p]

    def test_shape_errors_come_before_a_bad_cell(self, tmp_path):
        p = write(tmp_path, "a,b,c\n1,x\n")
        with pytest.raises(data.CsvFormatError) as caught:
            data.load_csv(p, header=True)
        assert str(caught.value) == f"{p}: header has 3 fields, data rows have 2"
        p = write(tmp_path, "1,x\n2\n", name="e.csv")
        with pytest.raises(data.CsvFormatError) as caught:
            data.load_csv(p, schema=["numeric"] * 3)
        assert str(caught.value) == f"{p}: columns has 3 entries for 2 columns"

    def test_unknown_kind_names_the_file(self, tmp_path):
        p = write(tmp_path, "1,2\n3,4\n")
        with pytest.raises(data.CsvFormatError) as caught:
            data.load_csv(p, schema=["numeric", "bogus"])
        assert str(caught.value) == (
            f"{p}: columns entry 2 ('bogus') is neither a kind in {data.COLUMN_KINDS} "
            "nor a (name, kind) pair with one"
        )

    def test_traced_peak_per_cell(self, tmp_path):
        # The bound sits between a float buffer plus the Dataset's copy of
        # it (about 17 traced bytes per cell) and a list of token strings
        # (about 69).
        rng = np.random.default_rng(0)
        p = tmp_path / "wide.csv"
        np.savetxt(p, rng.uniform(-50.0, 5000.0, size=(2000, 25)), fmt="%.6f", delimiter=",")
        ds, peak = traced_peak(lambda: data.load_csv(p))
        assert ds.rows.shape == (2000, 25)
        assert peak / ds.rows.size < 32

    def test_binary_kind_validated(self, tmp_path):
        p = write(tmp_path, "0,1\n2,0\n")
        with pytest.raises(data.CsvFormatError, match="binary"):
            data.load_csv(p, schema=["binary", "numeric"])

    def test_categorical_kind_validated(self, tmp_path):
        p = write(tmp_path, "1.5,1\n2,0\n")
        with pytest.raises(data.CsvFormatError, match="categorical"):
            data.load_csv(p, schema=["categorical", "numeric"])


class TestNormalize:
    def test_midpoint(self):
        ds = data.Dataset(
            columns=(data.ColumnSpec("x", min=10, max=50),),
            rows=np.array([[10.0], [30.0], [50.0]]),
        )
        out = data.normalize(ds)
        assert out.rows[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert out.normalized

    def test_constant_column_flagged(self):
        ds = data.Dataset(
            columns=(
                data.ColumnSpec("c", min=7, max=7),
                data.ColumnSpec("x", min=0, max=2),
            ),
            rows=np.array([[7.0, 0.0], [7.0, 1.0], [7.0, 2.0]]),
        )
        out = data.normalize(ds)
        assert out.rows[:, 0].tolist() == [0.0, 0.0, 0.0]
        assert out.columns[0].degenerate
        assert not out.columns[1].degenerate

    def test_double_normalize_rejected(self):
        ds = data.Dataset(
            columns=(data.ColumnSpec("x", min=0, max=1),),
            rows=np.array([[0.0], [1.0]]),
        )
        with pytest.raises(ValueError):
            data.normalize(data.normalize(ds))

    def test_train_only_scaling_clamps(self):
        ds = data.Dataset(
            columns=(data.ColumnSpec("x", min=0, max=9),),
            rows=np.array([[0.0], [1.0], [2.0], [9.0]]),
        )
        out = data.normalize(ds, fit_row_count=3)
        assert out.columns[0].max == 2.0
        assert out.rows[3, 0] == 1.0  # clamped into range

    @given(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=40, unique=True))
    def test_monotone_per_column(self, values):
        # Integer inputs keep gaps well above float resolution over the span.
        arr = np.array(values, dtype=float)[:, None]
        spec = data.ColumnSpec("x", min=float(arr.min()), max=float(arr.max()))
        out = data.normalize(data.Dataset(columns=(spec,), rows=arr))
        order = np.argsort(arr[:, 0])
        scaled = out.rows[order, 0]
        assert (np.diff(scaled) > 0).all()

    @given(st.floats(-1e6, 1e6), st.floats(1e-3, 1e6), st.floats(0, 1))
    def test_round_trip(self, lo, span, frac):
        spec = data.ColumnSpec("x", min=lo, max=lo + span)
        x = lo + span * frac
        scaled = (x - lo) / span
        assert data.denormalize(scaled, spec) == pytest.approx(x, abs=1e-12 * max(1, abs(x)))


class TestDenormalize:
    def test_midpoint_inverse(self):
        spec = data.ColumnSpec("x", min=10, max=50)
        assert data.denormalize(0.5, spec) == 30.0
        assert data.denormalize(0.0, spec) == 10.0

    def test_degenerate_returns_min(self):
        spec = data.ColumnSpec("c", min=7, max=7, degenerate=True)
        assert data.denormalize(0.9, spec) == 7.0

    def test_identity_column_round_trip(self):
        spec = data.ColumnSpec("x", min=0, max=1)
        assert data.denormalize(0.137, spec) == pytest.approx(0.137, abs=1e-12)


def _normalized(n_rows, n_cols=3, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0, 1, size=(n_rows, n_cols))
    cols = tuple(data.ColumnSpec(f"A{i+1}", min=0, max=1) for i in range(n_cols))
    return data.Dataset(columns=cols, rows=rows, normalized=True)


class TestSplit:
    @pytest.mark.parametrize(
        "n,expected",
        [(1000, (500, 250, 250)), (517, (259, 129, 129)), (270, (136, 67, 67))],
    )
    def test_benchmark_counts(self, n, expected):
        counts = tuple(len(block) for block in data.split(_normalized(n)))
        assert counts == expected == data.split_sizes(n)

    def test_too_small(self):
        with pytest.raises(ValueError):
            data.split(_normalized(3))

    def test_test_block_is_suffix(self):
        ds = _normalized(41)
        train, validation, test = data.split(ds)
        np.testing.assert_array_equal(train, ds.rows[:21])
        np.testing.assert_array_equal(validation, ds.rows[21:31])
        np.testing.assert_array_equal(test, ds.rows[31:])

    @given(st.integers(4, 2000))
    @settings(max_examples=60)
    def test_partition_exact(self, n):
        ds = _normalized(n, seed=1)
        blocks = data.split(ds)
        assert isinstance(blocks, tuple)
        assert tuple(len(b) for b in blocks) == data.split_sizes(n) == (n - 2 * (n // 4), n // 4, n // 4)
        # Contiguous and in order: every row exactly once.
        np.testing.assert_array_equal(np.concatenate(blocks), ds.rows)
        for block in blocks:
            assert np.shares_memory(block, ds.rows) and not block.flags.writeable

    def test_requires_normalized(self):
        ds = data.Dataset(
            columns=(data.ColumnSpec("x", min=0, max=9),),
            rows=np.arange(10.0)[:, None],
        )
        with pytest.raises(ValueError):
            data.split(ds)


class TestPrepare:
    COLUMNS = (data.ColumnSpec("x"), data.ColumnSpec("y"))

    def test_keeps_a_read_only_matrix_it_owns(self):
        rows = np.array([[0.25, 0.5], [0.75, 1.0]])
        rows.flags.writeable = False
        assert data.Dataset(columns=self.COLUMNS, rows=rows, normalized=True).rows is rows
        scaled = data.normalize(data.Dataset(columns=self.COLUMNS, rows=np.arange(8.0).reshape(4, 2)))
        assert not scaled.rows.flags.writeable
        assert all(block.base is scaled.rows for block in data.split(scaled))

    def test_copies_a_matrix_the_caller_can_still_write(self):
        writable = np.array([[0.25, 0.5], [0.75, 1.0], [0.0, 0.5], [1.0, 0.25]])
        read_only_view = writable[:]
        read_only_view.flags.writeable = False
        for given in (writable, read_only_view, writable.astype(np.float32), writable.tolist()):
            ds = data.Dataset(columns=self.COLUMNS, rows=given, normalized=True)
            assert ds.rows.dtype == np.float64 and not ds.rows.flags.writeable
            assert not np.shares_memory(ds.rows, writable)
            for block in data.split(ds):
                assert np.shares_memory(block, ds.rows) and not block.flags.writeable
        assert writable.flags.writeable

    def test_traced_peak_per_cell(self, tmp_path):
        # load_csv alone peaks at about 17.5 traced bytes per cell; normalize
        # and split must not add to that (normalize's two temporaries and a
        # copy per Dataset made it 25).
        p = tmp_path / "credit.csv"
        write_table(p, "credit", n=20_000)

        def stage():
            ds = data.normalize(data.load_csv(p))
            return ds, data.split(ds)

        (ds, blocks), peak = traced_peak(stage)
        assert sum(map(len, blocks)) == ds.n_rows == 20_000
        assert peak / ds.rows.size <= 18

    def test_make_tasks_traced_peak(self, tmp_path):
        # The 1 MB test block of 20,000 x 25 needs one copy: the task keeps
        # the block whole, truth and all, and makes no second array of it.
        p = tmp_path / "credit.csv"
        write_table(p, "credit", n=20_000)
        test = data.split(data.normalize(data.load_csv(p)))[2]
        task, peak = traced_peak(lambda: data.make_tasks(test, 24))
        assert task.rows.nbytes == 1_000_000
        assert peak <= 1.1e6


def _test_block(n_rows, n_cols):
    return data.split(_normalized(n_rows, n_cols=n_cols))[2]


class TestMakeTasks:
    def test_one_record_per_test_row(self):
        test = _test_block(40, 5)
        task = data.make_tasks(test, 4)
        assert task.rows.shape == (10, 5)
        assert task.column == 4
        np.testing.assert_array_equal(task.rows, test)
        np.testing.assert_array_equal(task.truth, test[:, 4])
        assert not np.shares_memory(task.rows, test)

    def test_validation_block(self):
        validation = data.split(_normalized(40, n_cols=5))[1]
        task = data.make_tasks(validation, 2)
        np.testing.assert_array_equal(task.rows, validation)
        np.testing.assert_array_equal(task.truth, validation[:, 2])

    @pytest.mark.parametrize("column", [3, 7, -1])
    def test_bad_index_rejected(self, column):
        message = "missing_column {} out of range for 3 columns: must satisfy 0 <= column <= 2"
        with pytest.raises(ValueError, match=re.escape(message.format(column))):
            data.make_tasks(_test_block(20, 3), column)

    def test_benchmark_scale_task_counts(self, credit_like):
        path, meta = credit_like
        test = data.split(data.normalize(data.load_csv(path, schema=meta["kinds"])))[2]
        task = data.make_tasks(test, 24)
        assert task.rows.shape == (250, 25)
        assert task.column == 24


class TestImputationTask:
    def test_column_must_lie_in_the_records(self):
        with pytest.raises(ValueError, match="missing_column 3 out of range for 3 columns"):
            data.ImputationTask(rows=np.zeros((2, 3)), column=3)

    def test_needs_a_record(self):
        with pytest.raises(ValueError, match="at least one record"):
            data.make_tasks(np.empty((0, 5)), 1)

    def test_shapes_must_agree(self):
        with pytest.raises(ValueError, match=re.escape("rows must be a (T, n) matrix, got ndim=1")):
            data.ImputationTask(rows=np.zeros(3), column=1)

    def test_arrays_read_only(self):
        t = data.ImputationTask(rows=np.zeros((2, 3)), column=1)
        for array in (t.rows, t.truth):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_keeps_a_read_only_matrix_it_owns_and_copies_the_callers(self):
        owned, writable = np.zeros((2, 3)), np.ones((2, 3))
        owned.flags.writeable = False
        assert data.ImputationTask(rows=owned, column=1).rows is owned
        t = data.ImputationTask(rows=writable, column=1)
        assert not np.shares_memory(t.rows, writable) and writable.flags.writeable
