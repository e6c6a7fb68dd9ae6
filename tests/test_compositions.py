import csv
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracle import oracle_read_covariates, oracle_read_csv

from zadr import compositions
from zadr.compositions import (
    CompositionDataset,
    CovariateMatrix,
    alr,
    alr_inv,
    estimate_p,
    load_dataset,
    make_design,
    read_covariates,
    read_csv,
    zero_pattern,
)
from zadr.errors import (
    DegenerateRow,
    DomainError,
    EmptyInput,
    NegativeEntry,
    RowSumViolation,
    SchemaMismatch,
    ZeroInTransform,
)


def simplex_rows(D, n):
    return st.lists(
        st.lists(st.floats(0.01, 1.0), min_size=D, max_size=D),
        min_size=n, max_size=n,
    ).map(lambda rows: np.array([[v / sum(r) for v in r] for r in rows]))


class TestLoadDataset:
    def test_rejects_empty(self):
        with pytest.raises(EmptyInput):
            load_dataset([])

    def test_rejects_negative(self):
        with pytest.raises(NegativeEntry):
            load_dataset([[0.5, 0.6, -0.1]])

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, cell):
        with pytest.raises(DomainError, match="row 1, column 2"):
            load_dataset([[0.5, 0.3, 0.2], [0.5, 0.5, cell]])

    def test_rejects_bad_row_sum(self):
        with pytest.raises(RowSumViolation):
            load_dataset([[0.5, 0.4, 0.2]])

    def test_rejects_single_positive_component(self):
        with pytest.raises(DegenerateRow):
            load_dataset([[1.0, 0.0, 0.0]])

    def test_renormalizes_within_tolerance(self):
        eps = 5e-9
        ds = load_dataset([[0.5 + eps, 0.3, 0.2]])
        assert abs(ds.values[0].sum() - 1.0) < 1e-15

    def test_zeros_survive_renormalization_exactly(self):
        eps = 5e-9
        ds = load_dataset([[0.7 + eps, 0.3, 0.0]])
        assert ds.values[0, 2] == 0.0

    def test_default_names_and_ids(self):
        ds = load_dataset([[0.5, 0.5]])
        assert ds.component_names == ["c1", "c2"]

    def test_one_flat_row_is_a_dataset_of_one_row(self):
        assert load_dataset([0.25, 0.75]).values.tolist() == [[0.25, 0.75]]

    @pytest.mark.parametrize("rows, names, error, match", [
        (np.full((2, 2, 2), 0.5), None, EmptyInput, "rectangular"),
        ([[1.0], [1.0]], None, DegenerateRow, "at least 2 components"),
        ([[0.5, 0.5]], ["a", "b", "c"], ValueError, "name count"),
    ], ids=["three_dimensional", "one_component", "wrong_name_count"])
    def test_rejects_malformed_input(self, rows, names, error, match):
        with pytest.raises(error, match=match):
            load_dataset(rows, names=names)


class TestZeroPattern:
    def test_indicator_matches_positivity(self):
        ds = load_dataset([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        assert zero_pattern(ds).tolist() == [[1, 1, 0], [1, 1, 1]]

    def test_read_only_int8_array(self):
        u = zero_pattern(load_dataset([[0.5, 0.5, 0.0]]))
        assert isinstance(u, np.ndarray) and u.dtype == np.int8
        with pytest.raises(ValueError):
            u[0, 0] = 0

    def test_magnitude_of_positive_values_is_irrelevant(self):
        a = load_dataset([[0.999, 0.001, 0.0]])
        b = load_dataset([[0.001, 0.999, 0.0]])
        assert np.array_equal(zero_pattern(a), zero_pattern(b))

    def test_idempotent_and_deterministic(self):
        ds = load_dataset([[0.5, 0.5, 0.0]])
        assert np.array_equal(zero_pattern(ds), zero_pattern(ds))

    def test_estimate_p_all_ones_without_zeros(self):
        ds = load_dataset([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
        assert np.array_equal(estimate_p(zero_pattern(ds)), np.ones(3))

    def test_estimate_p_is_nonzero_proportion(self):
        ds = load_dataset([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        assert np.allclose(estimate_p(zero_pattern(ds)), [1.0, 1.0, 0.5])


class TestAlr:
    @settings(max_examples=50, deadline=None)
    @given(simplex_rows(D=4, n=3), st.integers(0, 3))
    def test_round_trip(self, values, ref):
        z = alr(values, ref)
        back = alr_inv(z, ref).values
        assert np.max(np.abs(back - values)) < 1e-12

    def test_inverse_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(20, 3)) * 5
        y = alr_inv(z, 1).values
        assert np.all(y > 0)
        assert np.max(np.abs(y.sum(axis=1) - 1.0)) < 1e-15

    def test_rejects_zero_rows(self):
        with pytest.raises(ZeroInTransform):
            alr(np.array([[0.5, 0.5, 0.0]]))

    def test_ref_out_of_range(self):
        with pytest.raises(IndexError):
            alr(np.array([[0.5, 0.5]]), ref_index=2)
        with pytest.raises(IndexError):
            alr_inv(np.array([[0.5, 0.5]]), ref_index=3)

    def test_flat_row_is_one_row(self):
        z = alr(np.array([0.25, 0.25, 0.5]), ref_index=2)
        assert z.shape == (1, 2)
        assert np.array_equal(alr_inv(z[0], ref_index=2).values, [[0.25, 0.25, 0.5]])

    def test_overflow_safe(self):
        y = alr_inv(np.array([[800.0, -800.0]])).values
        assert np.all(np.isfinite(y))


class TestDesign:
    def test_intercept_prepended(self):
        X = make_design(np.array([[2.0], [3.0]]), names=["x"])
        assert X.covariate_names == ["intercept", "x"]
        assert np.array_equal(X.design[:, 0], [1.0, 1.0])

    def test_intercept_only(self):
        X = make_design(np.empty((4, 0)))
        assert X.design.shape == (4, 1)
        assert X.p == 0

    @pytest.mark.parametrize("design, names, error, match", [
        (np.ones(3), ["intercept"], EmptyInput, "2-D"),
        (np.ones((3, 0)), [], EmptyInput, "2-D"),
        (np.ones((3, 2)), ["intercept"], ValueError, "names length"),
        (np.full((3, 2), 2.0), ["intercept", "x"], ValueError, "intercept"),
    ], ids=["one_dimensional", "no_columns", "name_count", "no_intercept"])
    def test_covariate_matrix_checks(self, design, names, error, match):
        with pytest.raises(error, match=match):
            CovariateMatrix(design=design, covariate_names=names)

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_covariate_naming_row_and_column(self, cell):
        with pytest.raises(DomainError, match="row 1, column 'x'"):
            make_design(np.array([[2.0, 0.5], [3.0, cell]]), names=["w", "x"])


class TestReadCsv:
    def _write(self, path, header, rows):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)

    def test_components_by_name_list(self, tmp_path):
        path = tmp_path / "d.csv"
        self._write(path, ["a", "b", "x"], [[0.4, 0.6, 1.5], [0.9, 0.1, 2.5]])
        ds, X = read_csv(path, components=["a", "b"], covariates=["x"])
        assert ds.component_names == ["a", "b"]
        assert X.covariate_names == ["intercept", "x"]
        assert np.allclose(X.design[:, 1], [1.5, 2.5])

    def test_components_by_prefix(self, tmp_path):
        path = tmp_path / "d.csv"
        self._write(path, ["y:a", "y:b", "x"], [[0.4, 0.6, 1.5]])
        ds, X = read_csv(path)
        assert ds.component_names == ["a", "b"]
        assert X.covariate_names == ["intercept", "x"]

    def test_empty_cell_is_an_error(self, tmp_path):
        path = tmp_path / "d.csv"
        self._write(path, ["a", "b", "x"], [[0.4, "", 1.5]])
        with pytest.raises(EmptyInput):
            read_csv(path, components=["a", "b"], covariates=["x"])
        self._write(path, ["a", "b", "x"], [[0.4, 0.6, 1.5], [0.4, 0.6, "  "]])
        with pytest.raises(EmptyInput, match="empty cell at data row 1, column 'x'"):
            read_csv(path, components=["a", "b"], covariates=["x"])

    def test_short_row_is_schema_error_naming_the_row(self, tmp_path):
        path = tmp_path / "d.csv"
        self._write(path, ["y:a", "y:b", "x"], [[0.4, 0.6, 1.0], [0.4, 0.6]])
        with pytest.raises(SchemaMismatch, match="data row 1"):
            read_csv(path)

    def test_read_covariates(self, tmp_path):
        path = tmp_path / "d.csv"
        self._write(path, ["a", "x", "z"], [[0.4, 1.5, 7.0], [0.9, 2.5, 8.0]])
        X = read_covariates(path, ["z", "x"])
        assert X.covariate_names == ["intercept", "z", "x"]
        assert np.array_equal(X.design[:, 1:], [[7.0, 1.5], [8.0, 2.5]])
        self._write(path, ["a", "x"], [[0.4, ""]])
        with pytest.raises(EmptyInput):
            read_covariates(path, ["x"])

    def test_padded_and_quoted_cells_parse_like_float(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('a,b,x\n 0.4 ,"0.6", 1.5\n"0.25",  0.75  ,"-2.5e-1 "\n')
        ds, X = read_csv(path, components=["a", "b"], covariates=["x"])
        assert np.array_equal(ds.values, [[0.4, 0.6], [0.25, 0.75]])
        assert np.array_equal(X.design[:, 1], [1.5, -0.25])

    def test_cells_past_the_header_are_ignored(self, tmp_path):
        path = tmp_path / "d.csv"
        self._write(path, ["y:a", "y:b", "x"], [[0.4, 0.6, 1.0, "extra", ""]])
        ds, X = read_csv(path)
        assert np.array_equal(ds.values, [[0.4, 0.6]])
        assert np.array_equal(X.design, [[1.0, 1.0]])

    def test_whitespace_only_rows_are_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y:a,y:b,x\n0.4,0.6,1.0\n\n  , ,\t\n \n0.9,0.1,2.0\n")
        ds, X = read_csv(path)
        assert np.array_equal(ds.values, [[0.4, 0.6], [0.9, 0.1]])
        assert np.array_equal(X.design[:, 1], [1.0, 2.0])

    @pytest.mark.parametrize("column, match", [
        ("b", "non-numeric cell 'abc' at data row 1, column 'b'"),
        ("x", "non-numeric cell 'abc' at data row 1, column 'x'"),
    ])
    def test_non_numeric_cell_is_named(self, tmp_path, column, match):
        path = tmp_path / "d.csv"
        rows = [{"a": 0.4, "b": 0.6, "x": 1.0}, {"a": 0.4, "b": 0.6, "x": 2.0}]
        rows[1][column] = " abc "
        self._write(path, ["a", "b", "x"], [list(r.values()) for r in rows])
        with pytest.raises(DomainError, match=match):
            read_csv(path, components=["a", "b"], covariates=["x"])

    @pytest.mark.parametrize("cell", ["\x1c0.5", "0.5\x1f"])
    def test_separator_wrapped_cell_is_named(self, tmp_path, cell):
        # str.strip removes the ASCII separators \x1c-\x1f and float does not.
        path = tmp_path / "d.csv"
        self._write(path, ["a", "b", "x"], [[0.4, 0.6, 1.0], [0.5, cell, 2.0]])
        where = f"non-numeric cell {cell!r} at data row 1, column 'b'"
        with pytest.raises(DomainError, match=re.escape(where)):
            read_csv(path, components=["a", "b"], covariates=["x"])

    def test_undecodable_byte_names_the_file_and_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(compositions.locale, "getpreferredencoding", lambda _=True: "UTF-8")
        lines = [b"a,b,x"] + [b"0.25,0.75,%d" % i for i in range(3000)]
        lines[1478] = b"0.25,0.75,\xff"  # line 1479 of the file
        data = b"\n".join(lines) + b"\n"
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        offset = data.index(b"\xff")
        where = f"{path}: not valid UTF-8 text: byte 0xff at line 1479, byte offset {offset}"
        with pytest.raises(DomainError, match=re.escape(where)):
            read_csv(path, components=["a", "b"], covariates=["x"])
        path.write_bytes(data.replace(b"\n", b"\r\n"))
        with pytest.raises(DomainError, match="at line 1479, "):
            read_covariates(path, ["x"])

    def test_unknown_column_is_schema_error(self, tmp_path):
        path = tmp_path / "d.csv"
        self._write(path, ["a", "b"], [[0.4, 0.6]])
        with pytest.raises(SchemaMismatch):
            read_csv(path, components=["a", "zzz"])
        with pytest.raises(SchemaMismatch, match="no 'y:'-prefixed columns"):
            read_csv(path)

    def test_empty_file_is_empty_input(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"")
        with pytest.raises(EmptyInput, match="empty file"):
            read_csv(path, components=["a", "b"])
        with pytest.raises(EmptyInput, match="empty file"):
            read_covariates(path, ["x"])

    @pytest.mark.parametrize("body", ["", "\n", "\n\n", "\r\n  \r\n", " , ,\t\n", '""\n'])
    def test_blank_body_is_empty_input_without_warning(self, tmp_path, body):
        path = tmp_path / "d.csv"
        path.write_bytes(("y:a,y:b,x\n" + body).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyInput, match="no data rows"):
                read_csv(path)
            with pytest.raises(EmptyInput, match="no data rows"):
                read_covariates(path, ["x"])

    @pytest.mark.parametrize("header, components, covariates, match", [
        (["a", "b", "a", "x"], ["a", "b"], ["x"], "component column 'a' appears 2 times"),
        (["a", "b", "a", "x"], ["a", "b"], None, "component column 'a' appears 2 times"),
        (["a", "b", "x", "x"], ["a", "b"], ["x"], "covariate column 'x' appears 2 times"),
        (["a", "b", "x", "x"], ["a", "b"], None, "column name 'x' is selected twice"),
        (["a", "b", "x"], ["a", "b"], ["a", "x"], "column name 'a' is selected twice"),
        (["a", "b", "x"], ["a", "b", "a"], ["x"], "column name 'a' is selected twice"),
        (["a", "b", "x"], ["a", "b"], ["x", "x"], "column name 'x' is selected twice"),
        (["y:a", "y:b", "y:a", "x"], None, ["x"], "column name 'a' is selected twice"),
        (["y:a", "y:b", "a"], None, None, "column name 'a' is selected twice"),
    ])
    def test_column_named_twice_is_schema_error(self, tmp_path, header, components,
                                                covariates, match):
        path = tmp_path / "d.csv"
        self._write(path, header, [[0.4, 0.6, 0.5, 1.0][:len(header)]])
        with pytest.raises(SchemaMismatch, match=match):
            read_csv(path, components=components, covariates=covariates)

    @pytest.mark.parametrize("header, covariates, match", [
        (["a", "x", "x"], ["x"], "covariate column 'x' appears 2 times"),
        (["a", "x", "z"], ["z", "x", "z"], "column name 'z' is selected twice"),
    ])
    def test_covariate_named_twice_is_schema_error(self, tmp_path, header, covariates, match):
        path = tmp_path / "d.csv"
        self._write(path, header, [[0.4, 1.5, 7.0]])
        with pytest.raises(SchemaMismatch, match=match):
            read_covariates(path, covariates)


def _short_spelling(v):
    """'5.' for 5.0 and '.5' for 0.5."""
    text = repr(v)
    if text.endswith(".0"):
        return text[:-1]
    return text.replace("0.", ".", 1) if text.lstrip("-").startswith("0.") else text


FLOAT_SPELLINGS = [
    repr,
    "{:.17e}".format,
    "{:.25f}".format,
    lambda v: repr(v) if repr(v).startswith("-") else "+" + repr(v),
    _short_spelling,
    lambda v: repr(v).upper(),
]
# Cell wrappings: padding, quoting, and np.loadtxt-only whitespace. A file
# uses at most three of them, so that some wrapped files still parse as a
# numeric table.
DECORATIONS = ["{}", " {} ", "\t{}  ", '"{}"', ' "{}"', '"{}" ', '"{} "', "{}\x1c", "\x1f{}"]
# Cells that only the csv path reads, or that it or validation rejects.
ODD_CELLS = ["", "  ", "abc", "1_000", "\u0661", "\x1c", '"1,5"', '"1\n"', "0.5#", "nan", "-1",
             "0x1p3"]
FILLER_LINES = ["", "  ", " , ,\t", ",,", '""']
RARELY = st.sampled_from([True, False, False, False])


@st.composite
def csv_files(draw, max_rows=6):
    """(text, component names or None, covariate names or None, covariate names
    for read_covariates) of a small generated CSV file."""
    D = draw(st.integers(2, 4))
    comp = [f"c{j}" for j in range(D)]
    cov = [f"x{k}" for k in range(draw(st.integers(0, 2)))]
    text_col = ["site"] if draw(RARELY) else []
    order = draw(st.permutations(comp + cov + text_col))
    prefix = draw(st.booleans())
    header = ["y:" + h if prefix and h in comp else h for h in order]
    spell = st.sampled_from(FLOAT_SPELLINGS)
    covariate = st.one_of(st.floats(-1e6, 1e6), st.floats())
    style = draw(st.lists(st.sampled_from(DECORATIONS), max_size=3))
    rows = []
    for i in range(draw(st.integers(1, max_rows))):
        w = draw(st.lists(st.floats(0.0, 1.0), min_size=D, max_size=D))
        total = sum(w)
        cells = {name: draw(spell)(v / total if total else v) for name, v in zip(comp, w)}
        cells.update({name: draw(spell)(draw(covariate)) for name in cov})
        cells.update({name: f"S{i}" for name in text_col})
        row = [cells[h] for h in order]
        if style:
            row = [draw(st.sampled_from(style)).format(c) for c in row]
        rows.append(row)
    if draw(RARELY):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(order) - 1))
        rows[i][j] = draw(st.sampled_from(ODD_CELLS))
    if draw(RARELY):
        extra = draw(st.lists(st.sampled_from(["1.5", "x", ""]), min_size=1, max_size=2))
        for row in rows if draw(st.booleans()) else rows[:1]:
            row.extend(extra)
    if draw(RARELY):
        for row in rows if draw(st.booleans()) else rows[:1]:
            row.pop()
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if draw(RARELY):
        for _ in range(draw(st.integers(1, 2))):
            lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(FILLER_LINES)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    components = None if prefix else draw(st.permutations(comp))
    covariates = draw(st.one_of(st.none(), st.permutations(cov), st.permutations(cov + text_col)))
    return text, components, covariates, draw(st.permutations(cov + text_col))


def _arrays(part):
    if isinstance(part, CompositionDataset):
        return part.values.shape, part.values.tobytes(), part.component_names
    return part.design.shape, part.design.tobytes(), part.covariate_names


def _outcome(reader, *args):
    """Shapes, bytes and names of a reader's result, or its exception."""
    try:
        result = reader(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return [_arrays(part) for part in (result if isinstance(result, tuple) else (result,))]


class TestReadersMatchReference:
    """read_csv and read_covariates against the csv + float reference reader:
    bit-identical arrays, or the same exception class and message."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_files())
    def test_generated_files(self, tmp_path, spec):
        text, components, covariates, design_names = spec
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        assert (_outcome(read_csv, path, components, covariates)
                == _outcome(oracle_read_csv, path, components, covariates))
        assert (_outcome(read_covariates, path, design_names)
                == _outcome(oracle_read_covariates, path, design_names))

    def test_fit_large_shaped_file_takes_the_numeric_table(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 5000
        Y = rng.dirichlet([8.0, 4.0, 2.0, 2.0], size=n)
        zero_rows = rng.choice(n, size=n // 6, replace=False)
        Y[zero_rows, rng.integers(1, 4, size=zero_rows.size)] = 0.0
        Y /= Y.sum(axis=1, keepdims=True)
        depth = np.log(np.arange(1, n + 1, dtype=float))
        lines = ["Triloba,Obesa,Pachyderma,Atlantica,logdepth"]
        lines += [",".join(repr(float(v)) for v in (*y, x)) for y, x in zip(Y, depth)]
        path = tmp_path / "large.csv"
        path.write_text("\n".join(lines) + "\n")
        components = ["Triloba", "Obesa", "Pachyderma", "Atlantica"]
        assert isinstance(compositions._read_table(path)[1], np.ndarray)
        assert (_outcome(read_csv, path, components, ["logdepth"])
                == _outcome(oracle_read_csv, path, components, ["logdepth"]))
        assert (_outcome(read_covariates, path, ["logdepth"])
                == _outcome(oracle_read_covariates, path, ["logdepth"]))
