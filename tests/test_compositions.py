import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zadr.compositions import (
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

    def test_unknown_column_is_schema_error(self, tmp_path):
        path = tmp_path / "d.csv"
        self._write(path, ["a", "b"], [[0.4, 0.6]])
        with pytest.raises(SchemaMismatch):
            read_csv(path, components=["a", "zzz"])
