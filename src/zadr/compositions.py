"""Compositional datasets, zero patterns and additive log-ratio transforms.

A composition is a vector of nonnegative proportions summing to 1. Exact
zeros are meaningful here (structural absence of a component) and are never
imputed or perturbed; renormalization of noisy row sums touches only the
positive entries. A dataset's zero pattern is the read-only int8 array of
its indicators u[i, j] = 1[y_ij > 0], derived from the values on demand.
Rows are identified by their index. This module reads zadr's CSV inputs
(`read_csv`, `read_covariates`) and writes its CSV outputs (`_write_csv`).
"""

from __future__ import annotations

import csv
import io
import locale
import string
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRow,
    DomainError,
    EmptyInput,
    NegativeEntry,
    RowSumViolation,
    SchemaMismatch,
    ZeroInTransform,
)

ROW_SUM_TOLERANCE = 1e-8


@dataclass(frozen=True)
class CompositionDataset:
    """An n x D matrix of proportions on the simplex, with component names.

    Immutable after construction; build instances through :func:`load_dataset`
    which validates and renormalizes.
    """

    values: np.ndarray
    component_names: list[str]

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def D(self) -> int:
        return self.values.shape[1]

    def zero_free_mask(self) -> np.ndarray:
        """Boolean mask of rows with no zero component."""
        return np.all(self.values > 0.0, axis=1)


@dataclass(frozen=True)
class CovariateMatrix:
    """An n x (p+1) design matrix whose first column is the intercept."""

    design: np.ndarray
    covariate_names: list[str]

    def __post_init__(self):
        design = self.design
        if design.ndim != 2 or design.shape[1] < 1:
            raise EmptyInput("design matrix must be 2-D with >= 1 column")
        if len(self.covariate_names) != design.shape[1]:
            raise ValueError("covariate_names length must match design columns")
        if not np.all(np.isfinite(design)):
            i, j = np.argwhere(~np.isfinite(design))[0]
            raise DomainError(f"non-finite covariate {design[i, j]} at row {i}, "
                              f"column {self.covariate_names[j]!r}")
        if not np.all(design[:, 0] == 1.0):
            raise ValueError("first design column must be the intercept (all ones)")
        design.setflags(write=False)

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def p(self) -> int:
        return self.design.shape[1] - 1


def make_design(covariates: np.ndarray, names: list[str] | None = None) -> CovariateMatrix:
    """Prepend an intercept column to raw covariates (n x p, possibly p=0)."""
    covariates = np.asarray(covariates, dtype=float)
    if covariates.ndim == 1:
        covariates = covariates[:, None]
    n = covariates.shape[0]
    design = np.hstack([np.ones((n, 1)), covariates])
    if names is None:
        names = [f"x{k}" for k in range(1, covariates.shape[1] + 1)]
    return CovariateMatrix(design=design, covariate_names=["intercept", *names])


def load_dataset(rows, names: list[str] | None = None) -> CompositionDataset:
    """Validate and normalize raw proportion rows into a dataset.

    Non-finite and negative entries are rejected. Rows whose sum deviates
    from 1 by at most `ROW_SUM_TOLERANCE` are renormalized; the
    renormalization divides only the positive entries so exact zeros are
    preserved bit-exactly.
    """
    values = np.array(rows, dtype=float)
    if values.size == 0:
        raise EmptyInput("no composition rows supplied")
    if values.ndim == 1:
        values = values[None, :]
    if values.ndim != 2:
        raise EmptyInput("composition rows must form a rectangular matrix")
    D = values.shape[1]
    if D < 2:
        raise DegenerateRow("compositions need at least 2 components")
    if not np.all(np.isfinite(values)):
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise DomainError(f"non-finite entry {values[i, j]} at row {i}, column {j}")
    if np.any(values < 0):
        i, j = np.argwhere(values < 0)[0]
        raise NegativeEntry(f"negative entry {values[i, j]} at row {i}, column {j}")
    sums = values.sum(axis=1)
    bad = np.abs(sums - 1.0) > ROW_SUM_TOLERANCE
    if np.any(bad):
        i = int(np.argmax(bad))
        raise RowSumViolation(f"row {i} sums to {sums[i]}, off by more than {ROW_SUM_TOLERANCE}")
    positive_counts = (values > 0).sum(axis=1)
    if np.any(positive_counts < 2):
        i = int(np.argmax(positive_counts < 2))
        raise DegenerateRow(f"row {i} has fewer than 2 positive components")
    # Renormalize positive entries only; zeros stay exactly zero.
    values = values / sums[:, None]
    if names is None:
        names = [f"c{j + 1}" for j in range(D)]
    if len(names) != D:
        raise ValueError("component name count must equal D")
    return CompositionDataset(values=values, component_names=list(names))


def zero_pattern(ds: CompositionDataset) -> np.ndarray:
    """Read-only n x D int8 indicators: u[i, j] = 1 iff values[i, j] > 0."""
    u = (ds.values > 0.0).astype(np.int8)
    u.setflags(write=False)
    return u


def alr(ds_or_values, ref_index: int = 0) -> np.ndarray:
    """Additive log-ratio transform z_i = log(y_i / y_ref), i != ref.

    Requires strictly positive input; callers must filter to zero-free rows.
    Column order preserves the order of the non-reference components.
    """
    values = ds_or_values.values if isinstance(ds_or_values, CompositionDataset) else np.asarray(ds_or_values, dtype=float)
    if values.ndim == 1:
        values = values[None, :]
    D = values.shape[1]
    if not 0 <= ref_index < D:
        raise IndexError(f"ref_index {ref_index} out of range for D={D}")
    if np.any(values <= 0.0):
        raise ZeroInTransform("alr requires strictly positive compositions")
    logs = np.log(values)
    keep = [j for j in range(D) if j != ref_index]
    return logs[:, keep] - logs[:, [ref_index]]


def alr_inv(
    z: np.ndarray,
    ref_index: int = 0,
    component_names: list[str] | None = None,
) -> CompositionDataset:
    """Inverse alr: map R^d back onto the open simplex.

    Overflow-safe via max-subtraction; output rows sum to exactly 1.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z[None, :]
    n, d = z.shape
    D = d + 1
    if not 0 <= ref_index < D:
        raise IndexError(f"ref_index {ref_index} out of range for D={D}")
    eta = np.zeros((n, D))
    keep = [j for j in range(D) if j != ref_index]
    eta[:, keep] = z
    eta -= eta.max(axis=1, keepdims=True)
    expo = np.exp(eta)
    y = expo / expo.sum(axis=1, keepdims=True)
    if component_names is None:
        component_names = [f"c{j + 1}" for j in range(D)]
    return CompositionDataset(values=y, component_names=list(component_names))


def estimate_p(u: np.ndarray) -> np.ndarray:
    """Per-component proportion of nonzero observations (closed-form MLE)."""
    return u.mean(axis=0)


# np.loadtxt strips these four ASCII separators around a number as whitespace;
# Python's float rejects them.
_LOADTXT_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


def _read_table(path) -> tuple[list[str], np.ndarray | list[list[str]]]:
    """Stripped header and data rows of a CSV file.

    The csv module parses the header. A body that np.loadtxt reads in one C
    pass as a numeric table at least as wide as the header comes back as
    that (n, width) float array. Any other body comes back as the csv
    module's non-blank rows of cells, the only form in which `_parse_columns`
    can name a bad cell. A file that is not text in the locale's encoding is
    a DomainError naming the line and byte offset of its first bad byte.
    """
    encoding = locale.getpreferredencoding(False)
    try:
        with open(path, newline="", encoding=encoding) as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyInput(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            body = fh.read()
    except UnicodeDecodeError:
        # The text reader decodes in chunks, and its error counts bytes from
        # the start of a chunk; decoded in one call, the offset is the file's.
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode(encoding)
        except UnicodeDecodeError as exc:
            before = data[:exc.start]
            line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
            raise DomainError(f"{path}: not valid {encoding} text: byte 0x{data[exc.start]:02x} "
                              f"at line {line}, byte offset {exc.start}") from None
        raise
    table = _numeric_table(body)
    if table is not None and table.shape[1] >= len(header):
        return header, table
    records = [row for row in csv.reader(io.StringIO(body, newline="")) if "".join(row).strip()]
    if not records:
        raise EmptyInput(f"{path}: no data rows")
    for i, rec in enumerate(records):
        if len(rec) < len(header):
            raise SchemaMismatch(
                f"{path}: data row {i} has {len(rec)} cells but the header has {len(header)}")
    return header, records


def _numeric_table(body: str) -> np.ndarray | None:
    """`body` as a float array, one row per record, or None unless np.loadtxt
    reads it as a rectangular table of numbers that Python's float reads alike.

    A blank body is None, since loadtxt would warn that it holds no data."""
    if not body.strip() or any(c in body for c in _LOADTXT_ONLY_SPACES):
        return None
    try:
        return np.loadtxt(io.StringIO(body, newline=""), delimiter=",", comments=None,
                          quotechar='"', ndmin=2)
    except ValueError:
        return None


def _column_indices(path, header: list[str], names: list[str], role: str) -> list[int]:
    for name in names:
        count = header.count(name)
        if count != 1:
            where = "not found" if count == 0 else f"appears {count} times in the header"
            raise SchemaMismatch(f"{path}: {role} column {name!r} {where}")
    return [header.index(name) for name in names]


def _check_distinct(path, names: list[str]) -> None:
    """A name may be selected once, as a component or as a covariate."""
    seen = set()
    for name in names:
        if name in seen:
            raise SchemaMismatch(f"{path}: column name {name!r} is selected twice")
        seen.add(name)


def _parse_columns(path, header, rows, cols) -> np.ndarray:
    """The chosen columns of `_read_table`'s rows as an (n, len(cols)) array.

    The float table needs only the selection. Cells from the csv module are
    converted in one call with Python's `float`, which ignores surrounding
    whitespace other than the ASCII separators \\x1c-\\x1f. Only when that
    fails is `float` tried on each cell as it stands, to name the first empty
    (EmptyInput) or non-numeric (DomainError) cell; the message shows the
    cell without its ASCII whitespace."""
    if isinstance(rows, np.ndarray):
        return rows[:, cols]
    cells = [rec[j] for rec in rows for j in cols]
    try:
        values = np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        for i, rec in enumerate(rows):
            for j in cols:
                cell = rec[j]
                if not cell.strip():
                    raise EmptyInput(
                        f"{path}: empty cell at data row {i}, column {header[j]!r}") from None
                try:
                    float(cell)
                except ValueError:
                    shown = cell.strip(string.whitespace)
                    raise DomainError(f"{path}: non-numeric cell {shown!r} at data row {i}, "
                                      f"column {header[j]!r}") from None
        raise
    return values.reshape(len(rows), len(cols))


def read_covariates(path, covariates: list[str]) -> CovariateMatrix:
    """Design matrix from the named covariate columns of a CSV file."""
    header, rows = _read_table(path)
    cols = _column_indices(path, header, covariates, "covariate")
    _check_distinct(path, covariates)
    return make_design(_parse_columns(path, header, rows, cols), names=list(covariates))


def read_csv(
    path,
    components: list[str] | None = None,
    covariates: list[str] | None = None,
) -> tuple[CompositionDataset, CovariateMatrix]:
    """Read a dataset CSV: header row, composition columns plus covariates.

    Composition columns are picked by the `components` name list, or by a
    `y:` prefix convention when the list is absent. The covariates are the
    columns named in `covariates`, or else every remaining column, so a text
    column such as a site ID needs `covariates` to leave it out. Every
    selected cell must read as a Python float: empty cells, non-numeric
    cells and rows shorter than the header are errors, not zeros; cells
    past the header's last column are ignored. A selected column name that
    appears twice in the header, or is selected twice, is a SchemaMismatch.
    """
    header, rows = _read_table(path)
    if components is not None:
        comp_cols = _column_indices(path, header, components, "component")
        comp_names = list(components)
    else:
        comp_cols = [j for j, h in enumerate(header) if h.startswith("y:")]
        if not comp_cols:
            raise SchemaMismatch(f"{path}: no components given and no 'y:'-prefixed columns")
        comp_names = [header[j][2:] for j in comp_cols]

    if covariates is not None:
        cov_cols = _column_indices(path, header, covariates, "covariate")
    else:
        cov_cols = [j for j in range(len(header)) if j not in comp_cols]
    cov_names = [header[j] for j in cov_cols]
    _check_distinct(path, comp_names + cov_names)

    values = _parse_columns(path, header, rows, comp_cols + cov_cols)
    k = len(comp_cols)
    ds = load_dataset(values[:, :k], names=comp_names)
    return ds, make_design(values[:, k:], names=cov_names)


def _write_csv(path, header: list[str], rows) -> None:
    """Write a CSV file: the header row, then `rows`, each ending in \\r\\n.

    A float cell is written as repr(float(x)), the shortest decimal that
    reads back as the same double; any other cell as the csv module writes it.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(x)) if isinstance(x, float | np.floating) else x for x in row]
                         for row in rows)
