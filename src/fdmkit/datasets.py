"""Dataset container, libsvm-format text I/O, and synthetic generators.

The text format is one example per line::

    <label> <index>:<value> <index>:<value> ...

with 1-based feature indices, strictly increasing within a line.  The
feature dimension of a parsed dataset is the largest index seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box
from .problems import QuadraticProblem


class ParseError(ValueError):
    """Malformed libsvm text; carries the offending line and column."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, field {column}: {message}")


@dataclass
class Dataset:
    """Row examples, a dense float64 ``(n, d)`` array, with labels.

    ``normalized`` records that every row has been scaled to unit Euclidean
    norm (required by the duality-gap analysis of the SVM dual).
    """

    features: np.ndarray
    labels: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array of row examples")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels length must match the number of examples")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def row_norms(self) -> np.ndarray:
        # one reduceat segment per row adds the squares in the order of a
        # CSR row sum, which earlier reports were normalized with
        n, d = self.features.shape
        if n == 0 or d == 0:
            return np.zeros(n)
        sq = (self.features * self.features).ravel()
        return np.sqrt(np.add.reduceat(sq, np.arange(0, n * d, d)))

    def normalize_rows(self) -> "Dataset":
        """Scale every row to unit norm (rows must be nonzero)."""
        norms = self.row_norms()
        if np.any(norms == 0.0):
            raise ValueError("cannot normalize a dataset with zero rows")
        scaled = self.features * (1.0 / norms)[:, None]
        return Dataset(scaled, self.labels.copy(), normalized=True)

    def binary_labels_ok(self) -> bool:
        return bool(np.all(np.isin(self.labels, (-1.0, 1.0))))


def _parse_float(text: str, lineno: int, column: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(lineno, column, f"bad {what} {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(lineno, column, f"non-finite {what} {text!r}")
    return value


def parse_libsvm(path, classification: bool = True) -> Dataset:
    """Parse a libsvm-format text file into a :class:`Dataset`.

    In classification mode labels must be -1 or +1 (written with or without
    an explicit sign) and the file must contain at least one example.
    Labels and values must be finite.
    """
    rows, cols, vals, labels = [], [], [], []
    max_index = 0
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            label = _parse_float(fields[0], lineno, 1, "label")
            prev_index = 0
            for col, field in enumerate(fields[1:], start=2):
                idx_str, sep, val_str = field.partition(":")
                if not sep:
                    raise ParseError(lineno, col, f"missing ':' in {field!r}")
                try:
                    idx = int(idx_str)
                except ValueError:
                    raise ParseError(lineno, col, f"bad index {idx_str!r}") from None
                if idx < 1:
                    raise ParseError(lineno, col, f"index {idx} is not 1-based")
                if idx <= prev_index:
                    raise ParseError(
                        lineno, col,
                        f"index {idx} not strictly increasing after {prev_index}")
                rows.append(len(labels))
                cols.append(idx - 1)
                vals.append(_parse_float(val_str, lineno, col, "value"))
                prev_index = idx
                max_index = max(max_index, idx)
            labels.append(label)
    n = len(labels)
    if classification:
        if n == 0:
            raise ParseError(0, 0, "classification dataset must have n >= 1 examples")
        bad = [v for v in labels if v not in (-1.0, 1.0)]
        if bad:
            raise ParseError(0, 0, f"classification labels must be -1/+1, got {bad[0]}")
    features = np.zeros((n, max_index))
    features[rows, cols] = vals
    return Dataset(features, np.asarray(labels))


def write_libsvm(dataset: Dataset, path) -> None:
    """Write a dataset's nonzero entries as libsvm text, round-trip precise."""
    with open(path, "w", encoding="ascii") as fh:
        for label, row in zip(dataset.labels, dataset.features):
            parts = [f"{label:+g}"]
            for idx in np.flatnonzero(row):
                parts.append(f"{idx + 1}:{row[idx]:.17g}")
            fh.write(" ".join(parts) + "\n")


# ---------------------------------------------------------------------------
# synthetic generators

GENERATORS = ("gaussian-margin", "correlated-rows", "diagonal-quadratic")


def gaussian_margin(n: int, d: int, seed: int = 0, margin: float = 0.1) -> Dataset:
    """Linearly structured classification examples with a soft margin.

    Rows are standard Gaussian; labels follow a random hyperplane with the
    near-margin examples flipped to keep the instance nonseparable.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    A = rng.standard_normal((n, d))
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    scores = A @ direction
    y = np.where(scores >= 0.0, 1.0, -1.0)
    flip = np.abs(scores) < margin
    y[flip] *= -1.0
    return Dataset(A, y)


def correlated_rows(delta: float, d: int = 3, n: int = 4, seed: int = 0) -> Dataset:
    """Feature matrix with two nearly identical rows, A_1 = A_2 + delta e_1.

    Rows of the returned dataset's feature-space matrix (``dataset.features.T``)
    are the near-duplicates; feeding those rows to the Hoffman brute force
    exhibits the 2-row support that forces theta >= sqrt(2)/|delta|.
    """
    if delta == 0:
        raise ValueError("delta must be nonzero")
    rng = np.random.Generator(np.random.Philox(key=seed))
    feat = rng.standard_normal((d, n))  # rows correspond to features
    feat /= np.linalg.norm(feat, axis=1, keepdims=True)
    feat[0] = feat[1].copy()
    feat[0, 0] += delta
    labels = np.where(rng.standard_normal(n) >= 0.0, 1.0, -1.0)
    return Dataset(feat.T, labels)


def diagonal_quadratic(n: int = 5) -> QuadraticProblem:
    """Separable quadratic with curvature diag(1..n) over the whole space."""
    H = np.diag(np.arange(1.0, n + 1.0))
    c = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return QuadraticProblem(H, c, Box.free(n))


def generate_synthetic(spec: dict):
    """Build a synthetic instance from a generator spec.

    ``spec`` requires ``generator`` (one of ``gaussian-margin``,
    ``correlated-rows``, ``diagonal-quadratic``) plus that generator's
    parameters; dataset generators also honor ``seed``.
    """
    if "generator" not in spec:
        raise ValueError("synthetic spec requires a 'generator' key")
    kind = spec["generator"]
    params = {k: v for k, v in spec.items() if k != "generator"}
    try:
        if kind == "gaussian-margin":
            return gaussian_margin(**params)
        if kind == "correlated-rows":
            return correlated_rows(**params)
        if kind == "diagonal-quadratic":
            return diagonal_quadratic(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for generator {kind!r}: {exc}") from None
    raise ValueError(f"unknown generator {kind!r}; expected one of {GENERATORS}")
