"""Dataset container, libsvm-format text I/O, and the gaussian-margin
generator of synthetic classification data.

The text format is one example per line::

    <label> <index>:<value> <index>:<value> ...

with 1-based feature indices, strictly increasing within a line.  The
feature dimension of a parsed dataset is the largest index seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ParseError(ValueError):
    """Malformed libsvm text; carries the offending line and column."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, field {column}: {message}")


@dataclass
class Dataset:
    """Row examples, a dense float64 ``(n, d)`` array, with labels."""

    features: np.ndarray
    labels: np.ndarray

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
        """Scale every row to unit Euclidean norm (rows must be nonzero), as
        the duality-gap analysis of the SVM dual requires."""
        norms = self.row_norms()
        if np.any(norms == 0.0):
            raise ValueError("cannot normalize a dataset with zero rows")
        scaled = self.features * (1.0 / norms)[:, None]
        return Dataset(scaled, self.labels.copy())


def _parse_float(text: str, lineno: int, column: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(lineno, column, f"bad {what} {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(lineno, column, f"non-finite {what} {text!r}")
    return value


# bytes of whole lines that parse_libsvm reads and converts at a time
_PARSE_BLOCK = 1 << 16
# the ASCII whitespace that str.split() splits at, mapped to a space
_TO_SPACE = bytes.maketrans(b"\t\n\v\f\r\x1c\x1d\x1e\x1f", b" " * 9)
_NOT_SPACE_OR_COLON = bytes(sorted(set(range(256)) - set(b" :")))


def _parse_lines(lines: list, first_lineno: int):
    """One block of libsvm lines, parsed line by line and field by field.

    Returns the block as :func:`_parse_block` does, or raises the
    :class:`ParseError` of its first malformed field; ``first_lineno`` is
    the file line number of ``lines[0]``.
    """
    labels, counts, cols, vals = [], [], [], []
    for lineno, raw in enumerate(lines, start=first_lineno):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        labels.append(_parse_float(fields[0], lineno, 1, "label"))
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
            cols.append(idx)
            vals.append(_parse_float(val_str, lineno, col, "value"))
            prev_index = idx
        counts.append(len(fields) - 1)
    return (np.array(labels, float), np.array(counts, np.int64),
            np.array(cols, np.int64), np.array(vals, float))


def _parse_block(lines: list):
    """One block of libsvm lines as ``(labels, counts, indices, values)``
    arrays (``counts``: features per example), or None if any check fails.

    Each example line is split once into its label and the rest, and the
    rests of the block are split together at whitespace and colons.
    """
    heads = [s.split(None, 1) for s in map(str.strip, lines)
             if s and s[0] != "#"]
    rests = [h[1] if len(h) > 1 else "" for h in heads]
    body = " ".join(rests)
    pieces = body.replace(":", " ").split()
    idx_text, val_text = pieces[0::2], pieces[1::2]
    # every token must be one index:value pair: none holds two colons, none
    # starts or ends with one, and the colons number half the pieces (so no
    # token lacks one)
    spaced = body.encode("ascii").translate(_TO_SPACE)
    if (len(pieces) != 2 * spaced.count(b":")
            or b"::" in spaced.translate(None, _NOT_SPACE_OR_COLON)
            or b": " in spaced or b" :" in spaced
            or spaced.startswith(b":") or spaced.endswith(b":")
            or (idx_text and not "".join(idx_text).isdigit())):
        return None
    try:
        labels = np.array([h[0] for h in heads], float)
        cols = np.array(idx_text, np.int64)
        vals = np.array(val_text, float)
    except (ValueError, OverflowError):
        return None
    # each token holds one colon, so a line's colons count its features
    counts = np.array([r.count(":") for r in rests], np.int64)
    # indices must rise from 1 within each example: compare each with the
    # one before it, and an example's first index with 0
    prev = np.empty_like(cols)
    prev[1:] = cols[:-1]
    starts = np.cumsum(counts) - counts
    prev[starts[counts > 0]] = 0
    if not (np.all(cols > prev) and np.all(np.isfinite(vals))
            and np.all(np.isfinite(labels))):
        return None
    return labels, counts, cols, vals


def parse_libsvm(path, classification: bool = True) -> Dataset:
    """Parse a libsvm-format text file into a :class:`Dataset`.

    In classification mode labels must be -1 or +1 (written with or without
    an explicit sign) and the file must contain at least one example.
    Labels and values must be finite.

    The file is read in blocks of about ``_PARSE_BLOCK`` bytes of whole
    lines, and each block is converted by a few array calls.  A block that
    fails any check is parsed again line by line, which words the first
    error with its line and field, or accepts what the fast checks are too
    strict for (such as an index written ``+3``).

    Memory: every block's indices and values (16 bytes per value stored in
    the file) are held until the dense matrix is allocated, and each block
    is dropped once its values are scattered into it, so the peak is the
    matrix, those 16 bytes per stored value and one block's temporaries;
    about 3 times the matrix for a file with no zeros.
    """
    # (labels, counts, indices, values) per block
    blocks = []
    lineno = 1
    with open(path, "r", encoding="ascii") as fh:
        while lines := fh.readlines(_PARSE_BLOCK):
            blocks.append(_parse_block(lines) or _parse_lines(lines, lineno))
            lineno += len(lines)
    # the typed empty array of an empty file comes first
    labels = np.concatenate([np.empty(0), *(b[0] for b in blocks)])
    n = len(labels)
    if classification:
        if n == 0:
            raise ParseError(0, 0, "classification dataset must have n >= 1 examples")
        bad = (labels != 1.0) & (labels != -1.0)
        if bad.any():
            raise ParseError(0, 0, "classification labels must be -1/+1, "
                             f"got {float(labels[bad][0])}")
    d = max((int(b[2].max()) for b in blocks if len(b[2])), default=0)
    features = np.zeros((n, d))
    first = 0  # the row of the block's first example
    for j, (_, counts, cols, vals) in enumerate(blocks):
        blocks[j] = None  # the block goes once its values are in place
        rows = np.repeat(np.arange(first, first + len(counts)), counts)
        features[rows, cols - 1] = vals
        first += len(counts)
    return Dataset(features, labels)


def write_libsvm(dataset: Dataset, path) -> None:
    """Write a dataset's nonzero entries as libsvm text, round-trip precise."""
    with open(path, "w", encoding="ascii") as fh:
        for label, row in zip(dataset.labels, dataset.features):
            parts = [f"{label:+.17g}"]
            for idx in np.flatnonzero(row):
                parts.append(f"{idx + 1}:{row[idx]:.17g}")
            fh.write(" ".join(parts) + "\n")


# ---------------------------------------------------------------------------
# synthetic generator

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
