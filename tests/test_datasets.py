from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fdmkit import datasets
from fdmkit.datasets import (Dataset, ParseError, correlated_rows,
                             diagonal_quadratic, gaussian_margin,
                             generate_synthetic, parse_libsvm, write_libsvm)
from fdmkit.problems import QuadraticProblem
from oracles import parse_libsvm_by_line


@st.composite
def libsvm_datasets(draw):
    """Small classification datasets, about half of their entries zero."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    values = st.one_of(st.just(0.0),
                       st.floats(allow_nan=False, allow_infinity=False))
    features = draw(hnp.arrays(np.float64, (n, d), elements=values))
    labels = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0])))
    return Dataset(features, labels)


def _number_texts(value: float):
    """Ways a libsvm file may write ``value``."""
    return st.sampled_from([repr(value), f"{value:.17g}", f"{value:+.3e}",
                            f"{value:g}", f"{value:E}"])


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# short forms of values beyond 1e300 may round past the largest float
_VALUE_TEXTS = st.one_of(st.floats(-1e300, 1e300).flatmap(_number_texts),
                         st.sampled_from(["0", "-0", "+2", "7", "1e5", "-2.5E-3",
                                          ".5", "5.", "1_0"]))
_LABEL_TEXTS = st.one_of(st.sampled_from(["+1", "-1", "1", "1.0", "-1.0", "+1e0",
                                          "-10e-1", "1.", "+1.000"]),
                         _VALUE_TEXTS)


@st.composite
def libsvm_lines(draw):
    """Lines of a valid libsvm text: blank and comment lines as strings,
    examples as ``[label, [index, value], ...]`` lists of field texts."""
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["example"] * 5 + ["blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t ", "  "])))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["#", "# note 1:2", "  #x:y", "#1 1:1"])))
        else:
            indices = sorted(draw(st.sets(st.integers(1, 12), max_size=6)))
            lines.append([draw(_LABEL_TEXTS)]
                         + [[str(i), draw(_VALUE_TEXTS)] for i in indices])
    return lines


def _render(draw, lines) -> str:
    out = []
    for line in lines:
        if isinstance(line, str):
            out.append(line)
            continue
        fields = [line[0]] + [f if isinstance(f, str) else ":".join(f)
                              for f in line[1:]]
        sep = draw(st.sampled_from([" ", "  ", "\t", " \t"]))
        out.append(draw(st.sampled_from(["", " "])) + sep.join(fields)
                   + draw(st.sampled_from(["", " ", "\t"])))
    return "\n".join(out) + draw(st.sampled_from(["", "\n"]))


def _outcome(parse, path, classification):
    """What a parser makes of a file: its arrays' bytes, or its error."""
    try:
        ds = parse(path, classification=classification)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)
    return ("ok", ds.features.shape, ds.features.tobytes(), ds.labels.tobytes())


def _set(line, j, part, text):
    pair = list(line[j])
    pair[part] = text
    return line[:j] + [pair] + line[j + 1:]


def _move_colon(line, j):
    """Pair j's colon moved into pair j + 1: one field with two colons
    beside one with none."""
    if j + 1 == len(line):
        return line[:j] + [":".join(line[j]) + ":1"]
    (i, v), (i2, v2) = line[j], line[j + 1]
    return line[:j] + [f"{i}:{v}:{i2}", v2] + line[j + 2:]


# the corruptions of field j of one example line; the oracle rejects each
# with a ParseError, or parses it
_CORRUPTIONS = {
    "bad label": lambda line, j: ["xyz"] + line[1:],
    "nan label": lambda line, j: ["nan"] + line[1:],
    "bad index": lambda line, j: _set(line, j, 0, "a" + line[j][0]),
    "empty index": lambda line, j: _set(line, j, 0, ""),
    "index 0": lambda line, j: _set(line, j, 0, "0"),
    "signed index": lambda line, j: _set(line, j, 0, "+" + line[j][0]),
    "repeated index": lambda line, j: _set(line, j, 0,
                                           line[j - 1][0] if j > 1 else "1"),
    "nan value": lambda line, j: _set(line, j, 1, "nan"),
    "inf value": lambda line, j: _set(line, j, 1, "-inf"),
    "empty value": lambda line, j: _set(line, j, 1, ""),
    "missing colon": lambda line, j: line[:j] + ["=".join(line[j])] + line[j + 1:],
    "lone index": lambda line, j: line[:j] + [line[j][0]] + line[j + 1:],
    "space after colon": lambda line, j: line[:j] + [": ".join(line[j])] + line[j + 1:],
    "space before colon": lambda line, j: line[:j] + [" :".join(line[j])] + line[j + 1:],
    "moved colon": _move_colon,
}


class TestParseLibsvm:
    def test_format_example(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("+1 1:0.5 3:1.0\n")
        ds = parse_libsvm(path)
        assert (ds.n, ds.d) == (1, 3)
        np.testing.assert_array_equal(ds.features, [[0.5, 0.0, 1.0]])
        assert ds.labels.tolist() == [1.0]

    def test_multiple_lines_and_blank_skip(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("+1 1:1.0\n\n-1 2:2.0\n# comment\n")
        ds = parse_libsvm(path)
        assert ds.n == 2
        np.testing.assert_array_equal(ds.features, [[1.0, 0.0], [0.0, 2.0]])

    def test_empty_file_classification_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ParseError):
            parse_libsvm(path)

    def test_empty_file_regression_gives_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        ds = parse_libsvm(path, classification=False)
        assert ds.n == 0

    def test_bad_label_reports_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+1 1:1.0\nxyz 1:1.0\n")
        with pytest.raises(ParseError) as err:
            parse_libsvm(path)
        assert err.value.line == 2
        assert err.value.column == 1

    def test_nonincreasing_index_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+1 2:1.0 2:2.0\n")
        with pytest.raises(ParseError) as err:
            parse_libsvm(path)
        assert err.value.line == 1 and err.value.column == 3

    def test_zero_based_index_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+1 0:1.0\n")
        with pytest.raises(ParseError):
            parse_libsvm(path)

    def test_missing_colon_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+1 1=0.5\n")
        with pytest.raises(ParseError):
            parse_libsvm(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+1 1:zz\n")
        with pytest.raises(ParseError):
            parse_libsvm(path)

    def test_non_binary_label_rejected_in_classification(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1:1.0\n")
        with pytest.raises(ParseError):
            parse_libsvm(path)
        ds = parse_libsvm(path, classification=False)
        assert ds.labels.tolist() == [2.0]

    @pytest.mark.parametrize("text, column", [
        ("+1 1:nan\n", 2), ("+1 1:0.5 2:inf\n", 3), ("+1 1:-inf\n", 2),
        ("nan 1:1.0\n", 1), ("inf 1:1.0\n", 1),
    ])
    def test_non_finite_rejected_with_position(self, tmp_path, text, column):
        path = tmp_path / "bad.txt"
        path.write_text("+1 1:1.0\n" + text)
        with pytest.raises(ParseError, match="non-finite") as err:
            parse_libsvm(path, classification=False)
        assert (err.value.line, err.value.column) == (2, column)

    @settings(max_examples=50, deadline=None)
    @given(ds=libsvm_datasets())
    def test_round_trip_random_sparse(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("rt") / "rt.txt"
        write_libsvm(ds, path)
        back = parse_libsvm(path)
        assert back.d <= ds.d  # trailing all-zero features drop out
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.features, ds.features[:, :back.d])
        assert not np.any(ds.features[:, back.d:])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), lines=libsvm_lines(),
           block=st.sampled_from([1, 7, 40, 300, 1 << 16]))
    def test_blocks_equal_line_by_line_oracle(self, tmp_path_factory, data,
                                               lines, block):
        # small blocks put block boundaries between and inside the lines
        path = tmp_path_factory.mktemp("blk") / "ds.txt"
        path.write_text(_render(data.draw, lines))
        # a valid text never needs the line-by-line parse
        slow = mock.Mock(side_effect=datasets._parse_lines)
        with mock.patch.object(datasets, "_PARSE_BLOCK", block), \
                mock.patch.object(datasets, "_parse_lines", slow):
            for classification in (False, True):
                assert (_outcome(parse_libsvm, path, classification)
                        == _outcome(parse_libsvm_by_line, path, classification))
        assert slow.call_count == 0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), lines=libsvm_lines(),
           kind=st.sampled_from(sorted(_CORRUPTIONS)),
           block=st.sampled_from([1, 40, 1 << 16]))
    def test_corrupted_texts_as_oracle(self, tmp_path_factory, data, lines,
                                       kind, block):
        examples = [r for r, line in enumerate(lines)
                    if not isinstance(line, str) and len(line) > 1]
        if examples:
            r = data.draw(st.sampled_from(examples))
            j = data.draw(st.integers(1, len(lines[r]) - 1))
            lines[r] = _CORRUPTIONS[kind](lines[r], j)
        path = tmp_path_factory.mktemp("bad") / "ds.txt"
        path.write_text(_render(data.draw, lines))
        with mock.patch.object(datasets, "_PARSE_BLOCK", block):
            assert (_outcome(parse_libsvm, path, False)
                    == _outcome(parse_libsvm_by_line, path, False))

    @pytest.mark.parametrize("text", [
        # forms Python's int and float accept
        "+1 +3:1.0\n", "-1 1:1 02:2\n", "+1 1:1_0\n", "1_0 1:1\n",
        # index-like fields out of place, which shift the index:value pairing
        "+1 3 4:5\n", "+1 1:2 3\n", "+1 1:2:3 4\n", "+1 3: 5\n", "+1 3 :5\n",
        "+1 1:2 3:4:5\n", "+1 1::2\n", "+1 :\n",
    ])
    def test_edge_forms_as_oracle(self, tmp_path, text):
        path = tmp_path / "ds.txt"
        path.write_text("+1 1:0.5\n" + text)
        for classification in (False, True):
            assert (_outcome(parse_libsvm, path, classification)
                    == _outcome(parse_libsvm_by_line, path, classification))

    @settings(max_examples=50, deadline=None)
    @given(ds=libsvm_datasets(), labels=st.data())
    def test_round_trip_real_labels(self, tmp_path_factory, ds, labels):
        ds = Dataset(ds.features, labels.draw(hnp.arrays(np.float64, ds.n,
                                                         elements=_FINITE)))
        path = tmp_path_factory.mktemp("rt") / "rt.txt"
        write_libsvm(ds, path)
        back = parse_libsvm(path, classification=False)
        assert back.labels.tobytes() == ds.labels.tobytes()
        np.testing.assert_array_equal(back.features, ds.features[:, :back.d])

    def test_binary_labels_keep_their_bytes(self, tmp_path):
        path = tmp_path / "pm1.txt"
        write_libsvm(Dataset(np.array([[0.5, 0.0], [0.0, -2.0]]),
                             np.array([1.0, -1.0])), path)
        assert path.read_text() == "+1 1:0.5\n-1 2:-2\n"


class TestDataset:
    def test_normalize_rows(self, rng):
        A = rng.standard_normal((6, 4)) * 3
        ds = Dataset(A, np.ones(6)).normalize_rows()
        np.testing.assert_allclose(ds.row_norms(), np.ones(6), rtol=1e-12)

    @pytest.mark.parametrize("shape", [(6, 4), (40, 50), (7, 300)])
    def test_normalize_rows_matches_csr_bits(self, rng, shape):
        A = rng.standard_normal(shape)
        csr = sp.csr_matrix(A)
        norms = np.sqrt(np.asarray(csr.multiply(csr).sum(axis=1)).ravel())
        expected = (sp.diags(1.0 / norms) @ csr).toarray()
        ds = Dataset(A, np.ones(shape[0]))
        np.testing.assert_array_equal(ds.row_norms(), norms)
        np.testing.assert_array_equal(ds.normalize_rows().features, expected)

    def test_normalize_zero_row_rejected(self):
        A = np.array([[0.0, 0.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            Dataset(A, np.array([1.0, -1.0])).normalize_rows()

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.eye(3), np.ones(2))
        with pytest.raises(ValueError):
            Dataset(np.ones(3), np.ones(3))


class TestGenerators:
    def test_correlated_rows_structure(self):
        ds = correlated_rows(0.01, d=3, n=4, seed=0)
        feat = ds.features.T  # rows of the feature-space matrix
        diff = feat[0] - feat[1]
        assert diff[0] == pytest.approx(0.01)
        np.testing.assert_array_equal(diff[1:], np.zeros(3))

    def test_correlated_rows_rejects_zero_delta(self):
        with pytest.raises(ValueError):
            correlated_rows(0.0)

    def test_gaussian_margin_reproducible(self):
        a = gaussian_margin(8, 5, seed=3)
        b = gaussian_margin(8, 5, seed=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = gaussian_margin(8, 5, seed=4)
        assert not np.array_equal(a.features, c.features)

    def test_gaussian_margin_binary_labels(self):
        ds = gaussian_margin(16, 3, seed=1)
        assert np.all(np.isin(ds.labels, (-1.0, 1.0)))

    def test_diagonal_quadratic(self):
        p = diagonal_quadratic(5)
        assert isinstance(p, QuadraticProblem)
        np.testing.assert_array_equal(np.diag(p.hessian),
                                      np.arange(1.0, 6.0))
        assert p.box.is_free()

    def test_generate_synthetic_dispatch(self):
        ds = generate_synthetic({"generator": "gaussian-margin", "n": 4,
                                 "d": 3, "seed": 0})
        assert isinstance(ds, Dataset)
        p = generate_synthetic({"generator": "diagonal-quadratic", "n": 4})
        assert isinstance(p, QuadraticProblem)

    def test_generate_synthetic_rejects_unknown(self):
        with pytest.raises(ValueError):
            generate_synthetic({"generator": "mystery"})
        with pytest.raises(ValueError):
            generate_synthetic({"n": 4})
        with pytest.raises(ValueError):
            generate_synthetic({"generator": "gaussian-margin", "bogus": 1})
