import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fdmkit.datasets import (Dataset, ParseError, correlated_rows,
                             diagonal_quadratic, gaussian_margin,
                             generate_synthetic, parse_libsvm, write_libsvm)
from fdmkit.problems import QuadraticProblem


@st.composite
def libsvm_datasets(draw):
    """Small classification datasets, about half of their entries zero."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    values = st.one_of(st.just(0.0),
                       st.floats(allow_nan=False, allow_infinity=False))
    features = draw(hnp.arrays(np.float64, (n, d), elements=values))
    labels = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0])))
    return Dataset(features, labels)


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


class TestDataset:
    def test_normalize_rows(self, rng):
        A = rng.standard_normal((6, 4)) * 3
        ds = Dataset(A, np.ones(6)).normalize_rows()
        assert ds.normalized
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
        assert ds.binary_labels_ok()

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
