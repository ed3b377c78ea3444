import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gmfg.artifacts import json_text, write_csv


def _jsonable(obj):
    # the conversion json_text replaces, kept as its reference
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def reference_csv(header, columns, meta):
    # the single-string CSV text the block writer replaces, kept as its reference
    cols = [np.asarray(c) for c in columns]
    row = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g"
                   for c in cols) + "\r\n"
    lines = [f"# {key}={value}\r\n" for key, value in meta.items()]
    lines.append(",".join(header) + "\r\n")
    lines.extend(map(row.__mod__, zip(*(c.tolist() for c in cols), strict=True)))
    return "".join(lines)


def reference_text(obj):
    return json.dumps(_jsonable(obj), sort_keys=True, indent=1)


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
    st.text(max_size=6),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(-2**31, 2**31 - 1).map(np.int32))

shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
arrays = st.one_of(
    hnp.arrays(np.float64, shapes, elements=st.floats()),
    hnp.arrays(np.float32, shapes, elements=st.floats(width=32)),
    hnp.arrays(np.int64, shapes),
    hnp.arrays(np.int32, shapes),
    hnp.arrays(np.bool_, shapes))

keys = st.one_of(st.text(max_size=6), st.integers(-3, 3), st.booleans(),
                 st.none(), st.floats(-2.0, 2.0))

documents = st.recursive(
    st.one_of(scalars, arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4)),
    max_leaves=12)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(documents)
    def test_bytes_equal_reference(self, doc):
        assert json_text(doc).encode() == reference_text(doc).encode()

    def test_float_array_nesting_and_non_finite(self):
        doc = {"a": np.array([[[np.nan, -np.inf], [0.1, -0.0]]]),
               "b": np.zeros((2, 0, 3)), "c": np.empty((0, 2)),
               "é": np.float32(0.1), 3: (np.int64(7), [])}
        assert json_text(doc) == reference_text(doc)

    @pytest.mark.parametrize("value", [
        np.array(1.5), np.array(2), np.array(True), np.bool_(True),
        1 + 2j, np.array([1 + 2j]), object()])
    def test_rejects_what_the_reference_rejects(self, value):
        with pytest.raises(TypeError):
            reference_text({"x": [value]})
        with pytest.raises(TypeError):
            json_text({"x": [value]})


class TestWriteCsv:
    @pytest.mark.parametrize("n_rows", [0, 1, 4096, 4097, 10_000])
    def test_blocks_write_the_reference_bytes(self, tmp_path, n_rows):
        gen = np.random.default_rng(n_rows)
        columns = [np.arange(n_rows), gen.normal(size=n_rows) * 1e3,
                   gen.integers(-5, 5, size=n_rows).astype(np.int32),
                   np.where(np.arange(n_rows) % 7 == 0, np.nan, 0.1)]
        header = ["i", "x", "k", "y"]
        meta = {"scenario_hash": "abc", "artifact_version": "1"}
        write_csv(tmp_path / "a.csv", header, columns, meta)
        with open(tmp_path / "a.csv", "rb") as fh:
            assert fh.read() == reference_csv(header, columns, meta).encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]

    @pytest.mark.parametrize("n_rows", [0, 1, 3, 4097])
    def test_constant_columns_write_the_reference_bytes(self, tmp_path, n_rows):
        """A float column of one bit pattern is formatted once; 0.0 and -0.0,
        or two NaN payloads, are different patterns and stay per row."""
        quiet = np.array([0x7FF8000000000001, 0x7FF8000000000002],
                         dtype=np.uint64).view(np.float64)
        alternate = np.arange(n_rows) % 2
        columns = [np.full(n_rows, 1 / 128), np.full(n_rows, -0.0),
                   np.where(alternate, 0.0, -0.0), np.full(n_rows, np.nan),
                   quiet[alternate], np.full(n_rows, -np.inf),
                   np.arange(n_rows), np.full(n_rows, 0.1, dtype=np.float32)]
        header = [f"c{i}" for i in range(len(columns))]
        for cols in (columns, columns[:1], columns[3:4]):
            write_csv(tmp_path / "a.csv", header[:len(cols)], cols, {"k": "v"})
            want = reference_csv(header[:len(cols)], cols, {"k": "v"})
            assert (tmp_path / "a.csv").read_bytes() == want.encode()

    def test_columns_of_unequal_length_write_nothing(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "a.csv", ["a", "b"], [np.zeros(5000), np.zeros(4999)])
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        """A row that cannot be formatted fails the write midway: the
        temporary file is removed, and an earlier file at the path is kept."""
        bad = [np.array(["q"], dtype=object)]
        with pytest.raises(TypeError):
            write_csv(tmp_path / "x.csv", ["a"], bad)
        assert list(tmp_path.iterdir()) == []
        write_csv(tmp_path / "x.csv", ["a"], [np.arange(3)])
        before = (tmp_path / "x.csv").read_bytes()
        with pytest.raises(TypeError):
            write_csv(tmp_path / "x.csv", ["a"], bad)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]
        assert (tmp_path / "x.csv").read_bytes() == before
