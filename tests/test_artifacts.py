import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gmfg.artifacts import json_text


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
