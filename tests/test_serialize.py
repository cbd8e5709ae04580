import math

import numpy as np
import pytest

from idepcag.serialize import canonical_json


@pytest.mark.parametrize("value, text", [
    (math.nan, '"nan"'),
    (math.inf, '"inf"'),
    (-math.inf, '"-inf"'),
    (-0.0, "0.000000000000e+00"),
    ([], "[]"),
    ({}, "{}"),
    ({"a": [1, None, True], "b": {}}, '{\n  "a": [\n    1,\n    null,\n    true\n  ],\n  "b": {}\n}'),
])
def test_canonical_json_values(value, text):
    assert canonical_json(value) == text + "\n"


@pytest.mark.parametrize("value", [np.float32(1.0), {"x": 1j}, {1, 2}])
def test_canonical_json_refuses_other_types(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        canonical_json(value)
