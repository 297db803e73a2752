"""Golden test: ``jsonfmt.dumps`` writes exactly the pinned text.

The expected document covers every value kind the emitter accepts: nested
and empty containers, bool and null, strings that need escaping, numpy
scalars and arrays, a non-string key, and the float extremes (-0.0, the
smallest subnormal, the largest finite double).
"""

import numpy as np
import pytest

from canonpose.jsonfmt import dumps

DOCUMENT = {
    "nested": {"list": [1, [2, []], {}], "empty_dict": {}, "empty_list": []},
    "flags": [True, False, None],
    "text": 'quote " backslash \\ newline \n tab \t accent é control \u0001',
    "np_int": np.int64(-7),
    "np_float": np.float64(0.1),
    "array": np.array([[1.5, -0.0], [5e-324, 1.7976931348623157e308]]),
    "extremes": (-0.0, 5e-324, 1.7976931348623157e308),
    3: "int key",
}

EXPECTED = """{
  "nested": {
    "list": [
      1,
      [
        2,
        []
      ],
      {}
    ],
    "empty_dict": {},
    "empty_list": []
  },
  "flags": [
    true,
    false,
    null
  ],
  "text": "quote \\" backslash \\\\ newline \\n tab \\t accent \\u00e9 control \\u0001",
  "np_int": -7,
  "np_float": 0.10000000000000001,
  "array": [
    [
      1.5,
      -0
    ],
    [
      4.9406564584124654e-324,
      1.7976931348623157e+308
    ]
  ],
  "extremes": [
    -0,
    4.9406564584124654e-324,
    1.7976931348623157e+308
  ],
  "3": "int key"
}"""


def test_dumps_golden_text():
    assert dumps(DOCUMENT) == EXPECTED


def test_dumps_top_level_values():
    assert dumps([[], {}, "x"]) == '[\n  [],\n  {},\n  "x"\n]'
    assert dumps({}) == "{}"
    assert dumps(-0.0) == "-0"
    assert dumps(np.array(2.5)) == "2.5"


def test_dumps_rejects_unknown_types():
    for value in (object(), np.bool_(True), {"key": {1, 2}}):
        with pytest.raises(TypeError):
            dumps(value)
