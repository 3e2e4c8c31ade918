"""The JSON rows of a sweep table are written straight from the solved
values.

Each value is formatted once, to 12 significant digits; each row's JSON
object must be, byte for byte, what ``json.dumps`` writes for the floats
read back from that row's CSV text.  Power's rows, which hold a text
column, are checked in ``tests/test_cli.py``.
"""

import argparse
import contextlib
import io
import json

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from swedge.cli import _write

# Values across every magnitude, integral ones and both zeros.
values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1.0, 1.0),
    st.integers(-10**16, 10**16).map(float),
    st.integers(1, 17).map(lambda k: 1.0 - 10.0 ** -k),
    st.sampled_from([0.0, -0.0, 1.0, 1e-05, 1.5e+13, 9.99999999999e+11, 1e-4, 1e12, 5e-324]),
)
# Labels with quotes, backslashes, braces, percent signs and non-ASCII characters.
labels = st.text(st.sampled_from('ab_"\\{}%é∑\u2028 '), min_size=1, max_size=6)


def reference(meta, header, lines):
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines]
    return json.dumps({"meta": meta, "rows": rows}, sort_keys=True,
                      separators=(",", ":")) + "\n"


@given(data=st.data(), header=st.lists(labels, min_size=1, max_size=6, unique=True))
@example(data=[[1e-05, 0.5, 1.0], [-0.0, 1.5e+13, 9.99999999999e+11]],
         header=["rho_w", "se_é\"x\\", "power_{0}%s"])
# every token holds a ".", and "1.5e+13" is not its float's JSON text
@example(data=[[0.5, 1.5e+13]], header=["a", "b"])
# every token is integral or holds an "e", so each one is re-encoded
@example(data=[[0.0, 1.0], [-0.0, 1.5e+13]], header=["a", "b"])
def test_row_writer_matches_json_dumps(data, header):
    if isinstance(data, list):
        rows = data
    else:
        rows = data.draw(st.lists(st.lists(values, min_size=len(header),
                                           max_size=len(header)), max_size=4))
    lines = [",".join(format(v, ".12g") for v in row) for row in rows]
    meta = {"command": "sweep", "alpha": 0.05}
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write(argparse.Namespace(format="json", output=None), header, table, meta)
    assert out.getvalue() == reference(meta, header, lines)
