"""The JSON rows of a sweep or power table are written straight from the
solved values.

Each value is formatted once, to 12 significant digits; each row's JSON
object must be, byte for byte, what ``json.dumps`` writes for the floats
read back from that row's CSV text, and for the strings of its text columns.
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
# Text cells as a contrast label may hold them: no comma or line break and
# no leading double quote, but numbers, exponents and percent signs.
texts = st.one_of(
    st.sampled_from(["2", "1e5", "nan", "-0", "a%b", "1.5", "trt1"]),
    st.text(st.characters(blacklist_characters=",\n\r")).filter(lambda s: not s.startswith('"')),
)


def reference(meta, header, lines, text):
    rows = [{name: field if k in text else float(field)
             for k, (name, field) in enumerate(zip(header, line.split(",")))} for line in lines]
    return json.dumps({"meta": meta, "rows": rows}, sort_keys=True,
                      separators=(",", ":")) + "\n"


@given(data=st.data(), header=st.lists(labels, min_size=1, max_size=6, unique=True))
@example(data=None, header=["rho_w", "se_é\"x\\", "power_{0}%s"])
def test_row_writer_matches_json_dumps(data, header):
    if data is None:
        rows = [[1e-05, 0.5, 1.0], [-0.0, 1.5e+13, 9.99999999999e+11]]
        text = ()
    else:
        rows = data.draw(st.lists(st.lists(values, min_size=len(header),
                                           max_size=len(header)), max_size=4))
        # at most one drawn column holds text, as power's label column does
        text = data.draw(st.sets(st.integers(0, len(header) - 1), max_size=1))
        for row in rows:
            for k in text:
                row[k] = data.draw(texts)
    lines = [",".join(v if k in text else format(v, ".12g") for k, v in enumerate(row))
             for row in rows]
    meta = {"command": "sweep", "alpha": 0.05}
    # a sweep's rows come as a numpy array, power's (with its text column) as tuples
    tables = [list(map(tuple, rows))]
    if not text:
        tables.append(np.array(rows, dtype=float).reshape(len(rows), len(header)))
    for table in tables:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _write(argparse.Namespace(format="json", output=None), header, table, meta, text=text)
        assert out.getvalue() == reference(meta, header, lines, text)
