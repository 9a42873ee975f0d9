"""Fuzz ``main()`` with malformed space, values and curve files and with
NaN/inf float flags: every call ends in exit 0, 1 or 2 without an escaping
exception, and no non-finite input ends in a ``pass`` verdict."""
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from curve_lab.cli import main
from conftest import MALFORMED_SPACES

numbers = st.floats(allow_nan=True, allow_infinity=True, width=64)
finite = st.floats(-4.0, 4.0)
flag_values = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308]),
                        st.floats(1e-3, 2.0))

space_docs = st.one_of(
    st.builds(lambda m: {"kind": "matrix", "data": m},
              st.lists(st.lists(numbers, min_size=1, max_size=4), min_size=1, max_size=4)),
    st.builds(lambda m: {"kind": "euclidean", "data": m},
              st.lists(st.lists(numbers, min_size=2, max_size=2), min_size=1, max_size=5)),
    st.builds(lambda n, e: {"kind": "graph", "n": n, "data": e},
              st.integers(-1, 4),
              st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 4), numbers), max_size=5)),
    st.sampled_from([{"kind": "matrix"}, {"kind": "banach", "data": []}, [[0, 1], [1, 0]],
                     {"kind": "graph", "data": [[0, 1]]}, {"kind": "matrix", "data": "x"},
                     {"kind": "euclidean", "data": [[0, "a"], [1, 1]]}, 3,
                     {"kind": "banach", "data": [[0, 1], [1, 0]]}, *MALFORMED_SPACES]),
)
values_texts = st.one_of(
    st.builds(json.dumps, st.lists(numbers, max_size=12)),
    st.builds(lambda xs: "\n".join(repr(x) for x in xs), st.lists(numbers, max_size=12)),
    st.sampled_from(["", "[0.0, 1.0", "[[0.0], [1.0, 2.0]]", "abc", "{}"]),
)
curve_texts = st.one_of(
    st.builds(lambda rows: "t,x1,x2\n" + "".join(f"{t!r},{x!r},{y!r}\n" for t, x, y in rows),
              st.lists(st.tuples(numbers, numbers, numbers), max_size=8)),
    st.builds(lambda n, x: "t,x1,x2\n" + "".join(f"{i / (n - 1)},{i * x},0\n" for i in range(n)),
              st.integers(2, 9), finite),
    st.sampled_from(["", "t\n0\n1\n", "t,x1\n0,0\n1\n", "t,point_id\n0,0\n1,1\n", "x,y\n0,0\n"]),
)


def _nonfinite(obj) -> bool:
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, str):
        return any(tok in obj.lower() for tok in ("nan", "inf"))
    if isinstance(obj, (list, tuple)):
        return any(_nonfinite(x) for x in obj)
    if isinstance(obj, dict):
        return any(_nonfinite(x) for x in obj.values())
    return False


@st.composite
def calls(draw):
    """An argv with its input files, and whether any input is non-finite."""
    files = {}

    def path(name, text):
        files[name] = text
        return name

    f = lambda: repr(draw(flag_values))  # noqa: E731
    space = lambda: path("space.json", json.dumps(draw(space_docs)))  # noqa: E731
    curve = lambda: path("curve.csv", draw(curve_texts))  # noqa: E731
    values = lambda: path("values.txt", draw(values_texts))  # noqa: E731
    kind = draw(st.sampled_from(["validate", "variation", "speed", "content", "sawtooth",
                                 "disc", "acp", "luzin", "varint", "recover"]))
    argv = {
        "validate": lambda: ["validate-metric", "--space", space()],
        "variation": lambda: ["variation", "--curve", curve()],
        "speed": lambda: ["speed", "--curve", curve(), "--t", "0.5", "--window", f()],
        "content": lambda: ["content", "--curve", curve(), "--delta", f()],
        "sawtooth": lambda: ["sawtooth", "--curve", curve(), "--tooth", f()],
        "disc": lambda: ["check", "disc", "--values", values(), "--epsilon", f(), "--delta", f()],
        "acp": lambda: ["check", "acp", "--curve", curve(), "--p", f()],
        "luzin": lambda: ["check", "luzin", "--curve", curve(), "--null-set", f"{f()}:{f()}",
                          "--delta", f()],
        "varint": lambda: ["check", "varint", "--curve", curve()],
        "recover": lambda: ["recover", "--values", values(), "--epsilons", f()],
    }[kind]()
    return argv, files, _nonfinite(argv) or _nonfinite(list(files.values()))


@given(calls())
@settings(max_examples=60, deadline=None)
def test_main_never_raises_and_never_passes_nonfinite(call):
    argv, files, nonfinite = call
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text)
        argv = [str(Path(tmp) / a) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert [line[:6] for line in err.getvalue().splitlines()] == ["error:"]
    if nonfinite:
        assert '"verdict": "pass"' not in out.getvalue()
