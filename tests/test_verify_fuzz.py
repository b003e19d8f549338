"""Exit codes of ``burnside verify`` on mutated pattern files.

One mark, one class length or one generator string of the A5, S4 and
GL2(3) pattern files is changed; verify must exit 0, 2 or 4 with no
traceback, and exit 0 only for a file whose parsed pattern passes
``validate_pattern``."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from burnside import cli  # noqa: E402
from burnside.catalog import CATALOG  # noqa: E402
from burnside.lattice import table_of_marks_brute  # noqa: E402
from burnside.marks import validate_pattern  # noqa: E402
from burnside.patterns import pattern_to_dict  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"


def _documents() -> dict:
    docs = {name: pattern_to_dict(table_of_marks_brute(CATALOG.group(name)),
                                  name) for name in ("A5", "S4")}
    docs["GL2(3)"] = json.loads((GOLDEN / "gl23.json").read_text())
    return docs


DOCS = _documents()


def _cycles(points: list[int]) -> str:
    """A permutation of 1..n, given by its images, in cycle notation."""
    seen, out = set(), []
    for start in range(1, len(points) + 1):
        if start in seen or points[start - 1] == start:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(str(x))
            x = points[x - 1]
        out.append("(" + ",".join(cycle) + ")")
    return "".join(out) or "()"


@st.composite
def mutated(draw):
    """(name, document with one field changed)."""
    name = draw(st.sampled_from(sorted(DOCS)))
    doc = json.loads(json.dumps(DOCS[name]))
    n = len(doc["classes"])
    kind = draw(st.sampled_from(["mark", "length", "generator"]))
    value = st.integers(min_value=-3, max_value=10 ** 6) | st.sampled_from(
        [0, 1, 2, -1])
    if kind == "mark":
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, i))
        doc["marks"][i][j] = draw(value)
    elif kind == "length":
        doc["classes"][draw(st.integers(0, n - 1))]["length"] = draw(value)
    else:
        k = draw(st.integers(0, n - 1))
        gens = doc["classes"][k]["generators"]
        degree = doc["degree"]
        text = draw(st.permutations(range(1, degree + 1)).map(_cycles)
                    | st.text(alphabet="(),0123456789 x-", max_size=12))
        if gens:
            gens[draw(st.integers(0, len(gens) - 1))] = text
        else:
            gens.append(text)
    return name, doc


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(mutated())
def test_verify_exits_cleanly_on_a_mutated_file(case):
    name, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pattern.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(["verify", str(path)])
        assert code in (0, 2, 4), (name, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert validate_pattern(cli._read_pattern(str(path))) == []
