"""The JSON summary's encoder writes exactly the stdlib's indented text.

``SweepResult.write_json`` streams the pieces of ``runner.sweep._json_chunks``
instead of calling ``json.dump(..., indent=2, default=str)``; these tests pin
that the pieces join to the stdlib's bytes, on generated documents and on
the CLI's own summaries.
"""

from __future__ import annotations

import enum
import json
import math

import pytest

from repro.runner.__main__ import main
from repro.runner.sweep import _json_chunks

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


class Level(enum.IntEnum):
    LOW = 1
    HUGE = 2**70


class Ratio(float):
    pass


class Opaque:
    """An object the encoder reaches ``default=str`` with."""

    def __init__(self, label: str) -> None:
        self.label = label

    def __str__(self) -> str:
        return f"opaque<{self.label}>"


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**80).flatmap(lambda v: st.sampled_from([v, -v]))
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text()
    | st.sampled_from(["é", "\x00\n\t\x1f", "日本", "\U0001f600", '"\\'])
    | st.sampled_from(list(Level))
    | st.floats().map(Ratio)
    | st.frozensets(st.integers(0, 9), max_size=3)
    | st.text(max_size=4).map(Opaque)
)
KEYS = (
    st.text(max_size=6)
    | st.integers()
    | st.floats()
    | st.booleans()
    | st.none()
    | st.sampled_from(list(Level))
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(st.text(max_size=6), children, max_size=5)
        | st.dictionaries(KEYS, children, max_size=5)
    ),
    max_leaves=40,
)

#: One document with every kind the generator draws, at more than one depth.
EVERY_KIND = {
    "empty": [{}, [], (), {"a": {}, "b": [[], {}, ()]}],
    "tuple": (1, (2, (3, ())), [4.5]),
    "flat-keys": {1: "int", 2.5: "float", True: "bool", None: "none", Level.LOW: "enum"},
    "nested-keys": {7: {"x": [1]}, 0.5: [], False: {None: {}}},
    "floats": [math.nan, math.inf, -math.inf, -0.0, 1e300, Ratio(0.1)],
    "bools-and-ints": [True, 1, False, 0, Level.LOW, Level.HUGE, 2**64 + 1, -(2**70)],
    "strings": ["é", "\x00\n\x7f", "日本", "\U0001f600", {"é\t": "\x1f"}],
    "default": [frozenset({1, 2}), Opaque("é\n"), {"o": Opaque("x")}],
}


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.example(doc=EVERY_KIND)
@hypothesis.example(doc=[EVERY_KIND, [EVERY_KIND]])
@hypothesis.given(doc=DOCUMENTS)
def test_chunks_join_to_the_stdlib_text(doc):
    assert "".join(_json_chunks(doc)) == json.dumps(doc, indent=2, default=str)


#: Small grids of each benchmark workload's shape: monitored, super with a
#: CSV sink, step-level.
CLI_GRIDS = {
    "monitored": [
        "--scenarios", "ho-classic-otr", "ho-round-mobile-omission",
        "--fault-models", "fault-free", "crash-stop", "--n", "5",
        "--param", "rounds=6", "--param", "run_full_horizon=true",
        "--predicates", "p_otr,p_su,p_k", "--seeds", "0", "--replicas", "3",
    ],
    "super-with-csv": [
        "--scenarios", "ho-classic-otr", "ho-classic-uv",
        "--fault-models", "fault-free", "lossy", "--ns", "4", "5",
        "--param", "rounds=8", "--backend", "super",
        "--seeds", "0", "10", "--replicas", "2",
    ],
    "step": [
        "--scenarios", "ho-step-down-otr", "ho-theorem8-translation",
        "--fault-models", "fault-free", "crash-stop", "--n", "4",
        "--seeds", "0", "--replicas", "2",
    ],
}


@pytest.mark.parametrize("grid", sorted(CLI_GRIDS))
def test_cli_summary_is_the_stdlib_layout(grid, tmp_path):
    summary = tmp_path / "summary.json"
    argv = CLI_GRIDS[grid] + ["--workers", "1", "--quiet", "--json", str(summary)]
    if grid == "super-with-csv":
        argv += ["--csv", str(tmp_path / "summary.csv")]
    assert main(argv) == 0
    text = summary.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
