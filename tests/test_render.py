"""The indented JSON renderer against ``json.dumps``: generated documents,
the rejected types, the product sets of witness reports, and the bytes of
real CLI reports."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wellcovered import cli
from wellcovered.theorem import PRODUCT_SETS

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


def stdlib(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


keys = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["", "é", "\n", '"', "\\", "\x00", "\t", " ", "\U0001f600", "a\"b"]),
)
ints = st.integers(-(2**70), 2**70)
scalars = st.one_of(st.none(), st.booleans(), ints, keys)
leaves = st.one_of(
    scalars,
    st.lists(ints, max_size=6),
    st.lists(st.one_of(ints, st.booleans()), max_size=6),
    st.lists(st.tuples(ints, ints), max_size=5),
    st.lists(st.lists(ints, max_size=3).map(tuple), max_size=5),
)
documents = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=8,
)


@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(documents)
@example({"": [[], {}, ()], "b": {"c": [{}]}})
@example([(1, 2), (3, 4, 5)])
@example([(True, 1), (2, 3)])
@example([(), ()])
@example({"pairs": [(0, -1), (2**70, 3)], "single": [(7,)]})
@example([1, True, False, -1])
def test_render_json_matches_json_dumps(document):
    assert cli._render_json(document) == stdlib(document)


@st.composite
def witness_sets(draw):
    """Factor orders from 1 up, and a mask of their product for each of the
    nine sets: empty, full, row 0, the last row, or random."""
    n_left, n_right = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    n = n_left * n_right
    row = (1 << n_right) - 1
    masks = st.one_of(
        st.just(0),
        st.just((1 << n) - 1),
        st.integers(0, row),
        st.integers(0, row).map(lambda bits: bits << (n - n_right)),
        st.integers(0, (1 << n) - 1),
    )
    return {name: draw(masks) for name in PRODUCT_SETS}, n_right


def old_set_dict(mask: int, n_right: int) -> dict:
    members = [p for p in range(mask.bit_length()) if mask >> p & 1]
    return {"size": len(members), "indices": members, "pairs": [divmod(p, n_right) for p in members]}


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(witness_sets())
@example(({name: 0 for name in PRODUCT_SETS}, 1))
@example(({name: 1 for name in PRODUCT_SETS}, 1))
@example(({name: (1 << 64) - 1 for name in PRODUCT_SETS}, 32))
@example(({name: 0b1011 << 4 * k for k, name in enumerate(PRODUCT_SETS)}, 4))
def test_render_sets_matches_json_dumps_of_the_set_dicts(case):
    masks, n_right = case
    expected = {"sets": {name: old_set_dict(mask, n_right) for name, mask in masks.items()}}
    assert cli._render_json({"sets": cli._render_sets(masks, n_right)}) == stdlib(expected)


@pytest.mark.parametrize("document", [{"a": 1.5}, [0.0], {1: "a"}, {"a": {2: None}}])
def test_render_json_rejects_floats_and_non_str_keys(document):
    with pytest.raises(TypeError):
        cli._render_json(document)


def test_cheapest_witness_pool_reports_match_their_golden_digests(capsys):
    """The three cheapest pool pairs by recorded cost, and the two costliest,
    which every benchmark pass runs."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        pool = json.load(handle)["witness-large"]["pool"]
    ranked = sorted(pool, key=lambda entry: entry[2])
    for g6_g, g6_h, _, digest in ranked[:3] + ranked[-2:]:
        assert cli.main(["witness", g6_g, g6_h]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, code",
    [
        (["product", "Bg", "Bg"], 0),
        (["analyze", "Bg"], 0),
        (["witness", "A_", "A_"], 4),
        (["scan", "--gen-up-to", "4"], 0),
    ],
)
def test_report_bytes_equal_the_stdlib_rendering(capsys, argv, code):
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert out == stdlib(json.loads(out)) + "\n"
