"""The pre-rendered parts of indented reports against ``json.dumps``: the
top-level splice on generated documents, the product sets of witness
reports, and the bytes of real CLI reports."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wellcovered import cli
from wellcovered.cli import ScanConfig, ScanRecord, ScanResult, render_scan_json, scan
from wellcovered.theorem import PRODUCT_SETS

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


def stdlib(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# Keys and strings that would fool a careless splice: the line of a spliced
# key, quotes, backslashes, line breaks and the key "k" itself.
strings = st.one_of(
    st.text(max_size=3),
    st.sampled_from(['\n  "k": null', '"k": null', "k", '"', "\\", '\\"', "\n", "", "\U0001f600"]),
)
values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70), strings),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(strings, children, max_size=3),
    ),
    max_leaves=8,
)


@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(st.dictionaries(strings, values, max_size=4), strings, values)
@example({"a": {"k": None}, "k": None, "z": None}, "k", [1])
@example({"a": ["k"], "b": '\n  "k": null'}, "k", {"k": None})
@example({}, "k", [])
def test_render_json_splices_a_top_level_value_as_json_dumps_writes_it(doc, k, v):
    text = stdlib(v).replace("\n", "\n  ")
    assert cli._render_json({**doc, k: cli._Rendered(text)}) == stdlib({**doc, k: v})


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


def scan_document(result: ScanResult) -> dict:
    """The JSON value of a scan report without violations, built from the
    records' own fields."""
    assert result.violations == ()
    config = result.config._asdict()
    del config["parallelism"]
    return {
        "config": config,
        "records": [rec._asdict() for rec in result.records],
        "summary": {"pairs": len(result.records), "cells": result.cells, "violations": []},
    }


# Two records per factor line with different fields, one field tuple in
# both the g and the h block, isolatable tuples of 0, 1 and 2 vertices, and
# a record with and one without a witness.
HAND_BUILT = ScanResult(ScanConfig(), (
    ScanRecord("A_", "A_", True, 1, 1, (), False, 2, 1, (0, 1), 4, 4, False, 2, 1,
               True, False, None, None, None),
    ScanRecord("A_", "Bg", False, 2, 1, (0,), True, 1, 1, (), 6, 7, False, 4, 3,
               True, True, True, 5, 3),
    ScanRecord("Bg", "A_", True, 1, 1, (), True, 1, 1, (), 6, 7, True, 3, 3,
               True, False, None, None, None),
), ())


@pytest.mark.parametrize("result", [HAND_BUILT, "scan"])
def test_scan_report_equals_json_dumps_of_its_records(result):
    if result == "scan":
        result = scan(ScanConfig(generate_up_to=4))
    assert render_scan_json(result) == stdlib(scan_document(result)) + "\n"


def test_each_factor_block_is_rendered_once_per_render_call(monkeypatch):
    result = scan(ScanConfig(generate_up_to=4))
    expected, rendered, real = render_scan_json(result), [], cli._render_fields

    def counted(template, values):
        rendered.append((template, values))
        return real(template, values)

    monkeypatch.setattr(cli, "_render_fields", counted)
    for _ in range(2):  # the next call renders every block again
        rendered.clear()
        assert render_scan_json(result) == expected
        for form, values in ((cli._G_TEMPLATE, cli._g_values), (cli._H_TEMPLATE, cli._h_values)):
            blocks = [block for template, block in rendered if template == form]
            assert len(blocks) == len(set(blocks)) == len({values(rec) for rec in result.records})


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


def test_a_corpus_path_that_holds_a_spliced_key_line_is_rendered_as_json_dumps(tmp_path, capsys):
    """The scan report is the only report that echoes a user-supplied string
    at its top level."""
    path = tmp_path / 'a"b\\c\n  "records": null.g6'
    path.write_text("Bg\n")
    assert cli.main(["scan", "--corpus", str(path), "--gen-up-to", "2"]) == 0
    out = capsys.readouterr().out
    assert out == stdlib(json.loads(out)) + "\n"
    assert json.loads(out)["config"]["corpus_paths"] == [str(path)]
