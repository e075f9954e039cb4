"""The script scanner agrees with the character-by-character oracle in
`tests/oracles.py`: the same tokens, or the same error at the same line and
column. The one intended difference is a digit that is not decimal, such
as '²': the oracle takes it into a NUMBER that `int()` rejects, the scanner
reports it as an unexpected character."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from finring.dsl_cli import generate_catalog, tokenize
from finring.errors import ScriptSyntaxError

REPO = Path(__file__).resolve().parents[1]


def _outcome(scan, text):
    try:
        return [tuple(t) for t in scan(text)]
    except ScriptSyntaxError as err:
        return (str(err), err.line, err.col)


def assert_agrees(text: str) -> None:
    new, old = _outcome(tokenize, text), _outcome(oracles.tokenize, text)
    if new == old:
        return
    assert isinstance(new, tuple) and "unexpected character '²'" in new[0], \
        (text, new, old)
    _, line, col = new
    assert text.split("\n")[line - 1][col - 1] == "²"


def _scale_script() -> str:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.render_scale(0, generate_catalog(0, 16))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("budget", (16, 256))
def test_catalog_scripts(seed, budget):
    assert_agrees(generate_catalog(seed, budget))


def test_scale_script():
    text = _scale_script()
    assert len(list(tokenize(text))) > 10_000
    assert_agrees(text)


@pytest.mark.parametrize("text", [
    "", "\n", "#", "ring # note", "x # note\n", "  \t\r y", '"abc', '"a\n"',
    '""', 'gen(R; "(1,0)", 2)', "a -b", "a->b", "-", "=>", "zmod(٤)",
    "zmod(²)", "a² b", "12²", "½", "é_1", "\x0b", "\r\n\r\n  z",
])
def test_edge_cases(text):
    assert_agrees(text)


_ALPHABET = st.one_of(st.characters(max_codepoint=127),
                      st.sampled_from(list('"#->\n\t\ré٤²')))
_FRAGMENTS = st.sampled_from([
    "ring", "zmod", "_x1", "(", ")", ",", ";", "=", "->", "-", ">", '"a b"',
    '"', "#c", "\n", " ", "\t", "\r", "12", "٤", "²", "é",
])


@settings(deadline=None, max_examples=400)
@given(st.text(_ALPHABET, max_size=40))
def test_random_text(text):
    assert_agrees(text)


@settings(deadline=None, max_examples=400)
@given(st.lists(_FRAGMENTS, max_size=30).map("".join))
def test_random_fragments(text):
    assert_agrees(text)
