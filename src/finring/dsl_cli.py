"""Script language, check registry, catalog generator, and CLI.

A script is a list of ';'-terminated statements: definitions binding names to
ring, ideal, or hom expressions, and check requests that dispatch into the
verification ops. The grammar is deliberately closed (no user functions, no
arithmetic) so that a script is a reproducible description of instances: the
canonical renderer turns an AST back into the one source text that parses to
it, and the evaluator caches values by rendered form, which makes repeated
checks on one instance cheap and report order independent of caching.

Exit codes: 0 when no check fails, 1 when any check fails, 2 for usage,
parse, or name errors, 3 when a check raises an unexpected error.
Precondition violations inside a check (guard exceeded, non-prime ideal,
hypothesis not satisfied) become reports with status hypothesis_not_met
rather than run failures; a violated internal invariant fails its check.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import os
import random
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from . import config
from .amalgamation import (
    alt_pullback_checks,
    amalgam,
    canonical_isos,
    domain_criterion_check,
    dorroh_check,
    dotted_transport,
    duplication,
    factor_check,
    iter_iso_check,
    kernel_identity_check,
    pull_identity_check,
    pullback_reduced_check,
    reduced_converse_search,
    reduced_criterion_check,
    retraction_criterion_check,
    retraction_roundtrip,
    same_amalgam,
    split_sequence_check,
    verify_iso,
)
from .constructions import (
    cpi_ideal,
    cpi_prime,
    d_plus_m,
    nagata_as_amalgam_check,
    noetherian_report,
    noetherian_verdict_xjx,
    trunc_poly_amalgam,
)
from .errors import (
    EvaluationError,
    FinringError,
    InvariantViolated,
    ScriptSyntaxError,
    TypeMismatch,
    UnknownName,
)
from .morphisms import RingHom, enumerate_homs, identity_hom
from .reports import (
    FAIL,
    HYPOTHESIS_NOT_MET,
    PASS,
    VerificationReport,
    reports_to_json,
)
from .rings import FiniteRng, characteristic, direct_product, galois_field, trunc_poly, zmod
from .subobjects import (
    all_ideals,
    ideal_as_rng,
    ideal_from_generators,
    module_via_hom,
    subring_generated,
)


# -- tokens ---------------------------------------------------------------------------


class Token(NamedTuple):
    type: str
    value: str
    line: int
    col: int


# One alternative per token kind, tried in order at each position. NAME
# takes any run of word characters; a run that starts with neither a letter
# nor '_' (a digit that is not decimal, such as '²') is an unexpected
# character, and so is whatever MISMATCH takes.
_TOKEN_RE = re.compile(r"""
    (?P<NEWLINE>\n) | (?P<SKIP>[ \t\r]+) | (?P<COMMENT>\#[^\n]*)
  | (?P<ARROW>->) | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,)
  | (?P<SEMI>;) | (?P<EQUALS>=) | (?P<STRING>"[^"\n]*") | (?P<NUMBER>\d+)
  | (?P<NAME>\w+) | (?P<MISMATCH>.)
""", re.VERBOSE)

_PLAIN = frozenset(("ARROW", "LPAREN", "RPAREN", "COMMA", "SEMI", "EQUALS",
                    "NUMBER"))


def tokenize(text: str) -> Iterator[Token]:
    """Script text to tokens ending with EOF, each at its 1-based line and
    column, yielded as they are scanned. Raises ScriptSyntaxError when the
    scan reaches a character no token takes."""
    line, line_start = 1, 0
    kind = start = None
    for mo in _TOKEN_RE.finditer(text):
        kind, value, start = mo.lastgroup, mo.group(), mo.start()
        col = start - line_start + 1
        if kind in _PLAIN or kind == "NAME" and (value[0].isalpha()
                                                 or value[0] == "_"):
            yield Token(kind, value, line, col)
        elif kind == "SKIP" or kind == "COMMENT":
            pass
        elif kind == "NEWLINE":
            line, line_start = line + 1, start + 1
        elif kind == "STRING":
            yield Token(kind, value[1:-1], line, col)
        elif value == '"':
            raise ScriptSyntaxError("unterminated string", line, col, ('"',))
        else:
            raise ScriptSyntaxError(f"unexpected character {value[0]!r}",
                                    line, col)
    # a trailing comment leaves the end-of-input column at its '#'
    end = start if kind == "COMMENT" else len(text)
    yield Token("EOF", "", line, end - line_start + 1)


# -- AST ------------------------------------------------------------------------------


RING, IDEAL, HOM, SUBRING, AMALGAM, INT = (
    "ring", "ideal", "hom", "subring", "amalgam", "int",
)
LABEL = "label"


class _Slot(NamedTuple):
    """One argument of a form: the separator written before it, and what it
    reads: an expression of one kind, an element label (LABEL), or a number
    named by its `expect` label. `many` reads a comma-separated list, and an
    `optional` slot reads as () when its separator does not follow."""

    sep: str
    read: str
    many: bool = False
    optional: bool = False


class _Form(NamedTuple):
    kind: str
    slots: tuple[_Slot, ...]
    build: object


def _indices(ring, labels) -> list[int]:
    return [ring.index_of(lab) for lab in labels]


# One row per expression form; the parser, the renderer and the evaluator
# read nothing else. Each builder looks its library call up by name when it
# runs, so a rebinding of the module global (as a tracer does) takes effect.
_FORMS = {
    "zmod": _Form(RING, (_Slot("", "number"),), lambda n: zmod(n)),
    "gf": _Form(RING, (_Slot("", "number"),), lambda q: galois_field(q)),
    "product": _Form(RING, (_Slot("", RING), _Slot(", ", RING)),
                     lambda a, b: direct_product([a, b])),
    "trunc_poly": _Form(RING, (_Slot("", RING), _Slot(", ", "variable count"),
                               _Slot(", ", "degree bound")),
                        lambda ring, nv, deg: trunc_poly(ring, nv, deg)),
    "gen": _Form(IDEAL, (_Slot("", RING), _Slot("; ", LABEL, many=True)),
                 lambda ring, labels: ideal_from_generators(
                     ring, _indices(ring, labels))),
    "map": _Form(HOM, (_Slot("", RING), _Slot(" -> ", RING),
                       _Slot("; ", "image index", many=True)),
                 lambda dom, cod, images: RingHom(dom, cod, images,
                                                  unital=True, name="map")),
    "id": _Form(HOM, (_Slot("", RING),), lambda ring: identity_hom(ring)),
    "sub": _Form(SUBRING, (_Slot("", RING),
                           _Slot("; ", LABEL, many=True, optional=True)),
                 lambda ring, labels: subring_generated(
                     ring, _indices(ring, labels), include_one=True)),
    "dup": _Form(AMALGAM, (_Slot("", RING), _Slot(", ", IDEAL)),
                 lambda ring, ideal: duplication(ring, ideal)),
    "amalg": _Form(AMALGAM, (_Slot("", HOM), _Slot(", ", IDEAL)),
                   lambda hom, ideal: amalgam(hom, ideal)),
}


def _label_token(label: str) -> str:
    return label if label.isdigit() else '"' + label + '"'


def _text(arg) -> str:
    """One argument as a script writes it: an expression, a label or a number."""
    if isinstance(arg, Expr):
        return arg.render()
    return _label_token(arg) if isinstance(arg, str) else str(arg)


@dataclass(frozen=True)
class Expr:
    """One expression node. `form` is a name reference ("ref"), a number
    ("int") or a key of `_FORMS`, `kind` is its static type, and `args`
    holds one entry per slot: a child Expr, an int, or a tuple of labels
    or ints."""

    form: str
    kind: str
    args: tuple
    line: int
    col: int

    def render(self) -> str:
        if self.form == "ref":
            return self.args[0]
        if self.form == "int":
            return str(self.args[0])
        return self.form + "(" + "".join(
            slot.sep + (", ".join(map(_text, arg)) if slot.many else _text(arg))
            for slot, arg in zip(_FORMS[self.form].slots, self.args)
            if arg or not slot.optional
        ) + ")"


@dataclass(frozen=True)
class Definition:
    kind: str
    name: str
    expr: Expr
    line: int


@dataclass(frozen=True)
class CheckStmt:
    name: str
    args: tuple[Expr, ...]
    line: int
    col: int

    def render(self) -> str:
        inner = ", ".join(a.render() for a in self.args)
        return f"check {self.name}({inner});"


@dataclass(frozen=True)
class Script:
    definitions: tuple[Definition, ...]
    checks: tuple[CheckStmt, ...]

    def render(self) -> str:
        lines = [
            f"{d.kind} {d.name} = {d.expr.render()};" for d in self.definitions
        ]
        lines += [c.render() for c in self.checks]
        return "\n".join(lines) + "\n"


# -- parser ---------------------------------------------------------------------------


_DEF_KINDS = (RING, IDEAL, HOM)
_SEPARATORS = {", ": "COMMA", "; ": "SEMI", " -> ": "ARROW"}


def _a(kind: str) -> str:  # "an ideal", "an amalgam", "a ring"
    return f"{'an' if kind[0] in 'ai' else 'a'} {kind}"


class _Parser:
    """Recursive descent with one token of lookahead, scanned when first
    peeked at, so of two errors the one earlier in the source is raised."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.tok: Token | None = None
        self.env: dict[str, str] = {}

    def peek(self) -> Token:
        if self.tok is None:
            self.tok = next(self.tokens)
        return self.tok

    def next(self) -> Token:
        tok, self.tok = self.peek(), None
        return tok

    def expect(self, type_: str, what: str) -> Token:
        tok = self.peek()
        if tok.type != type_:
            raise ScriptSyntaxError(
                f"found {tok.value!r}" if tok.type != "EOF" else "unexpected end",
                tok.line, tok.col, (what,),
            )
        return self.next()

    def parse(self) -> Script:
        defs: list[Definition] = []
        checks: list[CheckStmt] = []
        while self.peek().type != "EOF":
            tok = self.peek()
            if tok.type == "NAME" and tok.value in _DEF_KINDS:
                defs.append(self.definition())
            elif tok.type == "NAME" and tok.value == "check":
                checks.append(self.check_stmt())
            else:
                raise ScriptSyntaxError(f"found {tok.value!r}", tok.line,
                                        tok.col, _DEF_KINDS + ("check",))
        return Script(tuple(defs), tuple(checks))

    def definition(self) -> Definition:
        kw = self.next()
        name_tok = self.expect("NAME", "name")
        if name_tok.value in self.env or name_tok.value in _FORMS \
                or name_tok.value in _DEF_KINDS or name_tok.value == "check":
            raise ScriptSyntaxError(
                f"name {name_tok.value!r} is already taken",
                name_tok.line, name_tok.col,
            )
        self.expect("EQUALS", "=")
        expr = self.expression()
        if expr.kind != kw.value:
            raise TypeMismatch(
                f"line {name_tok.line}: {kw.value} {name_tok.value} is bound "
                f"to {_a(expr.kind)} expression"
            )
        self.expect("SEMI", ";")
        self.env[name_tok.value] = kw.value
        return Definition(kw.value, name_tok.value, expr, kw.line)

    def check_stmt(self) -> CheckStmt:
        kw = self.next()
        name_tok = self.expect("NAME", "check name")
        spec = REGISTRY.get(name_tok.value)
        if spec is None:
            raise UnknownName(
                f"line {name_tok.line}: unknown check {name_tok.value!r}"
            )
        self.expect("LPAREN", "(")
        args: list[Expr] = []
        if self.peek().type != "RPAREN":
            args.append(self.expression())
            while self.peek().type == "COMMA":
                self.next()
                args.append(self.expression())
        self.expect("RPAREN", ")")
        self.expect("SEMI", ";")
        kinds = [a.kind for a in args]
        if not spec.accepts(kinds):
            raise TypeMismatch(
                f"line {name_tok.line}: {name_tok.value} expects "
                f"({spec.signature()}), got ({', '.join(kinds) or 'nothing'})"
            )
        return CheckStmt(name_tok.value, tuple(args), kw.line, kw.col)

    def expression(self) -> Expr:
        tok = self.peek()
        if tok.type == "NUMBER":
            self.next()
            return Expr("int", INT, (int(tok.value),), tok.line, tok.col)
        name = self.expect("NAME", "expression").value
        if name in _FORMS:
            return self.form_expr(name, tok)
        kind = self.env.get(name)
        if kind is None:
            raise UnknownName(f"line {tok.line}: unknown name {name!r}")
        return Expr("ref", kind, (name,), tok.line, tok.col)

    def form_expr(self, form: str, tok: Token) -> Expr:
        self.expect("LPAREN", "(")
        args: list = []
        for slot in _FORMS[form].slots:
            if slot.sep:
                sep = _SEPARATORS[slot.sep]
                if slot.optional and self.peek().type != sep:
                    args.append(())
                    continue
                self.expect(sep, slot.sep.strip())
            args.append(self.slot(slot))
        self.expect("RPAREN", ")")
        return Expr(form, _FORMS[form].kind, tuple(args), tok.line, tok.col)

    def slot(self, slot: _Slot):
        items = [self.item(slot.read)]
        while slot.many and self.peek().type == "COMMA":
            self.next()
            items.append(self.item(slot.read))
        return tuple(items) if slot.many else items[0]

    def item(self, read: str):
        if read == LABEL:
            return self.label()
        if read in _DEF_KINDS:
            return self.typed_expression(read)
        return int(self.expect("NUMBER", read).value)

    def typed_expression(self, kind: str) -> Expr:
        expr = self.expression()
        if expr.kind != kind:
            raise TypeMismatch(
                f"line {expr.line}: expected {_a(kind)} expression, "
                f"got {_a(expr.kind)} one"
            )
        return expr

    def label(self) -> str:
        tok = self.peek()
        if tok.type in ("NUMBER", "STRING"):
            self.next()
            return tok.value
        raise ScriptSyntaxError(
            f"found {tok.value!r}", tok.line, tok.col,
            ("element label", "quoted label"),
        )


def parse(text: str) -> Script:
    """Script text to AST. Raises ScriptSyntaxError, UnknownName, or
    TypeMismatch with 1-based source locations."""
    return _Parser(text).parse()


# -- evaluation -----------------------------------------------------------------------


class Evaluator:
    """Builds values for expressions, memoized by canonical rendering so a
    ring or amalgam referenced by many checks is constructed once. `evaluate`
    drops each value after its last check (`_last_uses`), so a run's peak
    memory is that of the instances live at once, not their sum."""

    def __init__(self, definitions: tuple[Definition, ...]):
        self.defs = {d.name: d.expr for d in definitions}
        self.cache: dict[str, object] = {}

    def value(self, expr: Expr, key: str | None = None):
        key = expr.render() if key is None else key
        if key in self.cache:
            return self.cache[key]
        val = self._build(expr)
        self.cache[key] = val
        return val

    def _build(self, expr: Expr):
        if expr.form == "ref":
            return self.value(self.defs[expr.args[0]])
        if expr.form == "int":
            return expr.args[0]
        return _FORMS[expr.form].build(*(
            self.value(a) if isinstance(a, Expr) else a for a in expr.args))


# -- check registry -------------------------------------------------------------------


@dataclass(frozen=True)
class CheckSpec:
    """Registry entry: argument kinds (variadic repeats the last), a one-line
    summary, the property statement `explain` prints, and the runner."""

    name: str
    params: tuple[str, ...]
    variadic: bool
    summary: str
    statement: str
    runner: object = field(repr=False, default=None)

    def accepts(self, kinds: list[str]) -> bool:
        if self.variadic:
            if len(kinds) < len(self.params):
                return False
            head = kinds[: len(self.params) - 1]
            tail = kinds[len(self.params) - 1:]
            return list(self.params[:-1]) == head and all(
                k == self.params[-1] for k in tail
            )
        return list(self.params) == kinds

    def signature(self) -> str:
        sig = ", ".join(self.params)
        return sig + ", ..." if self.variadic else sig


def _run_cardinality(am, instance: str) -> VerificationReport:
    """order of an amalgam is |A| * |J|

    The amalgam of f: A -> B along an ideal J of B is the subring
    {(a, f(a)+j)} of A x B. The assignment (a, j) -> (a, f(a)+j) is
    injective, so the order equals |A| * |J| exactly, and the graph
    {(a, f(a))} sits inside it as the j = 0 slice."""
    rep = VerificationReport("cardinality", instance, PASS)
    rep.add("base_order", am.base.order)
    rep.add("ideal_order", am.ideal.size)
    rep.add("amalgam_order", am.ring.order)
    exact = am.ring.order == am.base.order * am.ideal.size
    rep.add("product_law_exact", exact)
    # a scatter of the a whose pair (a, f(a)) is in the amalgam
    hit = np.zeros(am.base.order, dtype=bool)
    hit[am.pairs[am.pairs[:, 1] == am.hom.map[am.pairs[:, 0]], 0]] = True
    graph_in = bool(hit.all())
    rep.add("graph_contained", graph_in)
    rep.add("graph_embedding_injective", am.embed.is_injective)
    if not (exact and graph_in and am.embed.is_injective):
        rep.status = FAIL
        rep.counterexample = "order law or graph containment violated"
    return rep


def _run_dotted_presentation(am, instance: str) -> VerificationReport:
    """amalgam carries a split extension of A by J

    On A x J with product (a,x)(a',x') = (aa', a.x' + a'.x + xx')
    transported through f, the amalgam splits: the base embeds, J
    embeds as an ideal, the base projection retracts the embedding,
    and the explicit coordinate map onto the pair form is a bijective
    hom."""
    rep = VerificationReport("dotted_presentation", instance, PASS)
    dotted, transport = dotted_transport(am)
    split = split_sequence_check(dotted)
    for w in split.witnesses:
        rep.add(w.name, w.value)
    iso_ok = verify_iso(transport)
    rep.add("transport_iso_valid", iso_ok)
    if split.status != PASS or not iso_ok:
        rep.status = FAIL
        rep.counterexample = split.counterexample or "transport iso invalid"
    return rep


def _spec(name, params, fn, runner=None, variadic=False) -> CheckSpec:
    """The first line of `fn`'s docstring is the summary and the rest the
    statement; both are empty when docstrings are stripped (python -OO).
    The default runner hands the argument values on to `fn`."""
    summary, _, statement = (inspect.getdoc(fn) or "").partition("\n\n")
    runner = runner or (lambda vals, inst: fn(*vals, instance=inst))
    return CheckSpec(name, tuple(params), variadic, summary, statement, runner)


REGISTRY: dict[str, CheckSpec] = {
    s.name: s
    for s in [
        _spec("cardinality", (AMALGAM,), _run_cardinality),
        _spec("dotted_presentation", (AMALGAM,), _run_dotted_presentation),
        _spec("pull_identity", (AMALGAM,), pull_identity_check),
        _spec("alt_pullbacks", (AMALGAM,), alt_pullback_checks),
        _spec("canonical_isos", (AMALGAM,), canonical_isos),
        _spec("reduced_criterion", (AMALGAM,), reduced_criterion_check),
        _spec("domain_criterion", (AMALGAM,), domain_criterion_check),
        _spec("same_amalgam", (HOM, HOM, IDEAL), same_amalgam),
        _spec("iterated_iso", (HOM, IDEAL, INT), iter_iso_check),
        _spec("retraction_roundtrip", (AMALGAM,), retraction_roundtrip),
        _spec("retraction_criterion", (HOM, HOM), retraction_criterion_check),
        _spec("pullback_presentation", (HOM, HOM, HOM), factor_check),
        _spec("pullback_reduced", (HOM, HOM), pullback_reduced_check),
        _spec("kernel_identity", (HOM, HOM), kernel_identity_check),
        _spec("dorroh", (IDEAL,), dorroh_check, lambda vals, inst: dorroh_check(
            ideal_as_rng(vals[0])[0], instance=inst)),
        _spec("nagata_as_amalgam", (HOM, IDEAL), nagata_as_amalgam_check,
              lambda vals, inst: nagata_as_amalgam_check(
                  vals[0].domain, module_via_hom(*vals), instance=inst)),
        _spec("d_plus_m", (SUBRING, IDEAL), d_plus_m, lambda vals, inst: d_plus_m(
            vals[0].ring, vals[0], vals[1:], inst)[1], variadic=True),
        _spec("cpi_prime", (RING, IDEAL), cpi_prime,
              lambda vals, inst: cpi_prime(*vals, inst)[1]),
        _spec("cpi_ideal", (RING, IDEAL), cpi_ideal,
              lambda vals, inst: cpi_ideal(*vals, inst)[1]),
        _spec("trunc_poly_amalgam", (SUBRING, IDEAL, INT, INT), trunc_poly_amalgam,
              lambda vals, inst: trunc_poly_amalgam(
                  vals[0], vals[0].ring, *vals[1:], inst)[1]),
        _spec("noetherian", (AMALGAM,), noetherian_report),
        _spec("noetherian_xjx", (SUBRING, IDEAL), noetherian_verdict_xjx,
              lambda vals, inst: noetherian_verdict_xjx(
                  vals[0], vals[0].ring, vals[1], inst)),
        _spec("reduced_converse_search", (AMALGAM,), reduced_converse_search,
              lambda vals, inst: reduced_converse_search(vals, inst),
              variadic=True),
    ]
}


def _last_uses(checks: tuple[CheckStmt, ...], defs: dict[str, Expr]
               ) -> tuple[list[list[str]], list[list[str]]]:
    """For each check, the keys of its arguments, and the keys that no
    later check touches."""
    walked: dict[str, set[str]] = {}

    def keys(expr: Expr, key: str) -> set[str]:
        # the keys that building `expr` may touch, as `_build` walks it
        if key not in walked:
            sub = [defs[key]] if expr.form == "ref" else [a for a in expr.args if isinstance(a, Expr)]
            walked[key] = {key}.union(*(keys(a, a.render()) for a in sub))
        return walked[key]

    args = [[a.render() for a in chk.args] for chk in checks]
    last = {key: i for i, chk in enumerate(checks)
            for arg, k in zip(chk.args, args[i]) for key in keys(arg, k)}
    done: list[list[str]] = [[] for _ in checks]
    for key, i in last.items():
        done[i].append(key)
    return args, done


def evaluate(script: Script) -> list[VerificationReport]:
    """One report per check statement, in order. Precondition failures
    surface as hypothesis_not_met reports; non-library failures are wrapped
    with the check's source location and raised."""
    ev = Evaluator(script.definitions)
    reports: list[VerificationReport] = []
    for chk, keys, done in zip(script.checks, *_last_uses(script.checks, ev.defs)):
        spec = REGISTRY[chk.name]
        instance = ", ".join(keys)
        start = time.perf_counter()
        try:
            rep = spec.runner([ev.value(a, k) for a, k in zip(chk.args, keys)], instance)
        except FinringError as exc:
            rep = VerificationReport(chk.name, instance, HYPOTHESIS_NOT_MET)
            rep.add("note", str(exc))
        except InvariantViolated as exc:
            rep = VerificationReport(chk.name, instance, FAIL)
            rep.counterexample = str(exc)
        except Exception as exc:
            raise EvaluationError(f"{chk.name}: {exc}", chk.line, chk.col) from exc
        rep.millis = (time.perf_counter() - start) * 1000.0
        reports.append(rep)
        for key in done:
            ev.cache.pop(key, None)
    return reports


# -- catalog generation ---------------------------------------------------------------


_MIN_BUDGET = 12

# The roster: each ring as the script text that builds it.
_ROSTER = [(f"R{n}", f"zmod({n})") for n in range(2, 13)] + [
    ("F4", "gf(4)"),
    ("P22", "product(zmod(2), zmod(2))"),
    ("P23", "product(zmod(2), zmod(3))"),
    ("P24", "product(zmod(2), zmod(4))"),
    ("P33", "product(zmod(3), zmod(3))"),
    ("T21", "trunc_poly(zmod(2), 1, 1)"),
    ("T22", "trunc_poly(zmod(2), 1, 2)"),
    ("V221", "trunc_poly(zmod(2), 2, 1)"),
    ("T31", "trunc_poly(zmod(3), 1, 1)"),
    ("T41", "trunc_poly(zmod(4), 1, 1)"),
    ("TF4", "trunc_poly(gf(4), 1, 1)"),
    ("T25", "trunc_poly(zmod(2), 1, 5)"),
]

# The fixed part of the catalog, written as the script text it emits: the
# amalgams every catalog keeps, and the checks after the seeded ones. A
# placeholder names an ideal: {R4:2} the ideal of R4 generated by the
# element labelled 2, {R2} the largest ideal of R2. A line whose placeholder
# names a ring over the budget is left out. The line <hom pairs> is where
# the seeded kernel_identity and pullback_reduced pairs go.
_IDEAL = re.compile(r"\{(\w+)(?::([^}]*))?\}")
_DESIGNATED = ("dup(R4, {R4:2})", "dup(R6, {R6:2})", "dup(R6, {R6:3})",
               "dup(R12, {R12:4})", "amalg(h_R4_R2_0, {R2})")
_FIXED_CHECKS = """\
# pullback criteria
check retraction_criterion(h_R2_R2_0, h_R4_R2_0);
<hom pairs>
check pullback_presentation(h_R4_R2_0, h_R2_R2_0, h_R4_R2_0);
check pullback_presentation(h_P22_R2_0, h_R2_R2_0, h_P22_R2_1);

# hom pairs sharing an amalgam
hom d_P22 = map(P22 -> P22; 0, 3, 0, 3);
check same_amalgam(id(P22), d_P22, {P22:(1,0)});
hom s_P22 = map(P22 -> P22; 0, 2, 1, 3);
check same_amalgam(id(P22), s_P22, {P22:(1,0)});
check same_amalgam(id(R4), id(R4), {R4});

# named constructions
check dorroh({R4:2});
check dorroh({R9:3});
check dorroh({R6:2});
check nagata_as_amalgam(id(R2), {R2});
check nagata_as_amalgam(h_R4_R2_0, {R2});
check nagata_as_amalgam(id(R3), {R3});
check d_plus_m(sub(TF4), {TF4:X});
check d_plus_m(sub(T21), {T21:X});
check cpi_prime(R12, {R12:2});
check cpi_prime(R12, {R12:3});
check cpi_prime(R6, {R6:3});
check cpi_ideal(R12, {R12:4});
check cpi_ideal(R12, {R12:2});
check cpi_ideal(R8, {R8:2});
check trunc_poly_amalgam(sub(F4), {F4}, 1, 1);
check trunc_poly_amalgam(sub(R4), {R4:2}, 1, 1);

# polynomial-extension verdicts
check noetherian_xjx(sub(P22), {P22:(1,0)});
check noetherian_xjx(sub(R4), {R4:2});
check noetherian_xjx(sub(R4), {R4});

# converse search over the kept instances
"""
_PER_INSTANCE = ("cardinality", "pull_identity", "canonical_isos",
                 "reduced_criterion", "domain_criterion", "retraction_roundtrip")
_ON_A_SLICE = ("alt_pullbacks", "dotted_presentation", "noetherian")


def _catalog_rings(budget: int) -> list[tuple[str, str, FiniteRng]]:
    """(name, expression text, ring) for each roster ring of order at most
    `budget`, each built from its text by the script's own Evaluator."""
    script = parse("".join(f"ring {name} = {text};\n" for name, text in _ROSTER))
    ev = Evaluator(script.definitions)
    rings = [(d.name, d.expr.render(), ev.value(d.expr)) for d in script.definitions]
    return [e for e in rings if e[2].order <= budget]


def _gen_text(ring_name: str, ring: FiniteRng, ideal) -> str:
    members = [ring.labels[i] for i in ideal.indices if i != ring.zero]
    if not members:
        members = [ring.labels[ring.zero]]
    return f"gen({ring_name}; " + ", ".join(
        _label_token(lab) for lab in members
    ) + ")"


def generate_catalog(seed: int, budget: int) -> str:
    """Deterministic script text exercising every check. The seed picks which
    instances survive the per-section caps; the budget bounds every
    constructed ring order. Identical arguments give identical text."""
    lines = [
        "# catalog of verification instances",
        f"# seed {seed}, budget {budget}",
    ]
    if budget < _MIN_BUDGET:
        return "\n".join(lines + [
            f"# warning: budget {budget} is below the order of zmod({_MIN_BUDGET}), "
            "which the fixed instances use; catalog is empty",
        ]) + "\n"
    rng = random.Random(seed)
    rings = _catalog_rings(budget)
    by_name = {name: ring for name, _, ring in rings}
    lines += [""] + [f"ring {name} = {text};" for name, text, _ in rings] + [""]

    ideal_names: dict[tuple[str, bytes], str] = {}
    ideals_of = {name: all_ideals(ring, cap=32) for name, ring in by_name.items()}
    for name, ring in by_name.items():
        for k, ideal in enumerate(ideals_of[name]):
            ideal_names[name, ideal.members.tobytes()] = f"I_{name}_{k}"
            lines.append(f"ideal I_{name}_{k} = {_gen_text(name, ring, ideal)};")
    lines.append("")

    def ideal_name(ring_name: str, ideal) -> str:
        return ideal_names[ring_name, ideal.members.tobytes()]

    def find_ideal(ring_name: str, label: str | None) -> str:
        """The ideal generated by the element `label`, or with no label the
        ring's largest ideal."""
        ring, ideals = by_name[ring_name], ideals_of[ring_name]
        ideal = ideals[-1] if label is None else ideal_from_generators(
            ring, [ring.index_of(label)])
        return ideal_name(ring_name, ideal)

    def fill(text: str) -> str:
        return _IDEAL.sub(lambda mo: find_ideal(*mo.groups()), text)

    small = {name: ring for name, ring in by_name.items() if ring.order <= 12}
    homs: list[tuple[str, str, int]] = []  # (name, codomain name, |domain|)
    for a_name, A in small.items():
        for b_name, B in small.items():
            # f(1) = 1 gives char(A) * 1 = 0 in B, so char(B) | char(A)
            if characteristic(A) % characteristic(B):
                continue
            for k, h in enumerate(enumerate_homs(A, B, unital=True, cap=8)):
                hname = f"h_{a_name}_{b_name}_{k}"
                images = ", ".join(str(int(x)) for x in h.map)
                lines.append(f"hom {hname} = map({a_name} -> {b_name}; {images});")
                homs.append((hname, b_name, A.order))
    lines.append("")

    # amalgam instances: (hom or duplication) x ideal of the codomain
    pool = {f"amalg({hname}, {ideal_name(b_name, ideal)})"
            for hname, b_name, order in homs for ideal in ideals_of[b_name]
            if order * ideal.size <= budget}
    pool |= {f"dup({name}, {ideal_name(name, ideal)})"
             for name, ring in small.items() for ideal in ideals_of[name]
             if ring.order * ideal.size <= budget}
    designated = [fill(text) for text in _DESIGNATED]
    pool = sorted(pool.difference(designated))
    room = 36 - len(designated)
    keep = designated + (sorted(rng.sample(pool, room)) if len(pool) > room else pool)

    lines.append("# per-instance verification")
    lines += [f"check {check}({expr});" for expr in keep for check in _PER_INSTANCE]
    lines += ["", "# heavier presentations on a slice"]
    lines += [f"check {check}({expr});" for expr in keep[:10] for check in _ON_A_SLICE]
    lines += ["", "# iterated amalgams"]
    for n_fold in (2, 3):
        lines += [
            f"check iterated_iso(id({name}), {ideal_name(name, ideal)}, {n_fold});"
            for name in ("R2", "R3", "R4", "R5", "R6") for ideal in ideals_of[name]
            if ideal.size >= 2 and by_name[name].order * ideal.size ** n_fold <= budget
        ][:6]
    lines.append("")

    by_codomain: dict[str, list[str]] = {}
    for hname, b_name, _ in homs:
        by_codomain.setdefault(b_name, []).append(hname)
    pair_pool = sorted({(h1, h2) for names in by_codomain.values()
                        for h1 in names for h2 in names if h1 <= h2})
    pairs = sorted(rng.sample(pair_pool, min(8, len(pair_pool))))
    for row in _FIXED_CHECKS.splitlines():
        if row == "<hom pairs>":
            lines += [f"check {check}({h1}, {h2});" for h1, h2 in pairs
                      for check in ("kernel_identity", "pullback_reduced")]
        elif {mo[1] for mo in _IDEAL.finditer(row)} <= by_name.keys():
            lines.append(fill(row))
    lines.append("check reduced_converse_search(" + ", ".join(keep[:12]) + ");")
    return "\n".join(lines) + "\n"


# -- CLI ------------------------------------------------------------------------------


def _print_table(reports: list[VerificationReport]) -> None:
    for rep in reports:
        print(rep.line())
    total = len(reports)
    failed = sum(1 for r in reports if r.status == FAIL)
    skipped = sum(1 for r in reports if r.status == HYPOTHESIS_NOT_MET)
    print(f"{total} checks: {total - failed - skipped} conclusive, "
          f"{skipped} hypothesis_not_met, {failed} failed")


@contextlib.contextmanager
def _stdout():
    """Write to standard output, then flush it. A reader that has closed the
    pipe (`finring explain | head -1`) ends the output but not the command:
    the rest of the output goes to the null device, so neither this flush
    nor the one at exit raises, and the command keeps its exit code.
    Other exceptions, argparse's SystemExit among them, pass through."""
    broken = False
    try:
        yield
    except BrokenPipeError:
        broken = True
    finally:
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            broken = True
        if broken:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="finring",
        description="verification scripts over finite commutative rings",
    )
    sub = parser.add_subparsers(dest="command")

    p_check = sub.add_parser("check", help="run a script's checks")
    p_check.add_argument("file")
    p_check.add_argument("--json", metavar="OUT", default=None,
                         help="also write the JSON report here")
    p_check.add_argument("--guard", type=int, default=None, metavar="N",
                         help="size guard for constructed rings")

    p_cat = sub.add_parser("catalog", help="emit a deterministic instance script")
    p_cat.add_argument("--seed", type=int, default=0, metavar="S")
    p_cat.add_argument("--budget", type=int, default=256, metavar="N",
                       help="largest constructed ring order")
    p_cat.add_argument("--out", metavar="FILE", default=None,
                       help="write here instead of standard output")

    p_explain = sub.add_parser("explain", help="describe a check")
    p_explain.add_argument("name", nargs="?", default=None)

    with _stdout():
        args = parser.parse_args(argv)
    if args.command == "check":
        if args.guard is not None and not 1 <= args.guard <= config.max_size_guard():
            bound = "at least 1" if args.guard < 1 else f"at most {config.max_size_guard()}"
            p_check.error(f"argument --guard: must be {bound}, got {args.guard}")
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            script = parse(text)
        except (ScriptSyntaxError, UnknownName, TypeMismatch) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        guard = args.guard if args.guard is not None else config.size_guard()
        try:
            with config.guard_limit(guard):
                reports = evaluate(script)
        except EvaluationError as exc:
            print(f"error: {exc.message} at {exc.line}:{exc.col}", file=sys.stderr)
            return 3
        with _stdout():
            _print_table(reports)
        if args.json:
            try:
                with open(args.json, "w", encoding="utf-8") as fh:
                    fh.write(reports_to_json(reports))
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        return 1 if any(r.status == FAIL for r in reports) else 0

    if args.command == "catalog":
        text = generate_catalog(args.seed, args.budget)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        else:
            with _stdout():
                sys.stdout.write(text)
        return 0

    if args.command == "explain":
        spec = None if args.name is None else REGISTRY.get(args.name)
        if args.name is not None and spec is None:
            print(f"error: unknown check {args.name!r}; available: "
                  + ", ".join(REGISTRY), file=sys.stderr)
            return 2
        with _stdout():
            if spec is None:
                for each in REGISTRY.values():
                    print(f"{each.name:28s} {each.summary}")
            else:
                print(f"{spec.name}({spec.signature()})")
                print()
                print(spec.statement)
        return 0

    with _stdout():
        parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
