"""Computation tree logic: formulas, concrete syntax, and syntax DAGs.

Formulas are immutable trees built from propositions, Boolean connectives
and the temporal operators EX/EG/EU plus the usual derived forms (EF, AX,
AG, AF, AU, implication, constants).  The checker, the tableau and the
synthesizer work on the existential normal form (ENF) fragment:
propositions, the constants `true` and `false`, negation, conjunction,
disjunction, EX, EU and EG.  `enf` rewrites any formula into that
fragment, keeping its constants.  The learner's candidates are the
constant-free part of it (`enumerate_formulas`), and the label of one
of their nodes is its proposition's name or its ENF class
(`OPERATOR_LABELS`).  Equal formulas are one object (`CtlFormula`), so
a formula is its own syntax DAG, in which identical subterms are one
node; `subterms` lists its nodes, children first.

Formula size is the number of *distinct* subformulas, i.e. the node count
of the syntax DAG, not the node count of the tree.
"""

from __future__ import annotations

import re
from typing import Sequence

__all__ = [
    "FrozenRecord", "CtlFormula", "Prop", "Const", "TRUE", "FALSE", "Not",
    "And", "Or", "Implies", "ExistsNext", "ExistsUntil", "ExistsGlobally",
    "ExistsFinally", "ForallNext", "ForallUntil", "ForallGlobally",
    "ForallFinally", "CtlError", "ParseError", "NotInEnf",
    "RESERVED_WORDS", "MAX_NESTING", "parse_ctl", "print_ctl", "enf", "is_enf",
    "subterms", "size", "propositions", "enumerate_formulas",
]

# Words the formula lexer claims for itself, and `EU`, the name `cnf-dump`
# prints for E-until's label variables (`encoder.to_dimacs`), which would
# read the same as those of a proposition of that name; none of them can
# name a proposition.
RESERVED_WORDS = frozenset(
    {"true", "false", "E", "A", "U", "EX", "EG", "EU", "EF", "AX", "AG", "AF"}
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class CtlError(ValueError):
    """Base class for formula-level errors."""


class ParseError(CtlError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position})")
        self.position = position


class NotInEnf(CtlError):
    """Raised when an operation requires an ENF formula but got sugar."""


class FrozenRecord:
    """An immutable, slotted record whose fields are its `__match_args__`,
    set once, in that order, by `_fill`, the one place that writes them:
    a record's `__init__` calls it, and so does `CtlFormula.__new__` for
    a new formula node.

    Assigning or deleting any attribute raises `FrozenInstanceError`, and
    copies and pickles call the class on the fields, which for a formula
    returns the one node it already is.  Equality compares the class and
    then the field tuple, a hash is that of the field tuple, and the
    `repr` reads `Name(field=value, ...)`: the behaviour of a frozen
    dataclass, without generating its code at import.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fill(self, *values: object) -> None:
        names = self.__match_args__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__qualname__} takes {len(names)} "
                            f"fields, got {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    # `dataclasses` is imported only here: it imports `inspect`, which
    # would more than double the package's import time.
    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class CtlFormula(FrozenRecord):
    """Base class for formula nodes.

    Nodes come in four shapes, each a `FrozenRecord`: `Prop` (a name),
    `Const` (a truth value), `_Unary` (`operand`) and `_Binary` (`left`,
    `right`).  The twelve operator classes are empty subclasses of the
    last two.  A shape declares only its fields; every node is built by
    the one constructor below, which takes the fields positionally.

    Nodes are hash-consed (Filliâtre & Conchon, "Type-safe modular
    hash-consing", 2006): `__new__` looks up the class and field tuple
    in `_NODES` and builds a node only on a miss, so each distinct
    formula is built once and lives as long as the process.  A new node
    is checked (`_check`) before it is inserted, and a wrong number of
    fields raises `TypeError`; either way nothing is stored.
    By induction on height, structurally equal formulas are the same
    object: equal leaves have one key, and equal operator nodes have
    one class and equal children, which are identical by induction, so
    one key as well.  Equality and hashing are therefore those of
    `object`: identity is the structural equality, and a formula is its
    syntax DAG by construction.
    """

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, *fields: object) -> CtlFormula:
        node = _NODES.get(key := (cls,) + fields)
        if node is None:
            node = _new(cls)
            node._fill(*fields)
            node._check()
            node = _NODES.setdefault(key, node)
        return node

    def _check(self) -> None:
        """Refuse a new node whose fields are invalid; the default
        accepts every node."""

    def __str__(self) -> str:
        return print_ctl(self)


# The one node of each class and field tuple (`CtlFormula`).  A node is
# inserted by `setdefault`, so two threads that build one formula still
# get one node.
_NODES: dict[tuple, CtlFormula] = {}

# Allocate a formula node; a module global, which Python looks up faster
# than `object` and then its attribute.
_new = object.__new__


class Prop(CtlFormula):
    __slots__ = __match_args__ = ("name",)

    def _check(self) -> None:
        if not _IDENT_RE.match(self.name):
            raise CtlError(f"invalid proposition name {self.name!r}")
        if self.name in RESERVED_WORDS:
            raise CtlError(
                f"proposition name {self.name!r} is a reserved word")


class Const(CtlFormula):
    __slots__ = __match_args__ = ("value",)


TRUE = Const(True)
FALSE = Const(False)


class _Unary(CtlFormula):
    __slots__ = __match_args__ = ("operand",)


class _Binary(CtlFormula):
    __slots__ = __match_args__ = ("left", "right")


class Not(_Unary): __slots__ = ()
class And(_Binary): __slots__ = ()
class Or(_Binary): __slots__ = ()
class Implies(_Binary): __slots__ = ()
class ExistsNext(_Unary): __slots__ = ()
class ExistsUntil(_Binary): __slots__ = ()
class ExistsGlobally(_Unary): __slots__ = ()
class ExistsFinally(_Unary): __slots__ = ()
class ForallNext(_Unary): __slots__ = ()
class ForallUntil(_Binary): __slots__ = ()
class ForallGlobally(_Unary): __slots__ = ()
class ForallFinally(_Unary): __slots__ = ()


# The ENF connectives, which are also the operator labels of the learner's
# syntax-DAG nodes (`encoder`): a node's label is its proposition's name or
# its class.  The ENF fragment is propositions and constants under these
# (`ENF_CLASSES`).  Each grouping keeps the order of `OPERATOR_LABELS`.
OPERATOR_LABELS = (Not, And, Or, ExistsNext, ExistsUntil, ExistsGlobally)
UNARY_LABELS = (Not, ExistsNext, ExistsGlobally)
BINARY_LABELS = (And, Or, ExistsUntil)
TEMPORAL_LABELS = (ExistsNext, ExistsUntil, ExistsGlobally)
ENF_CLASSES = (Prop, Const, *OPERATOR_LABELS)


def children(f: CtlFormula) -> tuple[CtlFormula, ...]:
    if isinstance(f, _Unary):
        return (f.operand,)
    if isinstance(f, _Binary):
        return (f.left, f.right)
    return ()


def is_enf(f: CtlFormula) -> bool:
    """True iff `f` uses only ENF connectives over propositions and
    constants, visiting each DAG node once."""
    return all(isinstance(g, ENF_CLASSES) for g in subterms(f))


def subterms(f: CtlFormula) -> list[CtlFormula]:
    """Every distinct subformula of `f` once, children before parents and
    left before right, `f` last: the nodes of `f`'s syntax DAG, numbered
    as `checker.evaluate` completes them."""
    seen: set[CtlFormula] = set()
    order: list[CtlFormula] = []
    stack: list[CtlFormula | None] = [f]
    while stack:
        g = stack.pop()
        if g is None:  # the children of the node below it are done
            order.append(stack.pop())
        elif g not in seen:
            seen.add(g)
            stack += (g, None)
            stack.extend(children(g)[::-1])
    return order


def size(f: CtlFormula) -> int:
    """Formula size: the number of distinct subformulas (DAG node count)."""
    return len(subterms(f))


def propositions(f: CtlFormula) -> frozenset[str]:
    """The proposition names in `f`, visiting each DAG node once."""
    return frozenset(g.name for g in subterms(f) if isinstance(g, Prop))


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------
#
#   formula := or ('->' formula)?            right associative
#   or      := and ('|' and)*                left associative
#   and     := unary ('&' unary)*            left associative
#   unary   := ('!' | EX | EG | EF | AX | AG | AF) unary
#            | 'E' '[' formula 'U' formula ']'
#            | 'A' '[' formula 'U' formula ']'
#            | atom
#   atom    := 'true' | 'false' | name | '(' formula ')'
#
# Every walk of a formula but `subterms`, which `is_enf` and
# `propositions` read (this parser, `enf`, `print_ctl`,
# `checker.evaluate`), recurses once per level, so `parse_ctl` refuses
# more than `MAX_NESTING` prefix operators, until brackets and
# parentheses around one token, or operators on one root-to-leaf path.
# The deepest walks are this parser, four frames a nesting level
# (`formula`, `or_expr`, `and_expr`, `unary`), and `checker.evaluate`
# over the ENF, one frame a node, where ENF puts up to five nodes above
# each f of `A[f U g]`.  On `synth` of `p & EX !p & ` and `A[p U `
# nested 63 deep, both peak at 261 frames in all on CPython 3.11 (the
# evaluation counting its leaf callback); nested 64 deep on the left
# instead, `A[A[... U p] U p]`, the evaluation peaks at 324.  Python's
# default recursion limit is 1000.  The limit guards parsed text only: a
# formula built with the constructors may nest deeper, and a chain of
# 1,000 EX then raises `RecursionError` in `enf`, `print_ctl`,
# `checker.holds` and `synth.synthesize` (900 pass), while `size` and
# `tableau.satisfiable`, which walk `subterms`, take 2,000.

MAX_NESTING = 64

_TOKEN_RE = re.compile(r"->|[!&|()\[\]]|[A-Za-z_][A-Za-z0-9_]*")

_PREFIX = {"!": Not, "EX": ExistsNext, "EG": ExistsGlobally,
           "EF": ExistsFinally, "AX": ForallNext, "AG": ForallGlobally,
           "AF": ForallFinally}

_Parsed = tuple[CtlFormula, int]  # a subformula and its height


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {ch!r}", pos + 1)
        tokens.append((m.group(), pos + 1))
        pos = m.end()
    tokens.append(("", len(text) + 1))  # end marker
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0  # prefix operators, brackets and parentheses open

    def peek(self) -> str:
        return self.tokens[self.idx][0]

    def pos(self) -> int:
        return self.tokens[self.idx][1]

    def take(self) -> str:
        tok = self.tokens[self.idx][0]
        self.idx += 1
        return tok

    def expect(self, tok: str, what: str) -> None:
        if self.peek() != tok:
            got = self.peek() or "end of input"
            raise ParseError(f"expected {what}, found {got!r}", self.pos())
        self.take()

    def enter(self) -> None:
        """Take the token that opens one more level of nesting."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"formula nested more than {MAX_NESTING} deep",
                             self.pos())
        self.take()
        self.depth += 1

    def node(self, ctor: type[CtlFormula], *parts: _Parsed) -> _Parsed:
        """`ctor` over `parts`, and its height: the operators on its
        longest root-to-leaf path."""
        height = 1 + max(h for _, h in parts)
        if height > MAX_NESTING:
            raise ParseError(f"formula more than {MAX_NESTING} operators "
                             f"deep", self.pos())
        return ctor(*(f for f, _ in parts)), height

    def formula(self) -> _Parsed:
        # A loop, not a recursion, so that a long `->` chain is refused by
        # `node` before it can exhaust the stack.
        operands = [self.or_expr()]
        while self.peek() == "->":
            self.take()
            operands.append(self.or_expr())
        f = operands.pop()
        while operands:
            f = self.node(Implies, operands.pop(), f)
        return f

    def or_expr(self) -> _Parsed:
        f = self.and_expr()
        while self.peek() == "|":
            self.take()
            f = self.node(Or, f, self.and_expr())
        return f

    def and_expr(self) -> _Parsed:
        f = self.unary()
        while self.peek() == "&":
            self.take()
            f = self.node(And, f, self.unary())
        return f

    def unary(self) -> _Parsed:
        tok = self.peek()
        if tok in _PREFIX:
            self.enter()
            f = self.node(_PREFIX[tok], self.unary())
        elif tok in ("E", "A"):
            self.enter()
            self.expect("[", "'[' after path quantifier")
            left = self.formula()
            self.expect("U", "'U' inside until")
            right = self.formula()
            self.expect("]", "']' closing until")
            f = self.node(ExistsUntil if tok == "E" else ForallUntil,
                          left, right)
        else:
            return self.atom()
        self.depth -= 1
        return f

    def atom(self) -> _Parsed:
        tok = self.peek()
        if tok == "(":
            self.enter()
            f = self.formula()
            self.expect(")", "closing parenthesis")
            self.depth -= 1
            return f
        if tok == "true":
            self.take()
            return TRUE, 0
        if tok == "false":
            self.take()
            return FALSE, 0
        if tok and _IDENT_RE.match(tok) and tok not in RESERVED_WORDS:
            self.take()
            return Prop(tok), 0
        got = tok or "end of input"
        raise ParseError(f"expected a formula, found {got!r}", self.pos())


def parse_ctl(text: str) -> CtlFormula:
    """Parse the concrete syntax above; `ParseError` on malformed input or
    input nested past `MAX_NESTING`."""
    parser = _Parser(text)
    f, _ = parser.formula()
    if parser.peek() != "":
        raise ParseError(f"unexpected trailing input {parser.peek()!r}",
                         parser.pos())
    return f


# Precedence levels used by the printer; higher binds tighter.
_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4, 5

_UNARY_SYMBOL = {ctor: tok if tok == "!" else tok + " "
                 for tok, ctor in _PREFIX.items()}


def _fmt(f: CtlFormula, min_prec: int) -> str:
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Const):
        return "true" if f.value else "false"
    if isinstance(f, (ExistsUntil, ForallUntil)):
        q = "E" if isinstance(f, ExistsUntil) else "A"
        return f"{q}[{_fmt(f.left, 0)} U {_fmt(f.right, 0)}]"
    if isinstance(f, _Unary):
        text = _UNARY_SYMBOL[type(f)] + _fmt(f.operand, _PREC_UNARY)
        prec = _PREC_UNARY
    elif isinstance(f, And):
        text = f"{_fmt(f.left, _PREC_AND)} & {_fmt(f.right, _PREC_AND + 1)}"
        prec = _PREC_AND
    elif isinstance(f, Or):
        text = f"{_fmt(f.left, _PREC_OR)} | {_fmt(f.right, _PREC_OR + 1)}"
        prec = _PREC_OR
    elif isinstance(f, Implies):
        text = f"{_fmt(f.left, _PREC_IMPLIES + 1)} -> {_fmt(f.right, _PREC_IMPLIES)}"
        prec = _PREC_IMPLIES
    else:
        raise CtlError(f"unknown formula node {f!r}")
    if prec < min_prec:
        return f"({text})"
    return text


def print_ctl(f: CtlFormula) -> str:
    """Render with minimal parentheses; `parse_ctl` inverts it exactly."""
    return _fmt(f, 0)


# ---------------------------------------------------------------------------
# Existential normal form
# ---------------------------------------------------------------------------

def enf(f: CtlFormula) -> CtlFormula:
    """Rewrite into the existential fragment {!, &, |, EX, EU, EG} over
    propositions and the constants `true` and `false`.

    Universal operators are eliminated by the standard dualities; EF f
    becomes E[true U f].  Constants stay as they are.  ENF formulas are
    returned unchanged, so `enf` is idempotent.  Each node is rewritten
    once per call, keyed by itself (equal formulas are one node), so the
    time is linear in the number of distinct subformulas, not in the
    number of root-to-leaf paths.
    """
    return _enf(f, {})


def _enf(f: CtlFormula, memo: dict[CtlFormula, CtlFormula]) -> CtlFormula:
    """`enf` of f, each node rewritten once per `memo`."""
    got = memo.get(f)
    if got is not None:
        return got
    if isinstance(f, (Prop, Const)):
        got = f
    elif isinstance(f, OPERATOR_LABELS):
        if isinstance(f, _Unary):
            got = type(f)(_enf(f.operand, memo))
        else:
            got = type(f)(_enf(f.left, memo), _enf(f.right, memo))
    elif isinstance(f, Implies):
        got = Or(Not(_enf(f.left, memo)), _enf(f.right, memo))
    elif isinstance(f, ExistsFinally):
        got = ExistsUntil(TRUE, _enf(f.operand, memo))
    elif isinstance(f, ForallNext):
        got = Not(ExistsNext(Not(_enf(f.operand, memo))))
    elif isinstance(f, ForallGlobally):
        # AG f = !EF !f
        got = Not(ExistsUntil(TRUE, Not(_enf(f.operand, memo))))
    elif isinstance(f, ForallFinally):
        got = Not(ExistsGlobally(Not(_enf(f.operand, memo))))
    elif isinstance(f, ForallUntil):
        # A[f U g] = !E[!g U (!f & !g)] & !EG !g
        not_g = Not(_enf(f.right, memo))
        got = And(Not(ExistsUntil(not_g, And(Not(_enf(f.left, memo)),
                                             not_g))),
                  Not(ExistsGlobally(not_g)))
    else:
        raise CtlError(f"unknown formula node {f!r}")
    memo[f] = got
    return got


# ---------------------------------------------------------------------------
# Bounded enumeration of the constant-free ENF fragment
# ---------------------------------------------------------------------------

def enumerate_formulas(alphabet: Sequence[str],
                       max_size: int) -> list[CtlFormula]:
    """All constant-free ENF formulas over `alphabet` with size up to
    `max_size`: the learner's candidate space.

    Returned in non-decreasing size order with every child preceding its
    parents.  Size is DAG size, so `And(f, g)` weighs |sub(f) u sub(g)| + 1
    and the counts grow quickly; intended for small bounds only.
    """
    if max_size < 1:
        return []
    subs: dict[CtlFormula, frozenset[CtlFormula]] = {}
    ordered: list[CtlFormula] = []
    by_size: dict[int, list[CtlFormula]] = {k: [] for k in range(1, max_size + 1)}

    def admit(f: CtlFormula, sub: frozenset[CtlFormula]) -> None:
        if f not in subs:
            subs[f] = sub
            ordered.append(f)
            by_size[len(sub)].append(f)

    for name in alphabet:
        p = Prop(name)
        admit(p, frozenset([p]))

    for target in range(2, max_size + 1):
        for f in list(by_size[target - 1]):
            base = subs[f]
            for ctor in UNARY_LABELS:
                g = ctor(f)
                admit(g, base | {g})
        smaller = [f for k in range(1, target) for f in by_size[k]]
        for f in smaller:
            for g in smaller:
                union = subs[f] | subs[g]
                if len(union) != target - 1:
                    continue
                for ctor in BINARY_LABELS:
                    h = ctor(f, g)
                    admit(h, union | {h})
    return ordered
