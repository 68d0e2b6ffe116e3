"""Kripke structures and their line-oriented text format.

A structure is a finite set of states with a total transition relation,
a non-empty set of initial states, and a labeling of states with atomic
propositions.  States and propositions are identifier strings; internally
states are indices into `state_names`.

The text format is fixed-order and canonical when printed:

    kripke
    props: p q
    states: s0 s1
    init: s0
    labels: s0: p q ; s1:
    trans: s0 -> s1 ; s1 -> s0 s1

`#` starts a comment, blank lines are ignored, `;` separates per-state
entries, and every parse runs through `validate`.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Sequence

from .ctl import _IDENT_RE, RESERVED_WORDS, FrozenRecord

__all__ = [
    "KripkeStructure", "KripkeError", "ParseError", "NonTotalTransition",
    "UnknownState", "UnknownProposition", "EmptyInitial", "InvalidStructure",
    "check_alphabet", "validate", "parse_kripke", "print_kripke",
    "inline_kripke", "bisimulation_classes",
]

class KripkeError(ValueError):
    """Base class for structure-level errors."""


class ParseError(KripkeError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class NonTotalTransition(KripkeError):
    def __init__(self, state: str):
        super().__init__(f"state {state!r} has no outgoing transition")
        self.state = state


class UnknownState(KripkeError):
    def __init__(self, state: str):
        super().__init__(f"unknown state {state!r}")
        self.state = state


class UnknownProposition(KripkeError):
    def __init__(self, prop: str):
        super().__init__(f"unknown proposition {prop!r}")
        self.prop = prop


class EmptyInitial(KripkeError):
    def __init__(self) -> None:
        super().__init__("no initial state")


class InvalidStructure(KripkeError):
    """Malformed structure description (duplicates, bad identifiers)."""


class KripkeStructure(FrozenRecord):
    """A validated Kripke structure.

    `successors[s]` is the post set of state index s, `labels[s]` the set
    of proposition names holding there.  The constructor re-checks the
    invariants, so instances are total and well-formed by construction.
    """

    __slots__ = __match_args__ = ("alphabet", "state_names", "initial",
                                  "labels", "successors")

    def __init__(self, alphabet: tuple[str, ...],
                 state_names: tuple[str, ...], initial: frozenset[int],
                 labels: tuple[frozenset[str], ...],
                 successors: tuple[frozenset[int], ...]) -> None:
        self._fill(alphabet, state_names, initial, labels, successors)
        n = len(self.state_names)
        if n == 0:
            raise InvalidStructure("a structure needs at least one state")
        if len(set(self.state_names)) != n:
            raise InvalidStructure("duplicate state names")
        check_alphabet(self.alphabet)
        for name in self.state_names:
            if not _IDENT_RE.match(name):
                raise InvalidStructure(f"invalid state name {name!r}")
        if len(self.labels) != n or len(self.successors) != n:
            raise InvalidStructure("labels/successors must cover every state")
        if not self.initial:
            raise EmptyInitial()
        for s in self.initial:
            if not 0 <= s < n:
                raise UnknownState(str(s))
        props = set(self.alphabet)
        for s, label in enumerate(self.labels):
            for p in label:
                if p not in props:
                    raise UnknownProposition(p)
        for s, post in enumerate(self.successors):
            if not post:
                raise NonTotalTransition(self.state_names[s])
            for t in post:
                if not 0 <= t < n:
                    raise UnknownState(str(t))

    @property
    def size(self) -> int:
        return len(self.state_names)


def check_alphabet(alphabet: Sequence[str]) -> None:
    """Reject duplicate, malformed or reserved proposition names."""
    if len(set(alphabet)) != len(alphabet):
        raise InvalidStructure("duplicate propositions")
    for name in alphabet:
        if not _IDENT_RE.match(name):
            raise InvalidStructure(f"invalid proposition name {name!r}")
        if name in RESERVED_WORDS:
            raise InvalidStructure(
                f"proposition name {name!r} is a reserved word")


def validate(*, props: Sequence[str], states: Sequence[str],
             init: Iterable[str], labels: Mapping[str, Iterable[str]],
             trans: Mapping[str, Iterable[str]]) -> KripkeStructure:
    """Check a raw name-based description and build the structure.

    States missing from `labels` get the empty label set; states missing
    from `trans` fail the totality check.  Only the state names are
    checked here, since the name-to-index lookup needs them unique and
    known; `KripkeStructure` checks every other invariant.
    """
    if len(set(states)) != len(states):
        raise InvalidStructure("duplicate state names")
    index = {name: i for i, name in enumerate(states)}

    def state_index(name: str) -> int:
        if name not in index:
            raise UnknownState(name)
        return index[name]

    initial = frozenset(state_index(name) for name in init)

    label_list: list[frozenset[str]] = [frozenset()] * len(states)
    for name, entry in labels.items():
        label_list[state_index(name)] = frozenset(entry)

    succ_list: list[frozenset[int]] = [frozenset()] * len(states)
    for name, entry in trans.items():
        succ_list[state_index(name)] = frozenset(
            state_index(t) for t in entry)

    return KripkeStructure(
        alphabet=tuple(props),
        state_names=tuple(states),
        initial=initial,
        labels=tuple(label_list),
        successors=tuple(succ_list),
    )


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _tokens(line: str) -> list[tuple[str, int]]:
    return [(m.group(), m.start() + 1)
            for m in re.finditer(r"\S+", line)]


def parse_kripke(text: str) -> KripkeStructure:
    """Parse the text format; the result is validated."""
    lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw)
        if stripped.strip():
            lines.append((lineno, stripped))

    def need(pos: int, expectation: str) -> tuple[int, str]:
        if pos >= len(lines):
            after = lines[-1][0] + 1 if lines else 1
            raise ParseError(f"expected {expectation}", after, 1)
        return lines[pos]

    lineno, header = need(0, "'kripke' header")
    if header.strip() != "kripke":
        raise ParseError("expected 'kripke' header", lineno,
                         _tokens(header)[0][1])

    def section(pos: int, keyword: str) -> tuple[int, str, list[tuple[str, int]]]:
        lineno, line = need(pos, f"'{keyword}:' section")
        toks = _tokens(line)
        if not toks or toks[0][0] != f"{keyword}:":
            got, col = toks[0] if toks else ("", 1)
            raise ParseError(f"expected '{keyword}:' section, found {got!r}",
                             lineno, col)
        return lineno, line, toks[1:]

    _, _, prop_toks = section(1, "props")
    props = [t for t, _ in prop_toks]
    _, _, state_toks = section(2, "states")
    states = [t for t, _ in state_toks]
    lineno_init, _, init_toks = section(3, "init")
    init = [t for t, _ in init_toks]

    def entries(lineno: int, toks: list[tuple[str, int]],
                keyword: str) -> dict[str, list[str]]:
        # Split on ';' then read each entry's own shape.
        groups: list[list[tuple[str, int]]] = [[]]
        for tok, col in toks:
            if tok == ";":
                groups.append([])
            else:
                groups[-1].append((tok, col))
        table: dict[str, list[str]] = {}
        for group in groups:
            if not group:
                continue
            (head, col) = group[0]
            if keyword == "labels":
                if not head.endswith(":") or len(head) < 2:
                    raise ParseError(
                        "expected a state name followed by ':'", lineno, col)
                name = head[:-1]
                rest = [t for t, _ in group[1:]]
            else:
                name = head
                if len(group) < 2 or group[1][0] != "->":
                    raise ParseError(
                        "expected '->' after source state", lineno,
                        group[1][1] if len(group) > 1 else col + len(head))
                rest = [t for t, _ in group[2:]]
            if name in table:
                raise ParseError(f"duplicate entry for state {name!r}",
                                 lineno, col)
            table[name] = rest
        return table

    lineno_lab, _, label_toks = section(4, "labels")
    labels = entries(lineno_lab, label_toks, "labels")
    lineno_tr, _, trans_toks = section(5, "trans")
    trans = entries(lineno_tr, trans_toks, "trans")

    if len(lines) > 6:
        lineno, line = lines[6]
        raise ParseError("unexpected content after 'trans:' section",
                         lineno, _tokens(line)[0][1])

    if not init:
        raise ParseError("empty 'init:' section", lineno_init, 1)
    return validate(props=props, states=states, init=init,
                    labels=labels, trans=trans)


def print_kripke(m: KripkeStructure) -> str:
    """Canonical rendering: declaration order, index-sorted sets."""
    prop_order = {p: i for i, p in enumerate(m.alphabet)}
    label_entries = []
    trans_entries = []
    for s, name in enumerate(m.state_names):
        ps = sorted(m.labels[s], key=prop_order.__getitem__)
        label_entries.append(f"{name}:" + ("" if not ps else " " + " ".join(ps)))
        succ = " ".join(m.state_names[t] for t in sorted(m.successors[s]))
        trans_entries.append(f"{name} -> {succ}")
    init = " ".join(m.state_names[s] for s in sorted(m.initial))
    lines = [
        "kripke",
        "props: " + " ".join(m.alphabet) if m.alphabet else "props:",
        "states: " + " ".join(m.state_names),
        "init: " + init,
        "labels: " + " ; ".join(label_entries),
        "trans: " + " ; ".join(trans_entries),
    ]
    return "\n".join(lines) + "\n"


def inline_kripke(m: KripkeStructure) -> str:
    """One-line rendering for trace output."""
    return " / ".join(print_kripke(m).rstrip("\n").splitlines())


# ---------------------------------------------------------------------------
# Bisimulation
# ---------------------------------------------------------------------------

def _renumber(keys: Iterable) -> list[int]:
    ids: dict = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


def bisimulation_classes(structures: Sequence[KripkeStructure],
                         ) -> list[tuple[int, ...]]:
    """Coarsest bisimulation on the disjoint union of the structures.

    Returns one tuple per structure holding a class id per state; ids are
    shared across structures, so two states (of the same or of different
    structures) are bisimilar exactly when their ids are equal.  Signature
    refinement: start from the label sets (compared by proposition name)
    and split every class by the set of successor classes until the class
    count stops growing (Kanellakis & Smolka 1990).
    """
    labels: list[frozenset[str]] = []
    succs: list[tuple[int, ...]] = []
    for m in structures:
        base = len(labels)
        labels.extend(m.labels)
        succs.extend(tuple(base + t for t in post) for post in m.successors)
    block = _renumber(labels)
    while True:
        refined = _renumber(
            (block[s], frozenset(block[t] for t in post))
            for s, post in enumerate(succs))
        if len(set(refined)) == len(set(block)):
            break
        block = refined
    classes = []
    base = 0
    for m in structures:
        classes.append(tuple(block[base:base + m.size]))
        base += m.size
    return classes
