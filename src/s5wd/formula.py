"""Formulas of the multi-agent epistemic language: AST, parser, printer, helpers.

Node kinds: atoms, the boolean connectives, per-agent box/diamond modalities,
the "some agent considers possible" operator S, and the distributed-knowledge
operator D.  Concrete syntax (loosest to tightest): `<->`, `->` (right
associative), `|`, `&`, then the unary prefixes `~`, `[i]`, `<i>`, `S`, `D`.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence


class ParseError(ValueError):
    """Syntax error in the concrete formula syntax; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class AgentIndexError(ValueError):
    """Agent index outside 1..n."""


class LocalityError(ValueError):
    """An argument required to be i-local is not."""


@dataclass(frozen=True)
class Formula:
    """Base class for formula nodes; instances are immutable and hashable."""

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    """[i]f: agent i knows f."""

    agent: int
    child: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    """<i>f: agent i considers f possible."""

    agent: int
    child: Formula


@dataclass(frozen=True)
class Some(Formula):
    """S f: some agent considers f possible (expands to a disjunction of diamonds)."""

    child: Formula


@dataclass(frozen=True)
class Dist(Formula):
    """D f: f holds at every world related by the intersection of all relations."""

    child: Formula


# an atom name: the one rule of parse and of every valuation check
_ATOM_PATTERN = r"[a-z][a-z0-9_]*"

# one alternative per token class, tried in order: \s is the whitespace of
# str.isspace, [0-9] takes no other digits ('²', '٢'), and any other
# character is an error
_TOKEN_RE = re.compile(
    rf"(?P<mark><->|->|[~&|\[\]()<>SD])|(?P<nat>[0-9]+)|(?P<atom>{_ATOM_PATTERN})|\s+|(?P<bad>.)"
)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "mark":
            tokens.append((m[0], None, m.start()))
        elif kind == "bad":
            message = "expected '->'" if m[0] == "-" else f"unexpected character {m[0]!r}"
            raise ParseError(message, m.start())
        elif kind is not None:
            tokens.append((kind, m[0], m.start()))
    tokens.append(("end", None, len(text)))
    return tokens


# binary token -> (node, precedence level); higher binds tighter, and the two
# loosest levels associate to the right
_INFIX = {"<->": (Iff, 1), "->": (Implies, 2), "|": (Or, 3), "&": (And, 4)}
_PREFIX = {"~": Not, "S": Some, "D": Dist, "[": Box, "<": Diamond}


def parse(text: str, n: int, *, extended: bool = True) -> Formula:
    """Parse concrete syntax into a Formula; agent indices are checked against n.

    With extended=False the S and D operators are rejected.  Precedence
    climbing over explicit stacks, so nesting depth is bounded by memory
    only: ops holds pending "(" marks, infix tokens and (node, agent)
    prefixes, and lefts the left operand of each pending infix token.
    """
    if n < 1:
        raise ValueError("agent count n must be at least 1")
    take = iter(_tokenize(text)).__next__

    def expect(kind: str) -> object:
        tok = take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok[1]

    ops: list = []
    lefts: list = []
    while True:
        kind, value, pos = take()
        if kind in _PREFIX:
            if kind in ("S", "D") and not extended:
                raise ParseError(f"operator {kind} is not enabled", pos)
            agent = None
            if kind in ("[", "<"):
                # more digits than n: out of range, and never converted to int
                digits = expect("nat").lstrip("0") or "0"
                if len(digits) > len(str(n)) or not 1 <= int(digits) <= n:
                    raise AgentIndexError(f"agent index {digits} out of range 1..{n}")
                agent = int(digits)
                expect("]" if kind == "[" else ">")
            ops.append((_PREFIX[kind], agent))
            continue
        if kind == "(":
            ops.append(kind)
            continue
        if kind != "atom":
            raise ParseError(f"unexpected {kind!r}", pos)
        f: Formula = Atom(value)
        # f is a whole operand: apply its prefixes, then close groups until an
        # infix token follows
        while True:
            while ops and type(ops[-1]) is tuple:
                node, agent = ops.pop()
                f = node(f) if agent is None else node(agent, f)
            kind, _, pos = take()
            if kind in _INFIX:
                break
            while ops and ops[-1] != "(":
                f = _INFIX[ops.pop()][0](lefts.pop(), f)
            if not ops:
                if kind != "end":
                    raise ParseError(f"expected 'end', found {kind!r}", pos)
                return f
            if kind != ")":
                raise ParseError(f"expected ')', found {kind!r}", pos)
            ops.pop()
        level = _INFIX[kind][1]
        while ops and ops[-1] in _INFIX:
            top = _INFIX[ops[-1]][1]
            if top < level or top == level <= 2:
                break
            f = _INFIX[ops.pop()][0](lefts.pop(), f)
        ops.append(kind)
        lefts.append(f)


_INFIX_TEXT = {node: (f" {token} ", level) for token, (node, level) in _INFIX.items()}
_PREFIX_TEXT = {Not: "~", Some: "S ", Dist: "D ", Box: "[{}]", Diamond: "<{}>"}


def pretty(f: Formula) -> str:
    """Render f with minimal parentheses so that parse(pretty(f), n) == f.

    An explicit stack of pending texts and (formula, least precedence level
    that needs no parentheses) pairs, appended to one list.  Only infix
    nodes ever need parentheses: prefixes bind at level 5, atoms at 6.
    """
    out: list = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, min_level = item
        kind = type(g)
        if kind is Atom:
            out.append(g.name)
        elif kind in _PREFIX_TEXT:
            out.append(_PREFIX_TEXT[kind].format(getattr(g, "agent", None)))
            stack.append((g.child, 5))
        elif kind in _INFIX_TEXT:
            text, level = _INFIX_TEXT[kind]
            # -> and <-> group to the right, & and | to the left
            left, right = (level + 1, level) if level <= 2 else (level, level + 1)
            body = [(g.left, left), text, (g.right, right)]
            stack.extend(reversed(["(", *body, ")"] if level < min_level else body))
        else:
            raise TypeError(f"not a formula node: {g!r}")
    return "".join(out)


def children(f: Formula) -> tuple[Formula, ...]:
    """Immediate subformulas of f."""
    if isinstance(f, Atom):
        return ()
    if isinstance(f, (Not, Some, Dist, Box, Diamond)):
        return (f.child,)
    if isinstance(f, (And, Or, Implies, Iff)):
        return (f.left, f.right)
    raise TypeError(f"not a formula node: {f!r}")


def _compile(f: Formula) -> list:
    """f as a hash-consed DAG (see _compile_all), root last."""
    return _compile_all((f,))[0]


def _compile_all(roots: Iterable[Formula]) -> tuple:
    """The formulas of roots as one hash-consed DAG of (kind, arg, child ids,
    formula) nodes, children before parents, and each root's node id.  kind
    is the node class, arg the atom name or the agent index (else None), and
    formula the first subformula of that shape met.  Nodes are keyed by kind,
    arg and child ids, so equal subformulas share one id without hashing
    formula trees.  Every structural helper below reads such a list; none
    recurses."""
    roots = tuple(roots)  # keeps every formula object, and so its id(), alive
    nodes: list = []
    ids: dict = {}
    done: dict = {}  # id() of a formula object -> its node id
    stack = [(f, False) for f in reversed(roots)]
    while stack:
        g, ready = stack.pop()
        if id(g) in done:
            continue
        kids = children(g)
        if not ready:
            stack.append((g, True))
            stack.extend((c, False) for c in reversed(kids))
            continue
        kind = type(g)
        arg = g.name if kind is Atom else g.agent if kind in (Box, Diamond) else None
        key = (kind, arg, tuple(done[id(c)] for c in kids))
        node = ids.get(key)
        if node is None:
            node = ids[key] = len(nodes)
            nodes.append((*key, g))
        done[id(g)] = node
    return nodes, [done[id(f)] for f in roots]


def _preorder(nodes: list) -> list:
    """Node ids in first-visit preorder from the root, left child first."""
    seen = [False] * len(nodes)
    order = []
    stack = [len(nodes) - 1]
    while stack:
        k = stack.pop()
        if not seen[k]:
            seen[k] = True
            order.append(k)
            stack.extend(reversed(nodes[k][2]))
    return order


def _s_free(nodes: list, what: str) -> list:
    if any(kind is Some for kind, *_ in nodes):
        raise ValueError(f"formula contains S; expand_s before taking {what}")
    return nodes


def expand_s(f: Formula, n: int) -> Formula:
    """Replace every S g by the disjunction of <i>g over agents i = 1..n."""
    if n < 1:
        raise ValueError("agent count n must be at least 1")
    out: list = []
    for kind, arg, kids, g in _compile(f):
        args = [out[k] for k in kids]
        if kind is Some:
            g = functools.reduce(Or, [Diamond(i, args[0]) for i in range(1, n + 1)])
        elif kind is not Atom:
            g = kind(arg, *args) if kind in (Box, Diamond) else kind(*args)
        out.append(g)
    return out[-1]


def subformulas(f: Formula) -> tuple[Formula, ...]:
    """All distinct subformulas of f, in first-visit preorder."""
    nodes = _compile(f)
    return tuple(nodes[k][3] for k in _preorder(nodes))


def negation(f: Formula) -> Formula:
    """The negation of f, collapsing a leading Not instead of stacking two."""
    if isinstance(f, Not):
        return f.child
    return Not(f)


def subformula_closure(f: Formula) -> tuple[Formula, ...]:
    """Subformulas of f together with their negations, deduplicated.

    The formula must be S-free (expand first).  At most one leading Not is
    added, so the closure has at most 2 * formula_size(f) members.  A
    non-Not subformula's negation is already a member iff some Not node has
    it as its child.
    """
    return _closure(_s_free(_compile(f), "the closure"))


def _closure(nodes: list) -> tuple:
    """subformula_closure of an already compiled formula."""
    negated = {kids[0] for kind, _, kids, _ in nodes if kind is Not}
    order = _preorder(nodes)
    return tuple([nodes[k][3] for k in order] + [
        Not(nodes[k][3]) for k in order if nodes[k][0] is not Not and k not in negated
    ])


def formula_size(f: Formula) -> int:
    """Number of distinct subformulas of f (f must be S-free)."""
    return len(_s_free(_compile(f), "sizes"))


def atoms(f: Formula) -> tuple[str, ...]:
    """Sorted names of the atoms occurring in f."""
    return tuple(sorted({arg for kind, arg, *_ in _compile(f) if kind is Atom}))


def has_node(f: Formula, node_type: type) -> bool:
    """True iff some subformula of f is of the given node type."""
    return any(issubclass(kind, node_type) for kind, *_ in _compile(f))


def modal_depth(f: Formula) -> int:
    """Maximum nesting of modal operators (box, diamond, S, D)."""
    depth: list = []
    for kind, _, kids, _ in _compile(f):
        inner = max((depth[k] for k in kids), default=0)
        depth.append(inner + (kind in (Box, Diamond, Some, Dist)))
    return depth[-1]


def is_i_local(f: Formula, i: int) -> bool:
    """True iff f is a boolean combination of formulas rooted at [i] or <i>."""
    local: list = []
    for kind, arg, kids, _ in _compile(f):
        if kind in (Box, Diamond):
            local.append(arg == i)
        else:
            local.append(kind in (Not, And, Or, Implies, Iff) and all(local[k] for k in kids))
    return local[-1]


def wd_instance(local_parts: Sequence[Formula]) -> Formula:
    """Build (S f1 & ... & S fn) -> S S (f1 & ... & fn), S left unexpanded.

    local_parts[i-1] must be i-local; otherwise LocalityError names the index.
    """
    if not local_parts:
        raise ValueError("need at least one local formula")
    for idx, g in enumerate(local_parts, start=1):
        if not is_i_local(g, idx):
            raise LocalityError(f"argument {idx} is not {idx}-local: {pretty(g)}")
    antecedent = functools.reduce(And, [Some(g) for g in local_parts])
    consequent = Some(Some(functools.reduce(And, local_parts)))
    return Implies(antecedent, consequent)
