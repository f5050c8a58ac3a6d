"""Bounded decision procedure over finite equivalence models.

Satisfiability is searched over connected frames of a requested class (e, ed,
ewd, edi) up to a world bound, enumerating one frame per isomorphism class
and all valuations of the formula's atoms.  An exhausted search claims
unsatisfiability only when the bound provably covers the finite-model
property for the class; otherwise the verdict is an honest unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .formula import (
    Box,
    Diamond,
    Dist,
    Formula,
    Not,
    _compile,
    _preorder,
    expand_s,
    formula_size,
    parse,
)
from .kripke import (
    MAX_AGENTS,
    AgentIndexError,
    BudgetError,
    Frame,
    Model,
    _Tables,
    _countermodel,
    _group_by,
    check_d,
    check_equivalence,
    check_i,
    check_wd,
    is_connected,
)

CLASS_NAMES = ("e", "ed", "ewd", "edi")

_CLASS_PREDICATES = {
    "e": (),
    "ed": (check_d,),
    "ewd": (check_wd,),
    "edi": (check_d, check_i),
}


def frame_in_class(fr: Frame, klass: str) -> bool:
    """True iff fr is an equivalence frame with the class's extra properties."""
    if klass not in CLASS_NAMES:
        raise ValueError(f"unknown frame class {klass!r}; expected one of {CLASS_NAMES}")
    if not check_equivalence(fr):
        return False
    return all(pred(fr) for pred in _CLASS_PREDICATES[klass])


@dataclass(frozen=True)
class Verdict:
    """Outcome of a bounded decision.

    kind is one of "satisfiable", "unsatisfiable", "valid", "countermodel",
    "unknown".  Witness fields are set for "satisfiable" (world satisfies the
    query) and "countermodel" (world falsifies it); bound echoes the world
    bound the search ran with.
    """

    kind: str
    witness_model: Optional[Model] = None
    witness_world: object = None
    bound: int = 0

    @property
    def decided(self) -> bool:
        return self.kind != "unknown"


def _bell_numbers() -> Iterator[int]:
    """Bell(1), Bell(2), ...: the number of partitions of a k-set, one per
    row of the Bell triangle."""
    row = [1]
    while True:
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        yield row[0]


def _growth_strings(k: int) -> list:
    """Every partition of {0..k-1} as its restricted growth string (the block
    number of each element, blocks numbered by first element), in
    lexicographic order."""
    out = [()]
    for _ in range(k):
        out = [s + (b,) for s in out for b in range(max(s, default=-1) + 2)]
    return out


def _relabel_table(strings: list, index: dict, perm: list) -> list:
    """Index of the partition that moving element j to perm[j] makes of each."""
    table = []
    for s in strings:
        moved = [0] * len(s)
        for j, b in enumerate(s):
            moved[perm[j]] = b
        first: dict = {}
        table.append(index[tuple(first.setdefault(b, len(first)) for b in moved)])
    return table


def enumerate_frames(
    n: int,
    max_worlds: int,
    klass: str = "e",
    *,
    connected_only: bool = False,
    budget: int = 50_000,
) -> Iterator[Frame]:
    """One representative per isomorphism class of frames with <= max_worlds
    worlds in the given class, built from n-tuples of set partitions.

    For each world count k, the n-tuples of partitions of the k worlds are
    scanned in product order (agent 1 slowest, partitions in
    restricted-growth order).  Two tuples give isomorphic frames iff a
    relabelling of the worlds maps one to the other, and the class and
    connectivity tests are isomorphism invariant, so the representative is
    the first tuple of its orbit under relabelling.  Each orbit is marked in
    a bytearray when its first tuple is met, by a search over two
    relabellings that generate them all, the swap of w0 and w1 and the
    rotation w_j -> w_(j+1 mod k); only first tuples become frames.

    Raises BudgetError when the raw partition-tuple count exceeds budget,
    at the first world count whose running total does, before any scan.
    """
    if klass not in CLASS_NAMES:
        raise ValueError(f"unknown frame class {klass!r}; expected one of {CLASS_NAMES}")
    if n < 1 or max_worlds < 1:
        raise ValueError("need n >= 1 and max_worlds >= 1")
    if n > MAX_AGENTS:
        raise ValueError(f"agent count n must be at most {MAX_AGENTS}")
    total = 0
    for k, bell in zip(range(1, max_worlds + 1), _bell_numbers()):
        total += bell**n
        if total > budget:
            raise BudgetError(
                f"enumeration would scan more than {budget} partition tuples at world "
                f"count {k}; raise --frame-budget (frame_budget=) or lower --max-worlds"
            )
    for k in range(1, max_worlds + 1):
        worlds = tuple(f"w{j}" for j in range(k))
        strings = _growth_strings(k)
        count = len(strings)
        index = {s: idx for idx, s in enumerate(strings)}
        perms = [[1, 0] + list(range(2, k)), [(j + 1) % k for j in range(k)]] if k > 1 else []
        # tuple code: partition indices as base-Bell(k) digits, agent 1 first;
        # a relabelling maps (hi, lo) = divmod(code, top) to head[hi] + rest[lo]
        top = count ** (n - 1)
        steps = []
        for table in (_relabel_table(strings, index, perm) for perm in perms):
            rest = [0]
            for _ in range(n - 1):
                rest = [r * count + t for r in rest for t in table]
            steps.append(([d * top for d in table], rest))
        places = [count ** (n - 1 - a) for a in range(n)]
        succ: dict = {}  # partition index -> world -> its block, built on first use
        marked = bytearray(count**n)
        code = -1
        while (code := marked.find(0, code + 1)) >= 0:  # the next orbit's first tuple
            marked[code] = 1
            stack = [code]
            while stack:
                hi, lo = divmod(stack.pop(), top)
                for head, rest in steps:
                    image = head[hi] + rest[lo]
                    if not marked[image]:
                        marked[image] = 1
                        stack.append(image)
            digits = [code // place % count for place in places]
            for d in digits:
                if d not in succ:
                    succ[d] = {}
                    for block in _group_by(worlds, dict(zip(worlds, strings[d])).__getitem__):
                        succ[d].update(dict.fromkeys(block, frozenset(block)))
            fr = Frame(n, worlds, _Tables(tuple(map(succ.__getitem__, digits)), True))
            if not frame_in_class(fr, klass):
                continue
            if connected_only and not is_connected(fr):
                continue
            yield fr


def _may_claim_unsat(f: Formula, n: int, nodes: list, klass: str, max_worlds: int) -> bool:
    """True iff an exhausted search of klass up to max_worlds proves f
    unsatisfiable; nodes is the compiled ~f.

    A model of f has a connected one, its generated submodel at the witness.
    Filtrating that through the closure of f (leading Nots dropped, S
    expanded) gives a connected model of f with at most 2^size worlds.  For
    e the quotient is an equivalence model.  For ed it is D as well: a join
    w of w_1..w_n agrees with each w_i on agent i's modal members, so the
    class of w joins their classes.  For ewd the argument goes through ed,
    since a connected WD model is D.  The tuple (w, .., w) has the join w;
    and if v joins a tuple and its member w_j moves one step to u, WD at
    w_j joins u under R_j with v under every other R_i, which joins the new
    tuple.  So the quotient is D, hence WD.  Filtrating a WD model that is
    not connected would not do, since its quotient need not be WD.  The
    argument does not cover the D operator, and filtration does not
    preserve I, so neither allows the claim.
    """
    if klass == "edi" or any(kind is Dist for kind, *_ in nodes):
        return False
    while isinstance(f, Not):
        f = f.child
    return max_worlds >= 2 ** formula_size(expand_s(f, n))


def decide_satisfiability(
    f: Formula,
    n: int,
    max_worlds: int,
    *,
    klass: str = "ed",
    max_assignments: int = 2**20,
    frame_budget: int = 50_000,
) -> Verdict:
    """Search models of the class up to max_worlds worlds for a witness of f.

    Returns kind "satisfiable" with the first witness in canonical order,
    "unsatisfiable" when the exhausted bound covers the finite-model
    property, else "unknown".
    """
    for name, bound in (("max_worlds", max_worlds), ("frame_budget", frame_budget),
                        ("max_assignments", max_assignments)):
        if bound < 1:
            raise ValueError(f"{name} must be at least 1")
    target = _compile(Not(f))
    for kind, agent, *_ in map(target.__getitem__, _preorder(target)):
        if kind in (Box, Diamond) and not 1 <= agent <= n:
            raise AgentIndexError(f"agent index {agent} out of range 1..{n}")
    for fr in enumerate_frames(
        n, max_worlds, klass, connected_only=True, budget=frame_budget
    ):
        found = _countermodel(fr, target, max_assignments)
        if found is not None:
            model, world = found
            return Verdict("satisfiable", model, world, max_worlds)
    if _may_claim_unsat(f, n, target, klass, max_worlds):
        return Verdict("unsatisfiable", bound=max_worlds)
    return Verdict("unknown", bound=max_worlds)


def decide_validity(
    f: Formula,
    n: int,
    max_worlds: int,
    *,
    klass: str = "ed",
    max_assignments: int = 2**20,
    frame_budget: int = 50_000,
) -> Verdict:
    """Dual search: a model of ~f is a countermodel of f; none within a
    FMP-covering bound means f is valid on the class."""
    verdict = decide_satisfiability(
        Not(f),
        n,
        max_worlds,
        klass=klass,
        max_assignments=max_assignments,
        frame_budget=frame_budget,
    )
    if verdict.kind == "satisfiable":
        return Verdict(
            "countermodel", verdict.witness_model, verdict.witness_world, verdict.bound
        )
    if verdict.kind == "unsatisfiable":
        return Verdict("valid", bound=verdict.bound)
    return verdict


def catach_instance() -> Formula:
    """The two-agent interchange axiom <1>[2]p -> [2]<1>p."""
    return parse("<1>[2]p -> [2]<1>p", 2)
