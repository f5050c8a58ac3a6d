"""Filtration of equivalence models through a subformula closure.

Collapsing a model to the truth signatures of a finite closure set yields a
quotient of at most 2^size worlds that agrees with the source on every
closure member, which is what makes bounded countermodel search complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .formula import (
    Box,
    Diamond,
    Dist,
    Formula,
    Some,
    atoms,
    has_node,
    subformula_closure,
)
from .kripke import (
    Model,
    MorphismReport,
    WorldMap,
    _lowest,
    _mask,
    check_equivalence,
    extension,
    frame_from_labels,
    frame_of,
)


@dataclass(frozen=True)
class Filtration:
    """A source model, the closure it was filtrated through, the quotient
    model (worlds are class representatives), and the projection map."""

    source: Model
    closure: tuple
    quotient: Model
    projection: WorldMap


def world_equivalence(m: Model, closure: Sequence[Formula]) -> list:
    """Partition of m's worlds by agreement on every member of closure,
    ordered by first occurrence; each block keeps world order."""
    members = tuple(closure)
    truths = [extension(m, g) for g in members]
    groups: dict = {}
    for w in frame_of(m).worlds:
        sig = tuple(w in t for t in truths)
        groups.setdefault(sig, []).append(w)
    return list(groups.values())


def _modal_signature(closure, truths, i, w):
    return tuple(
        w in truths[k]
        for k, g in enumerate(closure)
        if isinstance(g, (Box, Diamond)) and g.agent == i
    )


def filtrate(m: Model, f: Formula) -> Filtration:
    """Quotient m through the subformula closure of f.

    Classes are related by agent i when they agree on the truth of every
    box/diamond formula of agent i in the closure; the valuation keeps only
    the atoms of f.  Requires an equivalence model and an S-free, D-free
    formula.
    """
    fr = frame_of(m)
    if not check_equivalence(fr):
        raise ValueError("filtration requires an equivalence model")
    if has_node(f, Some):
        raise ValueError("S must be expanded before filtration")
    if has_node(f, Dist):
        raise ValueError("the D operator is not supported by filtration")
    closure = subformula_closure(f)
    truths = [extension(m, g) for g in closure]

    classes = world_equivalence(m, closure)
    rep_of = {}
    for block in classes:
        for w in block:
            rep_of[w] = block[0]
    reps = [block[0] for block in classes]

    keep = set(atoms(f))
    quotient = Model(
        frame_from_labels(
            fr.n, reps, lambda i, r: _modal_signature(closure, truths, i, r)
        ),
        {r: tuple(a for a in m.atoms_at(r) if a in keep) for r in reps},
    )
    fil = Filtration(
        source=m,
        closure=closure,
        quotient=quotient,
        projection=WorldMap(fr, quotient.frame, rep_of),
    )
    for i in fr.agents:
        report = check_suitable(fil, i)
        if not report:
            raise RuntimeError(f"internal error: quotient not suitable: {report}")
    return fil


def check_suitable(fil: Filtration, i: int) -> MorphismReport:
    """Verify by exhaustion that the quotient relation for agent i is a
    suitable filtration relation.

    Containment: source-related worlds must project to related classes.
    Transfer: related classes must respect the modal closure members, i.e.
    truth of a box at one class forces its body at the other, and truth of a
    body at one class forces the diamond at the other.

    Sets of source worlds are int masks, bit k standing for the k-th world,
    so each world is checked against all others at once.  The witness is the
    first failing pair in world order, the one a scan of all pairs finds.
    """
    m = fil.source
    fr = frame_of(m)
    fr._check_agent(i)
    index = fr._index
    worlds = fr.worlds
    table = fil.projection.as_dict()
    images = [table[w] for w in worlds]
    preimage: dict = {}
    for k, c in enumerate(images):
        preimage[c] = preimage.get(c, 0) | 1 << k
    qsucc = fil.quotient.frame._succ[i - 1]
    # related[k]: the worlds whose class is an agent-i successor of world k's;
    # equal successor sets are one object, so each is expanded once
    reach: dict = {}
    related = []
    for c in images:
        s = qsucc.get(c, frozenset())
        if s not in reach:
            reach[s] = sum(preimage.get(d, 0) for d in s)
        related.append(reach[s])
    succ = fr._succ[i - 1]
    masks: dict = {}
    for k, w in enumerate(worlds):
        s = succ[w]
        if s not in masks:
            masks[s] = _mask(index, s)
        bad = masks[s] & ~related[k]
        if bad:
            return MorphismReport(False, "containment", (i, w, worlds[_lowest(bad)]))
    modal = [
        (g, extension(m, g), _mask(index, extension(m, g.child)))
        for g in fil.closure
        if isinstance(g, (Box, Diamond)) and g.agent == i
    ]
    for k, w1 in enumerate(worlds):
        fails = []
        union = 0
        for g, outer, inner in modal:
            if w1 in outer:
                bad = related[k] & ~inner if isinstance(g, Box) else 0
            else:
                bad = related[k] & inner if isinstance(g, Diamond) else 0
            fails.append((g, bad))
            union |= bad
        if union:
            w2 = _lowest(union)
            g = next(g for g, bad in fails if bad >> w2 & 1)
            return MorphismReport(False, "transfer", (i, w1, worlds[w2], g))
    return MorphismReport(True)
