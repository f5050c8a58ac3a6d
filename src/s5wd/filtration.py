"""Filtration of equivalence models through a subformula closure.

Collapsing a model to the truth signatures of a finite closure set yields a
quotient of at most 2^size worlds that agrees with the source on every
closure member, which is what makes bounded countermodel search complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .formula import Atom, Box, Diamond, Dist, Formula, Some, _closure, _compile
from .kripke import (
    Model,
    MorphismReport,
    WorldMap,
    _extensions,
    _group_by,
    _lowest,
    _mask,
    check_equivalence,
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


def _signatures(m: Model, closure: Sequence[Formula]) -> dict:
    """Each world of m -> its truth of each closure member, "0" or "1"."""
    worlds = frame_of(m).worlds
    rows = [format(x, f"0{len(worlds)}b")[::-1] for x in _extensions(m, closure)]
    return {t[0]: t[1:] for t in zip(worlds, *rows)}


def world_equivalence(m: Model, closure: Sequence[Formula]) -> list:
    """Partition of m's worlds by agreement on every member of closure,
    ordered by first occurrence; each block keeps world order."""
    sig = _signatures(m, closure)
    return [list(block) for block in _group_by(frame_of(m).worlds, sig.__getitem__)]


def filtrate(m: Model, f: Formula) -> Filtration:
    """Quotient m through the subformula closure of f.

    Classes are related by agent i when they agree on the truth of every
    box/diamond formula of agent i in the closure; the valuation keeps only
    the atoms of f.  Requires an equivalence model and an S-free, D-free
    formula; only these are checked, since the quotient is suitable by
    construction (check_suitable re-checks it on request).  Containment:
    R_i-related worlds agree on every [i]/<i> member, R_i being an
    equivalence, so their classes are related.  Transfer: related classes
    agree on those members, and reflexivity makes [i]g give g, g give <i>g.
    """
    fr = frame_of(m)
    if not check_equivalence(fr):
        raise ValueError("filtration requires an equivalence model")
    nodes = _compile(f)
    kinds = {kind for kind, *_ in nodes}
    if Some in kinds:
        raise ValueError("S must be expanded before filtration")
    if Dist in kinds:
        raise ValueError("the D operator is not supported by filtration")
    closure = _closure(nodes)
    sig = _signatures(m, closure)
    classes = _group_by(fr.worlds, sig.__getitem__)
    rep_of = {w: block[0] for block in classes for w in block}
    reps = [block[0] for block in classes]
    # per agent, the positions of its box and diamond members in the closure
    modal = [
        [j for j, g in enumerate(closure) if isinstance(g, (Box, Diamond)) and g.agent == i]
        for i in fr.agents
    ]
    keep = {arg for kind, arg, *_ in nodes if kind is Atom}
    quotient = Model(
        frame_from_labels(fr.n, reps, lambda i, r: tuple(sig[r][j] for j in modal[i - 1])),
        {r: tuple(a for a in m.atoms_at(r) if a in keep) for r in reps},
    )
    return Filtration(m, closure, quotient, WorldMap(fr, quotient.frame, rep_of))


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
            masks[s] = _mask(fr._index, s)
        bad = masks[s] & ~related[k]
        if bad:
            return MorphismReport(False, "containment", (i, w, worlds[_lowest(bad)]))
    boxes = [g for g in fil.closure if isinstance(g, (Box, Diamond)) and g.agent == i]
    truths = _extensions(m, [h for g in boxes for h in (g, g.child)])
    # a true box breaks at related worlds where its body is false, a false
    # diamond at related worlds where its body is true
    modal = [
        (~outer, inner) if isinstance(g, Diamond) else (outer, ~inner)
        for g, outer, inner in zip(boxes, truths[::2], truths[1::2])
    ]
    for k, w1 in enumerate(worlds):
        # the lowest failing world first, then the first member failing there
        fails = [
            (_lowest(bad), j)
            for j, (when, breaks) in enumerate(modal)
            if when >> k & 1 and (bad := related[k] & breaks)
        ]
        if fails:
            w2, j = min(fails)
            return MorphismReport(False, "transfer", (i, w1, worlds[w2], boxes[j]))
    return MorphismReport(True)
