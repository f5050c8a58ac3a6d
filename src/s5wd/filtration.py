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
    """
    m = fil.source
    fr = frame_of(m)
    fr._check_agent(i)
    proj = fil.projection
    related = fil.quotient.frame.relations[i - 1]
    for w in fr.worlds:
        succ = fr.succ(i, w)
        # scan in world order so failure witnesses are deterministic
        for u in fr.worlds:
            if u in succ and (proj(w), proj(u)) not in related:
                return MorphismReport(False, "containment", (i, w, u))
    modal = [
        (g, extension(m, g), extension(m, g.child))
        for g in fil.closure
        if isinstance(g, (Box, Diamond)) and g.agent == i
    ]
    for w1 in fr.worlds:
        for w2 in fr.worlds:
            if (proj(w1), proj(w2)) not in related:
                continue
            for g, outer, inner in modal:
                if isinstance(g, Box) and w1 in outer and w2 not in inner:
                    return MorphismReport(False, "transfer", (i, w1, w2, g))
                if isinstance(g, Diamond) and w2 in inner and w1 not in outer:
                    return MorphismReport(False, "transfer", (i, w1, w2, g))
    return MorphismReport(True)
