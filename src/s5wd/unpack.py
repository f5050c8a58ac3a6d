"""Unpacking: build an EDI frame with a p-morphism onto a given frame.

Worlds sharing every agent's equivalence class form a cluster.  Each cluster
c is blown up into |X|^n copies indexed by coordinate tuples, related so that
the intersection of all relations becomes the identity, and mapped back onto
c by a surjection that can hit every member of c with any one coordinate
pinned.  Directedness is preserved, so an ED input yields an EDI output.

Only the input is checked (equivalence and weak directedness); the map is a
p-morphism by construction, and kripke.check_p_morphism re-checks it on request.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .kripke import (
    Frame,
    WorldMap,
    _group_by,
    check_equivalence,
    check_wd,
    frame_from_labels,
)


@dataclass(frozen=True)
class ClusterDecomposition:
    """Partition of an equivalence frame by the intersection of all relations."""

    frame: Frame
    clusters: tuple

    def cluster_of(self, w) -> tuple:
        for members in self.clusters:
            if w in members:
                return members
        raise ValueError(f"unknown world {w!r}")


def cluster_decomposition(fr: Frame) -> ClusterDecomposition:
    """Clusters of fr, ordered by first world; I frames give singletons."""
    if not check_equivalence(fr):
        raise ValueError("frame is not an equivalence frame")
    return ClusterDecomposition(fr, _group_by(fr.worlds, fr.isucc))


def coordinate_surjection(k: int, m: int, x_size: int) -> dict:
    """Table for p: {0..x_size-1}^m -> {0..k-1}, p(x) = (sum x_i) mod k.

    Pinning any single coordinate leaves every output value reachable via the
    remaining coordinates, which is the property the unpacking needs.  That
    is impossible when m = 1 and k > 1 (there are no remaining coordinates),
    so that case is rejected.
    """
    if k < 1:
        raise ValueError("cluster size k must be at least 1")
    if m < 1:
        raise ValueError("coordinate count m must be at least 1")
    if x_size < k:
        raise ValueError(f"x_size {x_size} is smaller than the cluster size {k}")
    if m == 1 and k > 1:
        raise ValueError(
            "no single-coordinate function can reach every target with its "
            "coordinate pinned; need m >= 2 when k > 1"
        )
    return {
        x: sum(x) % k for x in itertools.product(range(x_size), repeat=m)
    }


def unpack_to_edi(fr: Frame, x_size: Optional[int] = None) -> tuple:
    """EDI unpacking of an equivalence frame whose components are directed.

    Returns (unpacked frame, world map onto fr); the map is a surjective
    p-morphism by construction and is not re-checked.  Worlds are (cluster,
    coordinate tuple) pairs; two worlds are i-related iff their i-th
    coordinates agree and their clusters lie in the same R_i class.  x_size
    defaults to the largest cluster size and must not be smaller.
    """
    clusters = cluster_decomposition(fr).clusters
    if not check_wd(fr):
        raise ValueError("frame is not weakly directed")
    max_cluster = max(len(c) for c in clusters)
    if x_size is None:
        x_size = max_cluster
    if x_size < max_cluster:
        raise ValueError(
            f"x_size {x_size} is smaller than the largest cluster ({max_cluster})"
        )
    n = fr.n
    coords = list(itertools.product(range(x_size), repeat=n))
    worlds = [(c, x) for c in clusters for x in coords]
    # a cluster's R_i class is the class of its first member
    unpacked = frame_from_labels(
        n, worlds, lambda i, w: (fr.succ(i, w[0][0]), w[1][i - 1])
    )

    mapping = {}
    tables = {len(c): coordinate_surjection(len(c), n, x_size) for c in clusters}
    for c, x in worlds:
        mapping[(c, x)] = c[tables[len(c)][x]]
    return unpacked, WorldMap(unpacked, fr, mapping)
