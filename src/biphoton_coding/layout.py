"""Multi-channel placement of photon pairs on signal/idler frequency bins.

A placement assigns each pair (channel r, slot m) a cell (k, k') of the
integer signal-bin x idler-bin grid.  Decoding multiplies bin masks on the
two axes, so the per-pair decode weight factorizes as
H^d(pair) = H^d_s(k) * H^d_i(k'); arbitrary per-channel codewords are
realizable exactly when the bipartite pair-placement graph is a forest.
The staircase arrangement packs channels onto adjacent anti-diagonals so
the whole graph is one tree, leaving a single redundant decoder degree of
freedom while keeping the occupied frequency extent minimal.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CycleDetected, ValidityWarning
from .spectra import PairShift, require_grid_memory

_INT_LIMIT = 2 ** 63 - 1
# bytes that one pair holds in a staircase and its validate: the
# placement entry, two adjacency entries, the edge and the walk record.
# The tracemalloc peak read at most 1,383 B a pair (r = 1, 682 pairs up;
# 983 B at r = 2, less at larger r)
_PAIR_BYTES = 1536


@dataclass(frozen=True)
class ChannelLayout:
    """R channels of M pairs placed on integer frequency bins.

    placement maps (r, m), both 1-based, to a cell (signal_bin, idler_bin)
    of bins bin_width apart (units of gamma); pair_shift gives a pair's
    physical shifts, so one anti-diagonal is one sum-frequency ridge.
    """

    r: int
    m: int
    placement: dict
    bin_width: float = 100.0

    def __post_init__(self):
        if self.r < 1 or self.m < 1:
            raise ValueError("need at least one channel and one pair")
        # dict keys never repeat: the right count, all in range, is the slots
        if len(self.placement) != self.r * self.m or not all(
                1 <= c <= self.r and 1 <= s <= self.m
                for c, s in self.placement):
            raise ValueError("placement keys must be the slots 1..r x 1..m")
        cells = list(self.placement.values())
        if len(set(cells)) != len(cells):
            raise ValueError("placement cells must be distinct")

    def pair_shift(self, r: int, m: int, weight: complex = 1.0) -> PairShift:
        """Physical shifts of the pair at cell (k, k'): the idler sits at
        k' * bin_width and the signal at k * bin_width."""
        k, kp = self.placement[(r, m)]
        return PairShift(weight=weight, delta_p=kp * self.bin_width,
                         delta_q=-(k + kp) * self.bin_width)


def staircase(r: int, m: int, bin_width: float = 100.0) -> ChannelLayout:
    """Dense diagonal-offset arrangement of R channels with M pairs each.

    Channels come in blocks of two sharing a signal-bin range; the two
    members of a block sit on adjacent anti-diagonals, and consecutive
    blocks chain through one shared idler bin.  The result is a spanning
    forest (a single tree for even R), so factorized decoding works with
    exactly one redundant degree of freedom per connected component.

    Raises GridTooLarge before the first pair is placed when the R*M pairs
    at 1,536 B each, what the layout and its validate hold, pass
    MAX_GRID_BYTES: the 256 MiB budget admits 174,762 pairs.
    """
    if m % 2 != 0:
        raise ValueError(f"pairs per channel must be even, got {m}")
    _require_dimension(r, m)
    require_grid_memory(r * m * _PAIR_BYTES // 16,
                        f"the {r * m}-pair staircase")
    placement = {}
    for c in range(1, r + 1):
        block = (c + 1) // 2
        anti = (block - 1) * 2 * m + ((c - 1) % 2)
        for slot in range(1, m + 1):
            k = (block - 1) * m + slot
            placement[(c, slot)] = (k, anti - k)
    return ChannelLayout(r=r, m=m, placement=placement, bin_width=bin_width)


def _graph(layout: ChannelLayout):
    """Bipartite adjacency: nodes ('s', k) and ('i', k'), one edge per pair."""
    adj = {}
    edges = []
    for (r, m), (k, kp) in sorted(layout.placement.items()):
        u, v = ("s", k), ("i", kp)
        adj.setdefault(u, []).append((v, (r, m)))
        adj.setdefault(v, []).append((u, (r, m)))
        edges.append((u, v, (r, m)))
    return adj, edges


def _ancestry(parent, node):
    path = [node]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def _walk(adj, starts):
    """One DFS over each component that holds a node of `starts`, begun
    at the first such node: per component, the visit order as (node,
    parent, pair) triples (the root's parent and pair are None).  Raises
    CycleDetected at the first cycle found."""
    seen = set()
    components = []
    for start in starts:
        if start in seen:
            continue
        order = []
        stack = [(start, None)]
        parent = {start: None}
        while stack:
            node, via = stack.pop()
            seen.add(node)
            order.append((node, parent[node], via))
            for nxt, pair in adj[node]:
                if pair == via:
                    continue   # don't reuse the edge we arrived on
                if nxt in seen:
                    # tree paths from both endpoints meet at a common
                    # ancestor; their union plus this edge is the cycle
                    pa = _ancestry(parent, node)
                    pb = _ancestry(parent, nxt)
                    index_a = {n: i for i, n in enumerate(pa)}
                    j = next(i for i, n in enumerate(pb) if n in index_a)
                    cycle = pa[:index_a[pb[j]]] + list(reversed(pb[:j + 1]))
                    raise CycleDetected(
                        "placement contains a cycle; decode weights cannot "
                        "factorize: "
                        + " - ".join(f"{axis}{k}" for axis, k in cycle),
                        cycle=cycle)
                if nxt not in parent:
                    parent[nxt] = node
                    stack.append((nxt, pair))
        components.append(order)
    return components


def validate(layout: ChannelLayout, tau: float | None = None) -> dict:
    """Check decodability of a layout and count leftover decoder freedom.

    Each placed pair imposes one multiplicative constraint
    H^d_s(k) * H^d_i(k') = H^d(pair); the log-linearized system is solvable
    for arbitrary nonzero targets exactly when the placement graph has no
    cycle.  Returns {"valid": True, "dof": nodes - edges, "components":
    per-component counts}; raises CycleDetected otherwise.

    With tau given, warns when two distinct pair_shift delta_q of the
    placed pairs lie closer than 20/tau (their ridges then overlap
    spectrally); a shift past the float range raises ValueError.
    """
    adj, edges = _graph(layout)
    components = _walk(adj, adj)

    # forest: dof = one free gauge per connected component
    n_nodes = len(adj)
    n_edges = len(edges)
    dof = n_nodes - n_edges

    shifts = [] if tau is None else sorted(
        {layout.pair_shift(*slot).delta_q for slot in layout.placement})
    if len(shifts) > 1:
        gap = min(b - a for a, b in zip(shifts, shifts[1:]))
        if gap < 20.0 / tau:
            warnings.warn(
                f"pair-shift spacing {gap:.4g} below 20/tau = "
                f"{20.0 / tau:.4g}; ridges will crosstalk", ValidityWarning)

    return {"valid": True, "dof": dof, "nodes": n_nodes, "edges": n_edges,
            "components": len(components)}


def _require_dimension(r: int, m: int):
    # m >= 2 makes m**r at least 2**r, so a large r is refused without
    # computing the power
    if m > 1 and (r >= _INT_LIMIT.bit_length() or m ** r > _INT_LIMIT):
        raise ValueError(f"{m}**{r} exceeds the representable range")


def dimension(layout: ChannelLayout) -> int:
    """Code-space dimension M**R (one of M codewords per channel)."""
    _require_dimension(layout.r, layout.m)
    return layout.m ** layout.r


def factor_decode(layout: ChannelLayout, per_channel_codewords):
    """Split per-pair decode weights into signal-bin and idler-bin factors.

    per_channel_codewords is an (R, M) array whose (r, m) entry is the
    required product H^d_s(k) * H^d_i(k') for that pair's cell.  Zero
    targets are representable only on leaf edges, by zeroing the leaf
    endpoint (the idler end of a bare edge); anywhere else they would
    force whole subtrees to zero.  The gauge fixes one node per connected
    component to 1: its smallest signal bin that is not a zero leaf,
    matching the single-channel convention H^d_s = 1, or its idler hub
    when zeros take every signal bin.  One walk over the forest then sets
    each other node to target / parent.  Raises CycleDetected before any
    zero is judged, and ValueError naming a pair whose zero has no leaf
    end.

    Returns (signal_weights, idler_weights) as {bin: complex} dicts.
    """
    targets = np.asarray(per_channel_codewords, dtype=complex)
    if targets.shape != (layout.r, layout.m):
        raise ValueError(
            f"expected codeword array of shape {(layout.r, layout.m)}, "
            f"got {targets.shape}")
    adj, edges = _graph(layout)
    target_of = {(r, m): targets[r - 1, m - 1] for (r, m) in layout.placement}

    values, shared = {}, []
    # a zero target lands on the edge's leaf end, the idler end of a bare
    # edge; a zero on an edge with no leaf is refused after the walk
    for u, v, pair in edges:
        if target_of[pair] == 0:
            leaf = v if len(adj[v]) == 1 else u
            if len(adj[leaf]) == 1:
                values[leaf] = 0.0
            else:
                shared.append(pair)

    # signal bins first, so each component's root is its gauge node
    starts = sorted((n for n in adj if n not in values),
                    key=lambda n: (n[0] != "s", n[1]))
    components = _walk(adj, starts)
    if shared:
        raise ValueError(
            f"pair {shared[0]} requests decode 0 on a shared cell "
            f"{layout.placement[shared[0]]}; zeros need a private bin")
    for node, parent, pair in itertools.chain(*components):
        if parent is None:
            values[node] = 1.0
        elif target_of[pair] != 0:    # a zero edge's child is its zero leaf
            values[node] = target_of[pair] / values[parent]

    for u, v, pair in edges:
        resid = values[u] * values[v] - target_of[pair]
        if abs(resid) > 1e-12 * max(1.0, abs(target_of[pair])):
            raise ValueError(
                f"factorization residual {abs(resid):.3e} on pair {pair}")

    signal = {k: x for (axis, k), x in values.items() if axis == "s"}
    idler = {k: x for (axis, k), x in values.items() if axis == "i"}
    return signal, idler
