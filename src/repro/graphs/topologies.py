"""Graph topology generators used throughout the paper.

Every generator returns a connected, undirected
:class:`~repro.graphs.csr.CSRGraph` whose nodes are consecutive integers
``0 .. n-1``, built directly as CSR arrays (no networkx object is ever
formed; call :meth:`~repro.graphs.csr.CSRGraph.to_networkx` for networkx
algorithms).  The families cover everything the paper mentions explicitly:

* constant-maximum-degree graphs where uniform algebraic gossip is order
  optimal (Theorem 3): line, ring, 2-D grid, torus, binary tree, bounded-degree
  random regular graphs, hypercube-like constructions;
* the complete graph (Deb et al.'s original setting);
* the **barbell graph** — two cliques joined by a single edge — which is the
  worst case for uniform algebraic gossip (Ω(n²) rounds, Section 1.1) but has
  large weak conductance, so TAG + IS is fast on it (Section 6);
* generalisations used by the weak-conductance experiments: the dumbbell
  (cliques joined by a path) and the clique chain (``c`` cliques in a row);
* random graphs (Erdős–Rényi, random regular) for robustness experiments.

The random families replicate the sampling algorithms of networkx
(Batagelj–Brandes for ``G(n, p)``, Steger–Wormald pairing for random regular
graphs, Watts–Strogatz rewiring) against the same ``random.Random`` streams,
so a given ``(n, params, seed)`` yields the graph — and the scenario
fingerprint and result-store records — it always has.
``tests/test_csr_pipeline.py`` checks every family byte for byte against
the networkx builders the simulator used before.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import OrderedDict, defaultdict
from typing import Callable, Sequence, TypeVar

import numpy as np

from ..errors import TopologyError
from .csr import CSRGraph, csr_from_edges

#: Non-builder exports; every ``@register_topology``-decorated builder is
#: appended automatically, so ``__all__`` and :data:`TOPOLOGY_BUILDERS` can
#: never drift from the generators actually defined in this module.
__all__ = [
    "two_dimensional_side",
    "TOPOLOGY_BUILDERS",
    "register_topology",
    "build_topology",
]

#: Registry mapping a topology name to its builder.  Populated exclusively by
#: :func:`register_topology`; experiment definitions, scenario specs and
#: benchmark parameterisations refer to topologies by these names.
TOPOLOGY_BUILDERS: dict[str, Callable[..., CSRGraph]] = {}

_Builder = TypeVar("_Builder", bound=Callable[..., CSRGraph])


def register_topology(name: str) -> Callable[[_Builder], _Builder]:
    """Register a topology builder under ``name`` (and export it).

    Every generator in this module carries this decorator; it is also the
    extension point for user-defined families::

        @register_topology("my_mesh")
        def my_mesh_graph(n: int) -> CSRGraph: ...

    Builders must return a connected :class:`~repro.graphs.csr.CSRGraph`
    (``tests/test_graphs_topologies.py`` asserts this for every registered
    entry); a networkx graph converts with
    :meth:`~repro.graphs.csr.CSRGraph.from_networkx`.
    """

    def decorate(builder: _Builder) -> _Builder:
        if name in TOPOLOGY_BUILDERS:
            raise TopologyError(f"topology {name!r} is already registered")
        TOPOLOGY_BUILDERS[name] = builder
        if builder.__name__ not in __all__:
            __all__.append(builder.__name__)
        return builder

    return decorate


# Built graphs, keyed by value: ``(name, n, sorted kwargs)``.  Builders are
# deterministic functions of exactly these arguments and a CSRGraph is
# read-only, so equal keys share one instance — and with it the instance's
# memoized neighbour tuples and connectivity — across every materialisation
# of a sweep or campaign.  The capacity bound keeps large-n arrays from
# pinning memory across sweeps over many topologies.
_GRAPH_CACHE_CAPACITY = 8
_GRAPH_CACHE: "OrderedDict[tuple, CSRGraph]" = OrderedDict()


def build_topology(name: str, n: int, **kwargs) -> CSRGraph:
    """Build a topology by registry name (served from a small value-keyed LRU).

    Raises
    ------
    TopologyError:
        If the name is unknown.
    """
    try:
        builder = TOPOLOGY_BUILDERS[name]
    except KeyError:
        raise TopologyError(
            f"unknown topology {name!r}; known: {sorted(TOPOLOGY_BUILDERS)}"
        ) from None
    key = (name, int(n), tuple(sorted(kwargs.items())))
    graph = _GRAPH_CACHE.get(key)
    if graph is None:
        graph = builder(n, **kwargs)
        _GRAPH_CACHE[key] = graph
        while len(_GRAPH_CACHE) > _GRAPH_CACHE_CAPACITY:
            _GRAPH_CACHE.popitem(last=False)
    _GRAPH_CACHE.move_to_end(key)
    return graph


def _check_size(n: int, minimum: int = 2) -> None:
    if n < minimum:
        raise TopologyError(f"topology requires at least {minimum} nodes, got {n}")


def two_dimensional_side(n: int) -> int:
    """Side length of the largest square grid with at most ``n`` nodes."""
    return max(2, int(math.isqrt(n)))


# ----------------------------------------------------------------------
# Edge-list helpers: every deterministic family is a union of cliques on
# consecutive node blocks plus explicit extra edges.
# ----------------------------------------------------------------------
def _block_counts(members: int, blocks: int) -> np.ndarray:
    """Sizes of ``blocks`` near-equal groups of ``members`` nodes (larger first)."""
    size = members // blocks
    counts = np.full(blocks, size, dtype=np.int64)
    counts[: members - size * blocks] += 1
    return counts


def _clique_edges(
    starts: Sequence[int], counts: Sequence[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Edges of one clique on each block ``start .. start + count - 1``."""
    triu: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    sources: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for start, count in zip(starts, counts):
        count = int(count)
        if count not in triu:
            rows, cols = np.triu_indices(count, k=1)
            triu[count] = (rows.astype(np.int64), cols.astype(np.int64))
        rows, cols = triu[count]
        sources.append(rows + int(start))
        targets.append(cols + int(start))
    return sources, targets


def _from_parts(n: int, sources: list, targets: list) -> CSRGraph:
    """:func:`csr_from_edges` over a list of edge-array parts."""
    return csr_from_edges(
        n,
        np.concatenate([np.asarray(part, dtype=np.int64) for part in sources]),
        np.concatenate([np.asarray(part, dtype=np.int64) for part in targets]),
    )


# ----------------------------------------------------------------------
# Deterministic families
# ----------------------------------------------------------------------
@register_topology("line")
def line_graph(n: int) -> CSRGraph:
    """Path graph on ``n`` nodes: maximum degree 2, diameter ``n - 1``."""
    _check_size(n)
    left = np.arange(n - 1, dtype=np.int64)
    return csr_from_edges(n, left, left + 1)


@register_topology("ring")
def ring_graph(n: int) -> CSRGraph:
    """Cycle on ``n`` nodes: maximum degree 2, diameter ``floor(n / 2)``."""
    _check_size(n, minimum=3)
    nodes = np.arange(n, dtype=np.int64)
    return csr_from_edges(n, nodes, np.roll(nodes, -1))


@register_topology("grid")
def grid_graph(n: int) -> CSRGraph:
    """Two-dimensional square grid with approximately ``n`` nodes.

    The actual node count is ``side ** 2`` where ``side = floor(sqrt(n))``;
    maximum degree 4 and diameter ``2 (side - 1) = Θ(sqrt n)``.
    """
    _check_size(n, minimum=4)
    side = two_dimensional_side(n)
    ids = np.arange(side * side, dtype=np.int64).reshape(side, side)
    sources = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    targets = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    return csr_from_edges(side * side, sources, targets)


@register_topology("torus")
def torus_graph(n: int) -> CSRGraph:
    """Two-dimensional torus (grid with wraparound): 4-regular."""
    _check_size(n, minimum=9)
    side = two_dimensional_side(n)
    ids = np.arange(side * side, dtype=np.int64).reshape(side, side)
    flat = ids.ravel()
    # side >= 3, so the wraparound neighbours are distinct from the inner
    # ones and every undirected edge is emitted exactly once.
    sources = np.concatenate([flat, flat])
    targets = np.concatenate(
        [np.roll(ids, -1, axis=1).ravel(), np.roll(ids, -1, axis=0).ravel()]
    )
    return csr_from_edges(side * side, sources, targets)


@register_topology("complete")
def complete_graph(n: int) -> CSRGraph:
    """Complete graph ``K_n``: diameter 1, maximum degree ``n - 1``."""
    _check_size(n)
    return _from_parts(n, *_clique_edges([0], [n]))


@register_topology("star")
def star_graph(n: int) -> CSRGraph:
    """Star: one hub connected to ``n - 1`` leaves (diameter 2, Δ = n - 1)."""
    _check_size(n)
    leaves = np.arange(1, n, dtype=np.int64)
    return csr_from_edges(n, np.zeros_like(leaves), leaves)


@register_topology("binary_tree")
def binary_tree_graph(n: int) -> CSRGraph:
    """Complete-ish binary tree on exactly ``n`` nodes.

    Node ``i`` has children ``2i + 1`` and ``2i + 2`` when they exist, so the
    maximum degree is 3 and the depth is ``Θ(log n)``.
    """
    _check_size(n)
    children = np.arange(1, n, dtype=np.int64)
    return csr_from_edges(n, (children - 1) // 2, children)


@register_topology("hypercube")
def hypercube_graph(n: int) -> CSRGraph:
    """Boolean hypercube with ``2 ** round(log2 n)`` nodes (degree = log2 n).

    Node ``i`` is the bit string of ``i`` (most significant bit first, the
    sorted order of networkx's tuple labels); neighbours differ in one bit.
    """
    _check_size(n, minimum=4)
    dimension = max(2, int(round(math.log2(n))))
    nodes = np.arange(2**dimension, dtype=np.int64)
    sources: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for bit in range(dimension):
        low = nodes[(nodes >> bit) & 1 == 0]
        sources.append(low)
        targets.append(low | (1 << bit))
    return _from_parts(2**dimension, sources, targets)


@register_topology("barbell")
def barbell_graph(n: int) -> CSRGraph:
    """The paper's barbell: two cliques of ``n // 2`` nodes joined by one edge.

    This is the canonical "bad" topology for uniform algebraic gossip (Ω(n²)
    rounds for all-to-all, Section 1.1) and the canonical "good" topology for
    the IS protocol (large weak conductance, Section 6).
    """
    _check_size(n, minimum=4)
    half = n // 2
    sources, targets = _clique_edges([0, half], [half, half])
    sources.append([half - 1])
    targets.append([half])
    # If n is odd, attach the leftover node to the left clique so |V| == n.
    if 2 * half < n:
        sources.append(np.arange(half))
        targets.append(np.full(half, 2 * half))
    return _from_parts(n, sources, targets)


@register_topology("dumbbell")
def dumbbell_graph(n: int, path_length: int = 2) -> CSRGraph:
    """Two cliques connected by a path of ``path_length`` intermediate nodes."""
    _check_size(n, minimum=6)
    if path_length < 0:
        raise TopologyError(f"path_length must be non-negative, got {path_length}")
    clique_size = (n - path_length) // 2
    if clique_size < 2:
        raise TopologyError(
            f"dumbbell with n={n}, path_length={path_length} leaves cliques too small"
        )
    right = clique_size + path_length
    sources, targets = _clique_edges([0, right], [clique_size, clique_size])
    # The chain left[-1], path..., right[0] runs over consecutive ids.
    chain = np.arange(clique_size - 1, right, dtype=np.int64)
    sources.append(chain)
    targets.append(chain + 1)
    # Attach any leftover nodes (from integer division) to the left clique.
    for extra in range(2 * clique_size + path_length, n):
        sources.append(np.arange(clique_size))
        targets.append(np.full(clique_size, extra))
    return _from_parts(n, sources, targets)


@register_topology("clique_chain")
def clique_chain_graph(n: int, cliques: int = 4) -> CSRGraph:
    """``cliques`` equal cliques arranged in a chain, consecutive ones sharing one edge.

    Generalises the barbell (``cliques = 2``).  Its weak conductance for
    ``c >= cliques`` is a constant while its (ordinary) conductance is
    ``O(1/n)``, which is exactly the regime Theorem 7 targets.
    """
    _check_size(n, minimum=2 * cliques)
    if cliques < 2:
        raise TopologyError(f"clique_chain_graph needs at least 2 cliques, got {cliques}")
    if n // cliques < 2:
        raise TopologyError(
            f"clique_chain_graph with n={n}, cliques={cliques} leaves cliques too small"
        )
    counts = _block_counts(n, cliques)
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    sources, targets = _clique_edges(offsets[:-1], counts)
    sources.append(offsets[1:-1] - 1)
    targets.append(offsets[1:-1])
    return _from_parts(n, sources, targets)


@register_topology("lollipop")
def lollipop_graph(n: int) -> CSRGraph:
    """Lollipop: a clique of ``n // 2`` nodes with a path of ``n - n//2`` nodes attached.

    A classic slow-mixing graph — the clique traps a random walk while the
    path stretches the diameter — used in robustness sweeps alongside the
    barbell.
    """
    _check_size(n, minimum=6)
    clique_size = n // 2
    sources, targets = _clique_edges([0], [clique_size])
    # The path continues from the clique's last node: clique_size - 1, ..., n - 1.
    tail = np.arange(clique_size - 1, n - 1, dtype=np.int64)
    sources.append(tail)
    targets.append(tail + 1)
    return _from_parts(n, sources, targets)


@register_topology("caterpillar")
def caterpillar_graph(n: int, legs_per_spine: int = 2) -> CSRGraph:
    """Caterpillar: a spine path where every spine node carries pendant leaves.

    Constant maximum degree (``legs_per_spine + 2``) with diameter Θ(n), so it
    belongs to the Theorem 3 family but stresses the many-leaves case where
    most nodes have degree 1.
    """
    _check_size(n, minimum=4)
    if legs_per_spine < 1:
        raise TopologyError(f"legs_per_spine must be positive, got {legs_per_spine}")
    spine_length = max(2, n // (legs_per_spine + 1))
    spine = np.arange(spine_length - 1, dtype=np.int64)
    # Leaves spine_length .. n-1 attach round-robin to the spine nodes.
    leaves = np.arange(spine_length, n, dtype=np.int64)
    return _from_parts(
        n, [spine, (leaves - spine_length) % spine_length], [spine + 1, leaves]
    )


@register_topology("star_of_cliques")
def star_of_cliques_graph(n: int, cliques: int = 4) -> CSRGraph:
    """``cliques`` equal cliques all attached to one central hub node.

    Like the clique chain this has constant weak conductance but, unlike it,
    every inter-clique path goes through the single hub — the most extreme
    bottleneck-star the IS experiments use.
    """
    _check_size(n, minimum=2 * cliques + 1)
    if cliques < 2:
        raise TopologyError(f"star_of_cliques_graph needs at least 2 cliques, got {cliques}")
    if (n - 1) // cliques < 2:
        raise TopologyError(
            f"star_of_cliques_graph with n={n}, cliques={cliques} leaves cliques too small"
        )
    counts = _block_counts(n - 1, cliques)
    firsts = 1 + np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]])
    sources, targets = _clique_edges(firsts, counts)
    # The hub (node 0) links to each clique's first node.
    sources.append(np.zeros(cliques, dtype=np.int64))
    targets.append(firsts)
    return _from_parts(n, sources, targets)


@register_topology("ring_of_cliques")
def ring_of_cliques_graph(n: int, cliques: int = 4) -> CSRGraph:
    """``cliques`` equal cliques arranged in a ring, consecutive ones sharing one edge.

    The cyclic cousin of the clique chain: with ``cliques = Θ(n / log n)``
    the graph stays sparse (``O(n log n)`` edges for clique size
    ``Θ(log n)``) while every inter-clique path crosses single-edge
    bottlenecks — a deterministic large-n stress case for the event-driven
    engine.  Entirely deterministic, so scenario fingerprints are stable by
    construction.
    """
    _check_size(n, minimum=2 * cliques)
    if cliques < 3:
        raise TopologyError(
            f"ring_of_cliques_graph needs at least 3 cliques to form a ring, got {cliques}"
        )
    if n // cliques < 2:
        raise TopologyError(
            f"ring_of_cliques_graph with n={n}, cliques={cliques} leaves cliques too small"
        )
    counts = _block_counts(n, cliques)
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    sources, targets = _clique_edges(offsets[:-1], counts)
    firsts = offsets[:-1]
    lasts = offsets[1:] - 1
    sources.append(lasts)
    targets.append(np.roll(firsts, -1))
    return _from_parts(n, sources, targets)


# ----------------------------------------------------------------------
# Random families: the networkx sampling algorithms, fed by the same
# random.Random streams the builders derive from their seeds.
# ----------------------------------------------------------------------
def _fast_gnp(n: int, p: float, seed: random.Random) -> CSRGraph:
    """Batagelj–Brandes ``G(n, p)`` sampler, stream-identical to
    ``nx.fast_gnp_random_graph``; edges land in compact int64 arrays."""
    if p >= 1.0:
        # fast_gnp delegates to gnp_random_graph, which returns the complete
        # graph without consuming any draws.
        return complete_graph(n)
    sources = array("q")
    targets = array("q")
    lp = math.log(1.0 - p)
    log = math.log
    draw = seed.random
    v = 1
    w = -1
    while v < n:
        lr = log(1.0 - draw())
        w = w + 1 + int(lr / lp)
        while w >= v and v < n:
            w = w - v
            v = v + 1
        if v < n:
            sources.append(v)
            targets.append(w)
    return csr_from_edges(
        n, np.frombuffer(sources, dtype=np.int64), np.frombuffer(targets, dtype=np.int64)
    )


def _connected_gnp(n: int, p: float, seed: int, failure: str) -> CSRGraph:
    """The first connected ``G(n, p)`` sample; ``p`` grows 20% per retry."""
    rng = np.random.default_rng(seed)
    for attempt in range(100):
        graph = _fast_gnp(n, p, random.Random(int(rng.integers(0, 2**31))))
        if graph.is_connected():
            return graph
        p = min(1.0, p * 1.2)
    raise TopologyError(failure)  # pragma: no cover - overwhelmingly unlikely


@register_topology("erdos_renyi")
def erdos_renyi_graph(n: int, average_degree: float = 6.0, seed: int = 0) -> CSRGraph:
    """Connected Erdős–Rényi graph ``G(n, p)`` with ``p = average_degree / n``."""
    _check_size(n)
    p = min(1.0, max(average_degree, 2.0 * math.log(max(n, 2))) / n)
    return _connected_gnp(n, p, seed, f"failed to sample a connected G({n}, p) graph")


@register_topology("erdos_renyi_logn")
def erdos_renyi_logn_graph(n: int, c: float = 2.0, seed: int = 0) -> CSRGraph:
    """Connected ``G(n, p)`` at the connectivity threshold: ``p = c·log n / n``.

    The sparse regime the event-driven engine targets: average degree
    ``c·log n`` keeps the edge count ``O(n log n)`` while ``c > 1`` keeps the
    graph connected with high probability (retries with a gently inflated
    ``p`` cover the rest).  Sampling derives deterministically from ``seed``,
    so equal ``(n, c, seed)`` always yields the same graph — what keeps
    scenario fingerprints stable.
    """
    _check_size(n, minimum=4)
    if c <= 1.0:
        raise TopologyError(
            f"c must exceed 1 (the connectivity threshold of G(n, c log n / n)), got {c}"
        )
    p = min(1.0, c * math.log(n) / n)
    return _connected_gnp(
        n, p, seed, f"failed to sample a connected G({n}, {c} log n / n) graph"
    )


def _random_regular_edges(d: int, n: int, seed: random.Random) -> set[tuple[int, int]]:
    """Steger–Wormald pairing, stream-identical to ``nx.random_regular_graph``."""

    def _suitable(edges, potential_edges):
        if not potential_edges:
            return True
        for s1 in potential_edges:
            for s2 in potential_edges:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def _try_creation():
        edges = set()
        stubs = list(range(n)) * d
        while stubs:
            potential_edges = defaultdict(lambda: 0)
            seed.shuffle(stubs)
            stubiter = iter(stubs)
            for s1, s2 in zip(stubiter, stubiter):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and ((s1, s2) not in edges):
                    edges.add((s1, s2))
                else:
                    potential_edges[s1] += 1
                    potential_edges[s2] += 1
            if not _suitable(edges, potential_edges):
                return None
            stubs = [
                node
                for node, potential in potential_edges.items()
                for _ in range(potential)
            ]
        return edges

    edges = _try_creation()
    while edges is None:
        edges = _try_creation()
    return edges


@register_topology("random_regular")
def random_regular_graph(n: int, degree: int = 3, seed: int = 0) -> CSRGraph:
    """Connected random ``degree``-regular graph (constant maximum degree)."""
    _check_size(n, minimum=degree + 1)
    if degree < 2:
        raise TopologyError(f"degree must be at least 2, got {degree}")
    if (n * degree) % 2 != 0:
        n += 1  # a d-regular graph needs n*d even
    rng = np.random.default_rng(seed)
    for attempt in range(100):
        edges = _random_regular_edges(degree, n, random.Random(int(rng.integers(0, 2**31))))
        sources = np.fromiter((u for u, _ in edges), dtype=np.int64, count=len(edges))
        targets = np.fromiter((v for _, v in edges), dtype=np.int64, count=len(edges))
        graph = csr_from_edges(n, sources, targets)
        if graph.is_connected():
            return graph
    raise TopologyError(
        f"failed to sample a connected {degree}-regular graph on {n} nodes"
    )  # pragma: no cover - overwhelmingly unlikely


@register_topology("expander")
def expander_graph(n: int, seed: int = 0) -> CSRGraph:
    """A constant-degree expander surrogate: a connected random 4-regular graph.

    Random regular graphs are expanders with high probability, which is all
    the conductance-sensitive experiments need.
    """
    return random_regular_graph(n, degree=4, seed=seed)


def _watts_strogatz_adjacency(
    n: int, k: int, p: float, seed: random.Random
) -> list[set[int]]:
    """Watts–Strogatz lattice + rewiring, stream-identical to
    ``nx.watts_strogatz_graph`` (the builder guarantees ``2 <= k < n``)."""
    adjacency: list[set[int]] = [set() for _ in range(n)]
    nodes = list(range(n))
    for j in range(1, k // 2 + 1):
        targets = nodes[j:] + nodes[0:j]
        for u, w in zip(nodes, targets):
            adjacency[u].add(w)
            adjacency[w].add(u)
    for j in range(1, k // 2 + 1):
        targets = nodes[j:] + nodes[0:j]
        for u, v in zip(nodes, targets):
            if seed.random() < p:
                w = seed.choice(nodes)
                while w == u or w in adjacency[u]:
                    w = seed.choice(nodes)
                    if len(adjacency[u]) >= n - 1:
                        break  # skip this rewiring
                else:
                    # The lattice edge (u, v) is always still present here:
                    # distinct lattice edges are distinct pairs (offsets j and
                    # n - j cannot both be <= k // 2 < n / 2) and rewiring only
                    # ever removes the edge currently being processed.
                    adjacency[u].remove(v)
                    adjacency[v].remove(u)
                    adjacency[u].add(w)
                    adjacency[w].add(u)
    return adjacency


def _csr_from_adjacency_sets(adjacency: list[set[int]]) -> CSRGraph:
    n = len(adjacency)
    degrees = np.fromiter((len(nbrs) for nbrs in adjacency), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.fromiter(
        (w for nbrs in adjacency for w in sorted(nbrs)),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
    return CSRGraph(n, indptr, indices)


@register_topology("small_world")
def small_world_graph(n: int, neighbours: int = 4, rewire_probability: float = 0.1,
                      seed: int = 0) -> CSRGraph:
    """Connected Watts–Strogatz small-world graph.

    Near-constant degree with logarithmic diameter — a realistic "good"
    topology to contrast with the engineered worst cases.
    """
    _check_size(n, minimum=8)
    if neighbours < 2 or neighbours >= n:
        raise TopologyError(f"neighbours must lie in [2, n), got {neighbours}")
    if not 0.0 <= rewire_probability <= 1.0:
        raise TopologyError(
            f"rewire_probability must lie in [0, 1], got {rewire_probability}"
        )
    # connected_watts_strogatz_graph shares one random.Random across tries.
    sampler = random.Random(seed)
    for attempt in range(200):
        adjacency = _watts_strogatz_adjacency(n, neighbours, rewire_probability, sampler)
        graph = _csr_from_adjacency_sets(adjacency)
        if graph.is_connected():
            return graph
    raise TopologyError(
        f"failed to sample a connected small-world graph on {n} nodes in 200 tries"
    )  # pragma: no cover - overwhelmingly unlikely
