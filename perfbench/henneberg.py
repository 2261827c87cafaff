"""Seeded Henneberg type-I formations.

Agent k (0-based) lands uniformly in a box of side 10 * n**(1/dim) and
is redrawn while it falls within MIN_SPACING of an agent already placed.
It then links to its min(k, dim) nearest placed agents.  The first
dim agents form a complete graph and every later agent adds exactly dim
edges, so the graph is a Henneberg type-I extension of K_dim with
dim*n - dim*(dim+1)/2 edges: minimally rigid for a generic placement
(Anderson et al., "Rigid graph control architectures for autonomous
formations", IEEE CSM 2008).
"""

from __future__ import annotations

import numpy as np

MIN_SPACING = 2.0


def henneberg(n: int, dim: int, seed: int) -> tuple[np.ndarray, list[list[int]]]:
    """Reference points (n, dim) and 1-based [tail, head] edges.

    Each edge runs from the earlier agent (tail) to the later one (head).
    The same (n, dim, seed) always gives the same formation.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if n < dim + 1:
        raise ValueError(f"need at least {dim + 1} agents in {dim}D, got {n}")
    rng = np.random.default_rng(seed)
    side = 10.0 * n ** (1.0 / dim)
    points = np.empty((n, dim))
    edges: list[list[int]] = []
    for k in range(n):
        while True:
            candidate = rng.uniform(0.0, side, dim)
            dist = np.linalg.norm(points[:k] - candidate, axis=1)
            if k == 0 or dist.min() >= MIN_SPACING:
                break
        points[k] = candidate
        # Stable sort keeps equal distances in placement order.
        for j in np.argsort(dist, kind="stable")[:min(k, dim)]:
            edges.append([int(j) + 1, k + 1])
    return points, edges
