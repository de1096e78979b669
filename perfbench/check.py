"""Reply correctness: every served tile against a direct storage read.

A reply is identified by ``(key, fidelity, source)``; ``source`` is
``"reply"`` for a tile the server sent in answer to the request and
``"push"`` for a tile the client answered from its push cache.  The
expected payload is computed outside every timed region:

- full fidelity: ``pyramid.fetch_tile(key, charge=False)``;
- a degraded server reply at fidelity ``2**-d``: the exact carve of the
  level ``key.level - d`` ancestor (what the service promises under
  overload);
- a coarse pushed tile at fidelity ``1/r``: the true tile
  block-averaged by ``r`` and repeated back to full shape (what the
  push path promises for its coarse frame).
"""

from __future__ import annotations

import math

from perfbench.stats import tile_digest


def expected_digest(pyramid, key, fidelity: float, source: str):
    from repro.tiles.reduce import carve_from_ancestor, downsample_tile, upsample_tile

    if fidelity == 1.0:
        return tile_digest(pyramid.fetch_tile(key, charge=False))
    if source == "push":
        factor = int(round(1.0 / fidelity))
        true_tile = pyramid.fetch_tile(key, charge=False)
        return tile_digest(upsample_tile(downsample_tile(true_tile, factor), factor))
    depth = int(round(math.log2(1.0 / fidelity)))
    ancestor = pyramid.fetch_tile(key.ancestor(key.level - depth), charge=False)
    return tile_digest(carve_from_ancestor(ancestor, key))


def count_mismatches(pyramid, seen) -> tuple[int, list[str]]:
    """``seen`` maps ``(key, fidelity, source, digest)`` -> reply count.

    Returns the number of replies whose digest differs from the
    expected one, and a few human-readable examples.
    """
    from repro.tiles.key import TileKey

    expected: dict = {}
    mismatched = 0
    examples: list[str] = []
    for (key, fidelity, source, digest), count in seen.items():
        ident = (key, fidelity, source)
        if ident not in expected:
            expected[ident] = expected_digest(
                pyramid, TileKey(*key), fidelity, source
            )
        if digest != expected[ident]:
            mismatched += count
            if len(examples) < 5:
                examples.append(
                    f"tile {key} fidelity {fidelity} from {source}: payload differs"
                )
    return mismatched, examples
