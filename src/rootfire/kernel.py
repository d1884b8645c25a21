"""The stabilization hot loops, in exact integer Python.

Weights and pairings are Python ints, so every pairing and firing step
is exact at any magnitude.  ``stabilize`` works on the vector of coroot pairings
alone: a firing move reads only pairings, and firing root i adds row i of
the root system's pairing matrix (``RootSystem.pos_gram``) to the vector.
A weight's coordinates are its pairings with the simple coroots, so the
caller reads the sink off the final vector.  The seeded-random firing
order draws from splitmix64, so a given seed fires the same roots on
every platform.  Either order can also stop early, after a caller's
``limit`` of firings.
"""

from __future__ import annotations

from operator import add, mul

from .errors import StepBudgetError

BACKEND = "pure"

_MASK = (1 << 64) - 1


def splitmix64_next(state: int) -> tuple[int, int]:
    """One step of the splitmix64 generator: (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def pairings(coroots, coords):
    """All coroot pairings of one weight, in positive-root order."""
    return [sum(map(mul, row, coords)) for row in coroots]


def stabilize(pair, gram, lo, hi, budget, seed=None, limit=None):
    """Fire until stable; returns (final pairing vector, number of steps).

    ``pair`` is ``pairings(coroots, weight)``; firing root i adds
    ``gram[i]`` to it.  ``lo``/``hi`` are the per-root closed
    fireability bounds on the coroot pairing.  ``seed=None`` selects the
    first fireable root in positive-root order; otherwise roots are
    drawn with splitmix64.  ``limit`` ends the run after that many
    firings, stable or not, in either order.
    """
    p = list(pair)
    m = len(p)
    steps = 0
    # one bound test per firing: the budget is overrun at budget + 1 steps
    cut = budget + 1 if limit is None else min(limit, budget + 1)
    if seed is None:
        while steps < cut:
            for j in range(m):
                if lo[j] <= p[j] <= hi[j]:
                    break
            else:
                break
            p = list(map(add, p, gram[j]))
            steps += 1
    else:
        state = seed & _MASK
        while steps < cut:
            fireable = [j for j in range(m) if lo[j] <= p[j] <= hi[j]]
            if not fireable:
                break
            state, z = splitmix64_next(state)
            p = list(map(add, p, gram[fireable[z % len(fireable)]]))
            steps += 1
    if steps > budget:
        raise StepBudgetError(f"stabilization exceeded its step budget of {budget}")
    return tuple(p), steps
