"""The stabilization hot loops, in exact integer Python.

Weights and pairings are Python ints, so every pairing and firing step
is exact at any magnitude.  ``pairings`` reads a root system's coroot
chain, in which each non-simple positive coroot is a positive coroot
plus a simple one, so a weight's pairings cost one addition per root.
``stabilize`` works on the vector of coroot pairings alone: a firing
move reads only pairings, and firing root i adds row i of the root
system's pairing matrix (``RootSystem.pos_gram``) to the vector.
A weight's coordinates are its pairings with the simple coroots, so the
caller reads the sink off the final vector.  The seeded-random firing
order draws from splitmix64 among the fireable roots in positive-root
order, so a given seed fires the same roots on every platform.  Either
order can also stop early, after a caller's ``limit`` of firings.

``verify confluence`` fires seeded orders, one ``stabilize`` call per
seed, only from weights that can reach two sinks: it first certifies
every order at once by a memoized walk of the forward closure
(``firing.reachable_sinks``).

Seeds are integers in [0, 2**64); any other seed is refused, never
reduced.  Each order draws live from its seed's splitmix64 stream,
advancing the state one step per draw.
"""

from __future__ import annotations

from operator import add

from .errors import PreconditionError, StepBudgetError

BACKEND = "pure"

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """splitmix64's output function of one state."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def splitmix64_next(state: int) -> tuple[int, int]:
    """One step of the splitmix64 generator: (new_state, output)."""
    state = (state + _GAMMA) & _MASK
    return state, _mix(state)


def require_seeds(first: int, count: int = 1) -> None:
    """Refuse ``count`` consecutive seeds from ``first`` unless all lie in [0, 2**64)."""
    last = first + count - 1
    if first < 0 or last > _MASK:
        got = first if count == 1 else f"{first}..{last}"
        raise PreconditionError(f"seeds must lie in [0, 2**64), got {got}")


def pairings(chain, coords):
    """All coroot pairings of one weight, in positive-root order.

    ``chain`` is a root system's coroot chain (``rootsys._coroot_chain``):
    each entry ``(i, parent, j)`` sets pairing i to pairing ``parent``
    plus coordinate j, parents first, so a weight's m pairings cost m
    additions.  Position m is a zero slot, the parent of each simple
    coroot, and is dropped before returning.
    """
    p = [0] * (len(chain) + 1)
    for i, parent, j in chain:
        p[i] = p[parent] + coords[j]
    p.pop()
    return p


def _overrun(budget):
    return StepBudgetError(f"stabilization exceeded its step budget of {budget}")


def stabilize(pair, gram, lo, hi, budget, seed=None, limit=None):
    """Fire until stable; returns (final pairing vector, number of steps).

    ``pair`` is ``pairings(coroots, weight)``; firing root i adds
    ``gram[i]`` to it.  ``lo``/``hi`` are the per-root closed
    fireability bounds on the coroot pairing.  ``seed=None`` selects the
    first fireable root in positive-root order; otherwise roots are
    drawn with splitmix64 from a seed in [0, 2**64).  ``limit`` ends the
    run after that many firings, stable or not, in either order.
    ``pair`` is never changed: each firing rebinds ``p`` to a new list.
    """
    p = pair
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
        require_seeds(seed)
        state = seed
        while steps < cut:
            fireable = [j for j, x in enumerate(p) if lo[j] <= x <= hi[j]]
            if not fireable:
                break
            state, z = splitmix64_next(state)
            p = list(map(add, p, gram[fireable[z % len(fireable)]]))
            steps += 1
    if steps > budget:
        raise _overrun(budget)
    return tuple(p), steps
