"""The stabilization kernel: exact at any magnitude, reproducible PRNG."""

import random
from itertools import product

import pytest

from rootfire import errors, kernel
from rootfire.firing import (
    FiringParams,
    _bounds,
    reachable_central_sinks,
    stabilize_trace,
)
from rootfire.rootsys import _coroot_chain, from_spec
from test_rootsys import CLASSIFICATION


def test_splitmix64_matches_published_stream():
    # the reference splitmix64 outputs for seed 0; the seeded-random
    # firing order of `verify confluence` draws from this stream
    state, outputs = 0, []
    for _ in range(3):
        state, z = kernel.splitmix64_next(state)
        outputs.append(z)
    assert outputs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def _stabilize(rs, v, lo, hi, budget, seed=None):
    """The kernel on one weight, with the sink read off the final pairings."""
    final, steps = kernel.stabilize(
        kernel.pairings(rs._coroot_chain, v), rs.pos_gram, lo, hi, budget, seed
    )
    return tuple(final[i] for i in rs.simple_positions), steps


def test_exact_at_huge_coordinates():
    # the kernel works on Python ints, so nothing overflows at 2^70
    rs = from_spec("A1")
    params = FiringParams.make("symmetric", 0)
    lo, hi = _bounds(rs, params)
    big = (-(2**70),)
    sink, steps = _stabilize(rs, big, lo, hi, 10)
    assert sink == big and steps == 0
    sink, steps = _stabilize(rs, (-1,), lo, hi, 10)
    assert sink == (1,) and steps == 1
    # A2: both coordinates far out, yet <v, theta^v> = -1, so theta fires
    # once in either firing order
    a2 = from_spec("A2")
    lo, hi = _bounds(a2, params)
    v = (2**70, -(2**70) - 1)
    for seed in (None, 7):
        assert _stabilize(a2, v, lo, hi, 10, seed) == ((2**70 + 1, -(2**70)), 1)


def _reference_stabilize(coords, root_weights, coroots, lo, hi, budget, seed=None):
    """The recompute-every-pairing kernel, kept as the firing-order oracle.

    Also returns how often each root fired.
    """
    c = list(coords)
    m = len(coroots)
    fired = [0] * m
    steps = 0
    state = 0 if seed is None else seed & ((1 << 64) - 1)
    while True:
        if seed is None:
            chosen = -1
            for j in range(m):
                p = sum(r * x for r, x in zip(coroots[j], c))
                if lo[j] <= p <= hi[j]:
                    chosen = j
                    break
        else:
            fireable = [
                j
                for j in range(m)
                if lo[j] <= sum(r * x for r, x in zip(coroots[j], c)) <= hi[j]
            ]
            if not fireable:
                chosen = -1
            else:
                state, z = kernel.splitmix64_next(state)
                chosen = fireable[z % len(fireable)]
        if chosen < 0:
            return tuple(c), steps, tuple(fired)
        row = root_weights[chosen]
        for i in range(len(c)):
            c[i] += row[i]
        fired[chosen] += 1
        steps += 1
        if steps > budget:
            raise errors.StepBudgetError(
                f"stabilization exceeded its step budget of {budget}"
            )


def _reference_pairings(rs, v):
    return [sum(r * x for r, x in zip(row, v)) for row in rs.pos_coroots]


def _reference_budget(rs, v, params):
    reach = max(abs(p) for p in _reference_pairings(rs, v))
    return 4 * len(rs.pos_roots) * (reach + params.k_max() + 2) ** 2


def _oracle_weights(rs):
    """The box [-1, 1]^rank up to rank 3; above, a few fixed draws from it.

    The reference kernel costs one pass over every root per step, so the
    draws shrink as the number of roots grows (one for E7 and E8).
    """
    if rs.rank <= 3:
        return list(product(range(-1, 2), repeat=rs.rank))
    rng = random.Random(rs.spec)
    draws = max(1, 120 // len(rs.pos_roots))
    return [tuple(rng.randint(-1, 1) for _ in range(rs.rank)) for _ in range(draws)]


@pytest.mark.parametrize("spec", sorted(CLASSIFICATION))
def test_chain_pairings_match_the_matrix_form(spec):
    # the chain's one addition per root against the m * r multiply-adds,
    # exact far past any machine word
    rs = from_spec(spec)
    big = 10**30
    weights = _oracle_weights(rs) + [
        tuple(big * x for x in v) for v in _oracle_weights(rs)
    ] + [(big,) * rs.rank, (-big,) * rs.rank]
    for v in weights:
        assert kernel.pairings(rs._coroot_chain, v) == _reference_pairings(rs, v), v


@pytest.mark.parametrize("spec", sorted(CLASSIFICATION))
def test_the_coroot_chain_covers_every_root_once(spec):
    rs = from_spec(spec)
    m = len(rs.pos_coroots)
    zero = (0,) * rs.rank
    done = {m: zero}
    for i, parent, j in rs._coroot_chain:
        # parents come first, and the step to i is one simple coroot
        assert i not in done and parent in done
        step = tuple(int(k == j) for k in range(rs.rank))
        assert rs.pos_coroots[i] == tuple(map(sum, zip(done[parent], step)))
        done[i] = rs.pos_coroots[i]
    assert sorted(done) == list(range(m + 1))


def test_a_coroot_without_a_parent_is_refused():
    # A3 without the coroots (1, 1, 0) and (0, 1, 1): (1, 1, 1) less any
    # simple coroot is then no coroot of the list
    coroots = [c for c in from_spec("A3").pos_coroots if c not in ((1, 1, 0), (0, 1, 1))]
    with pytest.raises(errors.InvariantViolationError, match=r"\(1, 1, 1\)"):
        _coroot_chain(coroots)


def _oracle_params(rs):
    ks = [(0, 0), (1, 1), (2, 2)]
    if not rs.simply_laced:
        # one good two-length choice, and one non-good one: without
        # confluence the sink itself depends on every firing choice
        ks += [(1, 2), (0, 1)]
    return [FiringParams.make(kind, s, l) for kind in ("sym", "tr") for s, l in ks]


def _matches_reference(rs, v, params, seed):
    """Check the kernel against the reference on one run; returns its steps.

    ``stabilize_trace`` must give the reference's sink and step count.
    Firing root j also adds the j-th unit vector to m extra entries that
    never fire (lo = 1 > hi = 0): those entries end as the firing counts,
    which must equal the reference's.
    """
    m = len(rs.pos_roots)
    gram = tuple(
        row + tuple(int(i == j) for i in range(m)) for j, row in enumerate(rs.pos_gram)
    )
    lo, hi = _bounds(rs, params)
    budget = _reference_budget(rs, v, params)
    sink, steps, fired = _reference_stabilize(
        v, rs.pos_root_weights, rs.pos_coroots, lo, hi, budget, seed
    )
    case = (rs.spec, params, v, seed)
    assert stabilize_trace(rs, v, params, seed) == (sink, steps), case
    pair = _reference_pairings(rs, v) + [0] * m
    final = tuple(_reference_pairings(rs, sink)) + fired
    assert kernel.stabilize(
        pair, gram, lo + (1,) * m, hi + (0,) * m, budget, seed
    ) == (final, steps), case
    return steps


@pytest.mark.parametrize("spec", sorted(CLASSIFICATION))
def test_incremental_kernel_matches_recompute_oracle(spec):
    rs = from_spec(spec)
    for params in _oracle_params(rs):
        for v in _oracle_weights(rs):
            for seed in (None, 1, 2, 12345):
                _matches_reference(rs, v, params, seed)


# B2 sym k=30 from (-30, 0) fires at least 100 times in seeded order
LONG_RUN = ((-30, 0), FiringParams.make("sym", 30))

# seeds at the start and the top of the seed range
SHARED_SEEDS = (0, 1, 2, 12345, 2**64 - 2, 2**64 - 1)


def _orders_match_reference(rs, v, params, seeds):
    """Check one seeded run per seed against the reference; returns the runs.

    Each seed's (final pairing vector, steps) must be the reference's.
    """
    lo, hi = _bounds(rs, params)
    budget = _reference_budget(rs, v, params)
    pair = kernel.pairings(rs._coroot_chain, v)
    runs = []
    for seed in seeds:
        run = kernel.stabilize(pair, rs.pos_gram, lo, hi, budget, seed)
        sink, steps, _ = _reference_stabilize(
            v, rs.pos_root_weights, rs.pos_coroots, lo, hi, budget, seed
        )
        case = (rs.spec, params, v, seed)
        assert run == (tuple(_reference_pairings(rs, sink)), steps), case
        runs.append(run)
    return runs


@pytest.mark.parametrize("spec", sorted(s for s in CLASSIFICATION if int(s[1:]) <= 4))
def test_shared_table_orders_match_recompute_oracle(spec):
    # each seed of SHARED_SEEDS fires the reference's order
    rs = from_spec(spec)
    longest = 0
    for params in _oracle_params(rs):
        for v in _oracle_weights(rs):
            runs = _orders_match_reference(rs, v, params, SHARED_SEEDS)
            longest = max(longest, *(steps for _, steps in runs))
    # some orders read their seed's stream past its first draw
    assert longest > 1


def test_shared_table_orders_past_the_memo_match_the_reference():
    rs = from_spec("B2")
    runs = _orders_match_reference(rs, *LONG_RUN, SHARED_SEEDS)
    assert min(steps for _, steps in runs) > 99


@pytest.mark.parametrize("spec", ["A2", "A4", "C3", "D4"])
def test_shared_table_keeps_distinct_orders_apart(spec):
    # central firing is not confluent: seeded orders from 0 must reach
    # several sinks, each one reachable from 0
    rs = from_spec(spec)
    m = len(rs.pos_roots)
    zero = (0,) * rs.rank
    pair = kernel.pairings(rs._coroot_chain, zero)
    sinks = set()
    for seed in range(40):
        final, _ = kernel.stabilize(pair, rs.pos_gram, (0,) * m, (0,) * m, 10**6, seed)
        sinks.add(tuple(final[i] for i in rs.simple_positions))
    assert len(sinks) > 1
    assert sinks <= set(reachable_central_sinks(rs, zero))


@pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3"])
def test_the_kernel_leaves_its_input_list_unchanged(spec):
    # check_confluence_random hands one pairing list to every seeded order,
    # and the kernel does not copy it: in both orders the list must come
    # back unchanged, and runs that share it must end where runs on
    # copies do
    rs = from_spec(spec)
    seeds = (None, *SHARED_SEEDS)
    fired = 0
    for params in _oracle_params(rs):
        lo, hi = _bounds(rs, params)
        for v in _oracle_weights(rs):
            pair = kernel.pairings(rs._coroot_chain, v)
            kept = list(pair)
            budget = _reference_budget(rs, v, params)
            shared = [kernel.stabilize(pair, rs.pos_gram, lo, hi, budget, s) for s in seeds]
            assert pair == kept, (spec, params, v)
            copies = [kernel.stabilize(list(kept), rs.pos_gram, lo, hi, budget, s) for s in seeds]
            assert shared == copies, (spec, params, v)
            fired += sum(steps > 0 for _, steps in shared)
    assert fired


def test_seeded_runs_past_the_memo_match_the_reference():
    rs = from_spec("B2")
    for seed in (1, 7):
        assert _matches_reference(rs, *LONG_RUN, seed) > 99


def test_seeds_outside_64_bits_are_refused():
    # no seed is reduced mod 2^64: -1 would alias 2^64 - 1
    rs = from_spec("A2")
    lo, hi = _bounds(rs, FiringParams.make("sym", 1))
    pair = kernel.pairings(rs._coroot_chain, (-3, 1))
    for seed in (-1, 2**64, -(2**64) - 1):
        with pytest.raises(errors.PreconditionError) as exc:
            kernel.stabilize(pair, rs.pos_gram, lo, hi, 100, seed)
        assert str(exc.value) == f"seeds must lie in [0, 2**64), got {seed}"
    assert kernel.stabilize(pair, rs.pos_gram, lo, hi, 100, 2**64 - 1)[1] > 0


def test_step_budget_error_matches_oracle():
    # B2 tr k=2 from (-3, 2) needs several steps; any budget below the
    # step count fails the same way in both kernels, and the count itself
    # is enough
    rs = from_spec("B2")
    lo, hi = _bounds(rs, FiringParams.make("tr", 2))
    v = (-3, 2)
    for seed in (None, 12345):
        sink, steps, _ = _reference_stabilize(
            v, rs.pos_root_weights, rs.pos_coroots, lo, hi, 10**6, seed
        )
        assert steps >= 3
        assert _stabilize(rs, v, lo, hi, steps, seed) == (sink, steps)
        for budget in (0, steps - 1):
            with pytest.raises(errors.StepBudgetError) as want:
                _reference_stabilize(
                    v, rs.pos_root_weights, rs.pos_coroots, lo, hi, budget, seed
                )
            with pytest.raises(errors.StepBudgetError) as got:
                _stabilize(rs, v, lo, hi, budget, seed)
            assert str(got.value) == str(want.value)


def test_limit_and_budget_share_one_bound():
    # a run cut by its limit at the budget passes; one firing more overruns
    # the budget; a limit past the run's end changes nothing
    rs = from_spec("B2")
    lo, hi = _bounds(rs, FiringParams.make("tr", 2))
    pair, gram = kernel.pairings(rs._coroot_chain, (-3, 2)), rs.pos_gram
    for seed in (None, 12345):
        final, steps = kernel.stabilize(pair, gram, lo, hi, 10**6, seed)
        assert steps >= 3
        for budget in (0, steps - 1):
            assert kernel.stabilize(pair, gram, lo, hi, budget, seed, budget)[1] == budget
            with pytest.raises(errors.StepBudgetError):
                kernel.stabilize(pair, gram, lo, hi, budget, seed, budget + 1)
        assert kernel.stabilize(pair, gram, lo, hi, steps, seed, steps + 5) == (final, steps)
