"""The stabilization kernel: exact at any magnitude, reproducible PRNG."""

from rootfire import kernel
from rootfire.firing import FiringParams, _bounds
from rootfire.rootsys import from_spec


def test_splitmix64_matches_published_stream():
    # the reference splitmix64 outputs for seed 0; the seeded-random
    # firing order of `verify confluence` draws from this stream
    state, outputs = 0, []
    for _ in range(3):
        state, z = kernel.splitmix64_next(state)
        outputs.append(z)
    assert outputs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_exact_at_huge_coordinates():
    # the kernel works on Python ints, so nothing overflows at 2^70
    rs = from_spec("A1")
    params = FiringParams.make("symmetric", 0)
    lo, hi = _bounds(rs, params)
    big = (-(2**70),)
    sink, steps = kernel.stabilize(
        big, rs.pos_root_weights, rs.pos_coroots, lo, hi, 10
    )
    assert sink == big and steps == 0
    sink, steps = kernel.stabilize(
        (-1,), rs.pos_root_weights, rs.pos_coroots, lo, hi, 10
    )
    assert sink == (1,) and steps == 1
    # A2: both coordinates far out, yet <v, theta^v> = -1, so theta fires
    # once in either firing order
    a2 = from_spec("A2")
    lo, hi = _bounds(a2, params)
    v = (2**70, -(2**70) - 1)
    for seed in (None, 7):
        assert kernel.stabilize(
            v, a2.pos_root_weights, a2.pos_coroots, lo, hi, 10, seed
        ) == ((2**70 + 1, -(2**70)), 1)
