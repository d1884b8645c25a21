"""Construction, invariants, and elementary operations of root systems."""

from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootfire import errors
from rootfire import rootsys as rsys
from rootfire.polytope import scoped_cap
from rootfire.rootsys import (
    apply_word,
    dominant,
    dominant_rep,
    from_spec,
    minuscule_weights,
    pairing,
    parse_system,
    reflect_simple,
    root_order_leq,
    subgroup_C,
    weyl_orbit,
)


def apply_word_to_root(rs, word, root):
    """Apply a Weyl word to a vector in simple-root coordinates."""
    v = list(root)
    for idx in word:
        j = idx - 1
        c = sum(v[i] * rs.cartan[i][j] for i in range(rs.rank))
        v[j] -= c
    return tuple(v)


def support_sets(rs, weight):
    """1-based node sets where the dominant representative is 0 / in {0,1}."""
    dom, _ = dominant_rep(rs, weight)
    i0 = tuple(j + 1 for j, c in enumerate(dom) if c == 0)
    i01 = tuple(j + 1 for j, c in enumerate(dom) if c in (0, 1))
    return i0, i01


# |pos roots| = n*h/2, f = |det cartan|
CLASSIFICATION = {
    "A1": (1, 2, 2),
    "A2": (3, 3, 3),
    "A3": (6, 4, 4),
    "B2": (4, 4, 2),
    "B3": (9, 6, 2),
    "C3": (9, 6, 2),
    "D4": (12, 6, 4),
    "E6": (36, 12, 3),
    "E7": (63, 18, 2),
    "E8": (120, 30, 1),
    "F4": (24, 12, 1),
    "G2": (6, 6, 1),
}


@pytest.mark.parametrize("spec", sorted(CLASSIFICATION))
def test_counts_and_invariants(spec):
    rs = from_spec(spec)
    num, h, f = CLASSIFICATION[spec]
    assert len(rs.pos_roots) == num
    assert rs.coxeter_number == h
    assert rs.index_of_connection == f
    assert len(minuscule_weights(rs)) == f
    n = rs.rank
    assert all(rs.cartan[i][i] == 2 for i in range(n))
    assert all(
        rs.cartan[i][j] <= 0 and (rs.cartan[i][j] == 0) == (rs.cartan[j][i] == 0)
        for i in range(n)
        for j in range(n)
        if i != j
    )


@pytest.mark.parametrize("spec", sorted(CLASSIFICATION))
def test_root_coords_are_integers_scaled_by_f(spec):
    # row i of the Cartan matrix is simple root i in weight coordinates, so
    # summing the rows with the returned coefficients must give f * v back
    rs = from_spec(spec)
    f, n = rs.index_of_connection, rs.rank
    for v in product(range(-1, 2), repeat=n):
        r = rs.root_coords(v)
        assert all(type(x) is int for x in r)
        assert tuple(
            sum(r[i] * rs.cartan[i][j] for i in range(n)) for j in range(n)
        ) == tuple(f * x for x in v)


@pytest.mark.parametrize("spec", sorted(CLASSIFICATION))
def test_pos_gram_matches_the_symmetrized_form(spec):
    # <a, b^v> = 2 (a, b) / (b, b), with (a, b) = sum a_k b_l d_l C[k][l] in
    # simple-root coordinates (C[k][l] = <alpha_k, alpha_l^v>)
    rs = from_spec(spec)
    n, d, c = rs.rank, rs.symmetrizer, rs.cartan
    form = [[d[l] * c[k][l] for l in range(n)] for k in range(n)]
    assert all(form[k][l] == form[l][k] for k in range(n) for l in range(n))
    roots = rs.pos_roots
    images = [[sum(a[k] * form[k][l] for k in range(n)) for l in range(n)] for a in roots]
    dot = [[sum(x * y for x, y in zip(img, b)) for b in roots] for img in images]
    m = len(roots)
    assert len(rs.pos_gram) == m and all(len(row) == m for row in rs.pos_gram)
    for i in range(m):
        assert rs.pos_gram[i][i] == 2
        for j in range(m):
            assert rs.pos_gram[i][j] == Fraction(2 * dot[i][j], dot[j][j]), (i, j)
    # a weight's coordinates are its pairings at the simple-root positions
    weights = list(product((-1, 2), repeat=n)) + [(2**70,) * n]
    for w in weights:
        pair = [sum(x * y for x, y in zip(row, w)) for row in rs.pos_coroots]
        assert tuple(pair[i] for i in rs.simple_positions) == w
        assert rs.weight_of(tuple(pair)) == w


@pytest.mark.parametrize("spec", ["Z9", "B1", "C2", "D3", "E9", "F5", "G3", "A0", ""])
def test_invalid_specs_rejected(spec):
    with pytest.raises(errors.ClassificationError):
        parse_system(spec)


def test_parse_is_case_insensitive():
    assert parse_system("b3") == ("B", 3)
    assert parse_system(" g2 ") == ("G", 2)


def test_a2_positive_roots():
    rs = from_spec("A2")
    assert repr(rs) == "RootSystem(A2)"
    assert set(rs.pos_roots) == {(1, 0), (0, 1), (1, 1)}
    assert rs.pos_roots[rs.highest_root] == (1, 1)
    with pytest.raises(errors.DomainError) as exc:
        rs.root_index((2, 1))
    assert str(exc.value) == "(2, 1) is not a positive root of A2"


def test_a1_positive_roots():
    rs = from_spec("A1")
    assert rs.pos_roots == ((1,),)


def test_g2_highest_roots():
    rs = from_spec("G2")
    assert rs.pos_roots[rs.highest_root] == (3, 2)
    assert rs.pos_roots[rs.highest_short_root] == (2, 1)
    assert rs.length_class[rs.root_index((1, 0))] == "short"
    assert rs.length_class[rs.root_index((0, 1))] == "long"


def test_closure_under_simple_reflections():
    for spec in ("A2", "B2", "G2", "B3"):
        rs = from_spec(spec)
        all_roots = {r for r in rs.pos_roots} | {
            tuple(-x for x in r) for r in rs.pos_roots
        }
        for r in rs.pos_roots:
            for i in range(1, rs.rank + 1):
                assert apply_word_to_root(rs, (i,), r) in all_roots


def test_pairing_dual_basis():
    rs = from_spec("A2")
    for i in range(1, 3):
        for j in range(1, 3):
            omega = rs.fundamental_weight(i)
            alpha = tuple(1 if t == j - 1 else 0 for t in range(2))
            assert pairing(rs, omega, alpha) == (1 if i == j else 0)


def test_pairing_examples():
    rs = from_spec("A2")
    theta = rs.pos_roots[rs.highest_root]
    assert pairing(rs, rs.rho(), theta) == 2
    assert pairing(rs, rs.zero(), theta) == 0
    neg_theta = tuple(-x for x in theta)
    assert pairing(rs, rs.rho(), neg_theta) == -2


def test_pairing_rejects_non_roots():
    rs = from_spec("A2")
    with pytest.raises(errors.DomainError):
        pairing(rs, rs.rho(), (2, 0))


def test_reflect_simple_examples():
    rs = from_spec("A2")
    assert reflect_simple(rs, 1, (1, 0)) == (-1, 1)
    assert reflect_simple(rs, 1, (0, 0)) == (0, 0)
    assert reflect_simple(rs, 1, (0, 1)) == (0, 1)
    with pytest.raises(errors.DomainError):
        reflect_simple(rs, 3, (0, 0))


def test_dominant_rep_examples():
    rs = from_spec("A2")
    assert dominant_rep(rs, (2, 1)) == ((2, 1), ())
    dom, word = dominant_rep(rs, (-1, 0))
    assert dom == (0, 1)
    assert len(word) == 2
    assert apply_word(rs, word, dom) == (-1, 0)
    dom, word = dominant_rep(rs, (-1, -1))
    assert dom == (1, 1)
    assert len(word) == 3  # the longest element


def word_inversions(rs, word):
    """Number of positive roots sent negative by the word's Weyl element."""
    count = 0
    for r in rs.pos_roots:
        img = apply_word_to_root(rs, word, r)
        if all(x <= 0 for x in img):
            count += 1
    return count


def _neg_pairing_count(rs, weight):
    return sum(
        1
        for row in rs.pos_coroots
        if sum(r * c for r, c in zip(row, weight)) < 0
    )


@pytest.mark.parametrize("spec", ["A1", "A2", "B2", "G2", "A3"])
def test_dominant_rep_box_properties(spec):
    rs = from_spec(spec)
    for w in product(range(-3, 4), repeat=rs.rank):
        dom, word = dominant_rep(rs, w)
        assert all(c >= 0 for c in dom)
        assert apply_word(rs, word, dom) == w
        # the greedy word is reduced: word length = inversions = negatives
        assert len(word) == word_inversions(rs, word) == _neg_pairing_count(rs, w)
        dom2, word2 = dominant_rep(rs, dom)
        assert dom2 == dom and word2 == ()
        assert dominant(rs, w) == dom


def test_root_order_examples():
    rs = from_spec("A2")
    assert root_order_leq(rs, (0, 0), (1, 1))
    assert root_order_leq(rs, (1, 0), (1, 0))
    assert not root_order_leq(rs, (1, 0), (0, 1))


def test_root_order_is_partial_order():
    rs = from_spec("B2")
    box = list(product(range(-2, 3), repeat=2))
    for a in box:
        assert root_order_leq(rs, a, a)
    for a in box:
        for b in box:
            if root_order_leq(rs, a, b) and root_order_leq(rs, b, a):
                assert a == b
    for a in box[::3]:
        for b in box[::3]:
            for c in box[::3]:
                if root_order_leq(rs, a, b) and root_order_leq(rs, b, c):
                    assert root_order_leq(rs, a, c)


def test_weyl_orbit_sizes():
    a2 = from_spec("A2")
    assert weyl_orbit(a2, (0, 0)) == ((0, 0),)
    assert len(weyl_orbit(a2, (1, 1))) == 6
    assert len(weyl_orbit(a2, (1, 0))) == 3
    assert len(weyl_orbit(from_spec("B2"), (0, 1))) == 4


def weyl_group_order(letter, n):
    """|W| from the classification's closed forms."""
    if letter == "A":
        return factorial(n + 1)
    if letter in "BC":
        return 2**n * factorial(n)
    if letter == "D":
        return 2 ** (n - 1) * factorial(n)
    return {
        ("G", 2): 12, ("F", 4): 1152,
        ("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
    }[letter, n]


@pytest.mark.parametrize("spec", sorted(CLASSIFICATION) + ["A5", "B4", "C4", "D5"])
def test_weyl_group_order_from_root_heights(spec):
    rs = from_spec(spec)
    want = weyl_group_order(rs.type_letter, rs.rank)
    assert rsys._parabolic_order(rs, tuple(range(rs.rank))) == want
    assert rsys._orbit_size(rs, rs.rho()) == want
    assert rsys._orbit_size(rs, rs.zero()) == 1


@pytest.mark.parametrize(
    "spec",
    ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "G2", "F4", "E6"],
)
def test_regular_orbit_has_weyl_group_order(spec):
    # W acts simply transitively on the orbit of a regular weight
    rs = from_spec(spec)
    for lam in (rs.rho(), tuple(range(1, rs.rank + 1))):
        orbit = weyl_orbit(rs, lam)
        assert len(orbit) == weyl_group_order(rs.type_letter, rs.rank)
        assert list(orbit) == sorted(set(orbit))
    points = set(orbit)
    for i in range(1, rs.rank + 1):
        assert {reflect_simple(rs, i, v) for v in orbit} == points, i


def test_weyl_orbit_refuses_by_count_before_walking(monkeypatch):
    rs = from_spec("E6")
    walked = []

    def counting(rs_, weight):
        for v in real(rs_, weight):
            walked.append(v)
            yield v

    real = rsys._iter_orbit
    monkeypatch.setattr(rsys, "_iter_orbit", counting)
    with scoped_cap(51840):
        assert len(weyl_orbit(rs, rs.rho())) == 51840
    walked.clear()
    with scoped_cap(51839), pytest.raises(errors.ResourceCapError) as exc:
        weyl_orbit(rs, rs.rho())
    assert walked == []
    assert str(exc.value) == f"Weyl orbit of {rs.rho()} exceeds the cap of 51839 points"


def seen_set_closure(rs, weight):
    seen = {tuple(weight)}
    queue = [tuple(weight)]
    while queue:
        v = queue.pop()
        for i in range(1, rs.rank + 1):
            w = reflect_simple(rs, i, v)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


@pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3", "B3", "C3", "D4"])
def test_weyl_orbit_matches_reflection_closure(spec):
    rs = from_spec(spec)
    for w in product(range(-2, 3), repeat=rs.rank):
        orbit = weyl_orbit(rs, w)
        assert orbit == tuple(sorted(seen_set_closure(rs, w))), w


@pytest.mark.parametrize("spec", ["A4", "B4", "F4", "E6"])
def test_weyl_orbit_is_closed_under_simple_reflections(spec):
    rs = from_spec(spec)
    # weights with nontrivial stabilizers; regular orbits are checked above
    weights = [rs.fundamental_weight(i) for i in range(1, rs.rank + 1)]
    weights.append(tuple((-1) ** j * (j % 3) for j in range(rs.rank)))
    for w in weights:
        orbit = set(weyl_orbit(rs, w))
        assert tuple(w) in orbit
        for i in range(1, rs.rank + 1):
            assert {reflect_simple(rs, i, v) for v in orbit} == orbit, (w, i)


def test_minuscule_sets():
    assert minuscule_weights(from_spec("A2")) == ((0, 0), (0, 1), (1, 0))
    assert minuscule_weights(from_spec("G2")) == ((0, 0),)
    assert minuscule_weights(from_spec("B2")) == ((0, 0), (0, 1))
    assert sorted(from_spec("C3").minuscule) == [1]
    assert sorted(from_spec("D4").minuscule) == [1, 3, 4]
    assert sorted(from_spec("E7").minuscule) == [7]


@pytest.mark.parametrize(
    "spec,size", [(spec, CLASSIFICATION[spec][2]) for spec in sorted(CLASSIFICATION)]
)
def test_subgroup_c(spec, size):
    # |C| = f; each (omega, w) has w(rho) = rho - h*omega, and the omegas
    # are the coset representatives, each once, with the identity first
    rs = from_spec(spec)
    elements = subgroup_C(rs)
    assert len(elements) == size
    assert elements[0] == (rs.zero(), ())
    h, rho = rs.coxeter_number, rs.rho()
    for omega, word in elements:
        assert apply_word(rs, word, rho) == tuple(r - h * o for r, o in zip(rho, omega))
    assert sorted(omega for omega, _ in elements) == list(minuscule_weights(rs))


@pytest.mark.parametrize("spec", ["D4", "E6", "E7", "A4"])
def test_subgroup_c_is_a_lattice_quotient_copy(spec):
    # one element per coset representative, with order dividing the index,
    # and closed under composition (w is fixed by w(rho), rho being regular)
    rs = from_spec(spec)
    elements = subgroup_C(rs)
    f, h, rho = rs.index_of_connection, rs.coxeter_number, rs.rho()
    assert len(elements) == f
    images = {apply_word(rs, word, rho) for _, word in elements}
    for omega, word in elements:
        assert apply_word(rs, word, rho) == tuple(r - h * o for r, o in zip(rho, omega))
        assert {apply_word(rs, word + other, rho) for _, other in elements} == images
        v = apply_word(rs, word, rho)
        order = 1
        while v != rs.rho():
            v = apply_word(rs, word, v)
            order += 1
            assert order <= f
        assert f % order == 0


def test_support_sets():
    a2 = from_spec("A2")
    assert support_sets(a2, (1, 1)) == ((), (1, 2))
    assert support_sets(a2, (1, 0)) == ((2,), (1, 2))
    assert support_sets(a2, (2, 2)) == ((), ())
    # computed on the dominant representative
    assert support_sets(a2, (-1, 0)) == support_sets(a2, (0, 1))


@settings(max_examples=60, deadline=None)
@given(
    coords=st.tuples(*[st.integers(-4, 4)] * 2),
    word=st.lists(st.integers(1, 2), max_size=6),
)
def test_pairing_weyl_invariance(coords, word):
    rs = from_spec("B2")
    for idx, root in enumerate(rs.pos_roots):
        img_w = apply_word(rs, tuple(word), coords)
        img_r = apply_word_to_root(rs, tuple(word), root)
        assert pairing(rs, img_w, img_r) == pairing(rs, coords, root)


@settings(max_examples=40, deadline=None)
@given(coords=st.tuples(*[st.integers(-5, 5)] * 2))
def test_orbit_contains_dominant_rep(coords):
    rs = from_spec("G2")
    orbit = weyl_orbit(rs, coords)
    dom, _ = dominant_rep(rs, coords)
    assert dom in orbit
    assert sum(1 for v in orbit if all(c >= 0 for c in v)) == 1
