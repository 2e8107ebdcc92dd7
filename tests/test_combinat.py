"""Colored compositions, colored permutations, and their statistics."""

import itertools

from cqsym import combinat as cb


def _comps(m, max_n):
    for n in range(max_n + 1):
        for alpha in cb.enumerate_compositions(m, n):
            yield alpha


# --- compositions ---------------------------------------------------------

def test_composition_counts():
    # m(m+1)^(n-1) colored compositions of n, and exactly one of 0.
    for m in (1, 2, 3):
        assert cb.enumerate_compositions(m, 0) == [()]
        for n in range(1, 6):
            count = len(cb.enumerate_compositions(m, n))
            assert count == m * (m + 1) ** (n - 1)


def test_enumeration_is_valid_and_distinct():
    for m in (1, 2):
        for n in range(5):
            comps = cb.enumerate_compositions(m, n)
            assert len(set(comps)) == len(comps)
            for alpha in comps:
                cb.check_comp(alpha, m)
                assert cb.weight(alpha) == n


def test_negative_weights_have_no_compositions():
    for m in (1, 2, 3):
        for n in (-1, -2, -5):
            assert cb.enumerate_compositions(m, n) == []
            assert cb.peak_compositions(m, n) == []


def test_compositions_come_in_increasing_order():
    # within one weight no composition is a prefix of another, so this is
    # the order of a depth-first walk by part size, then color
    for m in (1, 2, 3):
        for n in range(7):
            for found in (cb.enumerate_compositions(m, n),
                          cb.peak_compositions(m, n)):
                assert found == sorted(found)


def test_check_comp_rejects():
    for alpha, m in [(((0, 0),), 1), (((-2, 0),), 1), (((1, 1),), 1),
                     (((1, 2),), 2), (((2, -1),), 3)]:
        try:
            cb.check_comp(alpha, m)
        except ValueError:
            continue
        raise AssertionError("accepted %r with m=%d" % (alpha, m))


def test_refinements_and_coarsenings_are_inverse_relations():
    for alpha in _comps(2, 4):
        for beta in cb.refinements(alpha):
            assert cb.refines(beta, alpha)
            assert cb.weight(beta) == cb.weight(alpha)
            assert alpha in cb.coarsenings(beta)
        for gamma in cb.coarsenings(alpha):
            assert cb.refines(alpha, gamma)
            assert alpha in cb.refinements(gamma)


def test_refinement_respects_color():
    # Splitting a part keeps its color, so every refinement of a
    # one-part composition is constant in that color.
    for beta in cb.refinements(((3, 1),)):
        assert all(c == 1 for _, c in beta)
    assert ((1, 0), (1, 1)) not in cb.refinements(((2, 0),))


def test_star():
    # beta* splits every part after the first of size >= 2 into 1, rest.
    assert cb.star(()) == ()
    assert cb.star(((4, 0),)) == ((4, 0),)
    assert cb.star(((3, 0), (3, 0))) == ((3, 0), (1, 0), (2, 0))
    assert cb.star(((2, 1), (1, 1), (2, 1))) == ((2, 1), (1, 1), (1, 1), (1, 1))


def test_rainbow_round_trip():
    for alpha in _comps(3, 4):
        blocks = cb.rainbow_decompose(alpha)
        for sizes, color in blocks:
            assert sizes
            assert all(isinstance(s, int) and s > 0 for s in sizes)
        colors = [color for _, color in blocks]
        assert all(a != b for a, b in zip(colors, colors[1:]))
        assert tuple((size, color) for sizes, color in blocks
                     for size in sizes) == alpha


def test_reverse_is_an_involution():
    assert cb.reverse(((2, 0), (1, 1))) == ((1, 1), (2, 0))
    for alpha in _comps(2, 3):
        assert cb.reverse(cb.reverse(alpha)) == alpha


# --- peak compositions and the hat map ------------------------------------

def test_hat_uncolored():
    assert cb.hat(tuple((s, 0) for s in (3, 1, 1, 3, 2, 1, 1, 1))) == \
        tuple((s, 0) for s in (3, 5, 2, 3))


def test_hat_colored():
    alpha = ((3, 0), (1, 0), (1, 1), (3, 1), (2, 0), (1, 1), (1, 1), (1, 0))
    assert cb.hat(alpha) == ((3, 0), (1, 0), (4, 1), (2, 0), (2, 1), (1, 0))


def test_hat_lands_on_peak_compositions():
    for m in (1, 2):
        for alpha in _comps(m, 5):
            image = cb.hat(alpha)
            assert cb.weight(image) == cb.weight(alpha)
            assert cb.is_peak_composition(image)
            assert cb.hat(image) == image
        for n in range(6):
            hit = {cb.hat(a) for a in cb.enumerate_compositions(m, n)}
            assert hit == set(cb.peak_compositions(m, n))


def test_is_peak_composition_matches_definition():
    # Within each rainbow block every part but the last must exceed 1.
    for alpha in _comps(2, 5):
        expect = all(all(s > 1 for s in sizes[:-1])
                     for sizes, _ in cb.rainbow_decompose(alpha))
        assert cb.is_peak_composition(alpha) == expect


def test_peak_composition_counts():
    # f(m,1) = m, f(m,2) = m^2, f(m,n) = m f(m,n-1) + f(m,n-2).
    for m in (1, 2, 3):
        assert cb.count_peak_compositions(m, 1) == m
        assert cb.count_peak_compositions(m, 2) == m * m
        for n in range(3, 8):
            assert cb.count_peak_compositions(m, n) == \
                m * cb.count_peak_compositions(m, n - 1) + \
                cb.count_peak_compositions(m, n - 2)
        for n in range(1, 6):
            found = cb.peak_compositions(m, n)
            assert len(found) == cb.count_peak_compositions(m, n)
            assert all(cb.is_peak_composition(a) for a in found)
    assert [cb.count_peak_compositions(1, n) for n in range(1, 8)] == \
        [1, 1, 2, 3, 5, 8, 13]


# --- permutation statistics -----------------------------------------------

def test_descent_composition_colored():
    # Runs are maximal increasing and constant in color.
    pi = ((1, 0), (2, 1), (3, 1), (4, 0), (8, 1), (5, 1), (7, 0), (6, 0))
    assert cb.descent_composition(pi) == \
        ((1, 0), (2, 1), (1, 0), (1, 1), (1, 1), (1, 0), (1, 0))


def test_descent_composition_uncolored():
    chain = tuple((v, 0) for v in (5, 4, 1))
    assert cb.descent_composition(chain) == ((1, 0), (1, 0), (1, 0))
    chain = tuple((v, 0) for v in (5, 1, 4))
    assert cb.descent_composition(chain) == ((1, 0), (2, 0))


def test_peak_set_uncolored():
    pi = tuple((v, 0) for v in (3, 2, 7, 5, 4, 1, 8, 6))
    assert cb.peak_set(pi) == (3, 7)
    assert cb.peak_composition(pi) == ((3, 0), (4, 0), (1, 0))


def test_peak_set_colored():
    # Only peaks interior to a constant-color run count, but positions
    # are global.
    pi = ((3, 1), (7, 1), (2, 1), (5, 1), (4, 0), (1, 0),
          (8, 1), (9, 1), (6, 1))
    assert cb.peak_set(pi) == (2, 8)
    assert cb.peak_composition(pi) == \
        ((2, 1), (2, 1), (2, 0), (2, 1), (1, 1))


def test_color_runs():
    pi = ((3, 1), (7, 1), (4, 0), (1, 0), (8, 1))
    assert cb.color_runs(pi) == (((3, 7), 1), ((4, 1), 0), ((8,), 1))


def test_peak_composition_of_runs_without_peaks():
    for pi in itertools.permutations(range(1, 4)):
        word = tuple((v, 0) for v in pi)
        hat = cb.hat(cb.descent_composition(word))
        assert cb.peak_composition(word) == hat


def test_rep_chain_realizes_descents():
    for m in (1, 2):
        for alpha in _comps(m, 4):
            pi = cb.rep_chain(alpha)
            cb.check_perm(pi, m)
            assert sorted(v for v, _ in pi) == list(range(1, len(pi) + 1))
            assert cb.descent_composition(pi) == alpha


def test_rep_chain_realizes_peaks():
    # For a peak composition the representative's peak composition is
    # the composition itself; this is what the K-basis product uses.
    for m in (1, 2):
        for n in range(5):
            for alpha in cb.peak_compositions(m, n):
                assert cb.peak_composition(cb.rep_chain(alpha)) == alpha


def test_standardize():
    assert cb.standardize(((9, 1), (2, 0), (5, 1))) == \
        ((3, 1), (1, 0), (2, 1))
    for pi in itertools.permutations([(7, 0), (2, 1), (9, 1), (4, 0)]):
        std = cb.standardize(pi)
        assert sorted(v for v, _ in std) == [1, 2, 3, 4]
        assert cb.descent_composition(std) == cb.descent_composition(pi)


def test_shuffles():
    left = tuple((v, 0) for v in (1, 2))
    right = ((3, 1),)
    words = cb.shuffles(left, right)
    assert len(words) == 3
    for w in words:
        assert tuple(x for x in w if x in left) == left
        assert tuple(x for x in w if x in right) == right
    # Binomial count on longer disjoint chains.
    left = tuple((v, 0) for v in (1, 2, 3))
    right = tuple((v, 1) for v in (4, 5))
    assert len(cb.shuffles(left, right)) == 10


def _recursive_shuffles(sigma, tau):
    """The former shuffles, one recursive call per letter: the reference
    for the order of the words."""
    out = []

    def rec(i, j, acc):
        if i == len(sigma) and j == len(tau):
            out.append(tuple(acc))
            return
        if i < len(sigma):
            acc.append(sigma[i])
            rec(i + 1, j, acc)
            acc.pop()
        if j < len(tau):
            acc.append(tau[j])
            rec(i, j + 1, acc)
            acc.pop()

    rec(0, 0, [])
    return out


def test_shuffles_keep_the_recursive_order():
    for a in range(6):
        for b in range(6):
            left = tuple((v, v % 2) for v in range(1, a + 1))
            right = tuple((v, 1) for v in range(a + 1, a + b + 1))
            assert cb.shuffles(left, right) == \
                _recursive_shuffles(left, right), (a, b)
            assert cb.shuffles(right, left) == \
                _recursive_shuffles(right, left), (b, a)


def test_check_perm_rejects():
    for pi, m in [(((1, 0), (1, 0)), 1), (((1, 2),), 2), (((0, 0),), 1)]:
        try:
            cb.check_perm(pi, m)
        except ValueError:
            continue
        raise AssertionError("accepted %r with m=%d" % (pi, m))


# --- conjugation ----------------------------------------------------------

def test_conjugate_golden():
    alpha = ((1, 0), (1, 2), (2, 1), (3, 1), (1, 2), (2, 2), (4, 0))
    tilde = ((1, 0), (1, 0), (1, 0), (1, 0), (1, 2), (2, 2),
             (1, 1), (1, 1), (2, 1), (1, 1), (1, 2), (1, 0))
    assert cb.conjugate(alpha) == tilde
    assert cb.conjugate(tilde) == alpha


def test_conjugate_is_an_involution():
    for m in (1, 2, 3):
        for alpha in _comps(m, 4):
            assert cb.conjugate(cb.conjugate(alpha)) == alpha
            assert cb.conjugate_via_diagram(alpha) == cb.conjugate(alpha)


def test_ribbon_round_trip():
    for alpha in _comps(2, 4):
        cells = cb.ribbon_cells(alpha)
        assert cb.ribbon_decode(cells) == alpha
        assert len(cells) == cb.weight(alpha)
