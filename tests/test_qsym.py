"""Colored quasisymmetric functions: bases, Hopf structure, and the
maps from posets."""

import itertools
from fractions import Fraction

import pytest

from cqsym import combinat as cb
from cqsym import poset as ps
from cqsym import qsym as qs
from cqsym.terms import iadd_scaled
from extension_reference import (assert_gfs_match_reference,
                                 reference_extensions)


def _M(m, *alphas):
    out = qs.QElt.zero(m)
    for item in alphas:
        coeff, alpha = (item if isinstance(item[0], int) else (1, item))
        out = out + qs.QElt.basis_elt(m, "M", alpha).scale(coeff)
    return out


def _basis(m, letter, alpha):
    return qs.QElt.basis_elt(m, letter, alpha)


def _comps(m, max_n):
    for n in range(max_n + 1):
        for alpha in cb.enumerate_compositions(m, n):
            yield alpha


# --- basis conversions ----------------------------------------------------

def test_fundamental_to_monomial_uncolored():
    e = qs.f_to_m(_basis(1, "F", ((2, 0), (1, 0))))
    assert e == _M(1, (1, ((2, 0), (1, 0))), (1, ((1, 0), (1, 0), (1, 0))))


def test_fundamental_to_monomial_two_colors():
    e = qs.f_to_m(_basis(2, "F", ((1, 0), (2, 1), (1, 1))))
    assert e == _M(2,
                   (1, ((1, 0), (2, 1), (1, 1))),
                   (1, ((1, 0), (1, 1), (1, 1), (1, 1))))


def test_fundamental_to_monomial_three_colors():
    e = qs.f_to_m(_basis(3, "F", ((2, 0), (1, 2), (2, 1))))
    assert e == _M(3,
                   (1, ((2, 0), (1, 2), (2, 1))),
                   (1, ((1, 0), (1, 0), (1, 2), (2, 1))),
                   (1, ((2, 0), (1, 2), (1, 1), (1, 1))),
                   (1, ((1, 0), (1, 0), (1, 2), (1, 1), (1, 1))))


def test_peak_to_monomial_uncolored():
    assert qs.to_monomial(_basis(1, "K", ((2, 0),))) == \
        _M(1, (2, ((2, 0),)), (4, ((1, 0), (1, 0))))


def test_peak_to_monomial_two_colors():
    e = qs.k_to_m(_basis(2, "K", ((2, 0), (1, 0), (1, 1))))
    assert e == _M(2,
                   (8, ((2, 0), (1, 0), (1, 1))),
                   (8, ((1, 0), (2, 0), (1, 1))),
                   (16, ((1, 0), (1, 0), (1, 0), (1, 1))))


def test_peak_basis_rejects_non_peak_keys():
    try:
        _basis(1, "K", ((1, 0), (2, 0)))
    except ValueError:
        return
    raise AssertionError("K accepted a non-peak composition")


def test_peak_key_memo_still_rejects_non_peak_keys():
    # the peak test is memoized per key; a cached peak key must not let
    # another, non-peak key through, nor a repeat of the rejected one
    good, bad = ((2, 0), (1, 0)), ((1, 0), (2, 0))
    qs._is_peak_key.cache_clear()
    for _ in range(2):
        assert _basis(1, "K", good).terms == {good: 1}
        for key in (bad, ((1, 1), (1, 1))):
            try:
                _basis(2, "K", key)
            except ValueError:
                continue
            raise AssertionError("K accepted the non-peak key %r" % (key,))
    assert qs._is_peak_key.cache_info().currsize == 3


def test_memoized_expansions_survive_callers_mutating_results():
    # two terms each, so an expansion accumulated into a shared per-key
    # map or tuple would show on the repeat
    k = ((2, 0), (1, 0), (1, 1))
    f = _basis(2, "F", ((1, 0), (2, 1))) + _basis(2, "F", ((3, 0),))
    calls = [
        lambda: qs.k_to_m_key(k, 2),
        lambda: qs.peak_function(2, k).terms,
        lambda: qs.f_to_m(f).terms,
        lambda: qs.m_to_f(_M(2, ((2, 1), (1, 0)), ((3, 1),))).terms,
    ]
    for call in calls:
        first = call()
        want = dict(first)
        for key in list(first):
            first[key] += 7
        first[((9, 0),)] = 1
        assert call() == want
        qs._k_to_m_key.cache_clear()
        qs._refinements.cache_clear()
        assert call() == want


def test_m_f_round_trip():
    for m in (1, 2):
        for alpha in _comps(m, 4):
            e = _basis(m, "F", alpha)
            back = qs.m_to_f(qs.f_to_m(e))
            assert back.basis == "F" and back.terms == e.terms


def test_conversion_preserves_equality():
    for m in (1, 2):
        for n in range(5):
            for alpha in cb.peak_compositions(m, n):
                e = _basis(m, "K", alpha)
                assert qs.to_monomial(e) == e
                assert qs.m_to_f(qs.to_monomial(e)) == e


# --- product --------------------------------------------------------------

def test_monomial_product_quasi_shuffle():
    # same color parts can merge, different colors cannot
    assert qs.multiply(_M(1, ((1, 0),)), _M(1, ((1, 0),))) == \
        _M(1, (2, ((1, 0), (1, 0))), (1, ((2, 0),)))
    assert qs.multiply(_M(2, ((1, 0),)), _M(2, ((1, 1),))) == \
        _M(2, (1, ((1, 0), (1, 1))), (1, ((1, 1), (1, 0))))


def test_fundamental_product_golden():
    prod = qs.multiply(_basis(1, "F", ((1, 0),)), _basis(1, "F", ((1, 0),)))
    assert prod == _basis(1, "F", ((1, 0), (1, 0))) + _basis(1, "F", ((2, 0),))


def test_peak_product_golden():
    prod = qs.multiply(_basis(1, "K", ((2, 0),)), _basis(1, "K", ((1, 0),)))
    assert prod == _basis(1, "K", ((2, 0), (1, 0))) + \
        _basis(1, "K", ((3, 0),)).scale(2)


def test_product_is_graded_commutative_small():
    keys = [((1, 0),), ((1, 1),), ((2, 0),), ((1, 1), (1, 0))]
    for a, b in itertools.product(keys, repeat=2):
        x, y = _M(2, a), _M(2, b)
        assert qs.multiply(x, y) == qs.multiply(y, x)
        for alpha in qs.to_monomial(qs.multiply(x, y)).terms:
            assert cb.weight(alpha) == cb.weight(a) + cb.weight(b)


def test_one_is_the_unit():
    one = qs.QElt.one(2)
    e = _M(2, ((2, 1), (1, 0)))
    assert qs.multiply(one, e) == e == qs.multiply(e, one)


def _quasi_shuffle(a, b):
    """M_a * M_b as the colored quasi-shuffle: only same-color parts merge."""
    if not a or not b:
        return {a + b: 1}
    out = {}
    (s, i), (t, j) = a[0], b[0]
    heads = [(a[0], a[1:], b), (b[0], a, b[1:])]
    if i == j:
        heads.append(((s + t, i), a[1:], b[1:]))
    for head, rest_a, rest_b in heads:
        for key, c in _quasi_shuffle(rest_a, rest_b).items():
            out[(head,) + key] = out.get((head,) + key, 0) + c
    return out


def test_product_matches_the_quasi_shuffle_route():
    # the product shuffles representative chains in F; the quasi-shuffle
    # never leaves M, so the two routes share no code past the keys
    for m in (1, 2):
        comps = list(_comps(m, 4))
        for a in comps:
            for b in comps:
                if cb.weight(a) + cb.weight(b) <= 4:
                    prod = qs.to_monomial(qs.multiply(_basis(m, "M", a),
                                                      _basis(m, "M", b)))
                    assert prod.terms == _quasi_shuffle(a, b), (a, b)


def test_library_quasi_shuffle_matches_the_reference():
    for m in (1, 2):
        comps = list(_comps(m, 4))
        for a in comps:
            for b in comps:
                if cb.weight(a) + cb.weight(b) <= 4:
                    assert qs._quasi_shuffle(a, b) == _quasi_shuffle(a, b), \
                        (a, b)


def test_memoized_products_survive_callers_mutating_results():
    # two terms on the left, so a product accumulated into a shared
    # per-key map would show on the repeat
    for letter, a, a2, b in [("F", ((1, 0), (2, 1)), ((3, 0),), ((2, 0),)),
                             ("K", ((2, 0),), ((3, 1),), ((2, 1), (1, 0)))]:
        x = _basis(2, letter, a) + _basis(2, letter, a2)
        y = _basis(2, letter, b)
        first = qs.multiply(x, y)
        want = dict(first.terms)
        for key in list(first.terms):
            first.terms[key] += 7
        first.terms[((9, 0),)] = 1
        assert qs.multiply(x, y).terms == want
        qs._mul_keys.cache_clear()
        assert qs.multiply(x, y).terms == want


# --- coproduct and counit -------------------------------------------------

def test_monomial_coproduct_is_deconcatenation():
    pairs = qs.coproduct(_basis(2, "M", ((2, 1), (1, 0))))
    assert pairs == {
        ((), ((2, 1), (1, 0))): 1,
        (((2, 1),), ((1, 0),)): 1,
        (((2, 1), (1, 0)), ()): 1,
    }


def test_coproduct_counit_axiom():
    for m in (1, 2):
        for alpha in _comps(m, 4):
            left = qs.QElt.zero(m)
            right = qs.QElt.zero(m)
            for (beta, gamma), c in qs.coproduct(_basis(m, "M", alpha)).items():
                if not gamma:
                    left = left + _basis(m, "M", beta).scale(c)
                if not beta:
                    right = right + _basis(m, "M", gamma).scale(c)
            assert left == _basis(m, "M", alpha) == right


def _tensor_to_monomial(m, basis, pairs):
    out = {}
    for (a, b), c in pairs.items():
        left = qs.to_monomial(_basis(m, basis, a))
        right = qs.to_monomial(_basis(m, basis, b))
        for k1, c1 in left.terms.items():
            for k2, c2 in right.terms.items():
                key = (k1, k2)
                out[key] = out.get(key, 0) + c * c1 * c2
    return {k: c for k, c in out.items() if c}


def test_fundamental_and_peak_coproducts_match_the_monomial_route():
    # cutting a representative chain, then expanding both halves in M,
    # must equal deconcatenating the M expansion
    for m in (1, 2):
        for n in range(5):
            keys = [("F", a) for a in cb.enumerate_compositions(m, n)]
            keys += [("K", a) for a in cb.peak_compositions(m, n)]
            for letter, alpha in keys:
                e = _basis(m, letter, alpha)
                assert _tensor_to_monomial(m, letter, qs.coproduct(e)) == \
                    qs.coproduct(qs.to_monomial(e)), (letter, alpha)


def test_memoized_cuts_survive_callers_mutating_results():
    e = _basis(2, "F", ((2, 1), (1, 0)))
    want = dict(qs.coproduct(e))
    qs.coproduct(e).clear()
    assert qs.coproduct(e) == want
    qs._cut_keys.cache_clear()
    assert qs.coproduct(e) == want


def test_a_coproduct_drops_the_cuts_that_cancel():
    # F_(2) and F_(1,1) both cut into F_(1) (x) F_(1)
    e = _basis(1, "F", ((2, 0),)) - _basis(1, "F", ((1, 0), (1, 0)))
    assert qs.coproduct(e) == {
        ((), ((2, 0),)): 1, (((2, 0),), ()): 1,
        ((), ((1, 0), (1, 0))): -1, (((1, 0), (1, 0)), ()): -1}


def test_counit():
    assert qs.counit(qs.QElt.one(2)) == 1
    assert qs.counit(_M(2, ((1, 1),))) == 0
    assert qs.counit(qs.QElt.zero(1)) == 0


def test_element_arithmetic_repr_and_hash():
    F = _basis(2, "F", ((2, 0),))
    M = _basis(2, "M", ((1, 0), (1, 1)))
    diff = F - M    # across bases: in M
    assert diff.basis == "M"
    assert diff.terms == {((2, 0),): 1, ((1, 0), (1, 0)): 1,
                          ((1, 0), (1, 1)): -1}
    assert -F == F.scale(-1) and (-F).basis == "F"
    assert 3 * F == F * 3 == F.scale(3)
    assert F * M == qs.multiply(F, M)
    with pytest.raises(ValueError):
        F - _basis(1, "F", ((2, 0),))
    with pytest.raises(TypeError):
        hash(F)
    assert repr(diff) == ("QElt(1*M[(1, 0), (1, 0)] + -1*M[(1, 0), (1, 1)]"
                          " + 1*M[(2, 0)])")
    assert repr(F.scale(Fraction(1, 2))) == "QElt(Fraction(1, 2)*F[(2, 0)])"
    assert repr(F - F) == "QElt(F; 0)"


# --- antipode -------------------------------------------------------------

def test_antipode_monomial_golden():
    assert qs.antipode(_M(1, ((2, 0),))) == _M(1, (-1, ((2, 0),)))
    # reverse then coarsen, sign by length
    assert qs.antipode(_M(1, ((1, 0), (1, 0)))) == \
        _M(1, (1, ((1, 0), (1, 0))), (1, ((2, 0),)))


def test_antipode_fundamental_is_signed_conjugate():
    for m in (1, 2):
        for alpha in _comps(m, 4):
            e = _basis(m, "F", alpha)
            sign = (-1) ** cb.weight(alpha)
            assert qs.antipode(e) == \
                _basis(m, "F", cb.conjugate(alpha)).scale(sign)


def test_antipode_closed_matches_inductive():
    for m in (1, 2):
        for alpha in _comps(m, 3):
            e = _basis(m, "M", alpha)
            assert qs.antipode(e) == qs.antipode_inductive(e)
            assert qs.antipode_inductive_key(alpha, m) == qs.antipode(e)


def test_antipode_closed_matches_inductive_to_weight_six():
    # the inductive route multiplies in M by the quasi-shuffle, the closed
    # route coarsens and reverses: no code in common past the keys
    for m in (1, 2):
        for alpha in _comps(m, 6):
            e = _basis(m, "M", alpha)
            assert qs.antipode_inductive_key(alpha, m) == qs.antipode(e), \
                alpha


def test_antipode_is_an_involution_here():
    # QSym is commutative, so S has order two.
    for m in (1, 2):
        for alpha in _comps(m, 3):
            e = _basis(m, "M", alpha)
            assert qs.antipode(qs.antipode(e)) == e


def test_antipode_convolution_axiom():
    for m in (1, 2):
        for alpha in _comps(m, 3):
            acc = qs.QElt.zero(m)
            for (beta, gamma), c in qs.coproduct(_basis(m, "M", alpha)).items():
                term = qs.multiply(qs.antipode(_basis(m, "M", beta)),
                                   _basis(m, "M", gamma))
                acc = acc + term.scale(c)
            expect = qs.QElt.one(m) if not alpha else qs.QElt.zero(m)
            assert acc == expect


# --- generating function maps ---------------------------------------------

def test_gamma_on_chains_is_fundamental():
    for m in (1, 2):
        for alpha in _comps(m, 4):
            pi = cb.rep_chain(alpha)
            P = ps.canonical_form(
                ps.chain_poset(m, pi))
            assert qs.ppartition_gf(P) == _basis(m, "F", alpha)


def test_gamma_sums_over_linear_extensions():
    for m in (1, 2):
        for P in ps.canonical_posets(m, 3):
            expect = qs.QElt.zero(m)
            for pi in P.linear_extensions():
                expect = expect + _basis(m, "F", cb.descent_composition(pi))
            assert qs.ppartition_gf(P) == expect


def test_lambda_on_chains_is_peak():
    for m in (1, 2):
        for alpha in _comps(m, 4):
            pi = cb.rep_chain(alpha)
            P = ps.canonical_form(ps.chain_poset(m, pi))
            assert qs.enriched_gf(P) == _basis(m, "K", cb.hat(alpha))


def test_gamma_lambda_multiplicative_small():
    grid = [P for n in range(3) for P in ps.canonical_posets(2, n)]
    for A in grid:
        for B in grid:
            C = ps.product_key(A, B)
            assert qs.ppartition_gf(C) == \
                qs.multiply(qs.ppartition_gf(A), qs.ppartition_gf(B))
            assert qs.enriched_gf(C) == \
                qs.multiply(qs.enriched_gf(A), qs.enriched_gf(B))


def test_gamma_commutes_with_antipode_small():
    for P in ps.canonical_posets(2, 3):
        e = ps.PElt.basis(P)
        image = qs.QElt.zero(2)
        for Q, c in ps.antipode(e).terms.items():
            image = image + qs.ppartition_gf(Q).scale(c)
        assert image == qs.antipode(qs.to_monomial(qs.ppartition_gf(P)))


# --- the peak projection --------------------------------------------------

def test_theta_golden_uncolored():
    e = _basis(1, "F", tuple((s, 0) for s in (3, 1, 1, 3, 2, 1, 1, 1)))
    assert qs.peak_projection(e).terms == \
        {tuple((s, 0) for s in (3, 5, 2, 3)): 1}


def test_theta_golden_colored():
    alpha = ((3, 0), (1, 0), (1, 1), (3, 1), (2, 0), (1, 1), (1, 1), (1, 0))
    e = qs.peak_projection(_basis(2, "F", alpha))
    assert e.terms == {cb.hat(alpha): 1}


def test_theta_is_lambda_after_gamma():
    for m in (1, 2):
        for P in ps.canonical_posets(m, 3):
            gamma = qs.m_to_f(qs.to_monomial(qs.ppartition_gf(P)))
            assert qs.peak_projection(gamma) == qs.enriched_gf(P)


def test_theta_is_an_algebra_map_small():
    for a in [((2, 0),), ((1, 0), (1, 0)), ((1, 1),)]:
        for b in [((1, 0),), ((2, 1),)]:
            x, y = _basis(2, "F", a), _basis(2, "F", b)
            lhs = qs.peak_projection(qs.multiply(x, y))
            rhs = qs.multiply(qs.peak_projection(x), qs.peak_projection(y))
            assert lhs == rhs


def test_theta_commutes_with_antipode():
    for m in (1, 2):
        for alpha in _comps(m, 4):
            e = _basis(m, "F", alpha)
            lhs = qs.peak_projection(qs.m_to_f(qs.to_monomial(qs.antipode(e))))
            rhs = qs.antipode(qs.to_monomial(qs.peak_projection(e)))
            assert lhs == rhs


def test_gamma_and_lambda_match_the_reference_walk_on_the_grids():
    for m, max_n in ((1, 5), (2, 5), (3, 4)):
        for n in range(max_n + 1):
            for P in ps.canonical_posets(m, n):
                assert_gfs_match_reference(P)


def test_linear_extensions_match_the_reference_walk():
    # every labeled order, not only canonical ones: the table is keyed on
    # a structure's closure masks, whichever labeling they come from
    for n in range(6):
        values = tuple(range(2, 2 * n + 2, 2))
        colors = tuple(i % 2 for i in range(n))
        for above in ps.labeled_orders(n):
            P = ps.Poset(2, values, colors, above)
            assert P.linear_extensions() == reference_extensions(P)


@pytest.mark.parametrize("m, f_terms, k_terms", [(1, 128, 21),
                                                  (2, 838, 154)])
def test_gamma_and_lambda_of_an_eight_element_antichain(m, f_terms, k_terms):
    P = ps.antichain_poset(m, [(v, v % m) for v in range(1, 9)])
    assert_gfs_match_reference(P)
    gamma, lam = qs.ppartition_gf(P), qs.enriched_gf(P)
    assert (len(gamma.terms), len(lam.terms)) == (f_terms, k_terms)
    assert sum(gamma.terms.values()) == sum(lam.terms.values()) == 40320


# --- maps that skip QElt's cleaning ---------------------------------------

def _assert_clean(e):
    """e's term map is what the public constructor would make of it."""
    for key, c in e.terms.items():
        assert type(key) is tuple and all(type(p) is tuple for p in key)
        assert c != 0
        assert e.basis != "K" or cb.is_peak_composition(key)
    again = qs.QElt(e.m, e.basis, e.terms)
    assert list(again.terms.items()) == list(e.terms.items())


def _mixed(m, letter, keys):
    # signed and fractional coefficients, so products and conversions of
    # these can cancel to zero
    coeffs = itertools.cycle((1, -1, 2, Fraction(1, 2), -3))
    return qs.QElt(m, letter, {a: c for a, c in zip(keys, coeffs)})


def test_internal_maps_give_clean_elements():
    for m in (1, 2):
        comps = list(_comps(m, 3))
        peaks = [a for n in range(4) for a in cb.peak_compositions(m, n)]
        elts = {"M": [_basis(m, "M", a) for a in comps],
                "F": [_basis(m, "F", a) for a in comps],
                "K": [_basis(m, "K", a) for a in peaks]}
        for letter, keys in (("M", comps), ("F", comps), ("K", peaks)):
            elts[letter] += [_mixed(m, letter, keys[i:i + 3])
                             for i in range(0, len(keys), 2)]
        for e in elts["M"]:
            _assert_clean(qs.m_to_f(e))
        for e in elts["F"]:
            _assert_clean(qs.f_to_m(e))
            _assert_clean(qs.peak_projection(e))
        for e in elts["K"]:
            _assert_clean(qs.k_to_m(e))
        for letter in qs.BASES:
            for e in elts[letter]:
                _assert_clean(qs.antipode(e))
            for x in elts[letter][::3]:
                for y in elts["F"][::4] + elts[letter][::5]:
                    _assert_clean(qs.multiply(x, y))
        for n in range(5):
            for P in ps.canonical_posets(m, n):
                _assert_clean(qs.ppartition_gf(P))
                _assert_clean(qs.enriched_gf(P))


def test_the_public_constructor_still_cleans():
    e = qs.QElt(2, "F", {((1, 0),): 0, ((2, 1),): Fraction(0),
                         ((1, 1),): 3})
    assert e.terms == {((1, 1),): 3}
    with pytest.raises(ValueError, match="peak"):
        qs.QElt(1, "K", {((1, 0), (2, 0)): 1})


def test_scaled_sums_drop_cancelled_keys_and_mix_coefficients():
    terms = {"a": 1, "b": Fraction(1, 2)}
    iadd_scaled(terms, {"a": 2, "b": 1, "c": 3}, Fraction(-1, 2))
    assert terms == {"c": Fraction(-3, 2)}
    iadd_scaled(terms, {"c": 1, "d": 0}, 0)
    assert terms == {"c": Fraction(-3, 2)}
    iadd_scaled(terms, {"c": 1, "d": 0, "e": 2}, 3)
    assert terms == {"c": Fraction(3, 2), "e": 6}
    assert type(terms["e"]) is int
    iadd_scaled(terms, {"c": Fraction(1, 2), "e": -3}, 2)
    assert terms == {"c": Fraction(5, 2)}


def test_peak_function_helper():
    assert qs.peak_function(2, ((2, 0), (1, 1))) == \
        _basis(2, "K", ((2, 0), (1, 1)))


# --- dimensions -----------------------------------------------------------

def test_m_rank():
    for m in (1, 2):
        for n in range(1, 5):
            basis = [_M(m, a) for a in cb.enumerate_compositions(m, n)]
            assert qs.m_rank(basis) == len(basis)
            doubled = basis + [b.scale(3) for b in basis]
            assert qs.m_rank(doubled) == len(basis)


def test_peak_functions_are_independent():
    for m in (1, 2):
        for n in range(1, 5):
            expansions = [qs.to_monomial(_basis(m, "K", a))
                          for a in cb.peak_compositions(m, n)]
            assert qs.m_rank(expansions) == len(expansions)
