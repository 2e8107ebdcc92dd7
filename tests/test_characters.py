"""Characters on the poset and quasisymmetric Hopf algebras, their
convolution group, and the morphisms they induce."""

from fractions import Fraction

import pytest

from cqsym import characters as ch
from cqsym import combinat as cb
from cqsym import poset as ps
from cqsym import qsym as qs
from cqsym import verify
from psi_reference import reference_universal_morphism


def _M(m, alpha):
    return qs.QElt.basis_elt(m, "M", alpha)


def _F(m, alpha):
    return qs.QElt.basis_elt(m, "F", alpha)


def _K(m, alpha):
    return qs.QElt.basis_elt(m, "K", alpha)


def _comps(m, max_n):
    for n in range(max_n + 1):
        for alpha in cb.enumerate_compositions(m, n):
            yield alpha


def _posets(m, max_n):
    for n in range(max_n + 1):
        for P in ps.canonical_posets(m, n):
            yield P


def _colors_strictly_increase(alpha):
    colors = [c for _, c in alpha]
    return all(a < b for a, b in zip(colors, colors[1:]))


# --- evaluation closed forms ----------------------------------------------

def test_zeta_single_color_on_monomials():
    # zeta^(j) keeps only the empty key and single parts of color j.
    for m in (1, 2, 3):
        for j in range(m):
            phi = ch.zeta_qsym(m, j)
            for alpha in _comps(m, 4):
                expect = 1 if alpha in ((), ) or \
                    (len(alpha) == 1 and alpha[0][1] == j) else 0
                assert phi(_M(m, alpha)) == expect


def test_zeta_single_color_on_fundamentals():
    for m in (1, 2):
        for j in range(m):
            phi = ch.zeta_qsym(m, j)
            for alpha in _comps(m, 4):
                expect = 1 if not alpha or \
                    (len(alpha) == 1 and alpha[0][1] == j) else 0
                assert phi(_F(m, alpha)) == expect


def test_zeta_full_on_monomials():
    for m in (1, 2, 3):
        phi = ch.zeta_qsym_all(m)
        for alpha in _comps(m, 4):
            assert phi(_M(m, alpha)) == int(_colors_strictly_increase(alpha))


def test_zeta_full_on_fundamentals():
    # With one variable per color the strict steps at descents force
    # color jumps, so the condition matches the monomial one.
    for m in (2, 3):
        phi = ch.zeta_qsym_all(m)
        for alpha in _comps(m, 4):
            assert phi(_F(m, alpha)) == int(_colors_strictly_increase(alpha))


def test_zeta_single_color_on_peaks():
    for m in (1, 2):
        for j in range(m):
            phi = ch.zeta_qsym(m, j)
            for n in range(5):
                for alpha in cb.peak_compositions(m, n):
                    expect = 1 if not alpha else \
                        (2 if len(alpha) == 1 and alpha[0][1] == j else 0)
                    assert phi(_K(m, alpha)) == expect


def test_zeta_full_on_peaks():
    for m in (1, 2, 3):
        phi = ch.zeta_qsym_all(m)
        for n in range(5):
            for alpha in cb.peak_compositions(m, n):
                expect = 2 ** len(alpha) if _colors_strictly_increase(alpha) \
                    else 0
                if not alpha:
                    expect = 1
                assert phi(_K(m, alpha)) == expect


def test_zeta_full_is_the_convolution_of_the_singles():
    for m in (2, 3):
        phi = ch.zeta_qsym_all(m)
        conv = None
        for j in range(m):
            nxt = ch.zeta_qsym(m, j)
            conv = nxt if conv is None else ch.convolve(conv, nxt)
        for alpha in _comps(m, 3):
            assert phi(_M(m, alpha)) == conv(_M(m, alpha))


# --- pullbacks along the generating function maps -------------------------

def test_zeta_poset_pullback():
    for m in (1, 2):
        full = ch.zeta_poset_all(m)
        fullq = ch.zeta_qsym_all(m)
        singles = [(ch.zeta_poset(m, j), ch.zeta_qsym(m, j))
                   for j in range(m)]
        for P in _posets(m, 3):
            gamma = qs.to_monomial(qs.ppartition_gf(P))
            assert full.of_key(P) == fullq(gamma)
            for phi_p, phi_q in singles:
                assert phi_p.of_key(P) == phi_q(gamma)


def test_nu_poset_is_zeta_after_lambda():
    for m in (1, 2):
        full = ch.nu_poset_all(m)
        fullq = ch.zeta_qsym_all(m)
        singles = [(ch.nu_poset(m, j), ch.zeta_qsym(m, j))
                   for j in range(m)]
        for P in _posets(m, 3):
            lam = qs.to_monomial(qs.enriched_gf(P))
            assert full.of_key(P) == fullq(lam)
            for phi_p, phi_q in singles:
                assert phi_p.of_key(P) == phi_q(lam)


def test_nu_qsym_is_zeta_after_theta():
    for m in (1, 2):
        full = ch.nu_qsym_all(m)
        fullq = ch.zeta_qsym_all(m)
        singles = [(ch.nu_qsym(m, j), ch.zeta_qsym(m, j))
                   for j in range(m)]
        for alpha in _comps(m, 4):
            theta = qs.to_monomial(qs.peak_projection(_F(m, alpha)))
            assert full(_F(m, alpha)) == fullq(theta)
            for phi_f, phi_q in singles:
                assert phi_f(_F(m, alpha)) == phi_q(theta)


# --- counting interpretations ---------------------------------------------

def test_zeta_poset_counts_color_sorted_natural_extensions():
    # One count per linear extension that is increasing within each
    # color and whose run colors strictly increase.
    for m in (1, 2):
        phi = ch.zeta_poset_all(m)
        for P in _posets(m, 3):
            count = 0
            for pi in P.linear_extensions():
                count += _colors_strictly_increase(
                    cb.descent_composition(pi))
            assert phi.of_key(P) == count


def test_nu_poset_single_color_counting():
    for m in (1, 2):
        for j in range(m):
            phi = ch.nu_poset(m, j)
            for P in _posets(m, 3):
                if P.n == 0:
                    assert phi.of_key(P) == 1
                    continue
                count = sum(1 for pi in P.linear_extensions()
                            if all(c == j for _, c in pi)
                            and not cb.peak_set(pi))
                assert phi.of_key(P) == 2 * count


def test_nu_poset_full_counting():
    for m in (1, 2):
        phi = ch.nu_poset_all(m)
        for P in _posets(m, 4):
            if P.n == 0:
                assert phi.of_key(P) == 1
                continue
            k = len(set(P.colors))
            count = 0
            for pi in P.linear_extensions():
                colors = [c for _, c in pi]
                if colors == sorted(colors) and not cb.peak_set(pi):
                    count += 1
            assert phi.of_key(P) == 2 ** k * count


# --- the convolution group ------------------------------------------------

def test_convolution_unit():
    dom = ch.qsym_domain(2)
    eps = ch.counit_character(dom)
    phi = ch.zeta_qsym_all(2)
    for alpha in _comps(2, 3):
        e = _M(2, alpha)
        assert ch.convolve(eps, phi)(e) == phi(e)
        assert ch.convolve(phi, eps)(e) == phi(e)
        assert eps(e) == (1 if not alpha else 0)


def test_convolution_associativity_spot():
    a = ch.zeta_qsym(2, 0)
    b = ch.zeta_qsym(2, 1)
    c = ch.nu_qsym(2, 0)
    for alpha in _comps(2, 3):
        e = _M(2, alpha)
        assert ch.convolve(ch.convolve(a, b), c)(e) == \
            ch.convolve(a, ch.convolve(b, c))(e)


def test_inverse_is_a_convolution_inverse():
    for m in (1, 2):
        for phi in (ch.zeta_qsym_all(m), ch.nu_qsym_all(m),
                    ch.zeta_qsym(m, 0)):
            inv = ch.inverse(phi)
            eps = ch.counit_character(phi.domain)
            for alpha in _comps(m, 3):
                e = _M(m, alpha)
                assert ch.convolve(phi, inv)(e) == eps(e)
                assert ch.convolve(inv, phi)(e) == eps(e)


def test_inverse_is_an_involution():
    phi = ch.zeta_qsym_all(2)
    double = ch.inverse(ch.inverse(phi))
    for alpha in _comps(2, 3):
        assert double(_M(2, alpha)) == phi(_M(2, alpha))


def test_bar_flips_odd_degrees():
    phi = ch.zeta_qsym(1, 0)
    assert ch.bar(phi)(_F(1, ((3, 0),))) == -1
    assert ch.bar(phi)(_F(1, ((2, 0),))) == 1
    barbar = ch.bar(ch.bar(phi))
    for alpha in _comps(1, 4):
        assert barbar(_F(1, alpha)) == phi(_F(1, alpha))


def test_nu_definition():
    # nu(phi) folds bar-inverse against phi.
    for m in (1, 2):
        for j in range(m):
            phi = ch.zeta_qsym(m, j)
            built = ch.convolve(ch.inverse(ch.bar(phi)), phi)
            named = ch.nu_qsym(m, j)
            for alpha in _comps(m, 3):
                assert built(_M(m, alpha)) == named(_M(m, alpha))


def test_single_color_nu_is_odd():
    for m in (1, 2):
        for j in range(m):
            phi = ch.nu_qsym(m, j)
            psi = ch.nu_poset(m, j)
            for alpha in _comps(m, 4):
                assert ch.bar(phi).of_key(alpha) == \
                    ch.inverse(phi).of_key(alpha)
            for P in _posets(m, 3):
                assert ch.bar(psi).of_key(P) == ch.inverse(psi).of_key(P)


def test_full_nu_is_not_odd_for_two_colors():
    # The convolution of the color-wise odd characters fails oddness as
    # a whole; the mixed-color key of degree two is the witness.
    phi = ch.nu_qsym_all(2)
    key = ((1, 0), (1, 1))
    assert phi.of_key(key) == 4
    assert ch.bar(phi).of_key(key) == 4
    assert ch.inverse(phi).of_key(key) == 0

    psi = ch.nu_poset_all(2)
    chain = ps.canonical_form(ps.chain_poset(2, [(1, 0), (2, 1)]))
    assert psi.of_key(chain) == 4
    assert ch.bar(psi).of_key(chain) == 4
    assert ch.inverse(psi).of_key(chain) == 0


def test_full_nu_is_the_convolution_of_singles():
    for m in (1, 2):
        conv = None
        for j in range(m):
            nxt = ch.nu_qsym(m, j)
            conv = nxt if conv is None else ch.convolve(conv, nxt)
        named = ch.nu_qsym_all(m)
        for alpha in _comps(m, 3):
            assert named.of_key(alpha) == conv.of_key(alpha)


def test_nu_pair_helper():
    zq = ch.zeta_qsym(2, 0)
    built = ch.nu_pair(ch.bar(zq), zq)
    for alpha in _comps(2, 3):
        assert built.of_key(alpha) == ch.nu_qsym(2, 0).of_key(alpha)
    zp = ch.zeta_poset(2, 0)
    built = ch.nu_pair(ch.bar(zp), zp)
    for P in _posets(2, 2):
        assert built.of_key(P) == ch.nu_poset(2, 0).of_key(P)


def test_characters_are_multiplicative():
    for phi in (ch.zeta_qsym_all(2), ch.nu_qsym_all(2)):
        for a in [((1, 0),), ((2, 1),), ((1, 0), (1, 1))]:
            for b in [((1, 1),), ((1, 0),)]:
                x, y = _M(2, a), _M(2, b)
                assert phi(qs.multiply(x, y)) == phi(x) * phi(y)
    for phi in (ch.zeta_poset_all(2), ch.nu_poset_all(2)):
        grid = list(_posets(2, 2))
        for A in grid:
            for B in grid:
                assert phi.of_key(ps.product_key(A, B)) == \
                    phi.of_key(A) * phi.of_key(B)


def test_character_rejects_wrong_color_count():
    phi = ch.zeta_qsym_all(2)
    try:
        phi(_M(1, ((1, 0),)))
    except (AssertionError, ValueError):
        return
    raise AssertionError("character accepted an element with the wrong m")


def test_character_errors_are_value_errors():
    # raised, not asserted, so they hold under python -O too
    with pytest.raises(ValueError, match="same number of colors"):
        ch.zeta_qsym_all(2)(_M(1, ((1, 0),)))
    with pytest.raises(ValueError, match="same number of colors"):
        ch.zeta_poset(2, 0)(ps.PElt.one(1))
    with pytest.raises(ValueError):
        ch.convolve(ch.zeta_qsym(2, 0), ch.zeta_poset(2, 0))
    with pytest.raises(ValueError):
        ch.convolve(ch.zeta_qsym(2, 0), ch.zeta_qsym(1, 0))
    for factory in (ch.zeta_qsym, ch.zeta_poset):
        with pytest.raises(ValueError):
            factory(2, 2)
        with pytest.raises(ValueError):
            factory(2, -1)


def test_one_color_families_keep_their_parts_names():
    # at m=1 the family is its only part; naming it must not rename the
    # cached part, whatever the call order
    for family, single, name in ((ch.zeta_qsym_all, ch.zeta_qsym, "zetaQ"),
                                 (ch.zeta_poset_all, ch.zeta_poset, "zetaP"),
                                 (ch.nu_qsym_all, ch.nu_qsym, "nuQ"),
                                 (ch.nu_poset_all, ch.nu_poset, "nuP")):
        whole = family(1)
        assert whole.name == name
        assert single(1, 0).name == name + ":0"
        assert whole is not single(1, 0)
        for key in ([(), ((1, 0),), ((2, 0),)] if "Q" in name
                    else list(_posets(1, 2))):
            assert whole.of_key(key) == single(1, 0).of_key(key)


# --- universal morphisms --------------------------------------------------

def test_psi_with_zeta_family_is_the_identity():
    for m in (1, 2):
        chars = [ch.zeta_qsym(m, j) for j in range(m)]
        for alpha in _comps(m, 3):
            e = _M(m, alpha)
            assert ch.universal_morphism(e, chars) == e


def test_psi_with_nu_family_is_theta():
    for m in (1, 2):
        chars = [ch.nu_qsym(m, j) for j in range(m)]
        for alpha in _comps(m, 4):
            e = _F(m, alpha)
            assert ch.universal_morphism(e, chars) == qs.peak_projection(e)


def test_psi_with_poset_zetas_is_gamma():
    for m in (1, 2):
        chars = [ch.zeta_poset(m, j) for j in range(m)]
        for P in _posets(m, 3):
            image = ch.universal_morphism(ps.PElt.basis(P), chars)
            assert image == qs.ppartition_gf(P)


def test_psi_with_poset_nus_is_lambda():
    for m in (1, 2):
        chars = [ch.nu_poset(m, j) for j in range(m)]
        for P in _posets(m, 3):
            image = ch.universal_morphism(ps.PElt.basis(P), chars)
            assert image == qs.enriched_gf(P)


def test_psi_is_multiplicative_on_posets():
    chars = [ch.zeta_poset(2, j) for j in range(2)]
    grid = list(_posets(2, 2))
    for A in grid:
        for B in grid:
            joint = ch.universal_morphism(
                ps.PElt.basis(ps.product_key(A, B)), chars)
            split = qs.multiply(
                ch.universal_morphism(ps.PElt.basis(A), chars),
                ch.universal_morphism(ps.PElt.basis(B), chars))
            assert joint == split


def test_psi_on_points():
    for m in (1, 2, 3):
        chars = [ch.zeta_poset(m, j) for j in range(m)]
        assert ch.universal_morphism(ps.PElt.one(m), chars) == qs.QElt.one(m)
        for j in range(m):
            point = ps.canonical_form(
                ps.antichain_poset(m, [(1, j)]))
            assert ch.universal_morphism(ps.PElt.basis(point), chars) == \
                _M(m, ((1, j),))


def _families(single_zeta, single_nu, m):
    # zeta, nu, and a mix taking zeta on even colors and nu on odd ones
    return [[single_zeta(m, j) for j in range(m)],
            [single_nu(m, j) for j in range(m)],
            [(single_zeta, single_nu)[j % 2](m, j) for j in range(m)]]


def _assert_psi_matches_reference(e, chars):
    got = ch.universal_morphism(e, chars)
    want = reference_universal_morphism(e, chars)
    assert got.basis == want.basis == "M"
    assert got.terms == want.terms, (e, [phi.name for phi in chars])


def test_psi_matches_the_k_fold_route_on_posets():
    for m, max_n in ((1, 4), (2, 4), (3, 3)):
        for chars in _families(ch.zeta_poset, ch.nu_poset, m):
            for P in _posets(m, max_n):
                _assert_psi_matches_reference(ps.PElt.basis(P), chars)


def test_psi_matches_the_k_fold_route_on_compositions():
    for m in (1, 2):
        for chars in _families(ch.zeta_qsym, ch.nu_qsym, m):
            for n in range(5):
                for alpha in cb.enumerate_compositions(m, n):
                    for basis in ("M", "F"):
                        _assert_psi_matches_reference(
                            qs.QElt.basis_elt(m, basis, alpha), chars)
                for alpha in cb.peak_compositions(m, n):
                    _assert_psi_matches_reference(_K(m, alpha), chars)


def test_psi_matches_the_k_fold_route_on_sums():
    half, third = Fraction(1, 2), Fraction(-2, 3)
    grid = list(_posets(2, 3))
    e = ps.PElt(2, {grid[0]: half, grid[3]: third, grid[-1]: 5,
                    grid[-2]: Fraction(7, 4)})
    assert grid[0].n == 0
    x = qs.QElt(2, "F", {(): third, ((2, 0), (1, 1)): half,
                         ((1, 1), (1, 0), (1, 1)): -3})
    y = qs.QElt(2, "K", {(): 4, ((1, 0), (2, 1)): half, ((3, 1),): third})
    for chars in _families(ch.zeta_poset, ch.nu_poset, 2):
        _assert_psi_matches_reference(e, chars)
    for chars in _families(ch.zeta_qsym, ch.nu_qsym, 2):
        _assert_psi_matches_reference(x, chars)
        _assert_psi_matches_reference(y, chars)
        _assert_psi_matches_reference(x + y, chars)


def _character_caches():
    return {name: info for name, info in verify.cache_stats().items()
            if name.startswith("characters.")}


def test_psi_keeps_no_memo_between_calls():
    # the factories are warmed first; Psi itself must neither add to nor
    # read from any characters cache
    calls = [(ps.PElt.basis(P), chars)
             for chars in _families(ch.zeta_poset, ch.nu_poset, 2)
             for P in _posets(2, 3)]
    calls += [(_M(2, alpha), chars)
              for chars in _families(ch.zeta_qsym, ch.nu_qsym, 2)
              for alpha in _comps(2, 3)]
    before = _character_caches()
    for e, chars in calls:
        ch.universal_morphism(e, chars)
    assert _character_caches() == before


def test_psi_rejects_mismatched_arguments():
    zq = [ch.zeta_qsym(2, j) for j in range(2)]
    zp = [ch.zeta_poset(2, j) for j in range(2)]
    with pytest.raises(ValueError):
        ch.universal_morphism(_M(2, ((1, 0),)), zq[:1])
    with pytest.raises(ValueError):
        ch.universal_morphism(_M(2, ((1, 0),)), [zq[0], zp[1]])
    with pytest.raises(ValueError, match="same number of colors"):
        ch.universal_morphism(_M(1, ((1, 0),)), zq)
    with pytest.raises(ValueError, match="same number of colors"):
        ch.universal_morphism(ps.PElt.one(3), zp)
