import pytest

from cohomolab.char_chern import (
    ChernReport,
    ClassFunction,
    Cyclotomic,
    chern_exponents_at,
    cyclotomic_polynomial,
    induce_linear,
    irreducible_characters,
    linear_character_exponents,
    pc,
    pc_report,
)
from cohomolab import char_chern
from cohomolab.char_chern import _eigenvalue_multiplicities, _subgroup_sources
from cohomolab import groups
from cohomolab.groups import (
    build_G_a1,
    build_M,
    build_P,
    build_cyclic,
    build_product,
    singer_group,
    subgroup_closure,
    symmetric_3,
)
from group_helpers import (
    all_pairs_sources,
    conjugate_member_sets,
    induce_linear_elementwise,
    inner_elementwise,
    linear_characters_oracle,
    per_element,
)


# ---------------------------------------------------------------------------
# cyclotomic arithmetic
# ---------------------------------------------------------------------------


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for p in (5, 7, 11):
        assert cyclotomic_polynomial(p) == tuple([1] * p)


def test_root_of_unity_relations():
    for N in (3, 5, 8, 12):
        z = Cyclotomic.root(N, 1)
        acc = Cyclotomic.integer(N, 1)
        for _ in range(N):
            acc = acc * z
        assert acc == Cyclotomic.integer(N, 1)
        assert Cyclotomic.root(N, 3) * Cyclotomic.root(N, N - 3) == \
            Cyclotomic.integer(N, 1)


def test_sum_of_all_roots_is_minus_one():
    for p in (3, 5, 7):
        acc = Cyclotomic.zero(p)
        for k in range(1, p):
            acc = acc + Cyclotomic.root(p, k)
        assert acc == Cyclotomic.integer(p, -1)
        assert acc.as_integer() == -1


def test_cyclotomic_rationality_checks():
    z = Cyclotomic.root(5, 1)
    with pytest.raises(ValueError):
        z.as_integer()
    with pytest.raises(ArithmeticError):
        Cyclotomic.integer(5, 1).divide_exact(2)
    with pytest.raises(ValueError):
        Cyclotomic.root(3, 1) + Cyclotomic.root(5, 1)


# ---------------------------------------------------------------------------
# linear characters
# ---------------------------------------------------------------------------


def test_linear_characters_of_cyclic():
    C6 = build_cyclic(6)
    chars = linear_character_exponents(C6, 6)
    assert len(chars) == 6
    assert sorted(c[1] for c in chars) == [0, 1, 2, 3, 4, 5]


def test_linear_characters_of_s3():
    S3 = symmetric_3()
    chars = linear_character_exponents(S3, 6)
    assert len(chars) == 2  # abelianization C_2


def test_linear_characters_of_elementary_abelian():
    V = build_product([build_cyclic(3), build_cyclic(3)])
    assert len(linear_character_exponents(V, 3)) == 9


# ---------------------------------------------------------------------------
# irreducible characters
# ---------------------------------------------------------------------------


def test_irreducibles_c6():
    irr = irreducible_characters(build_cyclic(6))
    assert [c.degree() for c in irr] == [1] * 6


def test_irreducibles_extraspecial_27():
    G = build_P(3, 3)
    irr = irreducible_characters(G)
    assert sorted(c.degree() for c in irr) == [1] * 9 + [3, 3]
    assert sum(c.degree() ** 2 for c in irr) == 27


def test_irreducibles_singer_72():
    G = singer_group(3, 2)
    irr = irreducible_characters(G)
    assert sorted(c.degree() for c in irr) == [1] * 8 + [8]


ORACLE_GROUPS = {
    "S3": symmetric_3,
    "P(3,3)": lambda: build_P(3, 3),
    "M(3,3)": lambda: build_M(3, 3),
    "Singer(3,2)": lambda: singer_group(3, 2),
    "C2xC3xC3": lambda: build_product(
        [build_cyclic(2), build_cyclic(3), build_cyclic(3)]),
}


@pytest.mark.parametrize("name", list(ORACLE_GROUPS))
def test_induce_linear_matches_elementwise_oracle(name):
    # the per-class values, read at every element, are the induction
    # formula evaluated there, so every induced character is constant on
    # classes
    G = ORACLE_GROUPS[name]()
    N = G.exponent()
    for H in _subgroup_sources(G):
        for exps in linear_character_exponents(H.as_group(), N):
            assert per_element(induce_linear(H, exps, N)) == \
                induce_linear_elementwise(H, exps, N)


@pytest.mark.parametrize("name", ["S3", "P(3,3)", "Singer(3,2)"])
def test_inner_matches_elementwise_sum(name):
    G = ORACLE_GROUPS[name]()
    N = G.exponent()
    # permutation characters of proper subgroups: reducible, norm > 1
    induced = [induce_linear(H, [0] * H.order, N)
               for H in _subgroup_sources(G)[1:5]]
    assert all(chi.norm() > 1 for chi in induced)
    chars = irreducible_characters(G) + induced
    for a in chars:
        for b in chars:
            assert a.inner(b) == inner_elementwise(per_element(a),
                                                   per_element(b), G)


def test_inner_and_multiplicities_reduce_once(monkeypatch):
    G = build_P(3, 3)  # N = 3: products reach x^2 and need one reduction
    irr = irreducible_characters(G)
    g = next(x for x in range(G.order) if G.element_order(x) == 3)
    reduce = char_chern._reduce_mod_phi
    calls = []
    monkeypatch.setattr(char_chern, "_reduce_mod_phi",
                        lambda N, cs: calls.append(N) or reduce(N, cs))
    for a in irr:
        for b in irr:
            calls.clear()
            a.inner(b)
            assert calls == [3]
        calls.clear()
        _eigenvalue_multiplicities(a, g, 3)
        assert calls == [3] * 3  # once per eigenvalue zeta_3^j


@pytest.mark.parametrize("name", ["P(3,3)", "Singer(3,2)"])
def test_eigenvalue_multiplicities_match_elementwise_sum(name):
    G = ORACLE_GROUPS[name]()
    for chi in irreducible_characters(G):
        N, values = chi.conductor, per_element(chi)
        for g in range(G.order):
            if G.element_order(g) != 3:
                continue
            want = []
            for j in range(3):
                acc = Cyclotomic.zero(N)
                for k in range(3):
                    acc = acc + values[G.power(g, k)] * Cyclotomic.root(
                        N, -j * k * (N // 3))
                want.append(acc.divide_exact(3))
            assert _eigenvalue_multiplicities(chi, g, 3) == want


def test_orthonormality_checks_each_unordered_pair_once(monkeypatch):
    inner = ClassFunction.inner
    pairs = []

    def counted(a, b):
        pairs.append(frozenset((id(a), id(b))))
        return inner(a, b)

    # norms taken during the search are not part of the certificate
    monkeypatch.setattr(ClassFunction, "norm", lambda a: inner(a, a))
    monkeypatch.setattr(ClassFunction, "inner", counted)
    irr = irreducible_characters(build_P(3, 3))
    k = len(irr)
    assert len(pairs) == k * (k + 1) // 2 == len(set(pairs))
    assert set().union(*pairs) == {id(c) for c in irr}


def test_subgroup_sources_validate_each_new_closure_once(monkeypatch):
    from cohomolab import char_chern
    from cohomolab.groups import Subgroup
    G = build_P(3, 3)
    init = Subgroup.__init__
    built = []

    def counted(self, parent, members):
        built.append(frozenset(members))
        init(self, parent, members)

    monkeypatch.setattr(Subgroup, "__init__", counted)
    sources = char_chern._subgroup_sources(G)
    assert len(built) == len(set(built)) == len(sources)
    assert [H.member_set for H in sources] == \
        sorted(built, key=lambda m: -len(m))
    # one subgroup per conjugacy class: G, the center and one of each of
    # the 4 classes of 3 noncentral subgroups of order 3, and the 4 normal
    # subgroups of order 9
    assert sorted(H.order for H in sources) == [3] * 5 + [9] * 4 + [27]


@pytest.mark.parametrize("name", list(ORACLE_GROUPS))
def test_linear_characters_match_the_brute_force_oracle(name):
    G = ORACLE_GROUPS[name]()
    N = G.exponent()
    for H in all_pairs_sources(G):
        K = H.as_group()
        assert sorted(linear_character_exponents(K, N)) == \
            sorted(linear_characters_oracle(K, N))


@pytest.mark.parametrize("name", list(ORACLE_GROUPS))
def test_every_two_element_closure_is_conjugate_to_a_source(name):
    G = ORACLE_GROUPS[name]()
    sources = {H.member_set for H in _subgroup_sources(G)}
    closures = {H.member_set for H in all_pairs_sources(G)}
    assert sources <= closures
    for members in closures:
        assert conjugate_member_sets(G, members) & sources


# the groups of the catalogue's pc jobs (P_2(3) is P(3,3)) and a few more
SEARCH_GROUPS = {
    "C9": (lambda: build_cyclic(9), 3),
    "C3xC3": (lambda: build_product([build_cyclic(3), build_cyclic(3)]), 3),
    "P(3,3)": (lambda: build_P(3, 3), 3),
    "Singer(3,2)": (lambda: singer_group(3, 2), 3),
    "M(3,3)": (lambda: build_M(3, 3), 3),
    "G(1,1)": (lambda: build_G_a1(1, 3), 3),
    "C2xC3xC3": (lambda: build_product(
        [build_cyclic(2), build_cyclic(3), build_cyclic(3)]), 3),
    "Singer(2,3)": (lambda: singer_group(2, 3), 2),
    "P(3,5)": (lambda: build_P(3, 5), 5),
    "G(2,1)": (lambda: build_G_a1(2, 3), 3),
    "M(4,3)": (lambda: build_M(4, 3), 3),
    "C12": (lambda: build_cyclic(12), 3),
    "C4xC2": (lambda: build_product([build_cyclic(4), build_cyclic(2)]), 2),
    "S3": (symmetric_3, 3),
}


def _search_outcome(G, p):
    rep = pc_report(G, p)
    return ([chi.value_key() for chi in irreducible_characters(G)],
            rep.pc, rep.alternative_lcm_2m,
            [(r.subgroup.member_set, r.exponent_set, r.m)
             for r in rep.per_class])


@pytest.mark.parametrize("name", list(SEARCH_GROUPS))
def test_characters_and_pc_match_the_brute_force_search(name, monkeypatch):
    build, p = SEARCH_GROUPS[name]
    got = _search_outcome(build(), p)
    monkeypatch.setattr(char_chern, "linear_character_exponents",
                        linear_characters_oracle)
    monkeypatch.setattr(char_chern, "_subgroup_sources", all_pairs_sources)
    assert got == _search_outcome(build(), p)


@pytest.mark.parametrize("G,dependent", [
    pytest.param(build_product([build_cyclic(2), build_cyclic(4)]),
                 {4: [(8, 4)]}, id="C2xC4"),
    pytest.param(build_M(3, 3), {9: [(27, 9), (27, 9)]}, id="M(3,3)")])
def test_dependent_quotient_generators_keep_only_homomorphisms(
        G, dependent, monkeypatch):
    """Where the greedy generators of H/H' are dependent, some candidate
    images are no homomorphism: the edge check rejects them, and exactly
    |H : H'| remain.  dependent: source order -> (candidates, kept)."""
    check = char_chern._is_homomorphism
    tried = []
    monkeypatch.setattr(char_chern, "_is_homomorphism",
                        lambda H, e, N: tried.append(e) or check(H, e, N))
    N, seen = G.exponent(), {}
    for H in _subgroup_sources(G):
        tried.clear()
        K = H.as_group()
        exps = linear_character_exponents(K, N)
        assert sorted(exps) == sorted(linear_characters_oracle(K, N))
        if len(tried) > len(exps):
            seen.setdefault(H.order, []).append((len(tried), len(exps)))
    assert seen == dependent


# closure_members calls of pc; all-pairs sources and brute-force linear
# characters made 117 and 552
@pytest.mark.parametrize("build,calls", [
    pytest.param(lambda: build_P(3, 3), 58, id="P(3,3)"),
    pytest.param(lambda: singer_group(3, 2), 121, id="Singer(3,2)")])
def test_pc_closure_counts(build, calls, monkeypatch):
    G = build()
    closure = groups.closure_members
    made = []

    def counted(H, gens):
        made.append(H)
        return closure(H, gens)

    monkeypatch.setattr(groups, "closure_members", counted)
    monkeypatch.setattr(char_chern, "closure_members", counted)
    pc(G, 3)
    assert len(made) == calls


def test_orthonormality_and_column_orthogonality():
    G = symmetric_3()
    irr = irreducible_characters(G)
    assert sorted(c.degree() for c in irr) == [1, 1, 2]
    for i, a in enumerate(irr):
        for j, b in enumerate(irr):
            assert a.inner(b) == (1 if i == j else 0)
    # column orthogonality: sum over chi of chi(K) chi(K^-1) = |C_G(g)|
    # for g in K, and |C_G(g)| = |G| / |K|
    cls = G.classes()
    for k, (g, k_inv) in enumerate(zip(cls.reps, cls.inverse)):
        centralizer = sum(1 for x in range(G.order) if G.conj(x, g) == g)
        N = irr[0].conductor
        acc = Cyclotomic.zero(N)
        for chi in irr:
            acc = acc + chi.values[k] * chi.values[k_inv]
        assert acc.as_integer() == centralizer == G.order // cls.sizes[k]


def test_class_function_validation():
    G = build_cyclic(3)
    with pytest.raises(ValueError):
        ClassFunction(G, [Cyclotomic.integer(3, 1)])
    with pytest.raises(ValueError):  # one value per element, 3 classes
        ClassFunction(symmetric_3(), [Cyclotomic.integer(6, 1)] * 6)


# ---------------------------------------------------------------------------
# Chern restrictions
# ---------------------------------------------------------------------------


def test_chern_on_cyclic_p():
    G = build_cyclic(3)
    C = subgroup_closure(G, [1])
    rep = chern_exponents_at(G, C)
    assert rep.exponent_set == {1}
    assert rep.m == 1


def test_chern_on_singer_subgroup():
    G = singer_group(3, 2)
    irr = irreducible_characters(G)
    g = next(x for x in range(G.order) if G.element_order(x) == 3)
    C = subgroup_closure(G, [g])
    rep = chern_exponents_at(G, C, irr)
    # linear characters die on the translation part; the degree-8 character
    # contributes (1 - u^2)^3 = 1 - u^6
    assert rep.exponent_set == {6}
    assert rep.m == 6


def test_chern_extraspecial_center_vs_noncentral():
    G = build_P(3, 3)
    irr = irreducible_characters(G)
    ms = {}
    from cohomolab.groups import order_p_subgroup_classes
    for C in order_p_subgroup_classes(G, 3):
        central = all(G.conj(x, C.members[1]) == C.members[1]
                      for x in range(G.order))
        ms[central] = chern_exponents_at(G, C, irr).m
    assert ms[True] == 3   # only the degree-3 characters see the center
    assert ms[False] == 1  # linear characters restrict faithfully


def test_chern_conjugate_subgroups_agree():
    G = build_P(3, 3)
    irr = irreducible_characters(G)
    g = next(x for x in range(G.order)
             if G.element_order(x) == 3
             and any(G.conj(y, x) != x for y in range(G.order)))
    C1 = subgroup_closure(G, [g])
    x = next(y for y in range(G.order) if G.conj(y, g) != g)
    C2 = subgroup_closure(G, [G.conj(x, g)])
    assert C1.member_set != C2.member_set
    r1 = chern_exponents_at(G, C1, irr)
    r2 = chern_exponents_at(G, C2, irr)
    assert r1.exponent_set == r2.exponent_set and r1.m == r2.m


def test_chern_rejects_composite_order():
    G = build_cyclic(9)
    C = subgroup_closure(G, [1])
    with pytest.raises(ValueError):
        chern_exponents_at(G, C)


# ---------------------------------------------------------------------------
# pc
# ---------------------------------------------------------------------------


def test_pc_abelian_is_two():
    assert pc(build_cyclic(9), 3) == 2
    assert pc(build_product([build_cyclic(3), build_cyclic(3)]), 3) == 2


def test_pc_minimal_nonabelian():
    assert pc(build_P(3, 3), 3) == 6
    assert pc(build_P(3, 5), 5) == 10


def test_pc_singer():
    assert pc(singer_group(3, 2), 3) == 12


def test_singer_2_3_needs_a_three_generator_source():
    """The degree-7 character of (C2)^3 : C7 is induced only from (C2)^3,
    which no two elements generate: the closures of <=2 elements give the
    7 linear characters, and one more element finds the eighth."""
    G = singer_group(2, 3)
    first = char_chern._monomial_search(G, _subgroup_sources(G))
    assert sorted(c.degree() for c in first) == [1] * 7
    irr = irreducible_characters(G)
    assert sorted(c.degree() for c in irr) == [1] * 7 + [7]
    assert len(irr) == len(G.classes().reps) == 8


def test_pc_divisibility_bound():
    # pc(G) divides 2(p-1)p^(n-1) where p^n is the p-part of |G|
    cases = [
        (build_cyclic(9), 3, 2),
        (build_product([build_cyclic(3), build_cyclic(3)]), 3, 2),
        (build_P(3, 3), 3, 3),
        (singer_group(3, 2), 3, 2),
    ]
    for G, p, n in cases:
        bound = 2 * (p - 1) * p ** (n - 1)
        assert bound % pc(G, p) == 0


def test_pc_unchanged_by_coprime_abelian_factor():
    G = build_product([build_P(3, 3), build_cyclic(2)])
    assert pc(G, 3) == 6


def test_pc_report_metadata():
    rep = pc_report(build_P(3, 3), 3)
    assert rep.pc == 6
    assert rep.alternative_lcm_2m == 6
    assert all(isinstance(r, ChernReport) for r in rep.per_class)


def test_pc_requires_divisibility():
    with pytest.raises(ValueError):
        pc(build_cyclic(8), 3)


def test_induced_character_degree():
    G = symmetric_3()
    H = subgroup_closure(G, [g for g in range(6)
                             if G.element_order(g) == 3][:1])
    assert H.order == 3
    chars = linear_character_exponents(H.as_group(), 6)
    nontrivial = next(c for c in chars if any(c))
    chi = induce_linear(H, nontrivial, 6)
    assert chi.degree() == H.index
    assert chi.norm() == 1  # the 2-dimensional irreducible of S_3
