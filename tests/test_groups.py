import ast
import itertools
import json
import math
import pathlib
import random
from array import array

import pytest

import cohomolab

from cohomolab import groups
from cohomolab.char_chern import _subgroup_sources
from cohomolab.exact_linalg import _prime_factors, is_prime
from cohomolab.groups import (
    _with_order,
    FiniteGroup,
    build_B,
    build_G_a1,
    build_M,
    build_P,
    build_cyclic,
    build_group,
    build_product,
    build_semidirect,
    closure_members,
    order_p_subgroup_classes,
    singer_group,
    subgroup_closure,
    symmetric_3,
)
from group_helpers import (brute_classes, center_and_derived, digest_oracle,
                           is_abelian, key_oracle, light_oracle,
                           orbit_subgroup_classes)
from test_cli import _catalogue_argvs


def brute_order_p_subgroups(G, p):
    subs = set()
    for g in range(1, G.order):
        if G.element_order(g) == p:
            subs.add(frozenset(G.power(g, k) for k in range(p)))
    return subs


# ---------------------------------------------------------------------------
# family constructions
# ---------------------------------------------------------------------------


def test_p2_3_order_and_center():
    G = build_P(3, 3)
    assert G.order == 27
    Z, D = center_and_derived(G)
    assert Z.order == 3
    assert D.order == 3
    assert Z.member_set == D.member_set
    assert G.exponent() == 3
    assert not is_abelian(G)


def test_p2_5_exponent():
    G = build_P(3, 5)
    assert G.order == 125
    assert G.exponent() == 5


def test_p4_center_and_derived():
    G = build_P(4, 3)
    assert G.order == 81
    Z, D = center_and_derived(G)
    assert Z.order == 9  # the subgroup generated by C, index p^2
    assert D.order == 3  # generated by C^{p^{n-3}}
    assert D.member_set <= Z.member_set


def test_m4_structure():
    G = build_M(4, 3)
    assert G.order == 81
    assert G.exponent() == 27  # B has order p^{n-1}
    Z, D = center_and_derived(G)
    assert D.order == 3
    assert not is_abelian(G)


def test_b4_center_cyclic():
    G = build_B(4, 1, 3)
    assert G.order == 81
    Z, _ = center_and_derived(G)
    # center is cyclic generated by C^p
    assert Z.order == 3
    zg = [z for z in Z.members if z != 0]
    assert all(G.element_order(z) == 3 for z in zg)


def test_b4_epsilon_classes_differ():
    # epsilon = 1 vs a non-residue give non-isomorphic groups; at least the
    # construction must distinguish them through the collection rules
    G1 = build_B(4, 1, 3)
    G2 = build_B(4, 2, 3)
    assert G1.order == G2.order == 81
    # same gross invariants but different tables
    assert G1.mul != G2.mul


def test_g21_structure():
    G = build_G_a1(2, 3)
    assert G.order == 81
    Z, D = center_and_derived(G)
    assert D.order == 3
    # C is central and so is A^p (here A has order p^a = 9)
    assert Z.order == 9
    assert G.exponent() == 9


def test_cyclic_and_product():
    C6 = build_cyclic(6)
    assert C6.order == 6
    assert is_abelian(C6)
    G = build_product([build_cyclic(3), build_cyclic(3)])
    assert G.order == 9
    assert G.exponent() == 3
    Z, D = center_and_derived(G)
    assert Z.order == 9 and D.order == 1


@pytest.mark.parametrize("build,args", [
    (build_cyclic, (4097,)),
    (build_cyclic, (0,)),
    (build_P, (10 ** 9, 3)),
    (build_M, (14, 3)),
    (build_B, (9, 1, 3)),
    (build_G_a1, (7, 3)),
])
def test_orders_beyond_the_table_bound_are_rejected_first(build, args):
    with pytest.raises(ValueError, match="outside supported range"):
        build(*args)


def test_semidirect_closure_stops_at_the_order_bound(monkeypatch):
    # a 12-cycle permuting the coordinates of (C_2)^12: the matrix group
    # has order 12, and 2^12 * 2 already exceeds MAX_TABLE_ORDER
    from cohomolab import exact_linalg, groups
    shift = [[int(j == (i + 1) % 12) for j in range(12)] for i in range(12)]
    scalars = []  # one 12 x 12 product multiplies 12^3 pairs of entries
    monkeypatch.setattr(exact_linalg, "mul",
                        lambda a, b, f=exact_linalg.mul:
                        scalars.append(1) or f(a, b))
    with pytest.raises(ValueError, match="matrix group order above 1"):
        groups.build_semidirect(2, 12, [shift])
    assert len(scalars) == 12 ** 3


@pytest.mark.parametrize("build,digest,key", [
    (lambda: singer_group(3, 2), "54b2e7f268a9c0f3", "e86e277a86b232a8"),
    (symmetric_3, "3d361cd7efb36228", "961f76925b14d02b"),
    # two generators: the depth-first order of the closure shows here
    (lambda: build_semidirect(3, 2, [((1, 1), (0, 1)), ((0, 1), (-1, 0))]),
     "0d8144d8fb3aa2c6", "6956021ab98ddfae"),
], ids=["Singer(3,2)", "S3", "3^2:SL2(3)"])
def test_semidirect_numbering_is_pinned(build, digest, key):
    """Cache files are named by the key of the generator columns, so the
    numbering of a semidirect product's elements must not move: the hash
    of the whole table, as first computed, pins the table, and the key
    pins the generators too."""
    G = build()
    assert digest_oracle(G.mul) == digest
    assert G.digest() == key


# ---------------------------------------------------------------------------
# tables from generator rows, against the |G|^2-compose tabulation
# ---------------------------------------------------------------------------


def brute_tabulate(moduli, compose, gens_exp):
    """(table, generators) with compose called on every pair."""
    elems = list(itertools.product(*[range(m) for m in moduli]))
    num = {e: i for i, e in enumerate(elems)}
    mul = [[num[tuple(compose(a, b))] for b in elems] for a in elems]
    return mul, [num[tuple(e)] for e in gens_exp]


def brute_product(factors):
    """(table, generators) of the direct product, pair by pair."""
    elems = list(itertools.product(*[range(G.order) for G in factors]))
    num = {e: i for i, e in enumerate(elems)}
    mul = [[num[tuple(G.mul[a][b] for G, a, b in zip(factors, e1, e2))]
            for e2 in elems] for e1 in elems]
    gens = [num[tuple(g if i == k else 0 for i in range(len(factors)))]
            for k, G in enumerate(factors) for g in G.generators]
    return mul, gens


def assert_group_is(G, mul, gens, name):
    assert [list(row) for row in G.mul] == mul
    assert G.inv == [row.index(0) for row in mul]
    assert G.generators == tuple(gens)
    assert G.name == name


@pytest.fixture
def tabulated(monkeypatch):
    """The (moduli, compose, generators) of every _tabulate call, and one
    entry per compose call it makes."""
    calls, composed = [], []
    tabulate = groups._tabulate

    def recorded(moduli, compose, gens_exp):
        calls.append((moduli, compose, gens_exp))

        def counted(e1, e2):
            composed.append(1)
            return compose(e1, e2)
        return tabulate(moduli, counted, gens_exp)

    monkeypatch.setattr(groups, "_tabulate", recorded)
    return calls, composed


SL2_3 = [((1, 1), (0, 1)), ((0, 1), (-1, 0))]


# (builder, name, generators): the generators are pinned, not read back
# from the builder, because the resolution's covers follow their order
@pytest.mark.parametrize("build,name,gens", [
    (lambda: build_P(3, 3), "P(3,p=3)", (9, 3, 1)),
    (lambda: build_P(4, 3), "P(4,p=3)", (27, 9, 1)),
    (lambda: build_group({"family": "P_2", "p": 5}), "P(3,p=5)", (25, 5, 1)),
    (lambda: build_M(3, 3), "M(3,p=3)", (9, 1)),
    (lambda: build_M(4, 3), "M(4,p=3)", (27, 1)),
    (lambda: build_B(4, 1, 3), "B(4,1,p=3)", (27, 9, 1)),
    (lambda: build_B(4, 2, 3), "B(4,2,p=3)", (27, 9, 1)),
    (lambda: build_G_a1(1, 3), "G(1,1,p=3)", (9, 3, 1)),
    (lambda: build_G_a1(2, 3), "G(2,1,p=3)", (9, 3, 1)),
    (symmetric_3, "S3", (2, 1)),
    (lambda: singer_group(3, 2), "(C3)^2 : C8", (8, 24, 1)),
    (lambda: singer_group(2, 3), "(C2)^3 : C7", (7, 14, 28, 1)),
    (lambda: build_semidirect(3, 2, SL2_3), "(C3)^2 : Q24", (24, 72, 1, 2)),
    (lambda: build_semidirect(5, 1, [[[2]]]), "(C5)^1 : Q4", (4, 1)),
    (lambda: build_P(5, 3), "P(5,p=3)", (81, 27, 1)),
], ids=["P(3,3)", "P(4,3)", "P_2(5)", "M(3,3)", "M(4,3)", "B(4,1,3)",
        "B(4,2,3)", "G(1,1)", "G(2,1)", "S3", "Singer(3,2)", "Singer(2,3)",
        "3^2:SL2(3)", "5:4", "P(5,3)"])
def test_presented_tables_equal_the_pairwise_tables(tabulated, build, name,
                                                    gens):
    calls, composed = tabulated
    G = build()
    (moduli, compose, gens_exp), = calls
    mul, tab_gens = brute_tabulate(moduli, compose, gens_exp)
    assert tuple(tab_gens) == gens
    assert_group_is(G, mul, gens, name)
    # compose runs on the generator rows only: |G| * |gens| calls
    assert 0 < len(composed) <= G.order * len(gens)


@pytest.mark.parametrize("m", [1, 2, 3, 12, 81])
def test_cyclic_table_is_addition_mod_m(m):
    mul = [[(i + j) % m for j in range(m)] for i in range(m)]
    assert_group_is(build_cyclic(m), mul, [1] if m > 1 else [], f"C{m}")


C = {"family": "cyclic"}


@pytest.mark.parametrize("factors", [
    [{**C, "n": 3}, {**C, "n": 3}],
    [{**C, "n": 27}, {**C, "n": 3}],
    [{**C, "n": 1}, {**C, "n": 4}],
    [{"family": "P_2", "p": 3}, {**C, "n": 3}],
    [{**C, "n": 3}] * 4,
    [{"family": "product", "factors": [{**C, "n": 2}, {**C, "n": 3}]},
     {"family": "semidirect", "p": 3, "n": 1, "matrices": [[[2]]]}],
    [{**C, "n": 2},
     {"family": "product", "factors": [{**C, "n": 3}, {**C, "n": 2}]},
     {**C, "n": 2}],
], ids=["C3xC3", "C27xC3", "C1xC4", "P(3,3)xC3", "C3^4", "(C2xC3)xS3",
        "C2x(C3xC2)xC2"])
def test_product_tables_equal_the_pairwise_tables(factors):
    parts = [build_group(f) for f in factors]
    mul, gens = brute_product(parts)
    assert_group_is(build_group({"family": "product", "factors": factors}),
                    mul, gens, " x ".join(H.name for H in parts))


def test_tabulate_rejects_what_is_not_a_group():
    def add_first(a, b):
        return ((a[0] + b[0]) % 3, (a[1] + b[1]) % 3)
    with pytest.raises(ValueError, match="do not generate"):
        groups._tabulate([3, 3], add_first, [(1, 0)])
    # the non-associative quasigroup of the table-validation test below
    t = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    mul, gens = groups._tabulate([5], lambda a, b: (t[a[0]][b[0]],),
                                 [(1,), (2,)])
    with pytest.raises(ValueError):
        FiniteGroup(mul, gens, "bad")


@pytest.mark.parametrize("spec,digest,key", [
    ({"family": "cyclic", "n": 3}, "27e7310338b99c8c", "dd8c291695574a1f"),
    ({"family": "P", "n": 3, "p": 3}, "c382f6223459361a", "6dbe1edb697a1af4"),
    ({"family": "G_a1", "a": 2, "p": 3}, "3215adae9ff7f293",
     "084940c8c729d08a"),
    ({"family": "product", "factors": [{"family": "cyclic", "n": 3}] * 4},
     "4959b3cfc2d694ed", "3a7023ba8a8e307b"),
], ids=["C3", "P(3,3)", "G(2,1)", "C3^4"])
def test_digests_are_pinned(spec, digest, key):
    """The key names the on-disk cache files, so a changed key would
    silently orphan every cached resolution; the hash of the whole table,
    as first computed, pins the table numbering.  Singer(3,2) and the
    other semidirect products are pinned by
    test_semidirect_numbering_is_pinned."""
    G = build_group(spec)
    assert digest_oracle(G.mul) == digest
    assert G.digest() == key


# The hash of the table of every group the benchmark builds, as the first
# digest computed it: these named the catalogue's res_v2_* cache files,
# and pin the table numbering.
CATALOGUE_DIGESTS = {
    "C2 x C3 x C3": "4158830f8c721821",
    "C3": "27e7310338b99c8c",
    "C3 x C3": "857a8222cc5df0e0",
    "C3 x C3 x C3": "f68fa2394db3a997",
    "C3 x C3 x C3 x C3": "4959b3cfc2d694ed",
    "C3 x C9": "d6ffca9bcf3a1c17",
    "C5": "59ca2ac21464ad1b",
    "C7": "5051ef624df5baf1",
    "C9": "cc23e3b47fe08828",
    "C9 x C3": "0b2c588f53a0248f",
    "C11": "6a66984d9081e2d5",
    "C27 x C3": "a19123acc1fe24c4",
    "G(1,1,p=3)": "c382f6223459361a",
    "G(2,1,p=3)": "3215adae9ff7f293",
    "M(3,p=3)": "45c8e2b916908490",
    "M(4,p=3)": "708f862f7c2faa8d",
    "P(3,p=3)": "c382f6223459361a",
    "(C3)^2 : C8": "54b2e7f268a9c0f3",
}

# The key of every group the benchmark builds: these name the catalogue's
# res_v3_* cache files.
CATALOGUE_KEYS = {
    "C2 x C3 x C3": "471fab63a6239216",
    "C3": "dd8c291695574a1f",
    "C3 x C3": "8f64cf7ff7eb6458",
    "C3 x C3 x C3": "896298608072d629",
    "C3 x C3 x C3 x C3": "3a7023ba8a8e307b",
    "C3 x C9": "c7b6b7e00c9e9860",
    "C5": "ccd93dcd83891b93",
    "C7": "f11035dccc18fe31",
    "C9": "75f503aa8e997c31",
    "C9 x C3": "5e675318b42e6e7d",
    "C11": "7256d6c04ce18682",
    "C27 x C3": "e08c68fdfee34188",
    "G(1,1,p=3)": "6dbe1edb697a1af4",
    "G(2,1,p=3)": "084940c8c729d08a",
    "M(3,p=3)": "f43dc0b1d4c308da",
    "M(4,p=3)": "39bfe9e02771b1f6",
    "P(3,p=3)": "6dbe1edb697a1af4",
    "(C3)^2 : C8": "e86e277a86b232a8",
}


def _catalogue_specs():
    specs = []
    for argv in _catalogue_argvs():
        if "--group" in argv:
            spec = json.loads(argv[argv.index("--group") + 1])
            if spec not in specs:
                specs.append(spec)
    return specs


# order 1 and 2, orders on both sides of 256, and tables
# read in no catalogue job
BEYOND_CATALOGUE = {
    "C1": lambda: build_cyclic(1),
    "C2": lambda: build_cyclic(2),
    "S3": symmetric_3,
    "Singer(3,2)": lambda: singer_group(3, 2),
    "Singer(2,3)": lambda: singer_group(2, 3),
    "3^2:SL2(3)": lambda: build_semidirect(3, 2, SL2_3),
    "5:4": lambda: build_semidirect(5, 1, [[[2]]]),
    "C256": lambda: build_cyclic(256),
    "C257": lambda: build_cyclic(257),
    "C4xC3^4": lambda: build_product([build_cyclic(4)]
                                     + [build_cyclic(3)] * 4),
    "M(4,5)": lambda: build_M(4, 5),
}


def test_catalogue_specs_are_pinned():
    specs = _catalogue_specs()
    assert len(specs) == 22
    assert {build_group(spec).name for spec in specs} == \
        set(CATALOGUE_DIGESTS) == set(CATALOGUE_KEYS)


@pytest.mark.parametrize("build", [
    *[lambda spec=spec: build_group(spec) for spec in _catalogue_specs()],
    *BEYOND_CATALOGUE.values()],
    ids=[json.dumps(spec, sort_keys=True) for spec in _catalogue_specs()]
    + list(BEYOND_CATALOGUE))
def test_digest_and_light_test_match_the_first_versions(build):
    """The table hashes as the first digest hashed it, the key is the hash
    of the bytes its definition names, and every table that passes
    Light's test passes it as first written."""
    G = build()
    table = digest_oracle(G.mul)
    assert table == CATALOGUE_DIGESTS.get(G.name, table)
    assert G.digest() == key_oracle(G.mul, G.generators)
    assert G.digest() == CATALOGUE_KEYS.get(G.name, G.digest())
    assert light_oracle([list(row) for row in G.mul], G.generators)


@pytest.mark.parametrize("order,width", [(256, 1), (257, 2)])
def test_key_entry_width_follows_the_order(order, width):
    """A column entry takes 1 byte up to order 256, whose largest index
    255 still fits, and 2 bytes from order 257, whose index 256 does not."""
    G = build_cyclic(order)
    assert G.digest() == key_oracle(G.mul, G.generators, width)
    if width == 1:
        assert G.digest() != key_oracle(G.mul, G.generators, 2)


def test_keys_tell_the_factor_order_apart():
    """C3 x C9 and C9 x C3 are isomorphic but numbered differently, so
    their tables, generator columns and keys differ."""
    C3, C9 = build_cyclic(3), build_cyclic(9)
    a, b = build_product([C3, C9]), build_product([C9, C3])
    assert a.mul != b.mul
    assert a.digest() != b.digest()
    assert a.digest() == CATALOGUE_KEYS["C3 x C9"]
    assert b.digest() == CATALOGUE_KEYS["C9 x C3"]


def test_key_follows_the_generators():
    """One table with two generating sets gets two keys: the key reads the
    generator columns, which name the set."""
    G = build_cyclic(9)
    H = FiniteGroup(G.mul, [2], "C9 by 2")
    assert G.mul == H.mul and G.digest() != H.digest()
    assert H.digest() == key_oracle(G.mul, [2])


@pytest.mark.parametrize("build", [
    lambda: build_cyclic(2), lambda: build_cyclic(3), symmetric_3,
    lambda: build_G_a1(2, 3), lambda: build_P(3, 3),
    lambda: singer_group(2, 3), lambda: build_product([build_cyclic(3)] * 4),
    lambda: build_cyclic(257), lambda: build_M(4, 5)],
    ids=["C2", "C3", "S3", "G(2,1)", "P(3,3)", "Singer(2,3)", "C3^4", "C257",
         "M(4,5)"])
def test_one_wrong_entry_in_a_row_is_refused(build):
    """Each change of one entry of the last generator's row, and of the
    last row (outside the identity's column, at most 40 of each), is
    refused, as Light's test as first written refuses it whenever the
    other checks pass.  The last row is the row of x and of x*s that the
    comparisons for the greatest x read."""
    G = build()
    for r in (G.generators[-1], G.order - 1):
        for y in range(1, G.order)[:40]:
            for v in {(G.mul[r][y] + 1) % G.order, 0} - {G.mul[r][y]}:
                mul = [list(row) for row in G.mul]
                mul[r][y] = v
                with pytest.raises(ValueError) as refused:
                    FiniteGroup(mul, G.generators, "bad")
                if "associative" in str(refused.value):
                    assert not light_oracle(mul, G.generators)


def test_order_one_and_two_tables():
    for mul, gens in (([[0]], []), ([[0]], [0]), ([[0, 1], [1, 0]], [1]),
                      ([[0, 1], [1, 0]], [0, 1])):
        G = FiniteGroup(mul, gens, "t")
        assert G.digest() == key_oracle(mul, gens) and light_oracle(mul, gens)
    with pytest.raises(ValueError, match="inverse"):
        FiniteGroup([[0, 1], [1, 1]], [1], "bad")


def test_s3():
    G = symmetric_3()
    assert G.order == 6
    assert not is_abelian(G)
    Z, D = center_and_derived(G)
    assert Z.order == 1
    assert D.order == 3


def test_singer_72_transitive():
    G = singer_group(3, 2)
    assert G.order == 72
    # the cyclic part acts transitively on the 8 nonzero vectors: the
    # subgroup generated by the matrix generator has order 8 and its
    # conjugates of a fixed nonzero translation sweep all 8
    # elements of order 8 exist (the Singer cycle)
    assert any(G.element_order(g) == 8 for g in range(G.order))
    # all order-3 elements together generate the translation part
    o3 = [g for g in range(G.order) if G.element_order(g) == 3]
    V = subgroup_closure(G, o3)
    assert V.order == 9


def test_singer_action_transitivity():
    G = singer_group(3, 2)
    # pick an order-8 element s and an order-3 element v; conjugates
    # s^-k v s^k must give 8 distinct elements (transitivity on nonzero vecs)
    s = next(g for g in range(G.order) if G.element_order(g) == 8)
    v = next(g for g in range(G.order) if G.element_order(g) == 3)
    orbit = {G.conj(G.power(s, k), v) for k in range(8)}
    assert len(orbit) == 8


def test_build_group_json_specs():
    assert build_group({"family": "P_2", "p": 3}).order == 27
    assert build_group({"family": "G_a1", "a": 2, "p": 3}).order == 81
    assert build_group({"family": "cyclic", "n": 12}).order == 12
    assert build_group({"family": "product",
                        "factors": [{"family": "cyclic", "n": 2},
                                    {"family": "cyclic", "n": 2}]}).order == 4
    assert build_group({"family": "semidirect", "p": 3, "n": 1,
                        "matrices": [[[2]]]}).order == 6
    assert build_group({"family": "singer", "p": 3, "n": 2}).order == 72
    with pytest.raises(ValueError):
        build_group({"family": "nope"})
    with pytest.raises(ValueError):
        build_group({"family": "P", "n": 3, "p": 4})
    with pytest.raises(ValueError):
        build_group({"family": "B", "n": 3, "p": 3})


def test_build_group_builds_each_factor_spec_once(monkeypatch, tmp_path):
    """C3^4 builds C3 once per build_group call, and its key and the
    res_v3_* files its resolution writes are those of the product of four
    C3 built one by one."""
    from cohomolab import bar_cohomology, resolution
    spec = {"family": "product", "factors": [{"family": "cyclic", "n": 3}] * 4}
    calls = []
    cyclic = groups.build_cyclic

    def counted(m):
        calls.append(m)
        return cyclic(m)

    monkeypatch.setattr(groups, "build_cyclic", counted)
    G = build_group(spec)
    assert calls == [3]
    assert build_group(spec).digest() == "3a7023ba8a8e307b"
    assert calls == [3, 3]
    monkeypatch.undo()
    one_by_one = build_product([build_cyclic(3) for _ in range(4)])
    assert G.mul == one_by_one.mul and G.digest() == one_by_one.digest()
    written = {}
    for name, H in (("spec", G), ("one_by_one", one_by_one)):
        monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
        (tmp_path / name).mkdir()
        bar_cohomology.cohomology_dims_mod_p(H, 3, 2, str(tmp_path / name))
        written[name] = {f.name: f.read_text()
                         for f in (tmp_path / name).iterdir()}
    assert sorted(written["spec"]) == [
        f"res_v3_3a7023ba8a8e307b_tensor_d{n}_F3.txt" for n in (1, 2, 3)]
    assert written["spec"] == written["one_by_one"]


@pytest.mark.parametrize("build", [lambda: build_cyclic(257),
                                   lambda: build_product([build_cyclic(17)] * 2)],
                         ids=["C257", "C17xC17"])
def test_identity_search_in_wide_rows_matches_index(build):
    """Above order 256 the identity of a row is found in its buffer."""
    G = build()
    assert type(G.mul[0]) is array
    assert [groups._find_identity(row) for row in G.mul] \
        == [row.index(0) for row in G.mul] == G.inv


def test_identity_search_skips_a_zero_pair_across_two_entries():
    """The entries 5, 256, 5 put two zero bytes at an odd offset in either
    byte order, where no entry is 0."""
    row = array("H", [5, 256, 5, 7, 0, 9] + list(range(10, 300)))
    assert groups._find_identity(row) == row.index(0) == 4
    assert groups._find_identity(array("H", [5, 256, 5])) == -1
    assert groups._find_identity(array("H", [0, 5])) == 0


# ---------------------------------------------------------------------------
# FiniteGroup invariants
# ---------------------------------------------------------------------------


def test_table_validation_rejects_bad_identity():
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [0, 1]], [1], "bad")


@pytest.mark.parametrize("n", [3, 257], ids=["byte rows", "array rows"])
def test_table_validation_rejects_an_identity_row_with_a_wrong_column(n):
    # C_n with rows 1 and n - 1 swapped: row 0 is still range(n), but
    # column 0 is not, and that is the first thing refused
    t = [[(i + j) % n for j in range(n)] for i in range(n)]
    t[1], t[n - 1] = t[n - 1], t[1]
    with pytest.raises(ValueError, match="element 0 is not an identity"):
        FiniteGroup(t, [1], "bad")


def test_table_validation_rejects_nonassociative():
    # a quasigroup table that is not associative
    t = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError):
        FiniteGroup(t, [1], "bad")


def test_table_validation_rejects_one_wrong_entry():
    # C_12 with 2*4 set to 1 instead of 6: identity, inverses and generation
    # still pass, and 42 of the 1728 triples are not associative.
    t = [[(i + j) % 12 for j in range(12)] for i in range(12)]
    t[2][4] = 1
    bad = {(x, y, z) for x in range(12) for y in range(12)
           for z in range(12) if t[t[x][y]][z] != t[x][t[y][z]]}
    assert len(bad) == 42
    # 200 seeded random triples, the sample this check once relied on,
    # contain none of them
    rng = random.Random(0xC0C0)
    sample = {tuple(rng.randrange(12) for _ in range(3)) for _ in range(200)}
    assert not sample & bad
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(t, [1], "bad")


@pytest.mark.parametrize("m", [9, 128, 129], ids=["order 18", "order 256",
                                                  "order 258"])
def test_one_intercalate_is_refused_on_each_side_of_the_byte_rows(m):
    """C2 x Cm (generators t, then 1) with the entries of rows r and rt at
    columns c and tc swapped: a Latin square with the same identity,
    inverses and generation, that is not associative.  Orders 18 and 256
    (an empty pad) take the byte rows of Light's test, 258 the array('H')
    rows.  t alone passes the comparisons, so only the second generator's
    refuse the mutant."""
    G = build_product([build_cyclic(2), build_cyclic(m)])
    assert FiniteGroup(G.mul, G.generators, "C2 x Cm").order == 2 * m
    t = G.generators[0]
    mul = [list(row) for row in G.mul]
    r, c = 2, 3
    rt, tc = mul[r][t], mul[t][c]
    for a in (r, rt):
        mul[a][c], mul[a][tc] = mul[a][tc], mul[a][c]
    assert light_oracle(mul, [t]) and not light_oracle(mul, G.generators)
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(mul, G.generators, "bad")


def test_table_validation_rejects_nongenerating():
    C4 = build_cyclic(4)
    with pytest.raises(ValueError):
        FiniteGroup(C4.mul, [2], "bad")  # <2> has order 2


def test_table_validation_rejects_a_generator_out_of_range():
    C4 = build_cyclic(4)
    for gens in ([4], [-1]):
        with pytest.raises(ValueError, match="out of range"):
            FiniteGroup(C4.mul, gens, "bad")


def _bad_tables(n):
    """Lists of C_n's table, each with one defect of shape or range."""
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    short = [r[:] for r in rows]
    del short[3][-1]
    tables = {"short row": short}
    for name, v in [("entry |G|", n), ("negative entry", -1),
                    ("entry 65536", 65536)]:
        t = [r[:] for r in rows]
        t[2][5] = v
        tables[name] = t
    return tables


@pytest.mark.parametrize("n", [9, 256, 257, 300],
                         ids=["order 9", "order 256", "order 257",
                              "order 300"])
@pytest.mark.parametrize("defect", ["short row", "entry |G|",
                                    "negative entry", "entry 65536"])
def test_table_validation_rejects_shape_and_range(n, defect):
    """Every table needs |G| rows of |G| entries in range(|G|), checked
    before anything reads it: on byte rows up to order 256 and on
    array('H') rows above, where an entry the row type cannot hold is
    refused by the same ValueError, not an OverflowError."""
    with pytest.raises(ValueError, match=rf"{n} rows of {n} entries in "
                                         rf"range\({n}\)"):
        FiniteGroup(_bad_tables(n)[defect], [1], "bad")


def _sub_on_members(G, members):
    return groups.Subgroup(G, members).as_group()


def _from_lists(G):
    return FiniteGroup([list(row) for row in G.mul], G.generators,
                       f"{G.name} from lists")


# every constructor, on both sides of 256
ROW_TYPE_BUILDS = {
    "P(3,3)": lambda: build_P(3, 3),
    "M(4,5)": lambda: build_M(4, 5),
    "B(4,1,3)": lambda: build_B(4, 1, 3),
    "G(2,1)": lambda: build_G_a1(2, 3),
    "C1": lambda: build_cyclic(1),
    "C256": lambda: build_cyclic(256),
    "C257": lambda: build_cyclic(257),
    "C1xC4": lambda: build_product([build_cyclic(1), build_cyclic(4)]),
    "C3^4": lambda: build_product([build_cyclic(3)] * 4),
    "C17xC17": lambda: build_product([build_cyclic(17)] * 2),
    "Singer(3,2)": lambda: singer_group(3, 2),
    "(C3)^3:C26": lambda: singer_group(3, 3),
    "C3xC3 in C3^3": lambda: _sub_on_members(
        build_product([build_cyclic(3)] * 3), range(9)),
    "C17xC17 in C2xC17xC17": lambda: _sub_on_members(
        build_product([build_cyclic(2)] + [build_cyclic(17)] * 2),
        range(289)),
    "list C3^4": lambda: _from_lists(build_product([build_cyclic(3)] * 4)),
    "list C257": lambda: _from_lists(build_cyclic(257)),
}


@pytest.mark.parametrize("build", ROW_TYPE_BUILDS.values(),
                         ids=ROW_TYPE_BUILDS)
def test_every_constructor_returns_the_row_type_of_its_order(build):
    """Rows are bytes up to order 256 and array('H') above, whichever
    constructor made the table, and the key is the one its definition
    names, read off the same entries as lists."""
    G = build()
    assert len(G.mul) == G.order
    if G.order <= 256:
        assert all(type(row) is bytes for row in G.mul)
    else:
        assert all(type(row) is array and row.typecode == "H"
                   for row in G.mul)
    assert G.digest() == key_oracle([list(row) for row in G.mul],
                                    G.generators)


def test_power_and_order():
    C12 = build_cyclic(12)
    assert C12.power(1, 25) == 1
    assert C12.power(1, -1) == 11
    assert C12.element_order(4) == 3
    assert C12.exponent() == 12


def test_digest_stable_and_distinct():
    a = build_cyclic(6).digest()
    b = build_cyclic(6).digest()
    c = build_cyclic(7).digest()
    assert a == b != c


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------


def test_subgroup_closure_trivial():
    G = build_P(3, 3)
    H = subgroup_closure(G, [0])
    assert H.order == 1
    assert H.index == 27


def test_subgroup_bc_in_p2_abelian():
    G = build_P(3, 3)
    # generators B = exponent (0,1,0), C = (0,0,1); numbering is
    # lexicographic over (a, b, c) with moduli (3, 3, 3)
    B = 3   # (0,1,0)
    C = 1   # (0,0,1)
    H = subgroup_closure(G, [B, C])
    assert H.order == 9
    sub = H.as_group()
    assert is_abelian(sub)


def test_subgroup_order2_in_c6():
    G = build_cyclic(6)
    H = subgroup_closure(G, [3])
    assert H.order == 2
    assert H.transversal == (0, 1, 2)


def test_transversal_partition():
    G = symmetric_3()
    H = subgroup_closure(G, [g for g in range(6) if G.element_order(g) == 2][:1])
    assert H.order == 2
    seen = set()
    for t in H.transversal:
        for h in H.members:
            seen.add(G.mul[t][h])
    assert seen == set(range(6))


def test_order_p_classes_c9():
    G = build_cyclic(9)
    cls = order_p_subgroup_classes(G, 3)
    assert len(cls) == 1
    assert cls[0].order == 3


def test_order_p_classes_c3xc3():
    G = build_product([build_cyclic(3), build_cyclic(3)])
    cls = order_p_subgroup_classes(G, 3)
    assert len(cls) == 4  # p + 1 subgroups, all normal


def test_order_p_classes_p2_3_vs_bruteforce():
    G = build_P(3, 3)
    cls = order_p_subgroup_classes(G, 3)
    all_subs = brute_order_p_subgroups(G, 3)
    # representatives pairwise non-conjugate and covering all subgroups
    covered = set()
    for rep in cls:
        orbit = {frozenset(G.conj(x, h) for h in rep.member_set)
                 for x in range(G.order)}
        assert not (orbit & covered)
        covered |= orbit
    assert covered == all_subs


def test_order_p_classes_requires_divisibility():
    with pytest.raises(ValueError):
        order_p_subgroup_classes(build_cyclic(10), 3)


def _oracle_groups():
    """Every group of the benchmark catalogue, and P(3,5), G(2,1),
    B(4,1,3), C3^4, both Singer groups and S3, each table once."""
    specs = {argv[argv.index("--group") + 1]
             for argv in _catalogue_argvs() if "--group" in argv}
    built = [build_group(json.loads(s)) for s in sorted(specs)] + [
        build_P(3, 5), build_G_a1(2, 3), build_B(4, 1, 3),
        build_product([build_cyclic(3)] * 4), singer_group(3, 2),
        singer_group(2, 3), symmetric_3()]
    return list({G.digest(): G for G in built}.values())


ORACLE_GROUPS = _oracle_groups()


@pytest.mark.parametrize("G", ORACLE_GROUPS, ids=lambda G: G.name)
def test_order_p_classes_equal_the_orbit_oracle(G):
    for p in _prime_factors(G.order):
        assert [H.member_set for H in order_p_subgroup_classes(G, p)] == \
            orbit_subgroup_classes(G, p)


@pytest.mark.parametrize("G", ORACLE_GROUPS, ids=lambda G: G.name)
def test_as_group_is_the_parent_table_on_the_members(G):
    # every subgroup that the pc invariant induces characters from
    for H in _subgroup_sources(G):
        Hg = H.as_group()
        assert [[H.members[x] for x in row] for row in Hg.mul] == \
            [[G.mul[a][b] for b in H.members] for a in H.members]
        assert closure_members(Hg, Hg.generators) == frozenset(range(H.order))
        # each generator picked at least doubles the subgroup generated
        assert 2 ** len(Hg.generators) <= H.order


def divisor_primitive_polynomial(p, n):
    """(c_0, .., c_{n-1}) of the first primitive x^n + ... + c_0 over F_p,
    its companion matrix tested against every proper divisor of p^n - 1."""
    order = p ** n - 1
    # largest first: a matrix of smaller order fails at the first divisor
    divisors = sorted({d for k in range(1, math.isqrt(order) + 1)
                       if order % k == 0 for d in (k, order // k)} - {order},
                      reverse=True)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    def power(M, e):
        R = ident
        while e:
            if e & 1:
                R = groups._mat_mul(R, M, p)
            M = groups._mat_mul(M, M, p)
            e >>= 1
        return R

    for coeffs in itertools.product(range(p), repeat=n):
        if coeffs[0] == 0:
            continue
        C = [[0] * n for _ in range(n)]
        for i in range(1, n):
            C[i][i - 1] = 1
        for i in range(n):
            C[i][n - 1] = (-coeffs[i]) % p
        C = tuple(tuple(r) for r in C)
        if power(C, order) == ident and all(power(C, d) != ident
                                            for d in divisors):
            return coeffs


def test_primitive_polynomial_equals_the_divisor_search():
    for p in range(2, 4097):
        if is_prime(p):
            for n in range(1, 13):
                if p ** n > 4096:
                    break
                coeffs = divisor_primitive_polynomial(p, n)
                C = groups._primitive_polynomial(p, n)
                assert [(-row[-1]) % p for row in C] == list(coeffs)
                assert [row[:-1] for row in C] == \
                    [tuple(int(i == j + 1) for j in range(n - 1))
                     for i in range(n)]


def test_center_derived_abelian():
    G = build_cyclic(8)
    Z, D = center_and_derived(G)
    assert Z.order == 8
    assert D.order == 1


def test_wrong_group_order_raises_arithmetic_error():
    with pytest.raises(ArithmeticError):
        _with_order(build_cyclic(3), 9)
    G = build_cyclic(3)
    assert _with_order(G, 3) is G


def test_no_assert_statements_in_src():
    # python -O strips assert, so no check in the package may rely on one
    src = pathlib.Path(cohomolab.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


CLASS_COUNTS = {
    "S3": (symmetric_3, 3),
    "Singer(3,2)": (lambda: singer_group(3, 2), 9),
    "P(3,3)": (lambda: build_P(3, 3), 11),
    "M(3,3)": (lambda: build_M(3, 3), 11),
    "G(1,1)": (lambda: build_G_a1(1, 3), 11),
    "P_2(3)": (lambda: build_group({"family": "P_2", "p": 3}), 11),
    "P(3,5)": (lambda: build_P(3, 5), 29),
    "C2xC3xC3": (lambda: build_product(
        [build_cyclic(2), build_cyclic(3), build_cyclic(3)]), 18),
}


@pytest.mark.parametrize("name", list(CLASS_COUNTS))
def test_classes_match_brute_force_conjugation(name):
    build, count = CLASS_COUNTS[name]
    G = build()
    cls = G.classes()
    want = brute_classes(G)
    assert len(cls.reps) == len(cls.sizes) == len(want) == count
    for k, members in enumerate(want):
        assert {g for g in range(G.order) if cls.of[g] == k} == members
        assert cls.reps[k] == min(members)
        assert cls.sizes[k] == len(members)
        inverses = {G.inv[g] for g in members}
        assert want[cls.inverse[k]] == inverses
    assert want[0] == {0}
    assert G.classes() is cls  # computed once per group
