import os

import pytest

from cohomolab import resolution
from cohomolab.exact_linalg import Echelon, SparseMatrix
from cohomolab.groups import (FiniteGroup, build_G_a1, build_M, build_P,
                              build_cyclic, build_product, build_semidirect,
                              closure_members, symmetric_3)
from cohomolab.resolution import FreeResolution
from matrix_helpers import mul_vector

C3 = build_cyclic(3)


def dihedral_by_reflections():
    """D_8 as permutations of the corners of a square, generated by two
    reflections: neither generates a normal subgroup."""
    s, t = (1, 0, 3, 2), (0, 3, 2, 1)
    elems = [(0, 1, 2, 3)]
    for x in elems:  # the loop reads the list as it grows
        for g in (s, t):
            y = tuple(x[i] for i in g)
            if y not in elems:
                elems.append(y)
    mul = [[elems.index(tuple(a[i] for i in b)) for b in elems]
           for a in elems]
    return FiniteGroup(mul, [elems.index(s), elems.index(t)], "D8")


D8 = dihedral_by_reflections()

# every p-group of order <= 27 that the tests and the benchmark catalogue
# build, and D_8 by two reflections, with its prime and the top degree
# compared
P_GROUPS = [
    (build_cyclic(2), 2, 6),
    (build_cyclic(4), 2, 6),
    (build_cyclic(8), 2, 5),
    (C3, 3, 6),
    (build_cyclic(5), 5, 5),
    (build_cyclic(7), 7, 4),
    (build_cyclic(9), 3, 5),
    (build_product([C3, C3]), 3, 4),
    (build_P(3, 3), 3, 4),
    (build_product([C3, build_cyclic(9)]), 3, 4),
    (build_product([C3, C3, C3]), 3, 3),
    (D8, 2, 5),
]


def greedy_dims(G, p, degree):
    """dim H^n(G; F_p) from the greedy cover, which the tests keep as the
    oracle of the minimal one on p-groups."""
    res = FreeResolution(G, p, "")
    res.minimal = False
    return res.homology_dims_mod_p(p, degree)


@pytest.mark.parametrize("G,p,degree", P_GROUPS,
                         ids=lambda x: getattr(x, "name", x))
def test_minimal_ranks_are_the_dimensions(G, p, degree):
    res = FreeResolution(G, p, "")
    assert res.minimal
    dims = res.homology_dims_mod_p(p, degree)
    assert res.ranks[:degree + 1] == dims == greedy_dims(G, p, degree)


def test_p27_ranks():
    res = FreeResolution(build_P(3, 3), 3, "")
    res.extend_to(5)
    assert res.ranks == [1, 2, 4, 6, 7, 8]


@pytest.mark.parametrize("G,p", [(C3, None), (symmetric_3(), 3),
                                 (symmetric_3(), 2), (build_cyclic(6), 3)],
                         ids=str)
def test_greedy_cover_off_p_groups(G, p):
    assert not FreeResolution(G, p, "").minimal


@pytest.mark.parametrize("p", [3, None])
def test_cache_holds_generator_columns(tmp_path, p):
    G = build_product([C3, C3])
    res = FreeResolution(G, p, str(tmp_path))
    res.extend_to(3)
    ring = "Z" if p is None else f"F{p}"
    for n in (1, 2, 3):
        path = tmp_path / f"res_v2_{G.digest()}_d{n}_{ring}.txt"
        text = path.read_text()
        M = SparseMatrix.load(text)
        A = res.diffs[n - 1]  # the generator matrix the resolution holds
        assert (M.n_rows, M.n_cols, M.p) == (A.n_rows, A.n_cols, A.p) == \
            (res.ranks[n - 1] * G.order, res.ranks[n], p)
        assert M.entries() == A.entries()
        # the coordinate format: a header, then one line per entry in
        # column-major order
        header = f"{M.n_rows} {M.n_cols} {M.nnz()} {ring}"
        assert text.splitlines() == [header] + [
            f"{i} {j} {v}" for i, j, v in M.entries()]
        assert text.endswith("\n")


def translate_oracle(G, vec, g):
    """g times a vector of (ZG)^b, coordinates i*|G| + h, from the group
    table: coordinate i*|G| + h goes to i*|G| + g*h."""
    o = G.order
    return {(k // o) * o + G.mul[g][k % o]: v for k, v in vec.items()}


@pytest.mark.parametrize("G,degree", [(build_product([C3, C3]), 3),
                                      (build_P(3, 3), 3), (symmetric_3(), 4)],
                         ids=lambda x: getattr(x, "name", x))
@pytest.mark.parametrize("p", [3, None])
def test_module_matrix_is_every_translate(G, degree, p):
    res = FreeResolution(G, p, "")
    res.extend_to(degree)
    o = G.order
    for n in range(1, degree + 1):
        M, A = res.diffs[n - 1], res.module_matrix(n)
        assert (A.n_rows, A.n_cols) == (M.n_rows, M.n_cols * o)
        assert A.cols == {j * o + g: translate_oracle(G, col, g)
                          for j, col in M.cols.items() for g in range(o)}
        if n == 1:
            continue
        # d_(n-1) o d_n = 0 on every column, not only the generators
        B = res.module_matrix(n - 1)
        for k in range(A.n_cols):
            col = A.cols.get(k, {})
            assert not any(mul_vector(B, [col.get(i, 0)
                                          for i in range(B.n_cols)]))


def test_version_1_cache_file_is_not_read(tmp_path):
    # the identity as a version-1 d_1 (every column stored) would make the
    # dimensions [1, 0, 0] if it were read
    old = tmp_path / f"res_{C3.digest()}_d1_F3.txt"
    with old.open("w") as fh:
        SparseMatrix.identity(3, p=3).dump(fh)
    text = old.read_text()
    res = FreeResolution(C3, 3, str(tmp_path))
    assert res.homology_dims_mod_p(3, 2) == [1, 1, 1]
    assert sorted(os.listdir(tmp_path)) == sorted(
        [old.name] + [f"res_v2_{C3.digest()}_d{n}_F3.txt" for n in (1, 2, 3)])
    assert old.read_text() == text


def test_cache_file_of_the_wrong_shape_is_rejected(tmp_path):
    # d_1 of C3 maps into F_0 = F_3 C3, so its generator columns have 3 rows
    path = tmp_path / f"res_v2_{C3.digest()}_d1_F3.txt"
    with path.open("w") as fh:
        SparseMatrix(4, 1, [(3, 0, 1)], p=3).dump(fh)
    with pytest.raises(ArithmeticError, match="cached d_1 does not fit F_0"):
        FreeResolution(C3, 3, str(tmp_path)).extend_to(1)


@pytest.mark.parametrize("argv", [
    ["cohomology", "dims", "--group", '{"family": "P", "n": 3, "p": 3}',
     "--p", "3", "--max-degree", "4"],
    ["cohomology", "integral", "--group",
     '{"family": "G_a1", "a": 2, "p": 3}', "--degree", "2"],
], ids=["dims P(3,3) d4", "integral G(2,1) d2"])
def test_a_cache_read_builds_no_translate(argv, tmp_path, monkeypatch,
                                          capsys):
    from cohomolab import resolution
    from cohomolab.cli import EXIT_PASS, main
    monkeypatch.delenv("COHOMOLAB_CACHE", raising=False)
    argv = ["--cache-dir", str(tmp_path)] + argv
    monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
    assert main(argv) == EXIT_PASS  # fills the cache
    cold = capsys.readouterr().out
    calls = []
    translate = FreeResolution._translate

    def counted(self, vec, g):
        calls.append(g)
        return translate(self, vec, g)

    monkeypatch.setattr(FreeResolution, "_translate", counted)
    monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
    assert main(argv) == EXIT_PASS
    assert capsys.readouterr().out == cold
    assert calls == []


def test_minimal_dims_rank_no_induced_matrix(tmp_path, monkeypatch, capsys):
    # on the minimal path every d_n (x) F_p was checked to vanish, so the
    # dims are the ranks; rank_mod_p sees module matrices only (|G| rows
    # per generator), cold, and nothing on a warm read
    import json
    from cohomolab import resolution
    from cohomolab.cli import EXIT_PASS, main
    monkeypatch.delenv("COHOMOLAB_CACHE", raising=False)
    argv = ["--cache-dir", str(tmp_path), "cohomology", "dims", "--group",
            '{"family": "P", "n": 3, "p": 3}', "--p", "3", "--max-degree", "4"]
    rank_mod_p = resolution.rank_mod_p
    rows = []
    monkeypatch.setattr(resolution, "rank_mod_p",
                        lambda M: rows.append(M.n_rows) or rank_mod_p(M))
    outs = []
    for _ in range(2):  # cold, then warm
        rows.clear()
        monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
        assert main(argv) == EXIT_PASS
        outs.append(capsys.readouterr().out)
        assert all(n % 27 == 0 for n in rows)
    assert rows == []
    assert outs[0] == outs[1]
    assert json.loads(outs[1])["dims"] == [1, 2, 4, 6, 7]


class Recorded(Echelon):
    """An Echelon that counts its add calls, and keeps its rank at its
    first reduce: in _minimal_cover, the rank of J*K."""
    __slots__ = ("jk_rank",)
    adds = 0
    made: list = []

    def __init__(self, p=None):
        super().__init__(p)
        self.jk_rank = None
        Recorded.made.append(self)

    def add(self, vec):
        Recorded.adds += 1
        return super().add(vec)

    def reduce(self, vec):
        if self.jk_rank is None:
            self.jk_rank = self.rank
        return super().reduce(vec)


def full_cover(G, p, kernel):
    """The minimal cover from all |S|*dim K candidates (s - 1)*k: the rank
    of J*K and the residues of the kernel vectors modulo J*K and the
    earlier picks."""
    span = Echelon(p=p)
    for s in G.generators:
        for vec in kernel:
            t = translate_oracle(G, vec, s)
            for k, v in vec.items():
                t[k] = (t.get(k, 0) - v) % p
            span.add(t)
    rank, gens = span.rank, []
    for vec in kernel:  # residues after K is spanned are zero
        res = span.reduce(vec)
        if res:
            gens.append(res)
            span.add(res)
    return rank, gens


C3_4 = build_product([C3] * 4)
P27, P125 = build_P(3, 3), build_P(3, 5)
M81, G21 = build_M(4, 3), build_G_a1(2, 3)
C27xC3 = build_product([build_cyclic(27), C3])
# D_8 as (C2)^2 : C2 with the identity and a repeated matrix among its
# generators (2, 4, 0, 1, 1)
D8_REPEATED = build_semidirect(
    2, 2, [[[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 1], [0, 1]]])


@pytest.mark.parametrize("G,p,degree", [
    (C3_4, 3, 4), (P27, 3, 5), (M81, 3, 4), (G21, 3, 4), (C27xC3, 3, 4),
    (P125, 5, 3), (D8, 2, 5), (D8_REPEATED, 2, 5)],
    ids=lambda x: getattr(x, "name", x))
def test_pruned_cover_matches_the_full_one(G, p, degree, monkeypatch):
    monkeypatch.setattr(resolution, "Echelon", Recorded)
    monkeypatch.setattr(Recorded, "made", [])
    cover = FreeResolution._minimal_cover
    checked = []

    def compared(self, kernel):
        Recorded.made.clear()
        gens = cover(self, kernel)
        rank, full = full_cover(G, p, kernel)
        assert Recorded.made[0].jk_rank == rank
        assert gens == full
        checked.append(len(kernel))
        return gens

    monkeypatch.setattr(FreeResolution, "_minimal_cover", compared)
    res = FreeResolution(G, p, "")
    res.extend_to(degree)
    assert len(checked) == degree


# Echelon.add calls in _minimal_cover up to the degree; with every
# candidate (s - 1)*k they were 7,845, 996, 1,834, 3,186, 4,524, 656 and
# 986
@pytest.mark.parametrize("G,p,degree,adds", [
    (C3_4, 3, 4, 3178), (P27, 3, 5, 546), (build_product([C3] * 3), 3, 5, 964),
    (G21, 3, 5, 1398), (P125, 5, 5, 2116), (M81, 3, 4, 423),
    (C27xC3, 3, 4, 597)], ids=lambda x: getattr(x, "name", x))
def test_cover_add_counts(G, p, degree, adds, monkeypatch):
    monkeypatch.setattr(resolution, "Echelon", Recorded)
    monkeypatch.setattr(Recorded, "adds", 0)
    monkeypatch.setattr(Recorded, "made", [])
    FreeResolution(G, p, "").extend_to(degree)
    assert Recorded.adds == adds


def test_normal_series_orders():
    series = resolution._normal_series
    assert series(C3_4) == [(27, True), (9, True), (3, True), (1, True)]
    # 3 does not normalize <9> in P(3,3), nor 1 <27> in M(4,3)
    assert series(P27) == [(9, True), (1, True), (3, True)]
    assert series(M81) == [(1, True), (27, True)]
    # the second reflection of D_8 normalizes no prefix: all of K
    s, t = D8.generators
    assert series(D8) == [(s, True), (t, False)]


def test_normal_series_leaves_out_generators_in_the_prefix():
    series = resolution._normal_series
    assert series(D8_REPEATED) == [(2, True), (4, True), (1, True)]
    # (C2)^3 : U with all 8 unitriangular matrices, order 64 and 11
    # generators: each generator taken enlarges the prefix's subgroup
    U = [[[1, a, b], [0, 1, c], [0, 0, 1]]
         for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    G = build_semidirect(2, 3, U)
    order = [s for s, _ in series(G)]
    assert len(G.generators) == 11 and len(order) == 6
    sizes = [len(closure_members(G, order[:j])) for j in range(7)]
    assert sizes == [2 ** j for j in range(7)]
