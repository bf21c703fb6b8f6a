import os

import pytest

from cohomolab.exact_linalg import SparseMatrix
from cohomolab.groups import build_P, build_cyclic, build_product, symmetric_3
from cohomolab.resolution import FreeResolution
from matrix_helpers import mul_vector

C3 = build_cyclic(3)

# every p-group of order <= 27 that the tests and the benchmark catalogue
# build, with its prime and the top degree compared
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
