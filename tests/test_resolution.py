import os

import pytest

from cohomolab.exact_linalg import SparseMatrix
from cohomolab.groups import build_P, build_cyclic, build_product, symmetric_3
from cohomolab.resolution import FreeResolution

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
        A = res.diffs[n - 1]
        assert (M.n_rows, M.n_cols) == (A.n_rows, res.ranks[n])
        assert [M.column(j) for j in range(M.n_cols)] == \
            [A.column(j * G.order) for j in range(res.ranks[n])]
        # the coordinate format: a header, then one line per entry in
        # column-major order
        header = f"{M.n_rows} {M.n_cols} {M.nnz()} {ring}"
        assert text.splitlines() == [header] + [
            f"{i} {j} {v}" for i, j, v in M.entries()]
        assert text.endswith("\n")


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
