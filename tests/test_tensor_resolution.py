"""The tensor route for direct products, against the cover route of the
same table built without recorded factors, and the resolution's work
bound on every route."""

import json
import os
from math import comb

import pytest

from cohomolab import resolution
from cohomolab.cli import EXIT_PASS, EXIT_RESOURCE, main
from cohomolab.cohomology_ring_models import build_model
from cohomolab.exact_linalg import SparseMatrix
from cohomolab.groups import (build_G_a1, build_P, build_cyclic, build_group,
                              build_product)
from cohomolab.resolution import CACHE_FORMAT, FreeResolution
from resolution_helpers import cover_table, spy_steps

C2, C3, C9, C27 = (build_cyclic(n) for n in (2, 3, 9, 27))


def prod(*factors):
    return build_product(list(factors))


# every product of the benchmark catalogue, flat and nested, with the
# degree its deepest query needs; C2 x C3 x C3 at both of its primes, and
# C9 x C9
PRODUCTS = [
    ("C3xC3", prod(C3, C3), 3, 4), ("C3xC9", prod(C3, C9), 3, 5),
    ("C9xC3", prod(C9, C3), 3, 4), ("C3^3", prod(C3, C3, C3), 3, 5),
    ("(C3xC3)xC3", prod(prod(C3, C3), C3), 3, 5),
    ("C3x(C3xC3)", prod(C3, prod(C3, C3)), 3, 4),
    ("C27xC3", prod(C27, C3), 3, 4), ("C3^4", prod(C3, C3, C3, C3), 3, 4),
    ("C3^2xC3^2", prod(prod(C3, C3), prod(C3, C3)), 3, 4),
    ("C2xC3xC3 p2", prod(C2, C3, C3), 2, 5),
    ("C2xC3xC3 p3", prod(C2, C3, C3), 3, 5), ("C9xC9", prod(C9, C9), 3, 4),
]


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
    monkeypatch.delenv("COHOMOLAB_CACHE", raising=False)


@pytest.mark.parametrize("name,G,p,top", PRODUCTS,
                         ids=[case[0] for case in PRODUCTS])
def test_tensor_route_matches_the_cover_route(name, G, p, top):
    tensor = FreeResolution(G, p, "")
    cover = FreeResolution(cover_table(G), p, "")
    assert (tensor.route, cover.route) == ("tensor", "cover")
    assert tensor.homology_dims_mod_p(p, top - 1) == \
        cover.homology_dims_mod_p(p, top - 1)
    # minimal resolutions have the dimensions as ranks; on these groups the
    # two routes' columns also have equal nonzero counts, which is what a
    # warm query loads
    if tensor.minimal:
        assert tensor.ranks == cover.ranks
        assert [M.nnz() for M in tensor.diffs] == \
            [M.nnz() for M in cover.diffs]


@pytest.mark.parametrize("name,G,p,top", PRODUCTS,
                         ids=[case[0] for case in PRODUCTS])
def test_lifted_tensor_route_matches_the_cover_route(name, G, p, top):
    # the p-parts of H_n(G; Z), n = 1 .. 3, and the lift's columns
    # reduce to the F_p tensor route's
    tensor = FreeResolution(G, p, "", integral=True)
    cover = FreeResolution(cover_table(G), p, "", integral=True)
    assert tensor.k == cover.k
    assert [tensor.integral_homology(n) for n in (1, 2, 3)] == \
        [cover.integral_homology(n) for n in (1, 2, 3)]
    fp = FreeResolution(G, p, "")
    fp.extend_to(4)
    assert [tensor._mod_p(M).cols for M in tensor.diffs] == \
        [M.cols for M in fp.diffs]


def test_factors_are_recorded_and_the_table_is_unchanged():
    G = prod(C3, C9)
    assert G.factors == (C3, C9)
    assert G.digest() == cover_table(G).digest()
    assert prod(C3, C9, C3).factors == (C3, C9, C3)
    # a product of one factor is that factor
    assert prod(C3).factors == () and prod(G).factors == (C3, C9)
    spec = {"family": "product", "factors": [{"family": "cyclic", "n": 3},
                                             {"family": "cyclic", "n": 9}]}
    assert [H.name for H in build_group(spec).factors] == ["C3", "C9"]
    for H in (C3, build_P(3, 3), build_G_a1(2, 3)):
        assert H.factors == () and FreeResolution(H, 3, "").route == "cover"


def test_columns_of_the_tensor_product():
    # C3 x C3, whose element (g, h) is 3g + h.  P_1 is F_0 (x) F'_1, then
    # F_1 (x) F'_0; P_2 is F_0 (x) F'_2, F_1 (x) F'_1, F_2 (x) F'_0.  A
    # column of C3's d_1 or d_2 goes to the first factor as (g, e), and to
    # the second as (e, h), in the block of its target generator (9 rows)
    F = FreeResolution(C3, 3, "")
    F.extend_to(2)
    (d1,), (d2,) = (M.cols.values() for M in F.diffs)

    def first(col, block):
        return {9 * block + 3 * g: v for g, v in col.items()}

    def second(col, block, sign=1):
        return {9 * block + h: sign * v % 3 for h, v in col.items()}

    res = FreeResolution(prod(C3, C3), 3, "")
    res.extend_to(2)
    assert res.diffs[0].cols == {0: second(d1, 0), 1: first(d1, 0)}
    # e_0 (x) e'_0 of F_1 (x) F'_1 carries the sign (-1)^1 on its second term
    assert res.diffs[1].cols == {0: second(d2, 0),
                                 1: first(d1, 0) | second(d1, 1, -1),
                                 2: first(d2, 1)}


def test_factors_read_and_write_no_cache(tmp_path):
    G = prod(C3, C9)
    FreeResolution(G, 3, str(tmp_path)).extend_to(3)
    names = sorted(os.listdir(tmp_path))
    assert names == [f"res_v{CACHE_FORMAT}_{G.digest()}_tensor_d{n}_F3.txt"
                     for n in (1, 2, 3)]


def test_a_cover_cache_is_neither_read_nor_extended(tmp_path, monkeypatch):
    # the cover route fills d_1, d_2 of C3 x C3; the tensor route of the
    # same table, in the same directory, loads none of them and writes
    # its own d_1 .. d_4 under its tag, and the answers agree
    G = prod(C3, C3)
    cache = str(tmp_path)
    cover = FreeResolution(cover_table(G), 3, cache)
    cover.extend_to(2)
    before = {name: (tmp_path / name).read_bytes()
              for name in os.listdir(tmp_path)}
    assert sorted(before) == [f"res_v{CACHE_FORMAT}_{G.digest()}_d{n}_F3.txt"
                              for n in (1, 2)]
    loads = []
    load = SparseMatrix.load.__func__
    monkeypatch.setattr(SparseMatrix, "load", classmethod(
        lambda cls, text: loads.append(text) or load(cls, text)))
    tensor = FreeResolution(G, 3, cache)
    dims = tensor.homology_dims_mod_p(3, 3)
    assert loads == []
    after = {name: (tmp_path / name).read_bytes()
             for name in os.listdir(tmp_path)}
    assert {k: v for k, v in after.items() if k in before} == before
    assert sorted(set(after) - set(before)) == [
        f"res_v{CACHE_FORMAT}_{G.digest()}_tensor_d{n}_F3.txt"
        for n in (1, 2, 3, 4)]
    # a second tensor resolution reads its own files back
    again = FreeResolution(G, 3, cache)
    assert again.homology_dims_mod_p(3, 3) == dims == \
        FreeResolution(cover_table(G), 3, "").homology_dims_mod_p(3, 3)
    assert len(loads) == 4


def test_a_cached_prefix_is_certified_and_extended(tmp_path):
    # d_1, d_2 read back; d_3 is built on them, which needs rank d_2
    G = prod(C3, C3, C3)
    FreeResolution(G, 3, str(tmp_path)).extend_to(2)
    cached = FreeResolution(G, 3, str(tmp_path))
    cached.extend_to(4)
    fresh = FreeResolution(G, 3, "")
    fresh.extend_to(4)
    assert [M.entries() for M in cached.diffs] == \
        [M.entries() for M in fresh.diffs]


def _spec(*factors):
    return {"family": "product",
            "factors": [{"family": "cyclic", "n": n} for n in factors]}


G21_SPEC = {"family": "G_a1", "a": 2, "p": 3}
# (C3)^2 : Q4, Q cyclic of order 4, is not a 3-group: the greedy cover
GREEDY_SPEC = {"family": "semidirect", "p": 3, "n": 2,
               "matrices": [[[0, 2], [1, 0]]]}

# (group spec, p, edge degree, integral, the bound that stops the next
# degree): the tensor route, the minimal and greedy covers and the lift.
# Each query is answered at its edge with the bound set to the most that
# the edge reads, MAX_MODULE_TERMS to its largest module matrix (or d_1's
# cover) or MAX_RESOLUTION_SPAN to its (n + 1)*|G|, and refused one
# degree past
LIMIT_EDGES = [
    (_spec(3, 3, 3), 3, 4, False, "terms"),
    ({"family": "P", "n": 3, "p": 3}, 3, 4, False, "terms"),
    (_spec(3, 3, 3, 3), 3, 3, False, "terms"),
    (G21_SPEC, 3, 3, False, "terms"),
    (_spec(3, 3), 3, 8, False, "terms"),
    ({"family": "cyclic", "n": 9}, 3, 8, False, "span"),
    (_spec(27, 3), 3, 3, True, "terms"),
    (G21_SPEC, 3, 3, True, "terms"),
    (GREEDY_SPEC, 3, 3, False, "terms"),
]


def _query(spec, p, degree, integral):
    group = ["--group", json.dumps(spec)]
    if integral:
        return ["cohomology", "integral"] + group + ["--degree", str(degree)]
    return ["cohomology", "dims"] + group + ["--p", str(p), "--max-degree",
                                             str(degree)]


def _refused(capsys, argv, message):
    assert main(argv) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.err.startswith("resource limit:")
    assert message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "spec,p,edge,integral,bound", LIMIT_EDGES,
    ids=[f"{build_group(spec).name} {'integral' if z else 'dims'} d{d}"
         for spec, _, d, z, _ in LIMIT_EDGES])
def test_limits_admit_the_edge_and_refuse_one_degree_past(
        capsys, monkeypatch, spec, p, edge, integral, bound):
    steps = spy_steps(monkeypatch, resolution)
    assert main(_query(spec, p, edge, integral)) == EXIT_PASS
    answer = capsys.readouterr().out
    G = build_group(spec)
    if bound == "terms":  # off the tensor route, d_1's cover counts too
        covers = [] if G.factors else [G.order * (G.order - 1)]
        limit = max([size for step, size in steps if step != "cover"]
                    + covers)
        monkeypatch.setattr(resolution, "MAX_MODULE_TERMS", limit)
        message = "module matrix"
    else:  # dims through degree n resolve through degree n + 1
        limit = (edge + 2) * G.order
        monkeypatch.setattr(resolution, "MAX_RESOLUTION_SPAN", limit)
        message = f"through degree {edge + 2} spans"
    for degree in (edge, edge + 1):
        monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
        steps.clear()
        argv = _query(spec, p, degree, integral)
        if degree == edge:
            assert main(argv) == EXIT_PASS
            assert capsys.readouterr().out == answer
        else:
            _refused(capsys, argv, message)
    # no step read more than the bound: the refused one never started
    assert all(size <= limit for step, size in steps if step != "cover")
    if bound == "span":
        assert steps == []


def test_d1_cover_admits_its_edge_and_refuses_one_order_past(capsys,
                                                              monkeypatch):
    # d_1's cover reads no module matrix; it is bounded by |G|*(|G| - 1),
    # 72 for C9, 90 for C10
    steps = spy_steps(monkeypatch, resolution)
    monkeypatch.setattr(resolution, "MAX_MODULE_TERMS", 72)
    assert main(_query({"family": "cyclic", "n": 9}, 3, 0, False)) \
        == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["dims"] == [1]
    assert ("cover", 16) in steps
    steps.clear()
    _refused(capsys, _query({"family": "cyclic", "n": 10}, 5, 0, False),
             "d_1's cover over C10 has 90 entries, above the limit 72")
    assert steps == []


def test_limits_through_the_cli(capsys):
    # answers that the order/degree table refused, under the real bound,
    # against independent routes: dim H^n(P(3,3); F_3) = m_n + m_(n+1)
    # for n >= 1, m_n the dimension of the presented ring; Kuenneth gives
    # C9 x C9 n + 1 and C3^4 binomial(n + 3, 3) in degree n; G(2,1) has
    # the ranks of its minimal resolution
    m = build_model(3)
    for spec, top, dims in (
            ({"family": "P", "n": 3, "p": 3}, 8,
             [1] + [m.dim(n) + m.dim(n + 1) for n in range(1, 9)]),
            (_spec(9, 9), 8, list(range(1, 10))),
            (_spec(3, 3, 3, 3), 6, [comb(n + 3, 3) for n in range(7)]),
            (G21_SPEC, 6, [1, 2, 4, 6, 8, 10, 13])):
        assert main(_query(spec, 3, top, False)) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["dims"] == dims
