import argparse
import contextlib
import importlib.resources
import importlib.util
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomolab.bar_cohomology import coboundary_matrix
from cohomolab import cli
from cohomolab.cli import (
    _COMMANDS,
    _OPTIONS,
    EXIT_FAILURE,
    EXIT_INPUT,
    EXIT_PASS,
    EXIT_RESOURCE,
    MAX_BESTVINA_N,
    MAX_FIXED_COMPONENT,
    MAX_FIXED_STEPS,
    _degree,
    _prime,
    build_parser,
    main,
    parse_argv,
    run_scenario,
)
from cohomolab.davis import barycentric_subdivision, moore_complex
from cohomolab.groups import build_cyclic
from cohomolab.resolution import CACHE_FORMAT
from complex_helpers import complex_to_dict, simplex_boundary
from resolution_helpers import spy_steps

C3 = '{"family": "cyclic", "n": 3}'


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_cohomology_dims(capsys):
    code, rep = run_json(capsys, ["cohomology", "dims", "--group", C3,
                                  "--p", "3", "--max-degree", "4"])
    assert code == EXIT_PASS
    assert rep["dims"] == [1, 1, 1, 1, 1]
    assert rep["schema_version"] == 1


def test_cohomology_integral(capsys):
    code, rep = run_json(capsys, ["cohomology", "integral", "--group", C3,
                                  "--degree", "2"])
    assert code == EXIT_PASS
    assert rep["torsion"] == [3] and rep["order"] == 3


def test_cohomology_dump_matrix(capsys, tmp_path):
    path = tmp_path / "d.mtx"
    code, _ = run_json(capsys, ["cohomology", "dims", "--group", C3,
                                "--p", "3", "--max-degree", "2",
                                "--dump-matrix", str(path)])
    assert code == EXIT_PASS
    header = path.read_text().splitlines()[0].split()
    assert len(header) == 4  # rows cols nnz domain
    # the coordinate text of delta_2, one line per entry, column-major
    M = coboundary_matrix(build_cyclic(3), 2, 3)
    assert path.read_text() == "".join(
        [f"{M.n_rows} {M.n_cols} {M.nnz()} F3\n"]
        + [f"{i} {j} {v}\n" for i, j, v in M.entries()])


def test_massey_triple(capsys):
    code, rep = run_json(capsys, ["massey", "triple", "--group", C3,
                                  "--p", "3"])
    assert code == EXIT_PASS
    assert rep["equals_bockstein"] and not rep["is_zero"]
    assert rep["indeterminacy_size"] == 0


def test_chern_pc(capsys):
    code, rep = run_json(capsys, ["chern", "pc", "--group",
                                  '{"family": "P", "n": 3, "p": 3}',
                                  "--p", "3"])
    assert code == EXIT_PASS
    assert rep["pc"] == 6
    assert all({"generators", "m", "exponents"} <= set(c)
               for c in rep["per_class"])


def test_invariants_dickson(capsys):
    code, rep = run_json(capsys, ["invariants", "dickson", "--p", "3",
                                  "--max-degree", "12"])
    assert code == EXIT_PASS
    assert rep["passed"]
    assert rep["sl2_fixed_dims"] == rep["sl2_subalgebra_dims"]


def test_invariants_fixed_custom_action(capsys):
    spec = json.dumps({"poly_degrees": [1, 1],
                       "matrices": [[[1, 1], [0, 1]]]})
    code, rep = run_json(capsys, ["invariants", "fixed", "--p", "3",
                                  "--action", spec, "--max-degree", "6"])
    assert code == EXIT_PASS
    # invariants of a shear on F_3[x, y]: x and the degree-3 orbit product
    assert rep["fixed_dims"][1] == 1 and rep["fixed_dims"][3] == 2
    assert rep["group_order"] == 3
    assert "1" in rep["fixed_basis"]


def test_invariants_fixed_without_polynomial_generators(capsys):
    # the empty matrix acts on no polynomial generator: its determinant is
    # 1, so it is invertible and fixes the exterior generator
    spec = json.dumps({"poly_degrees": [], "ext_degrees": [1],
                       "matrices": [[]]})
    code, rep = run_json(capsys, ["invariants", "fixed", "--p", "3",
                                  "--action", spec, "--max-degree", "2"])
    assert code == EXIT_PASS
    assert rep["fixed_dims"] == [1, 1, 0]


def test_ringmodel_named_and_json_actions(capsys):
    code, rep = run_json(capsys, ["ringmodel", "fixed", "--p", "3",
                                  "--action", "C3-shear-3.4",
                                  "--max-degree", "8"])
    assert code == EXIT_PASS
    shear = json.dumps([{"matrix": [[1, 0], [1, 1]], "j": 1}])
    code2, rep2 = run_json(capsys, ["ringmodel", "fixed", "--p", "3",
                                    "--action", shear, "--max-degree", "8"])
    assert code2 == EXIT_PASS
    assert rep2["fixed_dims"] == rep["fixed_dims"]
    assert rep2["action"] == "custom"


def test_ringmodel_empty_action_fixes_everything(capsys):
    from cohomolab.cohomology_ring_models import RingModel
    code, rep = run_json(capsys, ["ringmodel", "fixed", "--p", "3",
                                  "--action", "[]", "--max-degree", "12"])
    assert code == EXIT_PASS
    model = RingModel(3)
    assert rep["fixed_dims"] == [model.dim(d) for d in range(13)]


def test_davis_pipeline(capsys, tmp_path):
    kfile = tmp_path / "k.json"
    K = barycentric_subdivision(simplex_boundary(4))
    kfile.write_text(json.dumps(complex_to_dict(K)))

    code, rep = run_json(capsys, ["davis", "chi", "--k", str(kfile)])
    assert code == EXIT_PASS
    assert rep["chi_chiswell"] == rep["chi_orbifold"] == "0" and rep["equal"]

    code, rep = run_json(capsys, ["davis", "homology", "--k", str(kfile)])
    assert code == EXIT_PASS
    assert rep["homology"][2] == {"rank": 1, "torsion": []}

    out = tmp_path / "q.json"
    code = main(["davis", "build", "--k", str(kfile), "--out", str(out)])
    assert code == EXIT_PASS
    rep = json.loads(out.read_text())
    assert rep["euler_passed"] and rep["k"] == 3
    assert rep["chi_quotient_over_index"] == "0"


def test_davis_bestvina(capsys):
    code, rep = run_json(capsys, ["davis", "bestvina", "--n", "2"])
    assert code == EXIT_PASS
    assert rep["passed"] and rep["torsion_exponent"] == 2


def _tamper_cubes(monkeypatch, tamper):
    from cohomolab import davis
    monkeypatch.setattr(davis, "quotient_cubes",
                        lambda q, f=davis.quotient_cubes: tamper(q, f(q)))


def _davis_build_argv(tmp_path):
    path = tmp_path / "sd-boundary-4.json"
    K = barycentric_subdivision(simplex_boundary(4))
    path.write_text(json.dumps(complex_to_dict(K)))
    return ["davis", "build", "--k", str(path)]


def _with_foreign_cube(q, cubes):
    s, x = cubes[-1]
    return cubes[:-1] + [(s, x | 1 << q.coloring[s[0]])]


@pytest.mark.parametrize("tamper,message", [
    (lambda q, cubes: cubes + cubes[-1:], "Euler characteristic"),
    (_with_foreign_cube, "vertex labels"),
], ids=["duplicated", "foreign"])
def test_tampered_cubes_exit_1(capsys, monkeypatch, tmp_path, tamper,
                               message):
    _tamper_cubes(monkeypatch, tamper)
    for argv in (_davis_build_argv(tmp_path),
                 ["davis", "bestvina", "--n", "2"]):
        _exits_1_without_traceback(capsys, argv, message)


def _tamper_poset(monkeypatch, name, tamper):
    from cohomolab import davis
    monkeypatch.setattr(davis, name,
                        lambda *args, f=getattr(davis, name):
                        tamper(f(*args)))


@pytest.mark.parametrize("name,tamper,message", [
    ("_coset_elements", lambda elements: elements + elements[-1:],
     "vertex count law"),
    ("_chain_counts", lambda counted: (counted[0], 2), "not connected"),
    ("_chain_counts", lambda counted: ([counted[0][0] + 1, *counted[0][1:]],
                                       counted[1]),
     "Euler cross-check fails"),
], ids=["duplicated-element", "split-poset", "shifted-f-vector"])
def test_tampered_poset_exits_1(capsys, monkeypatch, tmp_path, name, tamper,
                                message):
    _tamper_poset(monkeypatch, name, tamper)
    for argv in (_davis_build_argv(tmp_path),
                 ["davis", "bestvina", "--n", "2"]):
        _exits_1_without_traceback(capsys, argv, message)


def test_davis_build_and_bestvina_never_build_q(capsys, monkeypatch,
                                                tmp_path):
    """The f-vector, the connectivity check, chi(Q) and the homology all
    come from the poset of Q's vertices and from the cubes: no simplicial
    complex with Q's vertices is built."""
    from cohomolab import davis
    flags, sizes, quotients = [], [], []
    monkeypatch.setattr(davis, "_flag_quotient",
                        lambda *args: flags.append(args))
    init = davis.SimplicialComplex.__init__

    def counted_init(self, n_vertices, *args, **kwargs):
        sizes.append(n_vertices)
        init(self, n_vertices, *args, **kwargs)

    monkeypatch.setattr(davis.SimplicialComplex, "__init__", counted_init)
    monkeypatch.setattr(
        davis, "davis_quotient",
        lambda *args, f=davis.davis_quotient: quotients.append(f(*args))
        or quotients[-1])
    for argv in (_davis_build_argv(tmp_path),
                 ["davis", "bestvina", "--n", "2"]):
        code, rep = run_json(capsys, argv)
        assert code == EXIT_PASS
        q = quotients[-1]
        assert rep["quotient_f_vector"] == list(q.f_vector)
        assert len(q.elements) not in sizes
    assert [len(q.elements) for q in quotients] == [160, 660]
    assert flags == []


def test_empty_complex_is_the_trivial_group(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"vertices": 0, "facets": []}')
    code, rep = run_json(capsys, ["davis", "chi", "--k", str(path)])
    assert code == EXIT_PASS
    assert rep["chi_chiswell"] == rep["chi_orbifold"] == "1" and rep["equal"]
    code, rep = run_json(capsys, ["davis", "build", "--k", str(path)])
    assert code == EXIT_PASS and rep["euler_passed"]
    assert rep["k"] == 0 and rep["quotient_f_vector"] == [1]
    assert rep["chi_quotient_over_index"] == "1"
    assert rep["homology"] == [{"rank": 1, "torsion": []}]


@pytest.mark.parametrize("text,message", [
    ("[1, 2]", "must be an object"),
    ("null", "must be an object"),
    ('{"vertices": "a", "facets": []}', "'vertices' must be an integer"),
    ('{"vertices": true, "facets": []}', "'vertices' must be an integer"),
    ('{"vertices": 2.0, "facets": []}', "'vertices' must be an integer"),
    ('{"vertices": 2, "facets": "01"}', "'facets' must be a list"),
    ('{"vertices": 2, "facets": [0, 1]}', "'facets' must be a list"),
    ('{"vertices": 2, "facets": [[0, "1"]]}', "'facets' must be a list"),
    ('{"vertices": 2, "facets": [[0, true]]}', "'facets' must be a list"),
    ('{"vertices": 2}', "'facets'"),
])
def test_malformed_complex_exits_2(capsys, tmp_path, text, message):
    path = tmp_path / "k.json"
    path.write_text(text)
    for action in ("build", "chi", "homology"):
        _exits_2_without_traceback(
            capsys, ["davis", action, "--k", str(path)], message)


def test_bestvina_n_is_bounded_before_allocating(capsys, monkeypatch):
    from cohomolab import davis
    built = []
    monkeypatch.setattr(davis, "moore_complex",
                        lambda n, f=davis.moore_complex: built.append(n)
                        or f(n))
    for n in (MAX_BESTVINA_N + 1, 10 ** 8):
        argv = ["davis", "bestvina", "--n", str(n)]
        assert _within(30, _without_allocating, 16, main, argv) \
            == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.err.startswith("resource limit:")
        assert f"--n {n} is above the limit" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
    assert built == []


@pytest.mark.parametrize("K,message", [
    ({"vertices": 10 ** 9, "facets": []},
     "1000000000 vertices are above the limit 65536"),
    ({"vertices": 40, "facets": [[0, 1], list(range(40))]},
     "a facet of 40 vertices is above the limit 16"),
])
def test_complex_is_bounded_before_allocating(capsys, monkeypatch, tmp_path,
                                              K, message):
    from cohomolab import davis
    built = []
    init = davis.SimplicialComplex.__init__
    monkeypatch.setattr(davis.SimplicialComplex, "__init__",
                        lambda self, *args: built.append(args)
                        or init(self, *args))
    path = tmp_path / "k.json"
    path.write_text(json.dumps(K))
    for action in ("build", "chi", "homology"):
        argv = ["davis", action, "--k", str(path)]
        assert _within(5, _without_allocating, 16, main, argv) \
            == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.err.startswith("resource limit:")
        assert message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
    assert built == []


def test_full_16_simplex_quotient_is_bounded_before_enumerating(
        capsys, monkeypatch, tmp_path):
    # 2^32 coset pairs: this ran for minutes and reached gigabytes
    from cohomolab import davis
    monkeypatch.setattr(davis, "_coset_elements",
                        lambda *args: pytest.fail("cosets enumerated"))
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"vertices": 16, "facets": [list(range(16))]}))
    assert _within(5, main, ["davis", "build", "--k", str(path)]) \
        == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.err.startswith("resource limit:")
    assert "4294967296 coset pairs" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def _exits_3_within_a_second(capsys, argv, message):
    start = time.monotonic()
    assert _within(5, main, argv) == EXIT_RESOURCE
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.err.startswith("resource limit:")
    assert message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("group, p", [
    ({"family": "cyclic", "n": 211}, 211),
    ({"family": "product", "factors": [{"family": "cyclic", "n": 9},
                                       {"family": "cyclic", "n": 27}]}, 3),
])
def test_chern_pc_above_the_enumeration_cap_exits_3(capsys, group, p):
    # valid input that the character search does not take on
    _exits_3_within_a_second(
        capsys, ["chern", "pc", "--group", json.dumps(group), "--p", str(p)],
        "subgroup enumeration capped at order 200")


def test_massey_on_c256_is_refused_before_its_coboundary(capsys):
    # 66M coboundary terms: this took 25 s and 1.7 GB
    _exits_3_within_a_second(
        capsys, ["massey", "triple", "--group",
                 json.dumps({"family": "cyclic", "n": 256}), "--p", "2"],
        "above the limit 8388608")


def test_degree_8_coboundary_dump_is_refused_before_it_is_built(
        capsys, tmp_path):
    dump = tmp_path / "delta.txt"
    _exits_3_within_a_second(
        capsys, ["cohomology", "dims", "--group",
                 json.dumps({"family": "cyclic", "n": 7}), "--p", "7",
                 "--max-degree", "8", "--dump-matrix", str(dump)],
        "1679616 8-cells of C7 writes 87340032 terms")
    assert not dump.exists()


def test_davis_chi_on_the_full_16_simplex_is_refused(capsys, tmp_path):
    # 3^16 - 2^16 (face, simplex) pairs: about 17 s
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"vertices": 16, "facets": [list(range(16))]}))
    _exits_3_within_a_second(capsys, ["davis", "chi", "--k", str(path)],
                             "42981185 (face, simplex) pairs")


def test_json_out_global_flag(capsys, tmp_path):
    out = tmp_path / "r.json"
    code = main(["--json-out", str(out), "massey", "triple",
                 "--group", C3, "--p", "3"])
    assert code == EXIT_PASS
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["equals_bockstein"]


def test_unwritable_json_out_exits_2(capsys, tmp_path):
    _exits_2_without_traceback(
        capsys, ["--json-out", str(tmp_path / "missing" / "r.json"),
                 "chern", "pc", "--group", C3, "--p", "3"],
        "No such file or directory")


def test_unwritable_davis_out_exits_2(capsys, tmp_path):
    _exits_2_without_traceback(
        capsys, ["davis", "bestvina", "--n", "2",
                 "--out", str(tmp_path / "missing" / "r.json")],
        "No such file or directory")


@pytest.mark.parametrize("argv,flag,dest", [
    (["chern", "pc", "--group=--", "--p", "3"], "--group", "group"),
    (["chern", "pc", "--group", C3, "--p=--"], "--p", "p"),
    (["invariants", "fixed", "--p", "3", "--action=--",
      "--max-degree", "4"], "--action", "action_spec"),
    (["--cache-dir=--", "cohomology", "dims", "--group", C3, "--p", "3",
      "--max-degree", "2"], "--cache-dir", "cache_dir"),
], ids=["group", "p", "action", "cache-dir"])
def test_an_option_valued_double_dash_exits_2(capsys, argv, flag, dest):
    """argparse reads "--flag=--" as an empty list, not a value."""
    assert getattr(parse_argv(argv), dest) == []
    _exits_2_without_traceback(capsys, argv,
                               f"argument {flag}: expected one argument")


def test_reports_are_byte_identical(capsys):
    argv = ["invariants", "dickson", "--p", "3", "--max-degree", "12"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_usage_error_exits_2(capsys):
    assert main(["no-such-command"]) == EXIT_INPUT
    assert main(["massey", "triple", "--p", "3"]) == EXIT_INPUT
    assert main(["massey", "triple", "--group", "not json",
                 "--p", "3"]) == EXIT_INPUT


def test_dickson_wrong_group_order_exits_1(capsys, monkeypatch):
    from cohomolab import invariant_rings
    full = invariant_rings.sl2_generators
    monkeypatch.setattr(invariant_rings, "sl2_generators",
                        lambda p: full(p)[:1])
    assert main(["invariants", "dickson", "--p", "3",
                 "--max-degree", "6"]) == EXIT_FAILURE


def test_dickson_non_invariant_generator_exits_1(capsys, monkeypatch):
    from cohomolab import invariant_rings
    from cohomolab.invariant_rings import GradedAlgebra
    full = invariant_rings.dickson_pair
    A = GradedAlgebra(3, [1, 1])
    x2 = A.mul(A.variable(0), A.variable(0))

    def bad_pair(p):
        pair = full(p)
        return type(pair)(pair.a, A.add(pair.b, A.mul(pair.a, x2)))

    monkeypatch.setattr(invariant_rings, "dickson_pair", bad_pair)
    assert main(["invariants", "dickson", "--p", "3",
                 "--max-degree", "12"]) == EXIT_FAILURE


def test_dickson_wrong_gl2_group_order_exits_1(capsys, monkeypatch):
    # SL_2 and the identity generate SL_2 alone
    from cohomolab import invariant_rings
    monkeypatch.setattr(
        invariant_rings, "gl2_generators",
        lambda p: invariant_rings.sl2_generators(p) + [((1, 0), (0, 1))])
    _exits_1_without_traceback(
        capsys, ["invariants", "dickson", "--p", "5", "--max-degree", "6"],
        "GL_2 generators give the wrong group order")


def test_dickson_generator_not_gl2_invariant_exits_1(capsys, monkeypatch):
    # a is SL_2-invariant, and GL_2 scales it by the determinant
    from cohomolab import invariant_rings
    full = invariant_rings.dickson_pair
    monkeypatch.setattr(invariant_rings, "dickson_pair",
                        lambda p: type(full(p))(full(p).a, full(p).a))
    _exits_1_without_traceback(
        capsys, ["invariants", "dickson", "--p", "3", "--max-degree", "6"],
        "generator is not GL_2-invariant")


def _exits_1_without_traceback(capsys, argv, message):
    assert main(argv) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("certification failure:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec,message", [
    ('[1]', "must be a list of"),
    ('[{"matrix": [[1, 0], [0, 1]], "j": "1"}]', "must be a list of"),
    ('[{"matrix": [[1, 0], [0, 1]], "j": 1.5}]', "must be a list of"),
    ('[{"matrix": [[1, 0], [0, 1]], "j": true}]', "must be a list of"),
    ('[{"matrix": [[1, 0, 0], [0, 1]], "j": 1}]', "must be a list of"),
    ('[{"matrix": [[1, 0], [0, 0]], "j": 1}]', "not invertible"),
    ('[{"matrix": [[1, 0], [0, 1]], "j": 5}]', "j must be a unit"),
])
def test_ringmodel_malformed_custom_action_exits_2(capsys, spec, message):
    _exits_2_without_traceback(
        capsys, ["ringmodel", "fixed", "--p", "5", "--max-degree", "4",
                 "--action", spec], message)


def test_ringmodel_custom_action_breaking_a_relation_exits_1(capsys):
    # j must be det(M): mu*nu = lam*chi_3 maps to j^2 det(M) = j^3
    _exits_1_without_traceback(
        capsys, ["ringmodel", "fixed", "--p", "5", "--max-degree", "4",
                 "--action", '[{"matrix": [[2, 0], [0, 1]], "j": 1}]'],
        "mu*nu = lam*chi_3")


@pytest.mark.parametrize("spec,message", [
    ('[1]', "must be an object"),
    ('{"poly_degrees": "ab", "matrices": []}',
     "'poly_degrees' must be a list of integers"),
    ('{"poly_degrees": [1, 1], "matrices": [[[1, "a"], [0, 1]]]}',
     "'matrices' must be a list of integer matrices"),
    ('{"poly_degrees": [1], "ext_degrees": [true], "matrices": []}',
     "'ext_degrees' must be a list of integers"),
    ('{"poly_degrees": [1], "ext_degrees": [1], "ext_twists": 0, '
     '"matrices": []}', "'ext_twists' must be a list of integers"),
])
def test_invariants_malformed_action_exits_2(capsys, spec, message):
    _exits_2_without_traceback(
        capsys, ["invariants", "fixed", "--p", "3", "--max-degree", "4",
                 "--action", spec], message)


def test_invariants_fixed_empty_matrix_list(capsys):
    code, rep = run_json(capsys, [
        "invariants", "fixed", "--p", "5", "--max-degree", "4",
        "--action", '{"poly_degrees": [2, 2], "matrices": []}'])
    assert code == EXIT_PASS
    assert rep["group_order"] == 1
    assert rep["fixed_dims"] == [1, 0, 2, 0, 3]


def _fixed_argv(spec, max_degree, p=3):
    return ["invariants", "fixed", "--p", str(p), "--action",
            json.dumps(spec), "--max-degree", str(max_degree)]


# one polynomial generator: the sweep takes 2 steps a degree
ONE_VARIABLE = {"poly_degrees": [1], "matrices": [[[2]]]}


def _no_matrices(generators):
    return {"poly_degrees": [1] * generators, "matrices": []}


@pytest.mark.parametrize("spec,max_degree,message", [
    # the cyclic permutation of three generators: this ran past 20 s
    ({"poly_degrees": [1, 1, 1],
      "matrices": [[[0, 1, 0], [0, 0, 1], [1, 0, 0]]]}, 100_000,
     "the sweep would take at least 100001 steps, above the limit 12000"),
    ({"poly_degrees": [1, 1, 1],
      "matrices": [[[0, 1, 0], [0, 0, 1], [1, 0, 0]]]}, 24,
     "a component of 325 monomials is above the limit 300"),
    (_no_matrices(MAX_FIXED_COMPONENT + 1), 1,
     "a component of 301 monomials is above the limit 300"),
    (ONE_VARIABLE, MAX_FIXED_STEPS // 2,
     "the sweep would take at least 12002 steps, above the limit 12000"),
    (ONE_VARIABLE, 10 ** 12, "above the limit 12000"),
    # 2^40 exterior subsets in degree 0 alone
    ({"poly_degrees": [], "ext_degrees": [1] * 40, "matrices": [[]]}, 0,
     "the sweep would take at least 1099511627776 steps"),
])
def test_invariants_fixed_is_bounded_before_the_sweep(capsys, monkeypatch,
                                                      spec, max_degree,
                                                      message):
    from cohomolab import invariant_rings
    monkeypatch.setattr(invariant_rings, "fixed_sweep",
                        lambda *args: pytest.fail("the sweep started"))
    _exits_3_within_a_second(capsys, _fixed_argv(spec, max_degree), message)


@pytest.mark.parametrize("spec,max_degree,dims", [
    (_no_matrices(MAX_FIXED_COMPONENT), 1, [1, MAX_FIXED_COMPONENT]),
    # x -> 2x fixes the even powers of x
    (ONE_VARIABLE, MAX_FIXED_STEPS // 2 - 1,
     [1 - d % 2 for d in range(MAX_FIXED_STEPS // 2)]),
])
def test_invariants_fixed_runs_at_the_limits(capsys, spec, max_degree, dims):
    code, rep = run_json(capsys, _fixed_argv(spec, max_degree))
    assert code == EXIT_PASS
    assert rep["fixed_dims"] == dims


def test_a_dense_12_by_12_generator_is_answered_in_seconds(capsys):
    # J - I on F_5[x_1..x_12] has order 2 and det 4; the component limit
    # admits it at max_degree 1, where its determinant by cofactor
    # expansion would have had 12! terms
    spec = {"poly_degrees": [1] * 12,
            "matrices": [[[int(i != j) for j in range(12)]
                          for i in range(12)]]}
    assert _within(10, main, _fixed_argv(spec, 1, p=5)) == EXIT_PASS
    rep = json.loads(capsys.readouterr().out)
    assert (rep["group_order"], rep["fixed_dims"]) == (2, [1, 1])


def test_the_size_check_runs_before_any_determinant(capsys, monkeypatch):
    from cohomolab import invariant_rings
    monkeypatch.setattr(invariant_rings, "_mat_det",
                        lambda *args: pytest.fail("a determinant ran"))
    # 25 generators of degree 1 have 325 monomials in degree 2
    spec = {"poly_degrees": [1] * 25,
            "matrices": [[[int(i == j) for j in range(25)]
                          for i in range(25)]]}
    _exits_3_within_a_second(capsys, _fixed_argv(spec, 2),
                             "a component of 325 monomials is above the "
                             "limit 300")


# a swap and a diagonal matrix of F_5[x, y]: order 32, prime to 5, so
# the Molien series also counts each degree's fixed vectors
SWAP_DIAG = {"poly_degrees": [1, 1],
             "matrices": [[[0, 1], [1, 0]], [[2, 0], [0, 1]]]}

# commands whose answers come from the kernel rows of fixed_subspace's
# echelon (held5's come from the Molien series)
FIXED_ARGVS = [
    _fixed_argv({"poly_degrees": [1, 1], "matrices": [[[1, 1], [0, 1]]]}, 6),
    ["ringmodel", "fixed", "--p", "3", "--action", "C3-shear-3.4",
     "--max-degree", "8"],
    ["invariants", "dickson", "--p", "3", "--max-degree", "6"],
    _fixed_argv(SWAP_DIAG, 6, p=5),
]


@pytest.mark.parametrize("argv", FIXED_ARGVS)
def test_a_reported_vector_that_is_not_fixed_exits_1(capsys, monkeypatch,
                                                     argv):
    # the kernel also returns the first basis monomial, which some map of
    # each action moves in a degree the command reaches; where it is
    # already a kernel row (degree 0) a second copy would be a repeated
    # vector, which test_a_repeated_fixed_vector_exits_1 covers, and an
    # empty component has no first monomial
    from cohomolab import invariant_rings
    kernel = invariant_rings._kernel_from_augmented

    def with_first_monomial(ech, n_rows):
        rows = kernel(ech, n_rows)
        return rows if not n_rows or {0: 1} in rows else rows + [{0: 1}]

    monkeypatch.setattr(invariant_rings, "_kernel_from_augmented",
                        with_first_monomial)
    _exits_1_without_traceback(capsys, argv, "fixed vector is moved by map")


def test_a_repeated_fixed_vector_exits_1(capsys, monkeypatch):
    # the kernel returns its first vector twice: each copy is fixed, and
    # the shear of F_3[x, y] would report fixed_dims [2, 2, 2, 3, 3, 3, 4]
    from cohomolab import invariant_rings
    kernel = invariant_rings._kernel_from_augmented

    def repeated(ech, n_rows):
        rows = kernel(ech, n_rows)
        return rows[:1] + rows

    monkeypatch.setattr(invariant_rings, "_kernel_from_augmented", repeated)
    _exits_1_without_traceback(capsys, FIXED_ARGVS[0],
                               "degree-0 fixed vectors are not independent")


def test_a_dropped_fixed_vector_of_a_non_modular_action_exits_1(
        capsys, monkeypatch):
    # each kept vector is fixed and they stay independent: only the
    # Molien count sees that one is missing
    from cohomolab import invariant_rings
    kernel = invariant_rings._kernel_from_augmented
    monkeypatch.setattr(invariant_rings, "_kernel_from_augmented",
                        lambda ech, n_rows: kernel(ech, n_rows)[:-1])
    _exits_1_without_traceback(
        capsys, _fixed_argv(SWAP_DIAG, 6, p=5),
        "degree 0 has 0 fixed vectors, and the Molien series counts 1")


def test_a_corrupted_molien_count_fails_held5(capsys, monkeypatch):
    # one more invariant in degree 16 than the presented ring has
    from cohomolab import invariant_rings
    molien = invariant_rings.molien_dims
    monkeypatch.setattr(
        invariant_rings, "molien_dims", lambda action, max_degree: [
            n + (d == 16) for d, n in enumerate(molien(action, max_degree))])
    code, rep = run_json(capsys, ["invariants", "held5", "--max-degree",
                                  "20"])
    assert code == EXIT_FAILURE and rep["passed"] is False
    assert rep["fixed"][16] == rep["presented"][16] + 1


def test_a_modular_action_is_answered_by_the_kernel_alone(capsys,
                                                          monkeypatch):
    # the shear of F_3[x, y] has order 3: no Molien count is asked for
    monkeypatch.setattr(cli, "molien_dims",
                        lambda *args: pytest.fail("the Molien count ran"))
    code, rep = run_json(capsys, FIXED_ARGVS[0])
    assert code == EXIT_PASS
    assert rep["group_order"] == 3
    assert rep["fixed_dims"] == [1, 1, 1, 2, 2, 2, 3]


@pytest.mark.parametrize("p,matrix,message", [
    # the Singer cycle of GL_2(37): order 1368
    (37, [[0, 35], [1, 33]], "needs the 1368-th roots of unity"),
    # x^3 - w, w of order 3, has order 9, and p = 1048783 = 4 mod 9 puts
    # its roots in F_(p^3): p^2 is above 2^40
    (1048783, [[0, 0, 858341], [1, 0, 0], [0, 1, 0]],
     "in the field of order 1048783^3"),
])
def test_a_molien_count_above_its_limits_exits_3(capsys, monkeypatch, p,
                                                 matrix, message):
    from cohomolab import invariant_rings
    monkeypatch.setattr(invariant_rings, "fixed_sweep",
                        lambda *args: pytest.fail("the sweep started"))
    spec = {"poly_degrees": [1] * len(matrix), "matrices": [matrix]}
    _exits_3_within_a_second(capsys, _fixed_argv(spec, 2, p=p), message)


def test_a_product_outside_the_basis_on_the_sweep_exits_1(capsys,
                                                         monkeypatch):
    # every sweep product is moved off the basis: in the algebra to a
    # monomial of its degree with a negative exponent, in the ring model
    # to one with mu raised by two
    from cohomolab.invariant_rings import GradedAlgebra
    mul = GradedAlgebra.mul
    monkeypatch.setattr(
        GradedAlgebra, "mul", lambda self, u, v: {
            ((e[0] + 1, e[1] - 1), b): c
            for (e, b), c in mul(self, u, v).items()})
    _exits_1_without_traceback(capsys, FIXED_ARGVS[0],
                               "is not a monomial of the degree-1 basis")

    fixed_dims = cli.fixed_dims

    def stray_sweep(model, maps, max_degree):
        # the model and its maps are certified with the model's product
        ring_mul = model.mul
        model.mul = lambda u, v: {m[:3] + (m[3] + 2,) + m[4:]: c
                                  for m, c in ring_mul(u, v).items()}
        return fixed_dims(model, maps, max_degree)

    monkeypatch.setattr(cli, "fixed_dims", stray_sweep)
    _exits_1_without_traceback(capsys, FIXED_ARGVS[1],
                               "is not a monomial of the degree-2 basis")


PC_C3 = ["chern", "pc", "--group", C3, "--p", "3"]


def test_character_search_incomplete_exits_1(capsys, monkeypatch):
    from cohomolab import char_chern
    monkeypatch.setattr(char_chern, "_subgroup_sources", lambda G: [])
    _exits_1_without_traceback(capsys, PC_C3, "character search incomplete")


def test_missing_linear_character_exits_1(capsys, monkeypatch):
    # G itself is the first source, and |P(3,3) : P(3,3)'| = 9
    from cohomolab import char_chern
    check = char_chern._is_homomorphism
    dropped = []

    def drop_first(H, exps, N):
        if check(H, exps, N):
            if dropped:
                return True
            dropped.append(exps)
        return False

    monkeypatch.setattr(char_chern, "_is_homomorphism", drop_first)
    _exits_1_without_traceback(
        capsys, ["chern", "pc", "--group", '{"family": "P", "n": 3, "p": 3}',
                 "--p", "3"],
        "8 linear characters found for |H : H'| = 9")


def test_pairs_of_one_head_alone_exit_1(capsys, monkeypatch):
    """Closing only the first head with the cyclic subgroups misses a
    source that (C2)^3 : C7 needs even after the search over three
    elements, and the certificates stop the run: no pc is printed."""
    from cohomolab import char_chern
    add, sources = char_chern._add_closure, char_chern._subgroup_sources
    heads = []

    def first_head_only(G, found, gens):
        if len(gens) == 2:
            heads[:] = heads or gens[:1]
            if gens[0] != heads[0]:
                return False
        return add(G, found, gens)

    def one_head(G):
        monkeypatch.setattr(char_chern, "_add_closure", first_head_only)
        try:
            return sources(G)
        finally:
            monkeypatch.setattr(char_chern, "_add_closure", add)

    monkeypatch.setattr(char_chern, "_subgroup_sources", one_head)
    _exits_1_without_traceback(
        capsys, ["chern", "pc", "--group",
                 '{"family": "singer", "p": 2, "n": 3}', "--p", "2"],
        "character search incomplete")


def test_missing_irreducible_exits_1(capsys, monkeypatch):
    # the squared degrees of the rest no longer add up to |G| either, but
    # the class count is checked first
    from cohomolab import char_chern
    search = char_chern._monomial_search
    monkeypatch.setattr(char_chern, "_monomial_search",
                        lambda G, sources: search(G, sources)[:-1])
    _exits_1_without_traceback(
        capsys, ["chern", "pc", "--group", '{"family": "P", "n": 3, "p": 3}',
                 "--p", "3"],
        "10 irreducible characters for 11 conjugacy classes")


def test_singer_2_3_pc_completes(capsys):
    code, rep = run_json(capsys, ["chern", "pc", "--group",
                                  '{"family": "singer", "p": 2, "n": 3}',
                                  "--p", "7"])
    assert code == EXIT_PASS
    assert rep["pc"] == 2 and len(rep["per_class"]) == 1


def test_no_catalogue_pc_group_extends_its_sources(capsys, monkeypatch):
    """The search over closures of three elements runs only when the one
    over two comes up incomplete, which no benchmarked group does."""
    from cohomolab import char_chern
    calls = []
    extend = char_chern._extended_sources
    monkeypatch.setattr(char_chern, "_extended_sources",
                        lambda G, sources: calls.append(G) or
                        extend(G, sources))
    argvs = {tuple(argv) for argv in _catalogue_argvs()
             if argv[:2] == ["chern", "pc"]}
    assert len(argvs) == 8
    for argv in argvs:
        assert main(list(argv)) == EXIT_PASS
    assert calls == []
    assert main(["chern", "pc", "--group",
                 '{"family": "singer", "p": 2, "n": 3}', "--p", "7"]) \
        == EXIT_PASS
    assert len(calls) == 1
    capsys.readouterr()


def test_orthonormality_failure_exits_1(capsys, monkeypatch):
    from cohomolab.char_chern import ClassFunction
    inner = ClassFunction.inner
    monkeypatch.setattr(ClassFunction, "inner",
                        lambda a, b: inner(a, b) if a is b else 1)
    _exits_1_without_traceback(capsys, PC_C3,
                               "orthonormality certificate failed")


def test_inexact_cyclotomic_division_exits_1(capsys, monkeypatch):
    # Phi_1 read as x - 2: x^3 - 1 leaves the remainder 7 on division
    from cohomolab import char_chern
    phi = char_chern.cyclotomic_polynomial.__wrapped__  # past the memo
    monkeypatch.setattr(char_chern, "cyclotomic_polynomial",
                        lambda N: (-2, 1) if N == 1 else phi(N))
    _exits_1_without_traceback(capsys, PC_C3, "division is not exact")


def test_sum_of_squares_failure_exits_1(capsys, monkeypatch):
    # a degree-3 character of P(3,3) replaced by a second copy of a
    # linear one: 11 characters for 11 classes, 9 + 1 + 9 != 27
    from cohomolab import char_chern
    search = char_chern._monomial_search

    def last_as_the_first(G, sources):
        found = search(G, sources)
        return found[:-1] + found[:1]

    monkeypatch.setattr(char_chern, "_monomial_search", last_as_the_first)
    _exits_1_without_traceback(
        capsys, ["chern", "pc", "--group", '{"family": "P", "n": 3, "p": 3}',
                 "--p", "3"],
        "sum of squares 19 != 27")


def _trivial_character_times(c):
    """irreducible_characters replaced by c times the trivial character,
    written over Z[zeta_1] = Z: its conductor 1 is no multiple of p."""
    from cohomolab.char_chern import ClassFunction, Cyclotomic
    return lambda G: [ClassFunction(G, [Cyclotomic(1, [c])]
                                    * len(G.classes().reps))]


def test_negative_eigenvalue_multiplicity_exits_1(capsys, monkeypatch):
    from cohomolab import char_chern
    monkeypatch.setattr(char_chern, "irreducible_characters",
                        _trivial_character_times(-1))
    _exits_1_without_traceback(capsys, PC_C3,
                               "eigenvalue multiplicity is negative")


def test_multiplicities_off_the_degree_exit_1(capsys, monkeypatch):
    # over conductor 1 the p-th roots of unity all read as 1, so each of
    # the 3 multiplicities of the degree-1 character is 1
    from cohomolab import char_chern
    monkeypatch.setattr(char_chern, "irreducible_characters",
                        _trivial_character_times(1))
    _exits_1_without_traceback(capsys, PC_C3,
                               "multiplicities do not sum to the degree")


def test_subdivision_that_is_not_full_exits_1(capsys, monkeypatch):
    # the first chain of the first facet is left out of the subdivision;
    # its three edges lie in other chains, so they span a missing triangle
    from cohomolab import davis
    complex_of = davis.SimplicialComplex

    def without_first_facet(n, facets, vertex_dims=None):
        if vertex_dims is not None:
            facets = facets[1:]
        return complex_of(n, facets, vertex_dims=vertex_dims)

    monkeypatch.setattr(davis, "SimplicialComplex", without_first_facet)
    _exits_1_without_traceback(capsys, ["davis", "bestvina", "--n", "2"],
                               "subdivision is not full")


def test_moore_complex_of_the_wrong_homology_exits_1(capsys, monkeypatch):
    # a disc wrapped once onto its circle: homology (Z, 0, 0), not Z/2
    from cohomolab import davis
    disc = davis._wrapped_disc
    monkeypatch.setattr(davis, "_wrapped_disc", lambda n, q: disc(1, q))
    _exits_1_without_traceback(capsys, ["davis", "bestvina", "--n", "2"],
                               "could not certify a Moore complex for n=2")


def test_molien_polynomial_without_its_roots_exits_1(capsys, monkeypatch):
    # each characteristic polynomial with 1 added to its constant term:
    # the swap's x^2 - 1 becomes x^2, whose root 0 is no root of unity
    from cohomolab import invariant_rings
    charpoly = invariant_rings._charpoly

    def shifted(M, p):
        c = charpoly(M, p)
        return ((c[0] + 1) % p,) + c[1:]

    monkeypatch.setattr(invariant_rings, "_charpoly", shifted)
    _exits_1_without_traceback(capsys, _fixed_argv(SWAP_DIAG, 6, p=5),
                               "does not split over the")


def _fresh_resolutions(monkeypatch):
    from cohomolab import resolution
    monkeypatch.delenv("COHOMOLAB_CACHE", raising=False)
    monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
    return resolution


DIMS_C3 = ["cohomology", "dims", "--group", C3, "--p", "3",
           "--max-degree", "2"]
# S_3 is not a 3-group, so over F_3 its resolution takes the greedy cover
DIMS_S3 = ["cohomology", "dims", "--group",
           '{"family": "semidirect", "p": 3, "n": 1, "matrices": [[[2]]]}',
           "--p", "3", "--max-degree", "2"]
C3xC3 = ('{"family": "product", "factors": [{"family": "cyclic", "n": 3}, '
         '{"family": "cyclic", "n": 3}]}')
# (C3)^2 with no recorded factors: its resolution takes the minimal cover,
# where a product takes the tensor product of its factors' resolutions
C3xC3_COVER = '{"family": "semidirect", "p": 3, "n": 2, "matrices": []}'


def test_kernel_cover_failed_exits_1(capsys, monkeypatch):
    resolution = _fresh_resolutions(monkeypatch)

    class NothingOutside(resolution.Echelon):
        def reduce(self, vec):
            return {}

    monkeypatch.setattr(resolution, "Echelon", NothingOutside)
    _exits_1_without_traceback(capsys, DIMS_S3, "kernel cover failed")


def test_kernel_cover_incomplete_exits_1(capsys, monkeypatch):
    resolution = _fresh_resolutions(monkeypatch)

    class SpansNothing(resolution.Echelon):
        def add(self, vec):
            pass

    monkeypatch.setattr(resolution, "Echelon", SpansNothing)
    _exits_1_without_traceback(capsys, DIMS_S3, "kernel cover incomplete")


def test_differentials_not_composing_exits_1(capsys, monkeypatch):
    resolution = _fresh_resolutions(monkeypatch)

    def every_unit_vector(A, echelon=False):  # the whole domain
        kernel = [{j: 1} for j in range(A.n_cols)]
        return (kernel, None) if echelon else kernel

    monkeypatch.setattr(resolution, "kernel_mod_p", every_unit_vector)
    _exits_1_without_traceback(capsys, DIMS_S3, "do not compose to zero")


def test_last_generator_not_composing_exits_1(capsys, monkeypatch):
    # the true kernel plus one vector outside it, which the cover takes as
    # its last generator: only that generator column has d o d != 0
    resolution = _fresh_resolutions(monkeypatch)
    kernel_mod_p = resolution.kernel_mod_p

    def with_a_stray_vector(A, echelon=False):
        kernel, ech = kernel_mod_p(A, echelon=True)
        kernel = kernel + [{0: 1}]
        return (kernel, ech) if echelon else kernel

    monkeypatch.setattr(resolution, "kernel_mod_p", with_a_stray_vector)
    _exits_1_without_traceback(capsys, DIMS_S3, "do not compose to zero")


def _minimal_cover_of_d1(monkeypatch, resolution, change):
    """Apply change(resolution, generators) to the minimal cover of d_1."""
    cover = resolution.FreeResolution._minimal_cover

    def changed(self, kernel, basis=None):
        gens = cover(self, kernel, basis)
        return gens if self.diffs else change(self, gens)

    monkeypatch.setattr(resolution.FreeResolution, "_minimal_cover", changed)


def test_inexact_differential_exits_1(capsys, monkeypatch):
    # d_1 misses a generator and d_2 covers the kernel of that d_1 exactly,
    # so only the rank of d_1 read off d_2's kernel echelon shows it
    resolution = _fresh_resolutions(monkeypatch)
    _minimal_cover_of_d1(monkeypatch, resolution, lambda res, gens: gens[:-1])
    _exits_1_without_traceback(
        capsys, ["cohomology", "dims", "--group", C3xC3_COVER, "--p", "3",
                 "--max-degree", "1"],
        "not exact at F_0: rank d_1 = 6, dim ker d_0 = 8")


def test_inexact_top_differential_exits_1(capsys, monkeypatch):
    # d_1 is the top differential: no next kernel, so rank_mod_p checks it
    resolution = _fresh_resolutions(monkeypatch)
    _minimal_cover_of_d1(monkeypatch, resolution, lambda res, gens: gens[:-1])
    for _ in range(2):  # and again from the memo, which keeps d_1
        _exits_1_without_traceback(
            capsys, ["cohomology", "dims", "--group", C3xC3_COVER, "--p", "3",
                     "--max-degree", "0"],
            "not exact at F_0: rank d_1 = 6, dim ker d_0 = 8")


DIMS_C3xC3 = ["cohomology", "dims", "--group", C3xC3, "--p", "3",
              "--max-degree", "3"]


def _changed_tensor(monkeypatch, resolution, change):
    """Apply change(n, columns) to the F_p and lifted columns of every d_n
    of a product, which the tensor route builds."""
    tensor = resolution.FreeResolution._tensor

    def changed(self, n):
        M, Mp = tensor(self, n)
        for A in {id(M): M, id(Mp): Mp}.values():
            change(n, A)
        return M, Mp

    monkeypatch.setattr(resolution.FreeResolution, "_tensor", changed)


def test_tensor_product_missing_a_generator_exits_1(capsys, monkeypatch):
    # d_2 of C3 x C3 without its last generator still composes to zero and
    # vanishes mod 3, but no longer covers ker d_1: rank additivity
    resolution = _fresh_resolutions(monkeypatch)

    def drop_last(n, A):
        if n == 2:
            del A.cols[A.n_cols - 1]
            A.n_cols -= 1

    _changed_tensor(monkeypatch, resolution, drop_last)
    _exits_1_without_traceback(
        capsys, DIMS_C3xC3, "not exact at F_1: rank d_2 = 9, dim ker d_1 = 10")


def test_tensor_product_without_its_sign_exits_1(capsys, monkeypatch):
    # e_0 (x) e'_0 of F_1 (x) F'_1 with +e_0 (x) d(e'_0), in the rows of
    # F_1 (x) F'_0 (9 and on)
    resolution = _fresh_resolutions(monkeypatch)

    def plus(n, A):
        if n == 2:
            A.cols[1] = {i: v if i < 9 else -v % A.p
                         for i, v in A.cols[1].items()}

    _changed_tensor(monkeypatch, resolution, plus)
    _exits_1_without_traceback(capsys, DIMS_C3xC3, "do not compose to zero")


def test_tensor_product_of_an_inexact_factor_exits_1(capsys, monkeypatch):
    # the factors are certified by their own route: C3's d_1 without its
    # generator is refused before any column of C3 x C3 is built
    resolution = _fresh_resolutions(monkeypatch)
    _minimal_cover_of_d1(monkeypatch, resolution, lambda res, gens: gens[:-1])
    _exits_1_without_traceback(
        capsys, DIMS_C3xC3, "not exact at F_0: rank d_1 = 0, dim ker d_0 = 2")


def test_non_minimal_cover_exits_1(capsys, monkeypatch):
    # one more generator of d_1, (s - 1) times the first: d_1 stays exact,
    # but the relation it adds has a unit coefficient, so d_2 (x) F_3 != 0
    resolution = _fresh_resolutions(monkeypatch)

    def redundant(res, gens):
        g, s = gens[0], res.G.generators[0]
        extra = res._translate(g, s)
        for k, v in g.items():
            extra[k] = extra.get(k, 0) - v
        return gens + [{k: v % 3 for k, v in extra.items() if v % 3}]

    _minimal_cover_of_d1(monkeypatch, resolution, redundant)
    _exits_1_without_traceback(capsys, DIMS_C3,
                               "induced differential d_2 does not vanish")


def _cache_inexact_d1(capsys, tmp_path):
    """Cache d_1 of C3 over F_3, then overwrite its one generator column
    with one of rank 1; returns the argv that builds d_2 on top of it."""
    from cohomolab.exact_linalg import SparseMatrix
    cache = ["--cache-dir", str(tmp_path)]
    dims = DIMS_C3[:-1]
    assert main(cache + dims + ["0"]) == EXIT_PASS  # caches d_1 only
    capsys.readouterr()
    (path,) = tmp_path.glob(f"res_v{CACHE_FORMAT}_*_d1_F3.txt")
    d1 = SparseMatrix.load(path.read_text())
    assert (d1.n_rows, d1.n_cols) == (3, 1)  # one generator column, g - e
    # (g - e)^2 = 1 + g + g^2 over F_3: its image is J^2, of dimension 1
    with path.open("w") as fh:
        SparseMatrix(3, 1, [(0, 0, 1), (1, 0, 1), (2, 0, 1)], p=3).dump(fh)
    return cache + dims + ["1"]


def test_cached_differential_not_exact_exits_1(capsys, monkeypatch,
                                               tmp_path):
    # the cache holds generator columns only, so a loaded differential is
    # equivariant by construction; a wrong generator column of d_1 is
    # caught by rank additivity when d_2 is built on top of it
    resolution = _fresh_resolutions(monkeypatch)
    argv = _cache_inexact_d1(capsys, tmp_path)
    monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
    _exits_1_without_traceback(capsys, argv,
                               "not exact at F_0: rank d_1 = 1")


def test_pruning_at_a_prefix_that_is_not_normal_exits_1(capsys, monkeypatch):
    # every prefix taken as normal keeps M(4,3)'s declared order (27, 1),
    # and 1 does not normalize <27>: the second stage then sees too few
    # kernel vectors, J*K comes out too small and d_3 is not minimal
    resolution = _fresh_resolutions(monkeypatch)
    monkeypatch.setattr(resolution, "_normalizes", lambda *args: True)
    _exits_1_without_traceback(
        capsys, ["cohomology", "dims", "--group",
                 '{"family": "M", "n": 4, "p": 3}', "--p", "3",
                 "--max-degree", "3"],
        "induced differential d_3 does not vanish")


def test_many_repeated_generators_finish(capsys, monkeypatch):
    # C_2 with 40 more generators, each the identity: the generator order
    # of the minimal cover must not search their subsets
    _fresh_resolutions(monkeypatch)
    spec = json.dumps({"family": "semidirect", "p": 2, "n": 1,
                       "matrices": [[[1]]] * 40})
    argv = ["cohomology", "dims", "--group", spec, "--p", "2",
            "--max-degree", "3"]
    assert _within(30, main, argv) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == [1, 1, 1, 1]


def test_failed_exactness_check_fails_again_from_the_memo(
        capsys, monkeypatch, tmp_path):
    # the resolution that failed stays in the process-wide memo; a second
    # call in the same process must not build d_2 on the inexact d_1
    resolution = _fresh_resolutions(monkeypatch)
    argv = _cache_inexact_d1(capsys, tmp_path)
    monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
    for _ in range(2):
        _exits_1_without_traceback(capsys, argv,
                                   "not exact at F_0: rank d_1 = 1")


def test_cached_differential_not_minimal_exits_1(capsys, monkeypatch,
                                                 tmp_path):
    # d_2 of C3 replaced by the identity column, whose induced differential
    # is 1 mod 3: read without a check, it made the dimensions [1, 0, 0]
    resolution = _fresh_resolutions(monkeypatch)
    argv = ["--cache-dir", str(tmp_path)] + DIMS_C3
    assert main(argv) == EXIT_PASS
    capsys.readouterr()
    (path,) = tmp_path.glob(f"res_v{CACHE_FORMAT}_*_d2_F3.txt")
    path.write_text("3 1 1 F3\n0 0 1\n")
    monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
    _exits_1_without_traceback(capsys, argv,
                               "induced differential d_2 does not vanish mod 3")


def test_cached_differential_of_the_wrong_shape_exits_1(capsys, monkeypatch,
                                                       tmp_path):
    # d_1 of C3 replaced by one generator column with 2 rows: F_0 = F_3 C3
    # has 3, so the loaded matrix cannot be d_1
    resolution = _fresh_resolutions(monkeypatch)
    argv = ["--cache-dir", str(tmp_path)] + DIMS_C3
    assert main(argv) == EXIT_PASS
    capsys.readouterr()
    (path,) = tmp_path.glob(f"res_v{CACHE_FORMAT}_*_d1_F3.txt")
    path.write_text("2 1 1 F3\n0 0 1\n")
    monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
    _exits_1_without_traceback(capsys, argv, "cached d_1 does not fit F_0")


def test_bockstein_divisibility_failure_exits_1(capsys, monkeypatch):
    from cohomolab.bar_cohomology import Cochain
    lift = Cochain.lift_to_z

    def off_by_one(u):  # no longer the lift of a mod-p cocycle
        c = lift(u)
        k = next(iter(c.data))
        return Cochain(c.group, c.degree, {**c.data, k: c.data[k] + 1},
                       None)

    monkeypatch.setattr(Cochain, "lift_to_z", off_by_one)
    _exits_1_without_traceback(
        capsys, ["massey", "triple", "--group", C3, "--p", "3"],
        "not divisible by p")


def test_wrong_primitive_exits_1(capsys, monkeypatch):
    from cohomolab import bar_cohomology as bc
    solve = bc._solve_augmented

    def one_entry_off(ech, n_rows, target):
        x = solve(ech, n_rows, target)
        if x is not None:  # off by one at the first bookkeeping coordinate
            x[0] = x.get(0, 0) + 1
        return x

    monkeypatch.setattr(bc, "_SOLVERS", {})
    monkeypatch.setattr(bc, "_solve_augmented", one_entry_off)
    _exits_1_without_traceback(
        capsys, ["massey", "triple", "--group", C3, "--p", "3"],
        "primitive certificate failed")


def test_undefined_massey_product_exits_2(capsys):
    code = main(["massey", "triple", "--group",
                 '{"family": "cyclic", "n": 2}', "--p", "2"])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "undefined" in err
    assert "Traceback" not in err


def test_each_coboundary_matrix_is_eliminated_once(capsys, monkeypatch):
    """Counted over both routes: the matrix and its elimination for p != 3,
    and the F_3 plane columns, which build and eliminate in one pass."""
    from cohomolab import bar_cohomology as bc, exact_linalg
    built, eliminated = [], []
    build, eliminate = bc.coboundary_matrix, exact_linalg._augmented_echelon
    planes = bc._plane_echelon

    def counted_build(G, n, p=None):
        built.append((G.digest(), n, p))
        return build(G, n, p)

    def counted_elimination(M):
        eliminated.append((M.n_rows, M.n_cols, M.p))
        return eliminate(M)

    def counted_planes(G, n):
        m = G.order - 1
        built.append((G.digest(), n, 3))
        eliminated.append((m ** (n + 1), m ** n, 3))
        return planes(G, n)

    monkeypatch.setattr(bc, "_SOLVERS", {})
    monkeypatch.setattr(bc, "coboundary_matrix", counted_build)
    monkeypatch.setattr(bc, "_plane_echelon", counted_planes)
    monkeypatch.setattr(bc, "_augmented_echelon", counted_elimination)
    monkeypatch.setattr(exact_linalg, "_augmented_echelon",
                        counted_elimination)
    code, rep = run_json(capsys, ["scenario", "run", "massey.json"])
    assert code == EXIT_PASS and rep["passed"]
    # (C_p, 0, p) and (C_p, 1, p) for p = 3, 5, 7
    assert len(built) == len(set(built)) == 6
    assert len(eliminated) == 6


# ---------------------------------------------------------------------------
# the argv reader: parse_argv against the argparse tree of the same table
# ---------------------------------------------------------------------------


def _outcome(read, argv):
    """What read(argv) gives: a Namespace, the usage error it raises, or
    the exit code and text of the help it prints."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            return read(argv)
    except ValueError as exc:
        return f"usage error: {exc}"
    except SystemExit as exc:
        return ("help", exc.code, printed.getvalue())


def _oracle(argv):
    """argparse's reading of argv with the full tree of build_parser(),
    whose parsers raise usage errors as ValueError."""
    return _outcome(build_parser().parse_args, argv)


@contextlib.contextmanager
def _parsers_built():
    """The prog of every ArgumentParser constructed inside the block."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    with mock.patch.object(argparse.ArgumentParser, "__init__", counted_init):
        yield built


def _catalogue_argvs():
    """The CLI argv of every job of the four benchmark workloads; the
    catalogue is read from its file without writing bytecode."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("cli_test_jobs", path)
    jobs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = jobs  # dataclasses look the module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(jobs)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return [list(job.argv)
            for w in ("cohomology-cold", "cohomology-warm", "invariants",
                      "chern-davis")
            for job in jobs.all_jobs(w) if job.argv]


def _scenario_argvs():
    scenarios = importlib.resources.files("cohomolab") / "scenarios"
    return [list(step["argv"]) for path in sorted(scenarios.iterdir(),
                                                  key=str)
            if path.name.endswith(".json")
            for step in json.loads(path.read_text())["steps"]]


def test_lazy_parser_parses_every_known_argv_as_the_full_tree():
    argvs = _catalogue_argvs() + _scenario_argvs()
    assert len(argvs) > 50
    assert {argv[0] for argv in argvs} >= {"cohomology", "massey", "chern",
                                           "invariants", "ringmodel",
                                           "davis", "scenario"}
    for argv in argvs:
        for form in (argv, ["--cache-dir", "D"] + argv):
            want = _oracle(form)
            assert isinstance(want, argparse.Namespace), (form, want)
            assert _outcome(parse_argv, form) == want


def _equals_form(argv):
    """argv with every option's value joined to its flag by "="."""
    tokens = iter(argv)
    return [f"{token}={next(tokens)}" if token.startswith("--") else token
            for token in tokens]


def test_a_main_call_builds_no_argparse_parser(capsys):
    with _parsers_built() as built:
        build_parser()
    assert len(built) == 21  # the program, 7 commands and 13 actions
    argvs = _catalogue_argvs() + _scenario_argvs()
    with _parsers_built() as built:
        for argv in argvs:
            want = parse_argv(argv)
            parse_argv(["--cache-dir", "D"] + argv)
            assert parse_argv(_equals_form(argv)) == want, argv
        code, _ = run_json(capsys, ["chern", "pc", "--group", C3, "--p", "3"])
        assert code == EXIT_PASS
        code, rep = run_json(capsys, ["scenario", "run", "massey.json"])
        assert code == EXIT_PASS and rep["passed"] and len(rep["steps"]) == 3
    assert built == []
    # argparse reads the rest: one tree per call
    with _parsers_built() as built:
        assert main(["chern", "pc", "--group", C3, "--p", "4"]) == EXIT_INPUT
    assert len(built) == 21
    with _parsers_built() as built, pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0 and len(built) == 21


DIMS_ARGS = ["--group", C3, "--p", "3", "--max-degree", "2"]


@pytest.mark.parametrize("argv,outcome", [
    (["homotopy", "dims"],
     "usage error: argument command: invalid choice: 'homotopy' (choose "
     "from 'cohomology', 'massey', 'chern', 'invariants', 'ringmodel', "
     "'davis', 'scenario')"),
    (["cohomology", "ranks", "--group", C3],
     "usage error: argument action: invalid choice: 'ranks' (choose from "
     "'dims', 'integral')"),
    (["cohomology", "dims", "--p", "3", "--max-degree", "2"],
     "usage error: the following arguments are required: --group"),
    (["cohomology", "dims", "--group", C3, "--p", "4", "--max-degree", "2"],
     "usage error: argument --p: 4 is not a prime below 2^31"),
    (["cohomology", "dims"] + DIMS_ARGS + ["--cache", "D"],
     "usage error: unrecognized arguments: --cache D"),
    (["cohomology", "dims"] + DIMS_ARGS + ["--cache-dir=D"],
     "usage error: unrecognized arguments: --cache-dir=D"),
    ([], "usage error: the following arguments are required: command"),
    (["chern"], "usage error: the following arguments are required: action"),
    (["--cache", "D", "cohomology", "dims"] + DIMS_ARGS, "D"),
    (["--cache-dir=D", "cohomology", "dims"] + DIMS_ARGS, "D"),
], ids=["command", "action", "group", "p", "abbreviation", "equals-form",
        "no-command", "no-action", "top-abbreviation", "top-equals-form"])
def test_lazy_parser_keeps_every_usage_error(argv, outcome):
    read = _outcome(parse_argv, argv)
    assert read == _oracle(argv)
    assert (read if isinstance(read, str) else read.cache_dir) == outcome


_TYPED_VALUES = {_prime: ["3", "7"], _degree: ["0", "4"], int: ["-2", "6"],
                 None: ["D", "{}"]}
# bad values, values that start with "-", and stray tokens
_ODD_VALUES = ["4", "-1", "x", "1.5", "", "-x", "-3.5", "--", "-", "-a b",
               "a b", "--x", "---", "--=x", "-hx", "--help=", "-h"]


@st.composite
def _option_tokens(draw, arguments):
    """One option of arguments (or an unknown one) as argv tokens: its
    flag or a prefix of it, with its value apart, after "=", or missing."""
    flag, keywords = draw(st.sampled_from(
        arguments + [("--bogus", {}), ("-x", {})]))
    flag = flag[:draw(st.integers(3, len(flag)))] if flag[1] == "-" else flag
    good = _TYPED_VALUES[keywords.get("type")]
    value = draw(st.one_of(st.sampled_from(good),
                           st.sampled_from(_ODD_VALUES)))
    return draw(st.sampled_from([[flag, value], [flag, value],
                                 [f"{flag}={value}"], [flag]]))


@st.composite
def _argvs(draw):
    """An argv of the command table's words: top-level options, a command
    and action (possibly wrong, missing or swapped), the action's
    arguments in any order and form, top-level options after the command,
    repeated flags and stray tokens."""
    command = draw(st.sampled_from(list(_COMMANDS) + ["homotopy"]))
    actions = _COMMANDS.get(command, {"ranks": []})
    action = draw(st.sampled_from(list(actions) + ["ranks"]))
    arguments = actions.get(action, [])
    flags = [a for a in arguments if a[0].startswith("-")]
    pieces = [[flag, draw(st.sampled_from(_TYPED_VALUES[kw.get("type")]))]
              for flag, kw in flags
              if draw(st.integers(0, 3))]  # each given 3 times in 4
    if not flags:  # scenario run: its path
        pieces.append([draw(st.sampled_from(["massey.json", "-1", "--"]))])
    odd = st.one_of(_option_tokens(flags + _OPTIONS),
                    st.lists(st.sampled_from(_ODD_VALUES), max_size=1))
    pieces += draw(st.one_of(st.just([]), st.lists(odd, max_size=3)))
    pieces = draw(st.permutations(pieces))
    head = draw(st.sampled_from([[command, action]] * 3
                                + [[command], [action, command], []]))
    top = draw(st.one_of(st.just([]),
                         st.lists(_option_tokens(_OPTIONS), max_size=2)))
    return [token for piece in top + [head] + pieces for token in piece]


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_reader_matches_the_argparse_tree(argv):
    assert _outcome(parse_argv, argv) == _oracle(argv)


_WELL_FORMED_VALUES = {_prime: ["3", "7"], _degree: ["0", "4"],
                       int: ["2", "6"], None: ["D", "{}", "a b", "x=y"]}


@st.composite
def _given(draw, flag, keywords):
    """flag with a well-formed value, apart or after "="."""
    value = draw(st.sampled_from(_WELL_FORMED_VALUES[keywords.get("type")]))
    return draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))


@st.composite
def _canonical_argvs(draw):
    """An argv the table reads: the program's options, a command and its
    action, then the action's arguments; options in any order, either
    value form, repeated or (when optional) left out."""
    def options(arguments):
        pieces = []
        for name, keywords in arguments:
            if not name.startswith("-"):  # scenario run: its path
                pieces.append([draw(st.sampled_from(["massey.json", "a=b"]))])
                continue
            least = 1 if keywords.get("required") else 0
            pieces += [draw(_given(name, keywords))
                       for _ in range(draw(st.integers(least, 2)))]
        return draw(st.permutations(pieces))

    command = draw(st.sampled_from(list(_COMMANDS)))
    action = draw(st.sampled_from(list(_COMMANDS[command])))
    pieces = (options(_OPTIONS) + [[command, action]]
              + options(_COMMANDS[command][action]))
    return [token for piece in pieces for token in piece]


@settings(max_examples=200, deadline=None)
@given(_canonical_argvs())
def test_the_table_reads_every_canonical_argv_without_argparse(argv):
    want = _oracle(argv)
    assert isinstance(want, argparse.Namespace), want
    with _parsers_built() as built:
        assert parse_argv(argv) == want
    assert built == []


def test_command_help_lists_its_actions(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chern", "-h"])
    assert exc.value.code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("usage: cohomolab chern [-h] {pc} ...")
    assert _oracle(["chern", "-h"]) == ("help", 0, printed)


def test_help_prints_the_help_of_the_argparse_tree(capsys):
    for argv in [[name, "-h"] for name in _COMMANDS] + [
            ["cohomology", "dims", "--help"]]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert _oracle(argv) == ("help", 0, capsys.readouterr().out), argv
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src] + [d for d in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if d]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run([sys.executable, "-m", "cohomolab.cli", "davis",
                          "-h"], capture_output=True, text=True, env=env,
                         timeout=60)
    assert run.returncode == 0 and run.stderr == ""
    assert ("help", 0, run.stdout) == _oracle(["davis", "-h"])


def test_nonzero_homology_rank_exits_1(capsys, monkeypatch):
    # a Smith form that misses the divisor 3 of C3's induced d_2 over Z/9
    # leaves H_1 a free rank of 1
    from cohomolab.exact_linalg import SmithReport
    resolution = _fresh_resolutions(monkeypatch)
    snf = resolution.smith_normal_form

    def one_short(M):
        divisors = snf(M).elementary_divisors[:-1]
        return SmithReport(divisors, len(divisors))

    monkeypatch.setattr(resolution, "smith_normal_form", one_short)
    _exits_1_without_traceback(
        capsys, ["cohomology", "integral", "--group", C3, "--degree", "2"],
        "nonzero homology rank")


INTEGRAL_G21 = ["cohomology", "integral", "--group",
                '{"family": "G_a1", "a": 2, "p": 3}', "--degree", "3"]


def _changed_lift(monkeypatch, resolution, change):
    """Apply change(resolution, lifted columns) to the last lifted
    column of each d_n."""
    lift = resolution.FreeResolution._lift

    def changed(self, n, A, M, solve):
        L = lift(self, n, A, M, solve)
        change(self, L.cols[L.n_cols - 1])
        return L

    monkeypatch.setattr(resolution.FreeResolution, "_lift", changed)


def test_lift_that_does_not_reduce_to_the_fp_columns_exits_1(
        capsys, monkeypatch):
    resolution = _fresh_resolutions(monkeypatch)

    def bump(res, col):  # one entry moved by 1, which p does not divide
        i = min(col)
        col[i] = (col[i] + 1) % res.modulus

    _changed_lift(monkeypatch, resolution, bump)
    _exits_1_without_traceback(capsys, INTEGRAL_G21,
                               "lifted d_1 does not reduce to d_1 mod 3")


def test_lift_short_of_the_top_digit_exits_1(capsys, monkeypatch):
    # the top digit p^(k-1) moved: the columns still reduce to the F_p
    # ones, but d_(n-1) o d_n no longer vanishes mod p^k
    resolution = _fresh_resolutions(monkeypatch)

    def shift(res, col):
        i = min(col)
        col[i] = (col[i] + res.modulus // res.p) % res.modulus

    _changed_lift(monkeypatch, resolution, shift)
    _exits_1_without_traceback(capsys, INTEGRAL_G21,
                               "do not compose to zero")


def test_lift_with_no_digit_solution_exits_1(capsys, monkeypatch):
    # a d_(n-1) whose echelon solves nothing: d_1's digits come from the
    # augmentation, so d_2 is the first whose lift meets it
    resolution = _fresh_resolutions(monkeypatch)
    monkeypatch.setattr(resolution, "_solve_augmented",
                        lambda ech, n_rows, b: None)
    _exits_1_without_traceback(
        capsys, INTEGRAL_G21[:-1] + ["2"],
        "d_2 does not lift to Z/243: a digit has no solution")


def test_packed_elimination_with_a_wrong_inverse_exits_1(capsys,
                                                        monkeypatch):
    # F_5 rows are packed; an inverse that is twice the true one leaves
    # the pivot field nonzero after a step
    from cohomolab import exact_linalg
    _fresh_resolutions(monkeypatch)
    monkeypatch.setattr(exact_linalg, "_PACKINGS", {})
    monkeypatch.setattr(
        exact_linalg._Inverses, "__missing__",
        lambda self, a: self.setdefault(a, 2 * pow(a, -1, self.p) % self.p))
    _exits_1_without_traceback(
        capsys, ["cohomology", "dims", "--group",
                 '{"family": "cyclic", "n": 5}', "--p", "5",
                 "--max-degree", "2"],
        "packed elimination mod 5 failed")


def test_bit_plane_elimination_of_rows_not_normalised_exits_1(capsys,
                                                               monkeypatch):
    # F_3 planes that start one coordinate below their lead: once a step
    # has shifted a vector to its lead, it meets such a row at a field 0
    # that the row cannot clear
    from cohomolab import exact_linalg
    _fresh_resolutions(monkeypatch)
    planes = exact_linalg._planes

    def not_normalised(vec):
        lo, P, M = planes(vec)
        return (lo - 1, P << 1, M << 1) if P or M else (lo, P, M)

    monkeypatch.setattr(exact_linalg, "_planes", not_normalised)
    _exits_1_without_traceback(
        capsys, ["cohomology", "dims", "--group",
                 '{"family": "P", "n": 3, "p": 3}', "--p", "3",
                 "--max-degree", "2"],
        "bit-plane elimination mod 3 failed")


def test_integral_g21_to_degree_6_within_3_s(capsys, monkeypatch):
    # the lift answers past the ZG route's reach
    _fresh_resolutions(monkeypatch)
    argv = INTEGRAL_G21[:-1] + ["6"]
    start = time.perf_counter()
    assert _within(30, main, argv) == EXIT_PASS
    assert time.perf_counter() - start < 3
    rep = json.loads(capsys.readouterr().out)
    assert (rep["rank"], rep["torsion"], rep["order"]) == \
        (0, [3, 3, 3, 3, 9, 9], 3 ** 8)


def test_max_cells_is_an_unknown_option_exits_2(capsys):
    # the resolution bounds its own work, and the option is gone
    _exits_2_without_traceback(
        capsys, ["--max-cells=10", "cohomology", "dims"] + DIMS_ARGS,
        "unrecognized arguments: --max-cells=10")


def test_resource_limit_exits_3(capsys, monkeypatch):
    # the degree count is refused before any degree is built, and d_1's
    # cover of C1025, 1025*1024 entries, before the cover starts
    resolution = _fresh_resolutions(monkeypatch)
    steps = spy_steps(monkeypatch, resolution)
    C2 = '{"family": "cyclic", "n": 2}'
    _exits_3_within_a_second(
        capsys, ["cohomology", "dims", "--group", C2, "--p", "2",
                 "--max-degree", "1000000000"],
        "a resolution of C2 through degree 1000000001 spans at least "
        "2000000004 basis elements, above the limit 65536")
    _exits_3_within_a_second(
        capsys, ["cohomology", "integral", "--group", C3,
                 "--degree", "1000000000"],
        "a resolution of C3 through degree 1000000000 spans")
    _exits_3_within_a_second(
        capsys, ["cohomology", "dims", "--group",
                 '{"family": "cyclic", "n": 1025}', "--p", "5",
                 "--max-degree", "0"],
        "d_1's cover over C1025 has 1049600 entries, above the limit "
        "1048576")
    assert steps == []


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def test_bundled_scenarios_pass(capsys):
    for name in ("massey.json", "dickson-p3.json"):
        code, rep = run_json(capsys, ["scenario", "run", name])
        assert code == EXIT_PASS, name
        assert rep["passed"]
        assert all(s["passed"] for s in rep["steps"])
        assert all("provenance" in s for s in rep["steps"])


def test_scenario_expectation_failure_exits_1(capsys, tmp_path):
    path = tmp_path / "bad-expect.json"
    path.write_text(json.dumps({
        "name": "wrong",
        "steps": [{"argv": ["massey", "triple", "--group", C3,
                            "--p", "3"],
                   "expect": {"is_zero": True}}],
    }))
    code, rep = run_json(capsys, ["scenario", "run", str(path)])
    assert code == EXIT_FAILURE
    assert not rep["passed"]


def test_scenario_caches_in_the_directory_of_the_variable(
        capsys, monkeypatch, tmp_path):
    # with no --cache-dir, every step's resolution reads COHOMOLAB_CACHE
    resolution = _fresh_resolutions(monkeypatch)
    cache = tmp_path / "env"
    monkeypatch.setenv("COHOMOLAB_CACHE", str(cache))
    path = tmp_path / "dims.json"
    path.write_text(json.dumps({"steps": [{"argv": DIMS_C3}]}))
    code, rep = run_json(capsys, ["scenario", "run", str(path)])
    assert code == EXIT_PASS and rep["passed"]
    assert len(list(cache.glob(f"res_v{CACHE_FORMAT}_*_F3.txt"))) == 3
    assert [key[2] for key in resolution._RESOLUTIONS] == [str(cache)]


def test_scenario_malformed_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["scenario", "run", str(path)]) == EXIT_INPUT
    assert main(["scenario", "run", "missing-file.json"]) == EXIT_INPUT
    empty = tmp_path / "nosteps.json"
    empty.write_text("[]")
    assert main(["scenario", "run", str(empty)]) == EXIT_INPUT
    capsys.readouterr()
    dickson = ["invariants", "dickson", "--p", "3", "--max-degree", "4"]
    for data, message in [
            ({"steps": [1]}, "'steps' list of objects"),
            ({"steps": 5}, "'steps' list of objects"),
            ({"steps": [{"argv": 7}]}, "'argv' list of strings"),
            ({"steps": [{"argv": ["chern", 3]}]}, "'argv' list of strings"),
            ({"steps": [{"argv": dickson}], "budget_seconds": "5"},
             "'budget_seconds' must be a non-negative number"),
            ({"steps": [{"argv": dickson}], "budget_seconds": True},
             "'budget_seconds' must be a non-negative number"),
            ({"steps": [{"argv": dickson}], "budget_seconds": -1},
             "'budget_seconds' must be a non-negative number")]:
        _exits_2_without_traceback(
            capsys, ["scenario", "run", str(_write(tmp_path, data))], message)


def test_a_scenario_step_running_a_scenario_exits_2(capsys, tmp_path):
    path = tmp_path / "self.json"
    for argv in (["scenario", "run", str(path)],
                 ["--cache-dir", str(tmp_path), "scenario", "run",
                  "massey.json"]):
        path.write_text(json.dumps({"steps": [
            {"argv": ["invariants", "dickson", "--p", "3",
                      "--max-degree", "4"]},
            {"argv": argv}]}))
        _exits_2_without_traceback(capsys, ["scenario", "run", str(path)],
                                   "step 1 runs a scenario")


def test_a_scenario_step_asking_for_help_exits_2(capsys, tmp_path):
    # argparse's help exits 0; inside a scenario it would end the run with
    # no report, so the file is refused before any step runs
    path = tmp_path / "help.json"
    for help_argv in (["chern", "-h"], ["--help"],
                      ["massey", "triple", "--group", C3, "--p", "3", "-h"]):
        path.write_text(json.dumps({"steps": [
            {"argv": ["invariants", "dickson", "--p", "3",
                      "--max-degree", "4"]},
            {"argv": help_argv}]}))
        _exits_2_without_traceback(capsys, ["scenario", "run", str(path)],
                                   "step 1 asks for help")


def test_scenario_budget_exceeded_exits_3(capsys, tmp_path):
    path = tmp_path / "tight.json"
    path.write_text(json.dumps({
        "name": "tight",
        "budget_seconds": 0,
        "steps": [{"argv": ["invariants", "dickson", "--p", "3",
                            "--max-degree", "12"],
                   "expect": {"passed": True}}],
    }))
    assert main(["scenario", "run", str(path)]) == EXIT_RESOURCE


def test_scenario_step_error_is_contained(tmp_path):
    rep = run_scenario(str(_write(tmp_path, {
        "name": "err",
        "steps": [
            {"argv": ["massey", "triple", "--group", "{bad",
                      "--p", "3"], "expect": {}},
            {"argv": ["invariants", "dickson", "--p", "3",
                      "--max-degree", "8"], "expect": {"passed": True}},
        ],
    })))
    assert not rep["passed"]
    assert not rep["steps"][0]["passed"] and "error" in rep["steps"][0]
    assert rep["steps"][1]["passed"]


def _write(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


def _moore_homology_argv(tmp_path):
    path = tmp_path / "moore-2.json"
    path.write_text(json.dumps(complex_to_dict(moore_complex(2))))
    return ["davis", "homology", "--k", str(path)]


def _corrupt_reduction(monkeypatch, corrupt):
    """Run corrupt(boundary, live cells) after the unit-pair elimination.
    On the Moore complex the live cells are a vertex, a cycle edge e and
    a triangle with boundary +-2e."""
    from cohomolab import exact_linalg
    eliminate = exact_linalg._eliminate_unit_pairs

    def corrupted(boundary):
        eliminate(boundary)
        corrupt(boundary, [c for c, col in enumerate(boundary)
                           if col is not None])

    monkeypatch.setattr(exact_linalg, "_eliminate_unit_pairs", corrupted)


def test_reduced_complex_not_composing_exits_1(capsys, monkeypatch,
                                               tmp_path):
    def edge_hits_vertex(boundary, live):
        vertex, edge, _ = live
        boundary[edge][vertex] = 1

    argv = _moore_homology_argv(tmp_path)
    _corrupt_reduction(monkeypatch, edge_hits_vertex)
    _exits_1_without_traceback(capsys, argv,
                               "nonzero d o d")


def test_reduced_complex_losing_a_cell_exits_1(capsys, monkeypatch,
                                               tmp_path):
    def drop_vertex(boundary, live):
        boundary[live[0]] = None

    argv = _moore_homology_argv(tmp_path)
    _corrupt_reduction(monkeypatch, drop_vertex)
    _exits_1_without_traceback(capsys, argv,
                               "lost the Euler characteristic")


# ---------------------------------------------------------------------------
# input validation: bad input exits 2 and never hangs
# ---------------------------------------------------------------------------


class _Hung(BaseException):
    """Raised by the alarm of _within; no except clause of cli.main is
    that broad."""


def _within(seconds, call, *args):
    """call(*args), failing instead of hanging once the seconds are up."""
    def hung(signum, frame):
        raise _Hung(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        return call(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _exits_2_without_traceback(capsys, argv, message):
    assert _within(30, main, argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:") and message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


FIXED_ACTION = '{"poly_degrees": [2, 2], "matrices": []}'


def _argv_with_p(p):
    return [
        ["cohomology", "dims", "--group", C3, "--p", p, "--max-degree", "2"],
        ["cohomology", "dims", "--group", '{"family": "cyclic", "n": 2}',
         "--p", p, "--max-degree", "2"],
        ["massey", "triple", "--group", C3, "--p", p],
        ["chern", "pc", "--group", C3, "--p", p],
        ["invariants", "dickson", "--p", p, "--max-degree", "2"],
        ["invariants", "fixed", "--p", p, "--action", FIXED_ACTION,
         "--max-degree", "2"],
        ["ringmodel", "fixed", "--p", p, "--action", "[]",
         "--max-degree", "2"],
    ]


@pytest.mark.parametrize("p", ["-3", "0", "1", "4", "9",
                               "2305843009213693951"])  # 2^61 - 1, prime
def test_bad_p_exits_2(capsys, monkeypatch, p):
    _fresh_resolutions(monkeypatch)
    for argv in _argv_with_p(p):
        _exits_2_without_traceback(capsys, argv,
                                   f"{p} is not a prime below 2^31")


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 9])
def test_library_entry_points_reject_a_non_prime_p(p):
    from cohomolab.char_chern import pc_report
    from cohomolab.groups import build_cyclic
    from cohomolab.resolution import FreeResolution
    G = build_cyclic(3)
    for call in (FreeResolution, pc_report):
        with pytest.raises(ValueError, match="prime"):
            _within(30, call, G, p)


@pytest.mark.parametrize("degree", ["-1", "-3"])
def test_negative_max_degree_exits_2(capsys, degree):
    for argv in (
            ["cohomology", "dims", "--group", C3, "--p", "3"],
            ["invariants", "fixed", "--p", "5", "--action", FIXED_ACTION],
            ["ringmodel", "fixed", "--p", "5", "--action", "C4A4-5.8"],
            ["invariants", "held5"],
            ["invariants", "dickson", "--p", "3"]):
        _exits_2_without_traceback(capsys, argv + ["--max-degree", degree],
                                   f"{degree} is not a degree")


def test_max_degree_zero_is_accepted(capsys):
    code, rep = run_json(capsys, ["invariants", "dickson", "--p", "3",
                                  "--max-degree", "0"])
    assert code == EXIT_PASS and rep["passed"]


@pytest.mark.parametrize("spec", [
    "[1]", '"C3"', "null",
    '{"family": "product", "factors": {"a": 1}}',
    '{"family": "product", "factors": 5}',
    '{"family": "cyclic", "n": "3"}',
    '{"family": "cyclic", "n": 3.5}',
    '{"family": "cyclic", "n": true}',
    '{"family": "P", "n": 3, "p": "3"}',
    '{"family": "semidirect", "p": 3, "n": 2, "matrices": [[[1]]]}',
    '{"family": "semidirect", "p": 3, "n": 1, "matrices": [[["2"]]]}',
    '{"family": "G_a1", "p": 3}',  # neither "a" nor "n"
])
def test_malformed_group_exits_2(capsys, spec):
    _exits_2_without_traceback(
        capsys, ["cohomology", "dims", "--group", spec, "--p", "3",
                 "--max-degree", "1"],
        "'n'" if "G_a1" in spec else "group spec")


def _without_allocating(megabytes, call, *args):
    """call(*args) under a memory guard: the soft address-space limit of
    this process is lowered to its current size plus megabytes (so an
    attempted large table raises MemoryError instead of filling the
    machine), and tracemalloc checks the peak of what the call allocated."""
    import resource
    import tracemalloc
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (size + (megabytes << 20), hard))
    tracemalloc.start()
    try:
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    assert peak < megabytes << 20
    return result


_IDENTITY_8 = [[int(i == j) for j in range(8)] for i in range(8)]


@pytest.mark.parametrize("spec", [
    {"family": "cyclic", "n": 1000000},
    {"family": "product", "factors": [{"family": "cyclic", "n": 100},
                                      {"family": "cyclic", "n": 100}]},
    {"family": "semidirect", "p": 3, "n": 8, "matrices": [_IDENTITY_8]},
    {"family": "P", "n": 100000000, "p": 3},
    {"family": "G_a1", "a": 100000000, "p": 3},
    {"family": "singer", "p": 3, "n": 40},
], ids=["cyclic-10^6", "product-10^4", "semidirect-3^8", "P-huge-n",
        "G_a1-huge-a", "singer-3^40"])
def test_oversized_group_exits_2_without_its_table(capsys, spec):
    argv = ["cohomology", "dims", "--group", json.dumps(spec), "--p", "3",
            "--max-degree", "1"]
    assert _within(30, _without_allocating, 16, main, argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "outside supported range" in err
    assert "Traceback" not in err
