"""Every failed certificate of cohomolab is a `raise ArithmeticError` in
src/cohomolab.  The sites are listed here by module, function and
message, read from the source's AST, and each must have an entry in
certificate_sites.SITES: the names of tests that reach it, or the reason
that no input can.  A new site without an entry, or an entry whose site is gone,
fails."""

import ast
import pathlib

from certificate_sites import SITES

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cohomolab"


def _message(raised: ast.expr) -> str:
    """The text of the exception's first argument: a string as written,
    an f-string with its fields as {expression}, anything else as code."""
    if not (isinstance(raised, ast.Call) and raised.args):
        return ""
    arg = raised.args[0]
    if isinstance(arg, ast.Constant):
        return str(arg.value)
    if isinstance(arg, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant)
                       else "{" + ast.unparse(v.value) + "}"
                       for v in arg.values)
    return ast.unparse(arg)


def certificate_sites(root: pathlib.Path = SRC
                      ) -> list[tuple[str, str, str]]:
    """(module, qualified function, message) of every raise of
    ArithmeticError in the modules of root, in source order."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise):
                raised = child.exc
                called = raised.func if isinstance(raised, ast.Call) \
                    else raised
                if isinstance(called, ast.Name) \
                        and called.id == "ArithmeticError":
                    sites.append((module, ".".join(scope), _message(raised)))
            visit(child, scope)

    for path in sorted(root.glob("*.py")):
        module = path.stem
        visit(ast.parse(path.read_text()), [])
    return sites


def _test_functions() -> set[str]:
    """The names of the module-level test functions of tests/."""
    return {node.name for path in TESTS.glob("test_*.py")
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("test_")}


def test_sites_are_told_apart_by_function_and_message():
    sites = certificate_sites()
    assert len(sites) == len(set(sites))


def test_every_certificate_site_has_an_entry():
    sites = set(certificate_sites())
    assert sorted(sites - SITES.keys()) == []  # sites without an entry
    assert sorted(SITES.keys() - sites) == []  # entries without a site


def test_every_entry_names_tests_that_exist_or_a_reason():
    functions = _test_functions()
    for site, entry in SITES.items():
        if isinstance(entry, str):
            assert entry.startswith("unreachable: "), site
        else:
            assert entry and set(entry) <= functions, site


def test_the_ast_walk_finds_what_it_should(tmp_path):
    """A nested raise, an f-string, a message built by a call and a bare
    class are all sites; another exception and a raise in a comment are
    not."""
    (tmp_path / "mod.py").write_text(
        "class A:\n"
        "    def f(self, n):\n"
        "        if n:\n"
        "            raise ArithmeticError(f'bad {n} of {n + 1}')\n"
        "        raise ArithmeticError(text(n)) from None\n"
        "def g():\n"
        "    raise ArithmeticError\n"
        "def h():\n"
        "    raise ValueError('not a certificate')"
        "  # raise ArithmeticError('x')\n")
    assert certificate_sites(tmp_path) == [
        ("mod", "A.f", "bad {n} of {n + 1}"), ("mod", "A.f", "text(n)"),
        ("mod", "g", "")]
