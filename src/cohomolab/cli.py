"""Batch command-line driver: every computation behind a subcommand with
deterministic JSON reports (wall-clock timings go to stderr so reruns are
byte-identical), plus scenario files that bundle steps with expected
results.

Exit codes: 0 pass, 1 expectation/certification failure, 2 input error,
3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.resources
import io
import json
import os
import sys
import time
from fractions import Fraction
from typing import Optional

from . import bar_cohomology as bc
from . import davis as dv
from .char_chern import pc_report
from .cohomology_ring_models import (
    RingAutomorphism,
    build_model,
    named_action,
)
from .exact_linalg import is_prime
from .groups import build_group
from .invariant_rings import (
    GradedAlgebra,
    MatrixAction,
    basis_counts,
    dickson_check,
    fixed_dims,
    fixed_subspaces,
    held_5_part_check,
    molien_dims,
)

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _frac(x: Fraction) -> str:
    return str(x)


def _group(arg: str):
    return build_group(json.loads(arg))


def _prime(text: str) -> int:
    """argparse type of every --p option.  The bound limits the input, not
    the primality test (is_prime is exact far beyond it): a prime of a
    supported group order is at most MAX_TABLE_ORDER, and below 2^31 a
    packed F_p echelon field stays within 16 bytes."""
    p = int(text)
    if not (p < 1 << 31 and is_prime(p)):
        raise argparse.ArgumentTypeError(f"{p} is not a prime below 2^31")
    return p


def _degree(text: str) -> int:
    """argparse type of every --max-degree option."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is not a degree (n >= 0)")
    return n


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a JSON-ready report dict)
# ---------------------------------------------------------------------------


def _cmd_cohomology(args) -> dict:
    G = _group(args.group)
    if args.action == "dims":
        dims = bc.cohomology_dims_mod_p(G, args.p, args.max_degree,
                                        cache_dir=args.cache_dir)
        if args.dump_matrix:
            M = bc.coboundary_matrix(G, args.max_degree, args.p)
            with open(args.dump_matrix, "w") as fh:
                M.dump(fh)
        return {"group": G.name, "p": args.p,
                "max_degree": args.max_degree, "dims": dims}
    rank, torsion = bc.integral_cohomology(G, args.degree,
                                           cache_dir=args.cache_dir)
    order = 1
    for d in torsion:
        order *= d
    return {"group": G.name, "degree": args.degree, "rank": rank,
            "torsion": list(torsion), "order": order}


def _cmd_massey(args) -> dict:
    G = _group(args.group)
    basis = bc.class_basis(G, 1, args.p)
    if not basis:
        raise ValueError("the group has no degree-one classes mod p")
    y = basis[0]
    res = bc.massey(y, y, y)
    return {
        "group": G.name,
        "p": args.p,
        "equals_bockstein": res.equals_cochain(bc.bockstein(y)),
        "is_zero": res.is_zero_modulo_indeterminacy(),
        "indeterminacy_size": len(res.indeterminacy),
    }


def _cmd_chern(args) -> dict:
    G = _group(args.group)
    rep = pc_report(G, args.p)
    return {
        "group": G.name,
        "p": args.p,
        "pc": rep.pc,
        "alternative_lcm_2m": rep.alternative_lcm_2m,
        "per_class": [
            {"generators": [r.subgroup.members[1]],
             "m": r.m,
             "exponents": sorted(r.exponent_set)}
            for r in rep.per_class
        ],
    }


def _is_int_list(value) -> bool:
    # type(), not isinstance(): JSON true must not pass for 1
    return isinstance(value, list) and all(type(v) is int for v in value)


def _is_int_matrix(value) -> bool:
    return isinstance(value, list) and all(map(_is_int_list, value))


def _encode_elements(A: GradedAlgebra, elements) -> list:
    """[[e1, e2, ..., b1, b2, ...], coef] per monomial, sorted."""
    out = []
    for e in elements:
        out.append(sorted([list(exps) + list(bits), c]
                          for (exps, bits), c in e.items()))
    return sorted(out)


# `invariants fixed` limits, checked before the sweep: the largest
# component, and the sweep's steps, (max_degree + 1)*2^s for s exterior
# generators (at most 2^s exterior subsets in each degree) plus the basis
# monomials of every degree.  A dense 3 x 3 matrix over F_7 on
# degree-1 generators takes about 2.9 s and 45 MB at max_degree 23
# (largest component 300), and a dense 2 x 2 one about 2.8 s at
# max_degree 152 (11,934 steps), on one core of a Xeon with Python 3.11.
MAX_FIXED_COMPONENT = 300
MAX_FIXED_STEPS = 12_000


def _check_fixed_size(A: GradedAlgebra, max_degree: int) -> None:
    """ResourceLimitError unless the sweep over degrees 0..max_degree
    stays within MAX_FIXED_COMPONENT and MAX_FIXED_STEPS, counted
    without listing a basis."""
    steps = (max_degree + 1) << len(A.ext_degrees)
    if steps <= MAX_FIXED_STEPS:  # else the degrees alone are too many
        largest, total = basis_counts(A, max_degree)
        if largest > MAX_FIXED_COMPONENT:
            raise bc.ResourceLimitError(
                f"a component of {largest} monomials is above the limit "
                f"{MAX_FIXED_COMPONENT}")
        steps += total
    if steps > MAX_FIXED_STEPS:
        raise bc.ResourceLimitError(
            f"the sweep would take at least {steps} steps, above the limit "
            f"{MAX_FIXED_STEPS}")


def _cmd_invariants(args) -> dict:
    if args.action == "dickson":
        return dataclasses.asdict(dickson_check(args.p, args.max_degree))
    if args.action == "held5":
        return dataclasses.asdict(held_5_part_check(args.max_degree))
    spec = json.loads(args.action_spec)
    if not isinstance(spec, dict):
        raise ValueError("an invariants action must be an object")
    twists = spec.get("ext_twists")  # null: every twist is 1
    for key, value in (("poly_degrees", spec["poly_degrees"]),
                       ("ext_degrees", spec.get("ext_degrees", [])),
                       ("ext_twists", [] if twists is None else twists)):
        if not _is_int_list(value):
            raise ValueError(f"action field {key!r} must be a list of "
                             "integers")
    if not (isinstance(spec["matrices"], list)
            and all(map(_is_int_matrix, spec["matrices"]))):
        raise ValueError("action field 'matrices' must be a list of "
                         "integer matrices")
    A = GradedAlgebra(args.p, spec["poly_degrees"],
                      spec.get("ext_degrees", []))
    _check_fixed_size(A, args.max_degree)  # before any determinant
    act = MatrixAction(A, [tuple(map(tuple, M)) for M in spec["matrices"]],
                       ext_twists=twists)
    order = act.group_order()
    # completeness where p does not divide |G|: the Molien series counts
    # the fixed vectors of every degree (soundness is require_fixed's)
    counts = molien_dims(act, args.max_degree) if order % args.p else None
    dims = []
    basis = {}
    for d, fixed in enumerate(fixed_subspaces(A, act.maps, args.max_degree)):
        if counts is not None and len(fixed) != counts[d]:
            raise ArithmeticError(
                f"degree {d} has {len(fixed)} fixed vectors, and the Molien "
                f"series counts {counts[d]}")
        dims.append(len(fixed))
        if fixed:
            basis[str(d)] = _encode_elements(A, fixed)
    return {"p": args.p, "max_degree": args.max_degree,
            "group_order": order, "fixed_dims": dims, "fixed_basis": basis}


def _cmd_ringmodel(args) -> dict:
    if args.max_degree > 12 * args.p:
        raise ValueError("max_degree capped at 12p")
    model = build_model(args.p)
    if args.action_spec.lstrip().startswith("["):
        spec = json.loads(args.action_spec)
        if not all(isinstance(a, dict) and _is_int_matrix(a.get("matrix"))
                   and len(a["matrix"]) == 2
                   and all(len(row) == 2 for row in a["matrix"])
                   and type(a.get("j")) is int for a in spec):
            raise ValueError('a custom action must be a list of '
                             '{"matrix": 2 x 2 integer matrix, "j": integer}')
        autos = [RingAutomorphism.from_matrix(
                     model, tuple(map(tuple, a["matrix"])), a["j"])
                 for a in spec]
        action_name = "custom"
    else:
        autos = named_action(model, args.action_spec)
        action_name = args.action_spec
    dims = fixed_dims(model, [phi.images for phi in autos], args.max_degree)
    return {"p": args.p, "action": action_name,
            "max_degree": args.max_degree, "fixed_dims": dims}


def _load_complex(path: str) -> dv.SimplicialComplex:
    with open(path) as fh:
        return dv.complex_from_dict(json.load(fh))


def _homology_table(h: list) -> list:
    return [{"rank": g.rank, "torsion": list(g.torsion)} for g in h]


# The largest `davis bestvina --n`: the work grows about linearly in n, and
# n = 256 takes about 2.9 s and 97 MB (Python 3.11, Xeon, one core).
MAX_BESTVINA_N = 256


def _cmd_davis(args) -> dict:
    if args.action == "bestvina":
        if args.n > MAX_BESTVINA_N:
            raise bc.ResourceLimitError(
                f"--n {args.n} is above the limit {MAX_BESTVINA_N}")
        return dataclasses.asdict(dv.bestvina_check(args.n))
    K = _load_complex(args.k)
    if args.action == "homology":
        return {"f_vector": K.f_vector(), "full": K.is_full(),
                "homology": _homology_table(dv.homology(K))}
    if args.action == "chi":
        chis, orb = dv.chiswell_chi(K), dv.orbifold_chi(K)
        return {"n_i": K.f_vector(), "chi_chiswell": _frac(chis),
                "chi_orbifold": _frac(orb), "equal": chis == orb}
    q = dv.davis_quotient(dv.racg_from_complex(K),
                          dv.torsion_free_coloring(K))
    return {
        "n_i": list(q.euler.n_i),
        "k": q.k,
        "quotient_f_vector": list(q.f_vector),
        "chi_chiswell": _frac(q.euler.chi_chiswell),
        "chi_orbifold": _frac(q.euler.chi_orbifold),
        "chi_quotient_over_index": _frac(q.euler.chi_quotient_over_index),
        "euler_passed": q.euler.passed,
        "homology": _homology_table(dv.quotient_homology(q)),
    }


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def _resolve_scenario(path: str) -> str:
    if os.path.exists(path):
        return path
    bundled = importlib.resources.files("cohomolab") / "scenarios" / path
    if bundled.is_file():
        return str(bundled)
    raise FileNotFoundError(f"no scenario file {path!r}")


def _subset_match(expected, actual) -> bool:
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and _subset_match(v, actual[k])
            for k, v in expected.items())
    if isinstance(expected, list):
        return isinstance(actual, list) and len(expected) == len(actual) \
            and all(_subset_match(e, a) for e, a in zip(expected, actual))
    return expected == actual


def run_scenario(path: str, cache_dir: Optional[str] = None) -> dict:
    """Run every step of a scenario file, matching each step's report
    against its expectations.  Raises ResourceLimitError past the declared
    time budget and ValueError on a malformed file, including a step that
    runs a scenario or asks for help, before any step runs."""
    with open(_resolve_scenario(path)) as fh:
        try:
            scenario = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed scenario file: {exc}") from exc
    steps = scenario.get("steps") if isinstance(scenario, dict) else None
    if not (isinstance(steps, list) and all(
            isinstance(step, dict) and isinstance(step.get("argv"), list)
            and all(isinstance(token, str) for token in step["argv"])
            for step in steps)):
        raise ValueError("scenario must be an object with a 'steps' list of "
                         "objects, each with an 'argv' list of strings")
    budget = scenario.get("budget_seconds")
    if budget is not None and not (type(budget) in (int, float)
                                   and budget >= 0):
        raise ValueError("'budget_seconds' must be a non-negative number")
    for i, step in enumerate(steps):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                command = parse_argv(step["argv"]).command
        except ValueError:  # a usage error fails its step when it runs
            continue
        except SystemExit:  # argparse printed help and exited
            raise ValueError(f"step {i} asks for help, which a scenario "
                             "step may not") from None
        if command == "scenario":
            raise ValueError(f"step {i} runs a scenario, which a scenario "
                             "step may not")
    start = time.monotonic()
    results = []
    for i, step in enumerate(steps):
        argv = step["argv"]
        if cache_dir:
            argv = ["--cache-dir", cache_dir] + argv
        entry = {"step": i, "argv": step["argv"],
                 "provenance": step.get("provenance", "derived")}
        try:
            report, _ = _dispatch(argv)
            entry["passed"] = _subset_match(step.get("expect", {}), report)
            entry["report"] = report
        except Exception as exc:  # a failing step must not halt the run
            entry["passed"] = False
            entry["error"] = f"{type(exc).__name__}: {exc}"
        results.append(entry)
        if budget is not None and time.monotonic() - start > budget:
            raise bc.ResourceLimitError(
                f"scenario exceeded its {budget}s budget at step {i}")
    return {"name": scenario.get("name", os.path.basename(path)),
            "steps": results,
            "passed": all(r["passed"] for r in results)}


# ---------------------------------------------------------------------------
# argv reader and entry point
# ---------------------------------------------------------------------------


_GROUP = ("--group", {"required": True})
_P = ("--p", {"type": _prime, "required": True})
_MAX_DEGREE = ("--max-degree", {"type": _degree, "required": True})
_ACTION = ("--action", {"dest": "action_spec", "required": True})
_OUT = ("--out", {"default": None})

# the program's own options, read before the command only
_OPTIONS = [
    ("--cache-dir", {"default": None}),
    ("--json-out", {"default": None}),
]

# command -> action -> the (name, add_argument keywords) of its arguments
_COMMANDS = {
    "cohomology": {
        "dims": [_GROUP, _P, _MAX_DEGREE, ("--dump-matrix", {"default": None})],
        "integral": [_GROUP, ("--degree", {"type": int, "required": True})],
    },
    "massey": {"triple": [_GROUP, _P]},
    "chern": {"pc": [_GROUP, _P]},
    "invariants": {
        "dickson": [_P, _MAX_DEGREE],
        "held5": [("--max-degree", {"type": _degree, "default": 120})],
        "fixed": [_P, _ACTION, _MAX_DEGREE],
    },
    "ringmodel": {"fixed": [_P, _ACTION, _MAX_DEGREE]},
    "davis": {
        **{name: [("--k", {"required": True}), _OUT]
           for name in ("build", "homology", "chi")},
        "bestvina": [("--n", {"type": int, "required": True}), _OUT],
    },
    "scenario": {"run": [("path", {})]},
}


def _dest(name: str, keywords: dict) -> str:
    """The Namespace attribute argparse gives an argument."""
    return keywords.get("dest", name.lstrip("-").replace("-", "_"))


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ValueError."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of the command table: the program, its commands
    and their actions, 21 parsers."""
    parser = _Parser(prog="cohomolab",
                     description="exact-arithmetic group-cohomology workbench")
    for name, keywords in _OPTIONS:
        parser.add_argument(name, **keywords)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, actions in _COMMANDS.items():
        below = commands.add_parser(command).add_subparsers(dest="action",
                                                            required=True)
        for action, arguments in actions.items():
            leaf = below.add_parser(action)
            for name, keywords in arguments:
                leaf.add_argument(name, **keywords)
    return parser


def _read(tokens: list, arguments: list, values: dict) -> Optional[int]:
    """Read the leading tokens that are arguments into values, each an
    exact flag with its value apart or after "=", or the value of the next
    positional; returns how many were read.  None where a value is empty,
    starts with "-" or fails its type, a flag is not exact or a required
    argument is missing."""
    by_name = dict(arguments)
    positional = [name for name in by_name if not name.startswith("-")]
    values.update((_dest(name, keywords), keywords.get("default"))
                  for name, keywords in arguments)
    given, i = set(), 0
    while i < len(tokens):
        name = tokens[i]
        if name.startswith("-"):
            name, eq, text = name.partition("=")
            if not eq:
                i += 1
                text = tokens[i] if i < len(tokens) else ""
        elif positional:
            name, text = positional.pop(0), name
        else:
            break
        if name not in by_name or not text or text.startswith("-"):
            return None
        keywords = by_name[name]
        convert = keywords.get("type")
        try:
            values[_dest(name, keywords)] = convert(text) if convert else text
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        given.add(name)
        i += 1
    if any(name not in given
           and (keywords.get("required") or not name.startswith("-"))
           for name, keywords in arguments):
        return None
    return i


def parse_argv(argv: list[str]) -> argparse.Namespace:
    """The Namespace the argparse tree of build_parser() gives argv.  An
    argv of the canonical grammar is read from the command table with no
    parser: the program's options, the command, its action and then the
    action's arguments, each option an exact flag of its level.  argparse
    reads every other argv, so -h/--help prints its help and exits 0, and
    a usage error raises ValueError with its message."""
    values = {}
    i = _read(argv, _OPTIONS, values)
    if i is not None and len(argv) >= i + 2:
        command, action, rest = argv[i], argv[i + 1], argv[i + 2:]
        arguments = _COMMANDS.get(command, {}).get(action)
        if arguments is not None and _read(rest, arguments,
                                           values) == len(rest):
            return argparse.Namespace(command=command, action=action,
                                      **values)
    return build_parser().parse_args(argv)


_HANDLERS = {
    "cohomology": _cmd_cohomology,
    "massey": _cmd_massey,
    "chern": _cmd_chern,
    "invariants": _cmd_invariants,
    "ringmodel": _cmd_ringmodel,
    "davis": _cmd_davis,
}


def _dispatch(argv: list[str]) -> tuple[dict, Optional[str]]:
    """Read argv and run the handler; returns (report, output path)."""
    args = parse_argv(argv)
    # argparse reads "--flag=--" as an empty list, which no handler takes
    for name, keywords in _OPTIONS + _COMMANDS[args.command][args.action]:
        if isinstance(getattr(args, _dest(name, keywords)), list):
            raise ValueError(f"argument {name}: expected one argument")
    if args.command == "scenario":
        report = run_scenario(args.path, cache_dir=args.cache_dir)
    else:
        report = _HANDLERS[args.command](args)
    report = {"schema_version": SCHEMA_VERSION,
              "command": args.command, "action": args.action, **report}
    out = args.json_out or getattr(args, "out", None)
    return report, out


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    start = time.monotonic()
    try:
        report, out = _dispatch(argv)
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if out:
            with open(out, "w") as fh:
                fh.write(text)
    except (ValueError, KeyError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except bc.ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ArithmeticError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if not out:
        sys.stdout.write(text)
    print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    if report.get("passed") is False:
        return EXIT_FAILURE
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
