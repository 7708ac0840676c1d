"""Command-line interface.

Every command reads and writes exact rational JSON (or DOT for graphs);
no floating point appears anywhere, so outputs are byte-stable and
re-checkable.  Exit codes: 0 success / affirmative, 1 well-formed negative
answer, 2 malformed input, 3 internal guard (a size cap or a search
budget).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .criteria import ZeroSpec, find_root_profile, is_f_solvable
from .errors import GuardError, InputFormatError, NilpathError, PowerMismatchError
from .graph import build_graph, export_dot, profile_chain
from .jordan import nilpotent_profile, profile_matrix, similarity_witness
from .matrix import (
    Matrix,
    inverse,
    matrix_from_json_obj,
    matrix_mul,
    matrix_pow,
    matrix_to_json_obj,
)
from .paths import connect_roots, path_from_json_obj, verify
from .profiles import Profile, profile_power
from .scalar import parse_rational


def _read_json_file(path: str):
    """The JSON value in a file.  Text that is not UTF-8, nests too deep to
    parse or holds an integer past Python's digit limit is bad input, as
    invalid JSON is: each is a ValueError or a RecursionError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise InputFormatError(f"invalid JSON in {path}: {exc}") from None


def _read_matrix(path: str) -> Matrix:
    """A square matrix from a JSON file; every command that reads one needs
    it square."""
    m = matrix_from_json_obj(_read_json_file(path))
    if not m.is_square():
        raise InputFormatError(f"{path}: matrix must be square, got {m.rows}x{m.cols}")
    return m


def _emit(obj) -> None:
    """Write obj to stdout as one JSON line, or a string as it is.  A reader
    that closed stdout is no error: stdout is pointed at os.devnull, so the
    flush at exit stays silent and the command keeps its exit code."""
    try:
        sys.stdout.write(obj if isinstance(obj, str) else json.dumps(obj) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_profile(args) -> int:
    m = _read_matrix(args.matrix)
    prof = nilpotent_profile(m)
    _emit({"profile": prof.to_text(), "size": prof.size()})
    return 0


def _cmd_root(args) -> int:
    m = _read_matrix(args.matrix)
    target = nilpotent_profile(m)
    if args.profile is not None:
        requested = Profile.from_text(args.profile)
        if profile_power(requested, args.p) != target:
            _emit({"hasRoot": False, "reason": "requested profile does not power to the target"})
            return 1
        root_profile = requested
    else:
        root_profile = find_root_profile(target, args.p)
        if root_profile is None:
            _emit({"hasRoot": False})
            return 1
    model = profile_matrix(root_profile)
    witness = similarity_witness(matrix_pow(model, args.p), m)
    root = matrix_mul(witness, matrix_mul(model, inverse(witness)))
    if matrix_pow(root, args.p) != m:
        raise AssertionError("constructed root failed the exact power check")
    _emit(matrix_to_json_obj(root))
    return 0


def _cmd_graph(args) -> int:
    if (args.matrix is None) == (args.profile is None):
        raise InputFormatError("give exactly one of --matrix or --profile")
    if args.matrix is not None:
        target = nilpotent_profile(_read_matrix(args.matrix))
    else:
        target = Profile.from_text(args.profile)
    g = build_graph(target, args.p)
    if args.dot:
        _emit(export_dot(g))
    else:
        _emit(g.to_report_obj())
    return 0


def _cmd_chain(args) -> int:
    m_from = Profile.from_text(getattr(args, "from"))
    m_to = Profile.from_text(args.to)
    try:
        chain = profile_chain(m_from, m_to, args.p)
    except PowerMismatchError:
        _emit({"chain": None, "reason": "profiles have different power images"})
        return 1
    obj = chain.to_json_obj()
    obj["p"] = args.p
    _emit(obj)
    return 0


def _cmd_connect(args) -> int:
    a = _read_matrix(args.a)
    x = _read_matrix(args.x)
    y = _read_matrix(args.y)
    path = connect_roots(a, args.p, x, y)
    cert = verify(path, args.samples)
    _emit({"path": path.to_json_obj(), "certificate": cert.to_json_obj()})
    return 0 if cert.ok else 1


def _cmd_eval_path(args) -> int:
    path = path_from_json_obj(_read_json_file(args.path))
    t = parse_rational(args.t)
    if t < 0 or t > 1:
        raise InputFormatError("--t must lie in [0, 1]")
    _emit(matrix_to_json_obj(path.evaluate(t)))
    return 0


def _cmd_verify(args) -> int:
    path = path_from_json_obj(_read_json_file(args.path))
    cert = verify(path, args.samples)
    _emit(cert.to_json_obj())
    return 0 if cert.ok else 1


def _cmd_solvable(args) -> int:
    try:
        mults = tuple(int(z) for z in args.zeros.split(",")) if args.zeros else ()
    except ValueError:
        raise InputFormatError("--zeros must be a comma-separated list of integers") from None
    if any(z < 1 for z in mults):
        raise InputFormatError("--zeros multiplicities must be positive integers")
    if not mults and not args.inf:
        raise InputFormatError("need at least one zero: --zeros and/or --inf")
    spec = ZeroSpec(mults, args.inf)
    profile = Profile.from_text(args.profile)
    witness = is_f_solvable(spec, profile)
    if witness is None:
        _emit({"solvable": False})
        return 1
    _emit(
        {
            "solvable": True,
            "witness": {
                "generators": [
                    {"p": p, "a": a, "r": r} for p, a, r in witness.generators
                ],
                "e1Count": witness.e1_count,
            },
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilpath",
        description="Exact p-th roots of nilpotent matrices: profiles, graphs, paths.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("profile", help="Jordan profile of a nilpotent matrix")
    sp.add_argument("matrix", help="matrix JSON file")
    sp.set_defaults(func=_cmd_profile)

    sp = sub.add_parser("root", help="construct an exact p-th root")
    sp.add_argument("matrix", help="matrix JSON file")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--profile", help="requested root profile text, e.g. '3:1'")
    sp.set_defaults(func=_cmd_root)

    sp = sub.add_parser("graph", help="adjacency graph of root profiles")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--matrix", help="matrix JSON file")
    sp.add_argument("--profile", help="target profile text")
    sp.add_argument("--dot", action="store_true", help="emit GraphViz DOT")
    sp.set_defaults(func=_cmd_graph)

    sp = sub.add_parser("chain", help="adjacency chain between two profiles")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--from", required=True, help="source profile text")
    sp.add_argument("--to", required=True, help="destination profile text")
    sp.set_defaults(func=_cmd_chain)

    sp = sub.add_parser("connect", help="path between two roots of the same matrix")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", required=True, help="target matrix JSON file")
    sp.add_argument("--x", required=True, help="first root JSON file")
    sp.add_argument("--y", required=True, help="second root JSON file")
    sp.add_argument("--samples", type=int, default=100)
    sp.set_defaults(func=_cmd_connect)

    sp = sub.add_parser("eval-path", help="evaluate a stored path at a parameter")
    sp.add_argument("path", help="path JSON file")
    sp.add_argument("--t", required=True, help="rational parameter a/b in [0,1]")
    sp.set_defaults(func=_cmd_eval_path)

    sp = sub.add_parser("verify", help="re-verify a stored path")
    sp.add_argument("path", help="path JSON file")
    sp.add_argument("--samples", type=int, default=100)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("solvable", help="decide f(X) = N from zero multiplicities")
    sp.add_argument("--zeros", default="", help="comma-separated finite multiplicities")
    sp.add_argument("--inf", action="store_true", help="a zero of infinite multiplicity")
    sp.add_argument("--profile", required=True, help="target profile text")
    sp.set_defaults(func=_cmd_solvable)

    return parser


_parser = None  # built on the first call to main, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        return exc.code
    try:
        for name in ("p", "samples"):
            if getattr(args, name, 1) < 1:
                raise InputFormatError(f"--{name} must be a positive integer")
        return args.func(args)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"guard tripped: {exc}", file=sys.stderr)
        return 3
    except NilpathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
