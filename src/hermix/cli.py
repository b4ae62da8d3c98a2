"""Command-line interface.

Every subcommand reads a graph file (or ``-`` for stdin) in the plain text
format, as UTF-8, takes the phase through ``--alpha``, and prints one JSON
object on stdout.  ``search-cospectral`` is the exception: it takes no graph
file and streams one JSON object per hit.

Exit codes: 0 success, 2 bad input of any sort, 1 a numerical check failed.
A reader that closes stdout early (``| head``) ends the output quietly, with
exit code 0.

Floats are rounded to 12 significant digits and printed in Python's
shortest round-trip form, the text ``json.dumps(float(f"{x:.12g}"))`` gives:
``3.0``, ``-0.0``, ``0.333333333333``, ``1e-05``, and ``1000000000000.0``
up to 1e16.  Infinities and NaN print as ``Infinity`` and ``NaN``.  A
transfer eigenbasis prints as its ``pairs`` list, one ``{"lambda", "vector"}``
object of ``[re, im]`` entries per eigenpair, written pair by pair.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain
from typing import Any, Iterator, Sequence

import numpy as np

from .cospectral import (
    CospectralReport,
    numeric_cospectral,
    search_cospectral,
)
from .errors import NumericalError
from .expansion import char_poly_expansion
from .graphs import MixedGraph, _ends, parse_graph, serialize_graph
from .monographs import (
    AttachDirection,
    Attachment,
    MonographKind,
    extend_monograph,
    is_monograph,
    monograph_partition,
    radius_equality_analysis,
    transfer_eigenvectors,
)
from .phases import Phase, make_alpha
from .spectra import (
    DEFAULT_TOL,
    EigenBasis,
    build_hermitian,
    char_poly,
    eigen_decomposition,
)

__all__ = ["main"]


# {:.12g} with ".0" kept on an integral value, and an exponent from 1e11
_FORMAT_12 = "{:.12}".format
_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
_escape = json.encoder.encode_basestring_ascii


class _Text(str):
    """Finished JSON text, which ``str.format`` writes as it is under any spec."""

    def __format__(self, spec: str) -> str:
        return self


@functools.lru_cache(maxsize=16)  # a run sees few vector lengths
def _pair_template(n: int) -> str:
    """One eigenpair of n entries as a ``str.format`` template."""
    entries = ", ".join(["[{:.12}, {:.12}]"] * n)
    return '{{"lambda": {:.12}, "vector": [' + entries + "]}}"


def _pair_texts(values: np.ndarray, vectors: np.ndarray) -> Iterator[str]:
    """The eigenpairs' JSON list in pieces, a pair by one ``str.format`` call.
    ``{:.12}`` prints a float's ``_json`` text but for subnormals, floats from
    1e10 (99999999999.95 rounds to 1e11) and non-finite ones: they go in as ``_Text``."""
    rows = np.empty((len(values), 1 + 2 * len(vectors)))
    rows[:, 0], rows[:, 1::2], rows[:, 2::2] = values, vectors.real.T, vectors.imag.T
    size = np.abs(rows)
    flagged = ~((size >= 1e-300) & (size < 1e10)) & (rows != 0)
    template = _pair_template(len(vectors))
    yield "["
    for i, (row, marks) in enumerate(zip(rows, flagged)):
        # a pair's floats are Python objects only while it is formatted
        items = row.tolist()
        for j in np.flatnonzero(marks).tolist():
            items[j] = _Text(_json(items[j]))
        yield (", " if i else "") + template.format(*items)
    yield "]"


def _json(obj: Any) -> str:
    """``json.dumps`` text with every float rounded to 12 significant digits,
    an ``EigenBasis`` dict value as its ``pairs`` list.  The ``isinstance``
    checks serve int subclasses (bool is matched before them) and numpy floats."""
    kind = type(obj)
    if kind is str:
        return _escape(obj)
    if kind is dict:
        return "".join(_dict_pieces(obj))
    if kind is list or kind is tuple:
        return "[" + ", ".join(map(_json, obj)) + "]"
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        # a token with no exponent, inf or nan is repr's text of its value; repr
        # prints 1e11 <= |x| < 1e16 positionally and shortens subnormals
        s = _FORMAT_12(obj)
        return s if "e" not in s and "n" not in s else _NONFINITE.get(s) or repr(float(s))
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _dict_pieces(obj: dict[str, Any]) -> Iterator[str]:
    """``_json`` text of a dict in pieces, an ``EigenBasis`` value pair by pair."""
    sep = "{"
    for key, value in obj.items():
        if type(value) is EigenBasis:
            yield sep + _escape(key) + ": "
            yield from _pair_texts(value.values, value.vectors)
        else:
            yield sep + _escape(key) + ": " + _json(value)
        sep = ", "
    yield "}" if obj else "{}"


def _emit(payload: dict[str, Any]) -> None:
    """Print ``_json(payload)`` piece by piece: no text is held whole."""
    sys.stdout.writelines(chain(_dict_pieces(payload), "\n"))


def _read_text(path: str) -> str:
    """The text of a file, or of stdin for ``-``, read as UTF-8.  A byte
    that is not UTF-8 reads as U+FFFD, so the parser of the text reports it
    as it would any other stray character."""
    if path == "-":
        raw = getattr(sys.stdin, "buffer", None)  # None on a str-only stream
        return raw.read().decode("utf-8", "replace") if raw else sys.stdin.read()
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return fh.read()


def _read_graph(path: str) -> MixedGraph:
    """The graph in a file or on stdin.  A comment skips a byte that is not
    UTF-8; anywhere else the parser's error names its line."""
    return parse_graph(_read_text(path))


def _edges_json(graph: MixedGraph) -> list[list[Any]]:
    return [["digon" if row[2] == 1 else "arc", *_ends(row)] for row in graph._table]


def _spectra_payload(graph: MixedGraph, alpha: Phase, oracle: bool) -> dict[str, Any]:
    matrix = build_hermitian(graph, alpha)
    values = eigen_decomposition(matrix).values
    if oracle:
        poly = char_poly_expansion(graph, alpha)
    else:
        poly = char_poly(matrix, values)
    return {
        "alpha": str(alpha),
        "eigenvalues": values.tolist(),
        "char_poly": list(poly),
        "spectral_radius": float(np.abs(values).max(initial=0.0)),
    }


def _cmd_spectrum(args: argparse.Namespace) -> None:
    graph = _read_graph(args.graph)
    _emit(_spectra_payload(graph, make_alpha(args.alpha), oracle=False))


def _cmd_charpoly(args: argparse.Namespace) -> None:
    graph = _read_graph(args.graph)
    payload = _spectra_payload(graph, make_alpha(args.alpha), args.oracle)
    payload["method"] = "expansion" if args.oracle else "faddeev-leverrier"
    _emit(payload)


def _kind(args: argparse.Namespace) -> MonographKind:
    return MonographKind.FIRST if args.kind == 1 else MonographKind.SECOND


def _cmd_monograph(args: argparse.Namespace) -> None:
    graph = _read_graph(args.graph)
    alpha = make_alpha(args.alpha)
    cert = is_monograph(graph, alpha, _kind(args))
    payload: dict[str, Any] = {
        "alpha": str(alpha),
        "kind": args.kind,
        "is_monograph": cert.verdict,
        "potential": None,
        "violation": None,
    }
    if cert.verdict:
        assert cert.potential is not None
        payload["potential"] = {
            str(v): p.turns for v, p in enumerate(cert.potential)
        }
    else:
        assert cert.violation is not None
        payload["violation"] = list(cert.violation)
    _emit(payload)


def _cmd_partition(args: argparse.Namespace) -> None:
    graph = _read_graph(args.graph)
    alpha = make_alpha(args.alpha)
    # two float potentials may print as the same text: their classes merge
    classes: dict[str, list[int]] = {}
    for p, vs in monograph_partition(graph, alpha, _kind(args)).items():
        classes.setdefault(p.turns, []).extend(vs)
    _emit(
        {
            "alpha": str(alpha),
            "kind": args.kind,
            "classes": {turns: sorted(vs) for turns, vs in classes.items()},
        }
    )


def _parse_basis(text: str, n: int) -> EigenBasis:
    try:
        # every JSON number becomes a float, so one type check finds the rest:
        # no other value json builds has type float
        data = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ValueError(f"basis is not valid JSON: {exc}") from None
    if not isinstance(data, list):
        raise ValueError("basis must be a JSON array of {lambda, vector}")
    values = []
    vectors = np.empty((n, len(data)), dtype=np.complex128)
    for k, item in enumerate(data):
        if not isinstance(item, dict) or "lambda" not in item or "vector" not in item:
            raise ValueError("each basis entry needs 'lambda' and 'vector'")
        lam, raw = item["lambda"], item["vector"]
        if not isinstance(lam, float):
            raise ValueError(f"basis entry {k}: lambda is not a number: {json.dumps(lam)}")
        if not isinstance(raw, list):
            raise ValueError(f"basis entry {k}: vector is not an array: {json.dumps(raw)}")
        if len(raw) != n:
            raise ValueError(f"vector length {len(raw)} does not match n={n}")
        # re and im of every entry, interleaved: entry i fills slots 2i, 2i+1
        flat = list(
            chain.from_iterable(e if type(e) is list and len(e) == 2 else (e, 0.0) for e in raw)
        )
        if not set(map(type, flat)) <= {float}:
            i = next(j for j, x in enumerate(flat) if type(x) is not float) // 2
            raise ValueError(
                f"basis entry {k}: vector entry {i} is neither a number nor a "
                f"[re, im] pair of numbers: {json.dumps(raw[i])}"
            )
        values.append(lam)
        vectors[:, k] = np.array(flat, dtype=np.float64).view(np.complex128)
    return EigenBasis(np.array(values), vectors)


def _cmd_transfer(args: argparse.Namespace) -> None:
    graph = _read_graph(args.graph)
    alpha = make_alpha(args.alpha)
    basis = None
    if args.basis is not None:
        if args.basis == "-" and args.graph == "-":
            raise ValueError("graph and basis cannot both come from stdin")
        basis = _parse_basis(_read_text(args.basis), graph.n)
    moved, residual = transfer_eigenvectors(graph, alpha, basis)
    _emit(
        {
            "alpha": str(alpha),
            "pairs": moved,
            "max_residual": residual,
        }
    )


def _parse_int_list(text: str) -> list[int]:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    try:
        return [int(p) for p in parts if p]
    except ValueError:
        raise ValueError(f"expected a comma-separated vertex list, got {text!r}") from None


def _parse_attachment(text: str) -> Attachment:
    """Format: optional label, targets, direction, e.g. ``x: 0,1 out``."""
    body = text.split(":", 1)[1] if ":" in text else text
    tokens = body.split()
    if not tokens:
        raise ValueError(f"empty attachment spec {text!r}")
    direction_word = tokens[-1].lower()
    if direction_word not in ("out", "in"):
        raise ValueError(
            f"attachment {text!r} must end with 'out' or 'in', got {tokens[-1]!r}"
        )
    targets = _parse_int_list(" ".join(tokens[:-1]))
    if not targets:
        raise ValueError(f"attachment {text!r} names no target vertices")
    direction = AttachDirection.OUT if direction_word == "out" else AttachDirection.IN
    return Attachment(frozenset(targets), direction)


def _cmd_extend(args: argparse.Namespace) -> None:
    graph = _read_graph(args.graph)
    alpha = make_alpha(args.alpha)
    base = _parse_int_list(args.subgraph)
    attachments = [_parse_attachment(a) for a in args.attach]
    grown = extend_monograph(graph, alpha, base, attachments)
    _emit(
        {
            "alpha": str(alpha),
            "n": grown.n,
            "edges": _edges_json(grown),
            "text": serialize_graph(grown),
        }
    )


def _cmd_radius(args: argparse.Namespace) -> None:
    graph = _read_graph(args.graph)
    alpha = make_alpha(args.alpha)
    report = radius_equality_analysis(graph, alpha, tol=args.tol)
    _emit(
        {
            "alpha": str(alpha),
            "rho": report.rho,
            "delta": report.delta,
            "equal": report.equal,
            "regular": report.regular,
            "mono1": report.mono1,
            "mono2": report.mono2,
            "theorem_consistent": report.theorem_consistent,
        }
    )


def _report_json(report: CospectralReport) -> dict[str, Any]:
    return {
        "alpha1": str(report.alpha1),
        "alpha2": str(report.alpha2),
        "cospectral": report.cospectral,
        "max_gap": report.max_gap,
        "flags": report.flags.as_dict(),
    }


def _two_alphas(args: argparse.Namespace) -> tuple[Phase, Phase]:
    if len(args.alpha) != 2:
        raise ValueError("exactly two --alpha values are required")
    return make_alpha(args.alpha[0]), make_alpha(args.alpha[1])


def _cmd_cospectral(args: argparse.Namespace) -> None:
    graph = _read_graph(args.graph)
    a1, a2 = _two_alphas(args)
    _emit(_report_json(numeric_cospectral(graph, a1, a2, tol=args.tol)))


def _cmd_search(args: argparse.Namespace) -> None:
    a1, a2 = _two_alphas(args)
    hits = search_cospectral(
        args.n, a1, a2, mode=args.mode, count=args.count, seed=args.seed, tol=args.tol
    )
    # printed as the chunks are scanned, so hits show before a long scan ends
    for code, graph, report in hits:
        _emit(
            {
                "code": code,
                "n": graph.n,
                "edges": _edges_json(graph),
                "report": _report_json(report),
            }
        )


def _add_graph_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("graph", help="path to a graph file, or - for stdin")


def _add_alpha_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--alpha",
        required=True,
        help="phase spec: 1, i, gamma, omega, root:k/n or angle:<radians>",
    )


def _add_kind_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kind", type=int, choices=(1, 2), required=True)


def _tolerance(text: str) -> float:
    """A finite number >= 0; the library takes any float, the command line
    refuses the ones no comparison can use."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _add_tol_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)


# parsing never mutates the parser, so one instance serves every call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermix",
        description="Spectra of mixed graphs through unit-phase Hermitian matrices.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("spectrum", help="eigenvalues, coefficients and radius")
    _add_alpha_arg(p)
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_spectrum)

    p = subs.add_parser("charpoly", help="characteristic polynomial")
    _add_alpha_arg(p)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="use the subgraph expansion instead of the trace recursion",
    )
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_charpoly)

    p = subs.add_parser("monograph", help="decide the monograph property")
    _add_alpha_arg(p)
    _add_kind_arg(p)
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_monograph)

    p = subs.add_parser("partition", help="vertex classes by potential")
    _add_alpha_arg(p)
    _add_kind_arg(p)
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_partition)

    p = subs.add_parser("transfer", help="move an eigenbasis onto the phase matrix")
    _add_alpha_arg(p)
    p.add_argument(
        "--basis",
        help="JSON array of {lambda, vector}; default: computed from the underlying graph",
    )
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_transfer)

    p = subs.add_parser("extend", help="attach new vertices to a monograph")
    _add_alpha_arg(p)
    p.add_argument("--subgraph", required=True, help="base vertices, e.g. 0,1")
    p.add_argument(
        "--attach",
        action="append",
        required=True,
        help="one new vertex: 'targets direction', e.g. 'x: 0,1 out' (repeatable)",
    )
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_extend)

    p = subs.add_parser("radius", help="spectral radius against the maximum degree")
    _add_alpha_arg(p)
    _add_tol_arg(p)
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_radius)

    p = subs.add_parser("cospectral", help="compare one graph under two phases")
    p.add_argument("--alpha", action="append", required=True)
    _add_tol_arg(p)
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_cospectral)

    p = subs.add_parser(
        "search-cospectral", help="find cospectral graphs, streamed as JSON lines"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", action="append", required=True)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    _add_tol_arg(p)
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
        # a reader that is gone shows here, not in the interpreter's exit flush
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early (``| head``): that ends the output, not an
        # error.  Point it at devnull so the final flush of what is still
        # buffered stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
