"""Independent output checker.

Every output of the program is checked against values computed here from
the benchmark's own graph and alpha, never through hermix: the complex
Hermitian matrix is built directly and solved with ``np.linalg.eigvalsh``,
monograph verdicts come from a potential sweep over a BFS tree, and the
n = 5 search is re-run as one batched eigensolve over the sampled codes.

``check`` returns a list of problems; an empty list accepts the output.
"""

from __future__ import annotations

import json
import math
from collections import deque
from fractions import Fraction

import numpy as np

from .workloads import SWEEP_N, Command, Graph, alpha_rotation

# eigenvalues are printed with 12 significant digits and computed in float64;
# this per-vertex budget, times n and the spectral scale, covers both
EIG_TOL = 1e-9
# cospectrality of the reference spectra: equal below, different above,
# undecided in between
SAME_GAP = 1e-10
DIFF_GAP = 1e-6
# float potentials (angle alphas) are compared by cyclic distance
ROT_TOL = 1e-9
# residual bound the CLI reports against for transferred pairs
TRANSFER_TOL = 1e-8


def hermitian(graph: Graph, rotation: Fraction | float) -> np.ndarray:
    """H[u, v] = 1 on a digon, alpha tail to head on an arc, its conjugate back."""
    h = np.zeros((graph.n, graph.n), dtype=np.complex128)
    a = np.exp(2j * math.pi * float(rotation))
    for u, v in graph.digons:
        h[u, v] = h[v, u] = 1.0
    for u, v in graph.arcs:
        h[u, v] = a
        h[v, u] = np.conj(a)
    return h


def spectrum(graph: Graph, rotation: Fraction | float) -> np.ndarray:
    """Eigenvalues, descending."""
    if graph.n == 0:
        return np.zeros(0)
    return np.linalg.eigvalsh(hermitian(graph, rotation))[::-1]


def _tol(graph: Graph, values: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(values)))) if values.size else 1.0
    return EIG_TOL * max(graph.n, 1) * scale


def _adjacency(graph: Graph) -> list[list[tuple[int, int]]]:
    """Per vertex: (neighbor, step) with step +1 along an arc, -1 against, 0 digon."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for u, v in graph.digons:
        adj[u].append((v, 0))
        adj[v].append((u, 0))
    for u, v in graph.arcs:
        adj[u].append((v, 1))
        adj[v].append((u, -1))
    return adj


def _cyclic(x: Fraction | float) -> float:
    r = float(x % 1)
    return min(r, 1.0 - r)


def _trivial(x: Fraction | float) -> bool:
    if isinstance(x, Fraction):
        return x % 1 == 0
    return _cyclic(x) <= ROT_TOL


def _step(rotation: Fraction | float, kind: int, step: int) -> Fraction | float:
    """Potential change along one edge: alpha per arc step, minus sign per
    edge for the second kind."""
    rot = rotation * step
    return rot + Fraction(1, 2) if kind == 2 else rot


def is_monograph(graph: Graph, rotation: Fraction | float, kind: int) -> bool:
    """Potentials along a BFS forest, then every edge must agree with them."""
    pot: list[Fraction | float | None] = [None] * graph.n
    adj = _adjacency(graph)
    for root in range(graph.n):
        if pot[root] is not None:
            continue
        pot[root] = Fraction(0)
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y, step in adj[x]:
                want = pot[x] + _step(rotation, kind, step)  # type: ignore[operator]
                if pot[y] is None:
                    pot[y] = want
                    queue.append(y)
                elif not _trivial(pot[y] - want):  # type: ignore[operator]
                    return False
    return True


def _components(graph: Graph) -> int:
    adj = _adjacency(graph)
    seen = [False] * graph.n
    count = 0
    for s in range(graph.n):
        if seen[s]:
            continue
        count += 1
        seen[s] = True
        stack = [s]
        while stack:
            for y, _ in adj[stack.pop()]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return count


def _decide(gap: float, verdict: object, what: str) -> list[str]:
    if gap <= SAME_GAP and verdict is not True:
        return [f"{what}: reference gap {gap:.3e} is cospectral, program says {verdict}"]
    if gap >= DIFF_GAP and verdict is not False:
        return [f"{what}: reference gap {gap:.3e} is not cospectral, program says {verdict}"]
    return []


def _parse_rotation(text: str, exact: bool) -> Fraction | float:
    return Fraction(text) if exact else float(text)


def _check_alpha(echo: object, spec: str, what: str) -> list[str]:
    """The alpha the program echoes must be the rotation the command asked for."""
    want = alpha_rotation(spec)
    got = alpha_rotation(str(echo))
    if isinstance(want, Fraction):
        same = got == want
    else:
        same = not isinstance(got, Fraction) and _cyclic(got - want) <= ROT_TOL
    return [] if same else [f"{what} echoed as {echo!r} for --alpha {spec}"]


def _check_pair(alphas: tuple[str, ...], report: dict) -> list[str]:
    return _check_alpha(report["alpha1"], alphas[0], "alpha1") + _check_alpha(
        report["alpha2"], alphas[1], "alpha2"
    )


def _check_echoes(cmd: Command, data: dict) -> list[str]:
    """Alphas, and the kind where there is one, as the command gave them."""
    if cmd.op == "cospectral":
        return _check_pair(cmd.alphas, data)
    problems = _check_alpha(data["alpha"], cmd.alphas[0], "alpha")
    if cmd.op in ("monograph", "partition") and data["kind"] != cmd.kind:
        problems.append(f"kind {data['kind']!r}, expected {cmd.kind}")
    return problems


def _one_object(out: str) -> dict:
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if len(lines) != 1:
        raise ValueError(f"expected one JSON line, got {len(lines)}")
    data = json.loads(lines[0])
    if not isinstance(data, dict):
        raise ValueError("output is not a JSON object")
    return data


# -- per-command checks -----------------------------------------------------


def _check_spectra(cmd: Command, data: dict) -> list[str]:
    g = cmd.graph
    assert g is not None
    ref = spectrum(g, alpha_rotation(cmd.alphas[0]))
    tol = _tol(g, ref)
    problems = []
    eig = np.asarray(data["eigenvalues"], dtype=float)
    if eig.shape != ref.shape:
        return [f"{eig.size} eigenvalues for n={g.n}"]
    worst = float(np.max(np.abs(eig - ref))) if ref.size else 0.0
    if worst > tol:
        problems.append(f"eigenvalues off by {worst:.3e} > {tol:.3e}")
    rho = float(np.max(np.abs(ref))) if ref.size else 0.0
    if abs(float(data["spectral_radius"]) - rho) > tol:
        problems.append(f"spectral_radius {data['spectral_radius']} against {rho!r}")
    coeffs = np.asarray(data["char_poly"], dtype=float)
    if coeffs.shape != (g.n,):
        return problems + [f"{coeffs.size} coefficients for n={g.n}"]
    # |e_k(|lambda|)| bounds the size of c_k, so it scales the rounding error
    bound = np.poly(np.abs(ref))[1:]
    expect = np.poly(ref)[1:]
    ctol = EIG_TOL * g.n * (1.0 + np.abs(bound))
    if g.n >= 1 and abs(coeffs[0]) > ctol[0]:
        problems.append(f"c1 = {coeffs[0]!r}, expected 0")
    if g.n >= 2 and abs(coeffs[1] + g.edge_count) > ctol[1]:
        problems.append(f"c2 = {coeffs[1]!r}, expected -|E| = {-g.edge_count}")
    bad = np.nonzero(np.abs(coeffs - expect) > ctol)[0]
    if bad.size:
        k = int(bad[0])
        problems.append(f"c{k + 1} = {coeffs[k]!r} against {expect[k]!r}")
    return problems


def _check_charpoly(cmd: Command, data: dict) -> list[str]:
    want = "expansion" if cmd.op == "charpoly-oracle" else "faddeev-leverrier"
    problems = _check_spectra(cmd, data)
    if data.get("method") != want:
        problems.append(f"method {data.get('method')!r}, expected {want!r}")
    return problems


def _check_cospectral(cmd: Command, data: dict) -> list[str]:
    g = cmd.graph
    assert g is not None
    r1, r2 = (alpha_rotation(a) for a in cmd.alphas)
    s1, s2 = spectrum(g, r1), spectrum(g, r2)
    gap = float(np.max(np.abs(s1 - s2))) if g.n else 0.0
    problems = _decide(gap, data["cospectral"], "cospectral")
    tol = _tol(g, s1)
    if float(data["max_gap"]) < gap - tol:
        problems.append(f"max_gap {data['max_gap']} below reference gap {gap:.6e}")
    flags = data["flags"]
    expect = {
        "tree": g.edge_count == g.n - _components(g),
        # every edge flips a half turn: a 2-colouring of the underlying graph
        "oriented_bipartite": not g.digons and is_monograph(g, Fraction(0), 2),
        # arcs flip a half turn and digons keep it: every cycle has even arcs
        "even_arc_condition": is_monograph(g, Fraction(1, 2), 1),
        "monograph_both": any(
            is_monograph(g, r1, k) and is_monograph(g, r2, k) for k in (1, 2)
        ),
    }
    for name, value in expect.items():
        if flags.get(name) is not value:
            problems.append(f"flag {name} = {flags.get(name)}, expected {value}")
    return problems


def _check_potentials(
    g: Graph, rotation: Fraction | float, kind: int, pot: list[Fraction | float]
) -> list[str]:
    for u, v in g.digons:
        if not _trivial(pot[v] - pot[u] - _step(rotation, kind, 0)):
            return [f"potential breaks at digon {u} -- {v}"]
    for u, v in g.arcs:
        if not _trivial(pot[v] - pot[u] - _step(rotation, kind, 1)):
            return [f"potential breaks at arc {u} -> {v}"]
    return []


def _check_monograph(cmd: Command, data: dict) -> list[str]:
    g = cmd.graph
    assert g is not None and cmd.kind is not None
    rot = alpha_rotation(cmd.alphas[0])
    exact = isinstance(rot, Fraction)
    verdict = is_monograph(g, rot, cmd.kind)
    if data["is_monograph"] is not verdict:
        return [f"is_monograph = {data['is_monograph']}, expected {verdict}"]
    if verdict:
        raw = data["potential"]
        if sorted(raw, key=int) != [str(v) for v in range(g.n)]:
            return ["potential does not cover every vertex once"]
        pot = [_parse_rotation(raw[str(v)], exact) for v in range(g.n)]
        return _check_potentials(g, rot, cmd.kind, pot)
    walk = data["violation"]
    steps = {(u, v): 0 for u, v in g.digons}
    steps.update({(v, u): 0 for u, v in g.digons})
    steps.update({(u, v): 1 for u, v in g.arcs})
    steps.update({(v, u): -1 for u, v in g.arcs})
    if len(walk) < 2 or walk[0] != walk[-1]:
        return [f"violation {walk} is not a closed walk"]
    value: Fraction | float = Fraction(0)
    for a, b in zip(walk, walk[1:]):
        if (a, b) not in steps:
            return [f"violation step ({a}, {b}) is not an edge"]
        value += _step(rot, cmd.kind, steps[a, b])
    if _trivial(value):
        return [f"violation {walk} has trivial value"]
    return []


def _check_partition(cmd: Command, data: dict) -> list[str]:
    g = cmd.graph
    assert g is not None and cmd.kind is not None
    rot = alpha_rotation(cmd.alphas[0])
    exact = isinstance(rot, Fraction)
    pot: list[Fraction | float | None] = [None] * g.n
    for key, members in data["classes"].items():
        value = _parse_rotation(key, exact)
        for v in members:
            if not 0 <= v < g.n or pot[v] is not None:
                return [f"vertex {v} is out of range or in two classes"]
            pot[v] = value
    if any(p is None for p in pot):
        return ["classes do not cover every vertex"]
    return _check_potentials(g, rot, cmd.kind, pot)  # type: ignore[arg-type]


def _check_radius(cmd: Command, data: dict) -> list[str]:
    g = cmd.graph
    assert g is not None
    rot = alpha_rotation(cmd.alphas[0])
    ref = spectrum(g, rot)
    rho = float(np.max(np.abs(ref)))
    tol = _tol(g, ref)
    degrees = [0] * g.n
    for u, v in g.digons + g.arcs:
        degrees[u] += 1
        degrees[v] += 1
    delta = max(degrees)
    problems = []
    if abs(float(data["rho"]) - rho) > tol:
        problems.append(f"rho {data['rho']} against {rho!r}")
    expect = {
        "delta": delta,
        "regular": all(d == delta for d in degrees),
        "mono1": is_monograph(g, rot, 1),
        "mono2": is_monograph(g, rot, 2),
    }
    for name, value in expect.items():
        if data[name] != value or type(data[name]) is not type(value):
            problems.append(f"{name} = {data[name]}, expected {value}")
    gap = abs(rho - delta)
    problems += _decide(gap, data["equal"], "equal (rho = delta)")
    if gap <= SAME_GAP or gap >= DIFF_GAP:
        consistent = _radius_theorem(gap <= SAME_GAP, expect, rot)
        if data["theorem_consistent"] is not consistent:
            problems.append(
                f"theorem_consistent = {data['theorem_consistent']}, expected {consistent}"
            )
    return problems


def _radius_theorem(equal: bool, facts: dict, rotation: Fraction | float) -> bool:
    """rho = delta on a connected graph exactly when it is regular and a
    monograph of either kind; when no power of alpha is minus another (odd
    order, or an angle) equality needs a first-kind monograph."""
    consistent = equal == (facts["regular"] and (facts["mono1"] or facts["mono2"]))
    odd_order = not isinstance(rotation, Fraction) or rotation.denominator % 2 == 1
    if odd_order and equal and not facts["mono1"]:
        consistent = False
    return consistent


def _check_transfer(cmd: Command, data: dict) -> list[str]:
    g = cmd.graph
    assert g is not None
    h = hermitian(g, alpha_rotation(cmd.alphas[0]))
    ref = np.linalg.eigvalsh(h)[::-1]
    tol = _tol(g, ref)
    pairs = data["pairs"]
    if len(pairs) != g.n:
        return [f"{len(pairs)} pairs for n={g.n}"]
    lam = np.array([p["lambda"] for p in pairs], dtype=float)
    vecs = np.array([p["vector"] for p in pairs], dtype=float)
    if vecs.shape != (g.n, g.n, 2):
        return [f"vectors have shape {vecs.shape}"]
    v = (vecs[..., 0] + 1j * vecs[..., 1]).T
    problems = []
    worst = float(np.max(np.abs(np.sort(lam)[::-1] - ref)))
    if worst > tol:
        problems.append(f"eigenvalues off by {worst:.3e} > {tol:.3e}")
    resid = float(np.max(np.abs(h @ v - v * lam)))
    if resid > tol:
        problems.append(f"eigenpair residual {resid:.3e} > {tol:.3e}")
    ortho = float(np.max(np.abs(v.conj().T @ v - np.eye(g.n))))
    if ortho > tol:
        problems.append(f"vectors are not orthonormal: {ortho:.3e}")
    if not 0.0 <= float(data["max_residual"]) <= TRANSFER_TOL:
        problems.append(f"max_residual {data['max_residual']} outside [0, {TRANSFER_TOL}]")
    return problems


def sweep_gaps(codes: tuple[int, ...], r1: Fraction | float, r2: Fraction | float) -> np.ndarray:
    """Largest eigenvalue gap between the two phases, per n = 5 code."""
    n = SWEEP_N
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    digits = (np.asarray(codes, dtype=np.int64)[:, None] // 4 ** np.arange(len(pairs))) % 4
    out = []
    for rot in (r1, r2):
        a = np.exp(2j * math.pi * float(rot))
        h = np.zeros((len(codes), n, n), dtype=np.complex128)
        for k, (u, v) in enumerate(pairs):
            d = digits[:, k]
            fwd = np.select([d == 1, d == 2, d == 3], [1.0, a, np.conj(a)], 0.0)
            h[:, u, v] = fwd
            h[:, v, u] = np.conj(fwd)
        out.append(np.linalg.eigvalsh(h))
    return np.max(np.abs(out[0] - out[1]), axis=1)


def _code_edges(code: int) -> list[list[object]]:
    edges: list[list[object]] = []
    for u in range(SWEEP_N):
        for v in range(u + 1, SWEEP_N):
            d = code % 4
            code //= 4
            if d == 1:
                edges.append(["digon", u, v])
            elif d == 2:
                edges.append(["arc", u, v])
            elif d == 3:
                edges.append(["arc", v, u])
    return edges


def _check_search(cmd: Command, out: str) -> list[str]:
    hits = [json.loads(ln) for ln in out.splitlines() if ln.strip()]
    sampled = {c: i for i, c in enumerate(cmd.codes)}
    gaps = sweep_gaps(cmd.codes, *(alpha_rotation(a) for a in cmd.alphas))
    problems = []
    seen = set()
    for hit in hits:
        code = hit["code"]
        if code not in sampled:
            problems.append(f"hit {code} was not in the sampled set")
            continue
        if code in seen:
            problems.append(f"hit {code} reported twice")
        seen.add(code)
        if hit["n"] != SWEEP_N or sorted(hit["edges"]) != sorted(_code_edges(code)):
            problems.append(f"hit {code}: graph does not match its code")
        problems += _decide(float(gaps[sampled[code]]), hit["report"]["cospectral"], f"hit {code}")
        problems += _check_pair(cmd.alphas, hit["report"])
    for code, gap in zip(cmd.codes, gaps):
        if gap <= SAME_GAP and code not in seen:
            problems.append(f"code {code} is cospectral (gap {gap:.1e}) but was not reported")
    return problems


_CHECKS = {
    "spectrum": _check_spectra,
    "charpoly": _check_charpoly,
    "charpoly-oracle": _check_charpoly,
    "cospectral": _check_cospectral,
    "monograph": _check_monograph,
    "partition": _check_partition,
    "radius": _check_radius,
    "transfer": _check_transfer,
}


def check(cmd: Command, out: str) -> list[str]:
    """Problems with the output of one successful command; empty means correct."""
    try:
        if cmd.op == "search-cospectral":
            return _check_search(cmd, out)
        data = _one_object(out)
        return _check_echoes(cmd, data) + _CHECKS[cmd.op](cmd, data)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
