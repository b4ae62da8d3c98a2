"""Seeded inputs and command rounds for the benchmark workloads.

A workload is an endless sequence of rounds.  Every round has the same
composition (the same subcommands with the same vertex counts, rotated
across rounds), so a run that stops at a round boundary measures the same
mix whatever the seed; the seed only picks the graphs, the edge counts and
the alphas.  Every input graph of ``desk`` and ``large`` is distinct within
a run, so no value-keyed cache inside the program can serve one query from
an earlier one.  A ``sweep5`` search call scans distinct codes, but the
program draws them itself, so two calls of a run share about
``SWEEP_COUNT**2 / SWEEP_CODES`` (about 4) codes; the input summary
reports that share.

Graphs are the benchmark's own values and are written as files in the plain
text format; the program under test only ever sees those files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("sweep5", "desk", "large")

# search-cospectral at n = 5: 10 vertex pairs, 4 states each
SWEEP_N = 5
SWEEP_CODES = 4 ** (SWEEP_N * (SWEEP_N - 1) // 2)
SWEEP_ALPHAS = ("gamma", "omega")
# graphs per search call.  A call costs about 3.6 ms besides its graphs
# (argument parsing, sampling, output): 0.1% of a 2000-graph call today, and
# about a quarter of one at the 5 us per graph a batched engine is estimated
# at.  Calls of 10000 graphs would dilute that less, but a 30 s run then
# holds only two or three of them, too few for a steady median and p95.
SWEEP_COUNT = 2_000

DESK_SIZES = (6, 7, 8, 9, 10)
# cyclomatic number |E| - n + 1 of a desk graph, per vertex count; the
# expansion oracle grows exponentially with it (about 50 ms at 12 on n = 10,
# seconds at 14), so the oracle slots get the denser graphs and do most of
# the work.  It is fixed by n, not drawn, so that the seed cannot move the
# oracle's share of a run.
DESK_CYCLES = (2, 4, 6, 7, 9)
DESK_ORACLE_CYCLES = (9, 10, 11, 11, 12)
DESK_ALPHAS = ("1", "i", "gamma", "omega", "root:2/5", "root:3/8", "angle:0.7", "angle:2.1")
# (subcommand, --kind, alpha form); the oracle runs once with a root of
# unity and once with an angle, so both of its cosine paths are timed
DESK_SLOTS = (
    ("spectrum", None, None),
    ("charpoly", None, None),
    ("charpoly-oracle", None, "root"),
    ("charpoly-oracle", None, "angle"),
    ("cospectral", None, None),
    ("monograph", 1, None),
    ("monograph", 2, None),
    ("radius", None, None),
)

LARGE_SIZES = (60, 73, 90, 110, 134, 164, 200)
# extra edges beyond a spanning tree, as a multiple of n, per vertex count;
# fixed by n for the same reason as DESK_CYCLES
LARGE_EXTRA = (1.0, 1.1, 1.2, 1.25, 1.3, 1.4, 1.5)
# alphas for the monograph-by-construction graphs; "1" is left out because
# every graph is a first-kind monograph for it
LARGE_MONO_ALPHAS = ("i", "gamma", "omega", "root:2/5", "root:3/7", "angle:0.7", "angle:2.1")
LARGE_ALPHAS = ("1",) + LARGE_MONO_ALPHAS
# (subcommand, --kind, alpha form); radius and partition run once with a
# root of unity and once with an angle, so both phase paths are timed
LARGE_SLOTS = (
    ("spectrum", None, None),
    ("cospectral", None, None),
    ("transfer", None, None),
    ("radius", None, "root"),
    ("radius", None, "angle"),
    ("monograph", 1, None),
    ("monograph", 2, None),
    ("partition", 1, "root"),
    ("partition", 1, "angle"),
)

NAMED_ALPHAS = {
    "1": Fraction(0),
    "i": Fraction(1, 4),
    "gamma": Fraction(1, 3),
    "omega": Fraction(1, 6),
}


def alpha_rotation(spec: str) -> Fraction | float:
    """Rotation (fraction of a turn) of an alpha spec the generator emits."""
    if spec in NAMED_ALPHAS:
        return NAMED_ALPHAS[spec]
    if spec.startswith("root:"):
        k, q = spec[len("root:") :].split("/")
        return Fraction(int(k), int(q)) % 1
    if spec.startswith("angle:"):
        return (float(spec[len("angle:") :]) / (2.0 * math.pi)) % 1.0
    raise ValueError(f"unknown alpha spec {spec!r}")


@dataclass(frozen=True)
class Graph:
    """A mixed graph: digons stored as (u, v) with u < v, arcs as (tail, head)."""

    n: int
    digons: tuple[tuple[int, int], ...]
    arcs: tuple[tuple[int, int], ...]

    @property
    def edge_count(self) -> int:
        return len(self.digons) + len(self.arcs)

    def text(self) -> str:
        lines = [str(self.n)]
        lines += [f"{u} -- {v}" for u, v in self.digons]
        lines += [f"{u} -> {v}" for u, v in self.arcs]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Command:
    """One closed-loop operation: a CLI argv plus what the checker needs.

    ``units`` is the number of completions the command stands for: one for a
    CLI query, the number of graphs scanned for a search call.
    """

    op: str
    argv: tuple[str, ...]
    units: int = 1
    graph: Graph | None = None
    alphas: tuple[str, ...] = ()
    kind: int | None = None
    codes: tuple[int, ...] = ()


def _orient(rng: random.Random, u: int, v: int, digons: list, arcs: list) -> None:
    roll = rng.randrange(3)
    if roll == 0:
        digons.append((min(u, v), max(u, v)))
    elif roll == 1:
        arcs.append((u, v))
    else:
        arcs.append((v, u))


def random_connected(rng: random.Random, n: int, edges: int) -> Graph:
    """Random spanning tree plus random extra pairs, each edge a digon or an
    arc of random direction with equal odds."""
    pairs: set[tuple[int, int]] = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        pairs.add((min(u, v), max(u, v)))
    edges = min(edges, n * (n - 1) // 2)
    while len(pairs) < edges:
        u, v = rng.sample(range(n), 2)
        pairs.add((min(u, v), max(u, v)))
    digons: list[tuple[int, int]] = []
    arcs: list[tuple[int, int]] = []
    for u, v in sorted(pairs):
        _orient(rng, u, v, digons, arcs)
    return Graph(n, tuple(digons), tuple(arcs))


def first_kind_monograph(rng: random.Random, n: int, edges: int, alpha: str) -> Graph:
    """A connected first-kind monograph for ``alpha``, built from potentials.

    Every vertex gets a level: an integer for an angle alpha, a residue mod
    the order q for a root of unity.  A digon joins equal levels and an arc
    runs from level l to level l + 1, so every closed walk has arc balance
    0 (mod q) and its value is 1.  Levels follow a random spanning tree;
    extra edges are drawn among the pairs whose levels allow one.
    """
    rot = alpha_rotation(alpha)
    q = rot.denominator if isinstance(rot, Fraction) else None
    level = [0] * n
    order = list(range(n))
    rng.shuffle(order)
    adjacent: set[tuple[int, int]] = set()
    digons: list[tuple[int, int]] = []
    arcs: list[tuple[int, int]] = []

    def link(u: int, v: int) -> bool:
        diff = level[v] - level[u]
        if q is not None:
            diff %= q
        if diff == 0:
            digons.append((min(u, v), max(u, v)))
        elif diff == 1 or (q is not None and q > 1 and diff == q - 1) or diff == -1:
            # q == 2 makes +1 and -1 the same step; either direction is valid
            arcs.append((u, v) if diff == 1 else (v, u))
        else:
            return False
        adjacent.add((min(u, v), max(u, v)))
        return True

    for i in range(1, n):
        v, u = order[i], order[rng.randrange(i)]
        level[v] = level[u] + rng.choice((-1, 0, 1))
        if q is not None:
            level[v] %= q
        link(u, v)
    edges = min(edges, n * (n - 1) // 2)
    for _ in range(50 * edges):
        if len(adjacent) >= edges:
            break
        u, v = rng.sample(range(n), 2)
        if (min(u, v), max(u, v)) not in adjacent:
            link(u, v)
    return Graph(n, tuple(sorted(digons)), tuple(sorted(arcs)))


def sweep_sample(seed: int, count: int) -> list[int]:
    """The codes ``search-cospectral --mode random`` scans for (seed, count).

    The program documents random mode as ``count`` distinct codes drawn
    without replacement by a ``random.Random(seed)``; the checker needs the
    sampled set to tell that no cospectral code was dropped.
    """
    return sorted(random.Random(seed).sample(range(SWEEP_CODES), count))


def search_command(seed: int, count: int) -> Command:
    """One random n = 5 search call at gamma vs omega over ``count`` codes."""
    argv = ["search-cospectral", "--n", str(SWEEP_N), "--mode", "random"]
    argv += ["--count", str(count), "--seed", str(seed)]
    for a in SWEEP_ALPHAS:
        argv += ["--alpha", a]
    codes = tuple(sweep_sample(seed, count))
    return Command("search-cospectral", tuple(argv), count, None, SWEEP_ALPHAS, None, codes)


@dataclass
class Workload:
    """Round generator for one workload, deterministic in its seed."""

    name: str
    seed: int
    workdir: Path
    rng: random.Random = field(init=False)
    rounds: int = field(default=0, init=False)
    stats: dict = field(default_factory=dict, init=False)
    # inputs seen so far: n = 5 codes in a fixed bitmap, graphs by hash, so
    # that the benchmark's own memory stays small in the peak RSS it reports
    # and does not grow with the work a faster program fits into a run
    _codes: bytearray = field(default_factory=bytearray, init=False)
    _graphs: set = field(default_factory=set, init=False)

    def __post_init__(self) -> None:
        if self.name not in WORKLOADS:
            raise ValueError(f"unknown workload {self.name!r}; choose from {WORKLOADS}")
        self.rng = random.Random(f"{self.name}:{self.seed}")
        self.stats = {
            "inputs": 0, "distinct": 0, "n_range": None, "edge_range": None,
            "edge_sum": 0, "alphas": {},
        }
        if self.name == "sweep5":
            self._codes = bytearray(SWEEP_CODES)

    def next_round(self, rotation: int | None = None) -> list[Command]:
        """Generate the next round's inputs, write their files, return its commands.

        ``rotation`` picks which vertex count each slot gets; by default it
        is the round number.  Two rounds with the same rotation have the
        same composition and different graphs.
        """
        make = {"sweep5": self._sweep_round, "desk": self._desk_round, "large": self._large_round}
        cmds = make[self.name](self.rounds if rotation is None else rotation)
        self.rounds += 1
        return cmds

    @property
    def period(self) -> int:
        """Rounds after which every slot has seen every vertex count once."""
        sizes = {"sweep5": (SWEEP_N,), "desk": DESK_SIZES, "large": LARGE_SIZES}
        return len(sizes[self.name])

    def warmup(self) -> Command:
        """One small command of the workload's kind, for set-up, outside the run's inputs."""
        rng = random.Random(f"warmup:{self.name}:{self.seed}")
        if self.name == "sweep5":
            return search_command(rng.getrandbits(31), 8)
        if self.name == "desk":
            g = random_connected(rng, 8, 10)
            return self._graph_cmd("spectrum", g, ("gamma",), None, "warmup")
        g = random_connected(rng, LARGE_SIZES[0], 2 * LARGE_SIZES[0])
        return self._graph_cmd("radius", g, ("i",), None, "warmup")

    def summary(self) -> dict:
        """Input properties of the run so far: n range, edge counts, alpha mix
        and the share of inputs that repeat an earlier one."""
        s = self.stats
        return {
            "rounds": self.rounds,
            "inputs": s["inputs"],
            "n_range": s["n_range"],
            "edge_range": s["edge_range"],
            "mean_edges": s["edge_sum"] / s["inputs"] if s["inputs"] else None,
            "alpha_mix": dict(sorted(s["alphas"].items())),
            "repeated_share": 1 - s["distinct"] / s["inputs"] if s["inputs"] else 0.0,
        }

    # -- rounds ---------------------------------------------------------

    def _note(self, new: bool, n: int, edges: int, alphas: tuple[str, ...]) -> None:
        """Record one input, new or repeated."""
        s = self.stats
        s["inputs"] += 1
        s["distinct"] += new
        s["n_range"] = _widen(s["n_range"], n)
        s["edge_range"] = _widen(s["edge_range"], edges)
        s["edge_sum"] += edges
        for a in alphas:
            s["alphas"][a] = s["alphas"].get(a, 0) + 1

    def _sweep_round(self, r: int) -> list[Command]:
        cmd = search_command(self.rng.getrandbits(31), SWEEP_COUNT)
        for code in cmd.codes:
            new = not self._codes[code]
            self._codes[code] = 1
            self._note(new, SWEEP_N, _digit_edges(code), SWEEP_ALPHAS)
        return [cmd]

    def _graph_cmd(
        self, op: str, g: Graph, alphas: tuple[str, ...], kind: int | None, tag: str
    ) -> Command:
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / f"{tag}.mg"
        path.write_text(g.text(), encoding="utf-8")
        argv: list[str] = ["charpoly", "--oracle"] if op == "charpoly-oracle" else [op]
        for a in alphas:
            argv += ["--alpha", a]
        if kind is not None:
            argv += ["--kind", str(kind)]
        argv.append(str(path))
        return Command(op, tuple(argv), 1, g, alphas, kind)

    def _fresh(self, build, alphas: tuple[str, ...]) -> Graph:
        while True:
            g = build()
            key = hash((g.n, g.digons, g.arcs))
            if key not in self._graphs:
                self._graphs.add(key)
                self._note(True, g.n, g.edge_count, alphas)
                return g

    def _desk_round(self, r: int) -> list[Command]:
        rng = self.rng
        cmds = []
        for j, (op, kind, form) in enumerate(DESK_SLOTS):
            i = (r + j) % len(DESK_SIZES)
            n = DESK_SIZES[i]
            cycles = (DESK_ORACLE_CYCLES if op == "charpoly-oracle" else DESK_CYCLES)[i]
            pool = _alpha_pool(DESK_ALPHAS, form)
            alphas = tuple(rng.sample(pool, 2 if op == "cospectral" else 1))
            g = self._fresh(lambda: random_connected(rng, n, n - 1 + cycles), alphas)
            cmds.append(self._graph_cmd(op, g, alphas, kind, f"s{j}"))
        return cmds

    def _large_round(self, r: int) -> list[Command]:
        rng = self.rng
        cmds = []
        for j, (op, kind, form) in enumerate(LARGE_SLOTS):
            i = (r + j) % len(LARGE_SIZES)
            n = LARGE_SIZES[i]
            edges = n - 1 + round(n * LARGE_EXTRA[i])
            if op in ("spectrum", "cospectral", "radius"):
                pool = _alpha_pool(LARGE_ALPHAS, form)
                alphas = tuple(rng.sample(pool, 2 if op == "cospectral" else 1))
                g = self._fresh(lambda: random_connected(rng, n, edges), alphas)
            else:
                alphas = (rng.choice(_alpha_pool(LARGE_MONO_ALPHAS, form)),)
                g = self._fresh(
                    lambda: first_kind_monograph(rng, n, edges, alphas[0]), alphas
                )
            cmds.append(self._graph_cmd(op, g, alphas, kind, f"s{j}"))
        return cmds


def _widen(span: list[int] | None, x: int) -> list[int]:
    return [x, x] if span is None else [min(span[0], x), max(span[1], x)]


def _alpha_pool(alphas: tuple[str, ...], form: str | None) -> tuple[str, ...]:
    if form is None:
        return alphas
    angle = form == "angle"
    return tuple(a for a in alphas if a.startswith("angle:") == angle)


def _digit_edges(code: int) -> int:
    edges = 0
    while code:
        edges += code % 4 != 0
        code //= 4
    return edges
