"""Seeded inputs, operations and exact output checks for the nilpath benchmark.

A workload is a closed loop with one client.  Operation ``i`` is built from
``(workload, seed, i)`` alone, so the same seed gives the same inputs; the
library only ever sees the generated matrices, files and profiles.  Ops come
in rounds: one round visits every catalog entry once.

Every op has three parts: ``run`` (the timed call into the library), ``check``
(exact correctness checks, run outside the timed window) and ``output`` (the
canonical text whose sha256 goes into the determinism record).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

# Timed calls go through module attributes, so the tracer's rebinding sees them.
from nilpath import cli, criteria, graph, paths
from nilpath.criteria import ZeroSpec, has_pth_root
from nilpath.jordan import profile_matrix, similarity_witness
from nilpath.matrix import Matrix, inverse, matrix_mul, matrix_pow, matrix_to_json_obj
from nilpath.profiles import Profile, enumerate_preimages, is_p_adjacent, partitions, profile_power

# (p, root profile of X, root profile of Y).  Sizes 6..12, 0..4 adjacency moves.
CONNECT_CATALOG = (
    (2, (4, 2), (3, 3)),
    (2, (6, 4), (5, 5)),
    (2, (4, 4, 1, 1), (4, 3, 3)),
    (2, (6, 3, 3), (5, 5, 1, 1)),
    (2, (7, 5), (7, 5)),
    (3, (6, 3), (5, 4)),
    (3, (5, 2, 2), (4, 4, 1)),
    (3, (6, 2, 2, 2), (4, 4, 4)),
    (3, (8, 4), (8, 4)),
)

# Chains use only the lift windows (2,4,2), (0,2,p), (0,3,3) and (1,3,3).
# Windows (3,5,3) and (4,6,2) are left out: a certified lift on them takes
# about 17 s and 126 s, longer than a whole run.
CERTIFIED_CATALOG = (
    (2, (4, 1, 1), (3, 3)),
    (2, (4, 4, 1, 1), (4, 3, 3)),
    (3, (3, 3), (2, 2, 1, 1)),
    (3, (3, 3, 2), (2, 2, 2, 2)),
    (3, (5, 3, 3), (5, 2, 2, 2)),
)

# Stored paths for `verify`: n = 10 and 11 with two or three segments, and
# n = 12 paths that are a single centralizer segment, for p = 2 and 3.
VERIFY_CATALOG = (
    (2, (4, 4, 1, 1), (4, 3, 3)),
    (3, (6, 3, 1), (5, 4, 1)),
    (2, (4, 4, 2, 1), (4, 3, 3, 1)),
    (3, (5, 3, 3), (5, 2, 2, 2)),
    (2, (7, 5), (7, 5)),
    (3, (8, 4), (8, 4)),
)

VERIFY_SAMPLES = 8  # --samples of each CLI verify: one op is 9 samples
CERTIFIED_SAMPLES = 2  # samples of the certified verify after each connect
CHECK_POINTS = 2  # seeded interior t at which gamma(t)^p == A is re-checked

DECIDE_SIZES = (14, 24)  # profile sizes of the decide queries, inclusive
DECIDE_KINDS = ("root", "solvable", "graph", "chain")
DECIDE_ROUND = 64  # queries per round, cycling through DECIDE_KINDS
DECIDE_POOL = 24  # targets with two or more root profiles, for chain queries
# Zero multiplicities for is_f_solvable: (finite multiplicities, infinite zero).
SOLVABLE_SPECS = (((2, 3, 5), True), ((4,), False), ((2,), False), ((3,), False), ((2, 3), False))


def matrix_text(m: Matrix) -> str:
    return json.dumps(matrix_to_json_obj(m))


@dataclass
class Op:
    """One operation: a timed call, its exact checks and its canonical output."""

    label: str
    case: str  # the catalog entry or query kind; statistics are taken per case
    units: int  # units of work in one op: 1, or the sample count for verify
    inputs: str  # canonical text of the generated inputs
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when every check passes
    output: Callable[[object], str]
    stdout: Optional[Callable[[object], str]] = None  # what the op printed, if it prints


def _unit_triangular(n: int, rng: random.Random, lower: bool) -> Matrix:
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(1)
            elif (i > j) == lower:
                row.append(rng.choice((-1, 0, 1)))
            else:
                row.append(0)
        rows.append(row)
    return Matrix.from_rows(rows)


def scramble(n: int, rng: random.Random) -> tuple[Matrix, Matrix]:
    """Seeded integer conjugator L @ U and its inverse.

    L and U are unit triangular with entries in {-1, 0, 1}, so the conjugator
    is unimodular and the scrambled roots keep integer entries.
    """
    p = matrix_mul(_unit_triangular(n, rng, True), _unit_triangular(n, rng, False))
    return p, inverse(p)


@dataclass(frozen=True)
class RootPair:
    """Model roots of one catalog entry: X0 = J(mx) and Y0 with Y0^p = X0^p."""

    p: int
    x0: Matrix
    y0: Matrix

    @staticmethod
    def build(p: int, mx: tuple, my: tuple) -> "RootPair":
        jx = profile_matrix(Profile.from_partition(mx))
        jy = profile_matrix(Profile.from_partition(my))
        q = similarity_witness(matrix_pow(jy, p), matrix_pow(jx, p))
        return RootPair(p, jx, matrix_mul(q, matrix_mul(jy, inverse(q))))

    def scrambled(self, rng: random.Random) -> tuple[Matrix, Matrix, Matrix]:
        """(A, X, Y): the model pair under a fresh seeded conjugation."""
        s, s_inv = scramble(self.x0.rows, rng)
        x = matrix_mul(s, matrix_mul(self.x0, s_inv))
        y = matrix_mul(s, matrix_mul(self.y0, s_inv))
        return matrix_pow(x, self.p), x, y


def check_path(path, a: Matrix, x: Matrix, y: Matrix, p: int, rng: random.Random) -> Optional[str]:
    """Endpoints are exact, and gamma(t)^p == A at seeded interior t."""
    if path.evaluate(Fraction(0)) != x:
        return "path does not start at X"
    if path.evaluate(Fraction(1)) != y:
        return "path does not end at Y"
    for _ in range(CHECK_POINTS):
        t = Fraction(rng.randint(1, 996), 997)
        if matrix_pow(path.evaluate(t), p) != a:
            return f"gamma({t})^p differs from A"
    return None


def _rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{i}")


class Workload:
    name = ""
    unit = ""  # what one unit of work is, for the report

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        """Build everything the ops share.  Called several times; keeps the last."""

    @property
    def round_size(self) -> int:
        raise NotImplementedError

    def op(self, i: int) -> Op:
        raise NotImplementedError


class ConnectWorkload(Workload):
    """Sampled connect_roots on a fresh scrambled root pair per op."""

    name = "connect"
    unit = "path"
    mode = "sampled"

    def __init__(self, seed: int, catalog=CONNECT_CATALOG):
        super().__init__(seed)
        self.catalog = catalog
        self.pairs: list[RootPair] = []

    def setup(self, workdir: Path) -> None:
        self.pairs = [RootPair.build(p, mx, my) for p, mx, my in self.catalog]

    @property
    def round_size(self) -> int:
        return len(self.pairs)

    def op(self, i: int) -> Op:
        pair = self.pairs[i % len(self.pairs)]
        rng = _rng(self.name, self.seed, i)
        a, x, y = pair.scrambled(rng)
        p, mx, my = self.catalog[i % len(self.catalog)]
        return Op(
            label=f"p={p} {mx}->{my}",
            case=f"p={p} {mx}->{my}",
            units=1,
            inputs=matrix_text(a) + matrix_text(x) + matrix_text(y),
            run=lambda: self.run(a, p, x, y),
            check=lambda res: self.check(res, a, x, y, p, rng),
            output=self.output,
        )

    def run(self, a, p, x, y):
        return paths.connect_roots(a, p, x, y, mode=self.mode)

    def check(self, path, a, x, y, p, rng) -> Optional[str]:
        return check_path(path, a, x, y, p, rng)

    def output(self, path) -> str:
        return json.dumps(path.to_json_obj())


class CertifiedWorkload(ConnectWorkload):
    """Certified connect_roots followed by a certified verify, in one op."""

    name = "certified"
    unit = "certified path"
    mode = "certified"

    def __init__(self, seed: int, catalog=CERTIFIED_CATALOG):
        super().__init__(seed, catalog)

    def run(self, a, p, x, y):
        path = paths.connect_roots(a, p, x, y, mode=self.mode)
        return path, paths.verify(path, CERTIFIED_SAMPLES, mode=self.mode)

    def check(self, res, a, x, y, p, rng) -> Optional[str]:
        path, cert = res
        if not cert.ok:
            return "certificate is not ok"
        return check_path(path, a, x, y, p, rng)

    def output(self, res) -> str:
        path, cert = res
        return json.dumps(path.to_json_obj()) + json.dumps(cert.to_json_obj())


class VerifyWorkload(Workload):
    """`nilpath verify` on stored path files, in-process, stdout captured."""

    name = "verify"
    unit = "sample"

    def __init__(self, seed: int, catalog=VERIFY_CATALOG, samples: int = VERIFY_SAMPLES):
        super().__init__(seed)
        self.catalog = catalog
        self.samples = samples
        self.files: list[Path] = []

    def setup(self, workdir: Path) -> None:
        files = []
        for j, (p, mx, my) in enumerate(self.catalog):
            a, x, y = RootPair.build(p, mx, my).scrambled(_rng(self.name, self.seed, j))
            path = paths.connect_roots(a, p, x, y)
            f = workdir / f"path{j}.json"
            f.write_text(json.dumps(path.to_json_obj()))
            files.append(f)
        self.files = files

    @property
    def round_size(self) -> int:
        return len(self.files)

    def op(self, i: int) -> Op:
        f = self.files[i % len(self.files)]
        p, mx, my = self.catalog[i % len(self.catalog)]
        argv = ["verify", str(f), "--samples", str(self.samples)]
        return Op(
            label=f"p={p} {mx}->{my}",
            case=f"p={p} {mx}->{my}",
            units=self.samples + 1,
            inputs=f.read_text(),
            run=lambda: run_cli(argv),
            check=self.check,
            output=lambda res: res[1],
            stdout=lambda res: res[1],
        )

    def check(self, res) -> Optional[str]:
        code, out = res
        if code != 0:
            return f"exit code {code}"
        cert = json.loads(out)
        if not all(s["residualZero"] for s in cert["samples"]):
            return "a sample has a nonzero residual"
        if len(cert["samples"]) != self.samples + 1:
            return "wrong number of samples"
        if cert["ok"] is not True:
            return "certificate is not ok"
        return None


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of `nilpath <argv>`, run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class DecideWorkload(Workload):
    """Profile-level queries with no matrices: roots, solvability, graphs, chains."""

    name = "decide"
    unit = "query"

    def __init__(self, seed: int, sizes=DECIDE_SIZES, pool: int = DECIDE_POOL):
        super().__init__(seed)
        self.sizes = sizes
        self.pool_size = pool
        self.partitions: dict[int, list[tuple[int, ...]]] = {}
        self.pool: list[tuple[int, list[Profile]]] = []

    def setup(self, workdir: Path) -> None:
        lo, hi = self.sizes
        self.partitions = {n: list(partitions(n)) for n in range(lo, hi + 1)}
        rng = _rng(self.name, self.seed, -1)
        pool = []
        while len(pool) < self.pool_size:
            p = rng.choice((2, 3))
            target = profile_power(self.random_profile(rng), p)
            roots = sorted(enumerate_preimages(target, p), key=lambda m: m.partition())
            if len(roots) >= 2:
                pool.append((p, roots))
        self.pool = pool

    def random_profile(self, rng: random.Random) -> Profile:
        """A size drawn uniformly from the range, then a partition of it drawn uniformly."""
        return Profile.from_partition(rng.choice(self.partitions[rng.randint(*self.sizes)]))

    @property
    def round_size(self) -> int:
        return DECIDE_ROUND

    def op(self, i: int) -> Op:
        rng = _rng(self.name, self.seed, i)
        kind = DECIDE_KINDS[i % len(DECIDE_KINDS)]
        p = rng.choice((2, 3))
        m = self.random_profile(rng)
        if kind == "root":
            if rng.random() < 0.5:
                m = profile_power(m, p)  # half the root queries have a root
            inputs = f"root {p} {m.to_text()}"
            run = lambda: criteria.find_root_profile(m, p)
            check = lambda r: self.check_root(r, m, p)
            output = lambda r: r.to_text() if r is not None else "none"
        elif kind == "solvable":
            mults, inf = rng.choice(SOLVABLE_SPECS)
            spec = ZeroSpec(mults, inf)
            inputs = f"solvable {mults} {inf} {m.to_text()}"
            run = lambda: criteria.is_f_solvable(spec, m)
            check = lambda w: self.check_solvable(w, spec, m)
            output = lambda w: repr((w.generators, w.e1_count)) if w is not None else "none"
        elif kind == "graph":
            target = profile_power(m, p)
            inputs = f"graph {p} {target.to_text()}"
            run = lambda: graph.build_graph(target, p).to_report_obj()
            check = lambda rep: self.check_graph(rep, target, p)
            output = json.dumps
        else:
            p, roots = self.pool[rng.randrange(len(self.pool))]
            m1, m2 = rng.sample(roots, 2)
            inputs = f"chain {p} {m1.to_text()} {m2.to_text()}"
            run = lambda: graph.profile_chain(m1, m2, p).to_json_obj()
            check = lambda ch: self.check_chain(ch, m1, m2, p)
            output = json.dumps
        return Op(inputs, kind, 1, inputs, run, check, output)

    @staticmethod
    def check_root(r, m: Profile, p: int) -> Optional[str]:
        if r is None:
            return "no root found for a profile with a root" if has_pth_root(m, p) else None
        return None if profile_power(r, p) == m else "root profile does not power to the query"

    @staticmethod
    def check_solvable(w, spec: ZeroSpec, m: Profile) -> Optional[str]:
        if w is not None and w.total_profile() != m:
            return "witness does not sum to the query"
        mults = spec.finite_multiplicities
        if len(mults) == 1 and not spec.has_infinite_zero:
            if (w is not None) != has_pth_root(m, mults[0]):
                return "answer disagrees with has_pth_root"
        return None

    @staticmethod
    def check_graph(rep: dict, target: Profile, p: int) -> Optional[str]:
        vertices = [Profile.from_text(v) for v in rep["vertices"]]
        if any(profile_power(v, p) != target for v in vertices):
            return "graph vertex does not power to the target"
        for e in rep["edges"]:
            if is_p_adjacent(Profile.from_text(e["from"]), Profile.from_text(e["to"]), p) is None:
                return "graph edge is not an adjacency"
        return None

    @staticmethod
    def check_chain(ch: dict, m1: Profile, m2: Profile, p: int) -> Optional[str]:
        steps = [Profile.from_text(s) for s in ch["steps"]]
        if steps[0] != m1 or steps[-1] != m2:
            return "chain has the wrong ends"
        if any(is_p_adjacent(u, v, p) is None for u, v in zip(steps, steps[1:])):
            return "chain step is not an adjacency"
        return None


WORKLOADS = {
    w.name: w for w in (ConnectWorkload, VerifyWorkload, CertifiedWorkload, DecideWorkload)
}
