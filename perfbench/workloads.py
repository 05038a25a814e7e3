"""The build, verify and analyze workloads and their output gates.

Each workload drives the program only through its public entry points:
``ancrystal.cli.main([...])`` in-process with stdout captured, and, for the
verifier's early-exit path, ``axioms.verify_graph(axioms.ColoredDigraph(...))``.
One pass runs the workload's fixed list of operations once; every operation is
timed on its own and then checked against the gates, outside its timed region.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from ancrystal import axioms, cli, gt

DATA = Path(__file__).resolve().parent / "data"

# Case lists.  `build` keeps one case for each n = 3..6, because the cost per
# vertex grows with n; `analyze` keeps n = 2, where each slack is cheap and the
# structure layer's share of the run is largest.  The sizes are chosen so one
# pass takes a few seconds on a 2-vCPU Xeon VM.
CASES = {
    "build": ((3, (2, 2, 2)), (4, (1, 1, 1, 1)), (5, (0, 1, 0, 1, 0)), (6, (0, 1, 0, 0, 1, 0))),
    "analyze": ((2, (24, 24)),),
}
SMOKE_CASES = {
    "build": ((2, (1, 2)), (3, (1, 0, 1))),
    "analyze": ((2, (2, 3)),),
}
# Stored verify inputs (see data/inputs.json): the clean graph read in full,
# and the graph whose single-edge mutants exercise the early-exit path.
VERIFY_INPUTS = {"clean": "K5_11111", "mutants": "K4_1111"}
SMOKE_VERIFY_INPUTS = {"clean": "K4_1111", "mutants": "K4_1111"}
MUTANTS = 200
SMOKE_MUTANTS = 8
VERIFY_CHECKS = 10  # lines printed by a passing `verify --strict-a4`


def case_key(command, n, c):
    return f"{command} K({n};{','.join(map(str, c))})"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def git_commit(root):
    """The commit checked out at ``root``, read from ``.git``; "unknown" when
    the tree is not a git checkout."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_goldens():
    with open(DATA / "goldens.json") as fh:
        return json.load(fh)


def load_inputs_manifest():
    with open(DATA / "inputs.json") as fh:
        return json.load(fh)


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(problem)


@dataclass
class PassResult:
    busy_s: float = 0.0  # sum of the timed regions of the pass's operations
    ref_s: float = 0.0  # the same in reference seconds (see clock.py)
    vertices: int = 0
    edges: int = 0
    detect_s: list = field(default_factory=list)  # one per mutant
    clean_s: float = 0.0
    clean_edges: int = 0


def run_cli(argv):
    """Call ``cli.main`` with stdout captured; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class CrystalJob:
    """`build` or `analyze` on a fixed case list, one CLI call per case."""

    def __init__(self, command, cases, goldens, workdir, seed):
        self.command = command
        self.cases = tuple(cases)
        self.goldens = goldens
        self.workdir = Path(workdir)
        self.seed = seed
        self.order = None
        self.expected = None

    def setup(self):
        # The oracle count runs outside the timed body; the seed fixes the
        # order in which a pass visits the cases.
        self.expected = {
            (n, c): gt.count_bounded_patterns(n, gt.sigma_bound(c)) for n, c in self.cases
        }
        order = list(self.cases)
        random.Random(self.seed).shuffle(order)
        self.order = order

    def run_pass(self, tally, clock, tracer=None):
        res = PassResult()
        for op, (n, c) in enumerate(self.order):
            key = case_key(self.command, n, c)
            out = self.workdir / f"{self.command}-{n}-{'_'.join(map(str, c))}.json"
            argv = [self.command, "--n", str(n), "--c", ",".join(map(str, c)),
                    "--format", "json", "--out", str(out)]
            if tracer is not None:
                tracer.op = op
            (rc, stdout), seconds = clock.time(run_cli, argv)
            res.busy_s += seconds
            golden = self.goldens.get(key)
            res.vertices += self.expected[(n, c)]
            res.edges += golden["edges"] if golden else 0
            problem = self._gate(key, n, c, rc, stdout, out, golden)
            if tracer is not None and out.exists():
                tracer.counters["cli.output_bytes"] += out.stat().st_size
            tally.record(problem)
            out.unlink(missing_ok=True)
        res.ref_s = sum(clock.reference_seconds())
        return res

    def _gate(self, key, n, c, rc, stdout, out, golden):
        if rc != 0:
            return f"{key}: exit code {rc}"
        if golden is None:
            return f"{key}: no golden hash recorded"
        data = out.read_bytes()
        if sha256(data) != golden["sha256"]:
            return f"{key}: output differs from the golden hash"
        want = self.expected[(n, c)]
        if self.command == "build":
            fields = dict(tok.split("=", 1) for tok in stdout.split() if "=" in tok)
            got = fields.get("vertices")
        else:
            # Upper subcrystals partition the vertex set.
            rows = json.loads(data)["subcrystals"]
            got = str(sum(r["size"] for r in rows if r["side"] == "upper"))
        if got != str(want):
            return f"{key}: {got} vertices, the pattern count is {want}"
        return None


def make_mutants(edges, vertices, n, count, seed):
    """Single-edge mutants of an edge list: half delete one edge, half add one
    (u, w, color) with u != w and u, w not adjacent in either direction."""
    rng = random.Random(seed)
    half = count // 2
    mutants = [
        ("delete", edges[:p] + edges[p + 1:]) for p in rng.sample(range(len(edges)), half)
    ]
    adjacent = {(u, w) for (u, w, _) in edges} | {(w, u) for (u, w, _) in edges}
    added = set()
    while len(mutants) < count:
        u, w = rng.choice(vertices), rng.choice(vertices)
        col = rng.randint(1, n)
        if u == w or (u, w) in adjacent or (u, w, col) in added:
            continue
        added.add((u, w, col))
        mutants.append(("add", edges + ((u, w, col),)))
    rng.shuffle(mutants)
    return mutants


def parse_edge_list(text):
    return tuple(tuple(int(x) for x in line.split()) for line in text.splitlines() if line)


class VerifyJob:
    """A full `verify --strict-a4` of a stored clean graph, then seeded
    single-edge mutants of a second stored graph through the fail-fast path."""

    def __init__(self, inputs, mutant_count, manifest, workdir, seed):
        self.inputs = inputs
        self.mutant_count = mutant_count
        self.manifest = manifest
        self.workdir = Path(workdir)
        self.seed = seed

    def _load(self, name):
        """Decompress a stored edge list and check its hash and counts."""
        entry = self.manifest[name]
        text = gzip.decompress((DATA / entry["file"]).read_bytes())
        if sha256(text) != entry["sha256"]:
            raise ValueError(f"{entry['file']}: sha256 differs from data/inputs.json")
        edges = parse_edge_list(text.decode())
        vertices = tuple(sorted({v for (u, w, _) in edges for v in (u, w)}))
        if (len(vertices), len(edges)) != (entry["vertices"], entry["edges"]):
            raise ValueError(f"{entry['file']}: vertex or edge count differs from data/inputs.json")
        count = gt.count_bounded_patterns(entry["n"], gt.sigma_bound(entry["c"]))
        if count != entry["vertices"]:
            raise ValueError(f"{entry['file']}: {entry['vertices']} vertices, the pattern count is {count}")
        return entry, text, edges, vertices

    def setup(self):
        entry, text, edges, vertices = self._load(self.inputs["clean"])
        self.clean_path = self.workdir / f"{self.inputs['clean']}.edges"
        self.clean_path.write_bytes(text)
        self.clean_size = (len(vertices), len(edges))
        entry, _, edges, vertices = self._load(self.inputs["mutants"])
        self.mutant_n = entry["n"]
        self.mutant_vertices = vertices
        self.mutants = make_mutants(edges, vertices, entry["n"], self.mutant_count, self.seed)

    def _check(self, edges, tracer):
        if tracer is None:
            g = axioms.ColoredDigraph(self.mutant_vertices, edges, self.mutant_n)
        else:
            with tracer.span("axioms.digraph_build"):
                g = axioms.ColoredDigraph(self.mutant_vertices, edges, self.mutant_n)
        return axioms.verify_graph(g)

    def run_pass(self, tally, clock, tracer=None):
        res = PassResult()
        if tracer is not None:
            tracer.op = 0
        argv = ["verify", "--in", str(self.clean_path), "--strict-a4"]
        (rc, stdout), seconds = clock.time(run_cli, argv)
        res.clean_s = seconds
        res.busy_s += seconds
        res.clean_edges = self.clean_size[1]
        res.vertices += self.clean_size[0]
        res.edges += self.clean_size[1]
        lines = stdout.splitlines()
        problem = None
        if rc != 0 or len(lines) != VERIFY_CHECKS or not all(ln.endswith(": pass") for ln in lines):
            problem = f"clean verify: exit code {rc}, output {stdout!r:.300}"
        tally.record(problem)
        for op, (kind, edges) in enumerate(self.mutants, start=1):
            if tracer is not None:
                tracer.op = op
            verdicts, seconds = clock.time(self._check, edges, tracer)
            res.detect_s.append(seconds)
            res.busy_s += seconds
            res.vertices += len(self.mutant_vertices)
            res.edges += len(edges)
            detected = not axioms.all_pass(verdicts)
            if tracer is not None:
                tracer.counters["axioms.checks_run"] += len(verdicts)
                tracer.counters["axioms.mutants"] += 1
                if detected:
                    tracer.counters["axioms.mutants_detected"] += 1
                    tracer.counters["axioms.first_fail." + verdicts[-1].check] += 1
            tally.record(None if detected else f"mutant {op} ({kind}) passed every check")
        res.ref_s = sum(clock.reference_seconds())
        return res


def make_job(workload, workdir, seed, smoke=False):
    if workload in ("build", "analyze"):
        cases = (SMOKE_CASES if smoke else CASES)[workload]
        return CrystalJob(workload, cases, load_goldens(), workdir, seed)
    if workload == "verify":
        return VerifyJob(
            SMOKE_VERIFY_INPUTS if smoke else VERIFY_INPUTS,
            SMOKE_MUTANTS if smoke else MUTANTS,
            load_inputs_manifest(), workdir, seed,
        )
    raise ValueError(f"unknown workload {workload!r}")
