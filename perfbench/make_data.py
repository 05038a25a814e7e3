#!/usr/bin/env python3
"""Regenerate the benchmark's stored data from the program in ``src/``.

    python3 perfbench/make_data.py [inputs] [goldens]

``inputs`` writes the gzipped edge lists read by the verify workload and
``data/inputs.json``, which records their sha256 (of the uncompressed text),
their vertex and edge counts and the exact call that made them.  Generating
K(5;1,1,1,1,1) takes over a minute, which is why it is stored rather than
built in the benchmark's set-up.

``goldens`` runs every build and analyze case (full and smoke lists) through
``ancrystal.cli.main`` and writes the sha256 of each output file, with the
crystal's vertex and edge counts, to ``data/goldens.json``.  Outputs must stay
byte-identical to these hashes, so rerun this only to move the benchmark to a
new reference output, in a change of its own.
"""

from __future__ import annotations

import gzip
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from ancrystal import generate  # noqa: E402

STORED = {
    "K4_1111": (4, (1, 1, 1, 1)),
    "K5_11111": (5, (1, 1, 1, 1, 1)),
}


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def make_inputs(commit):
    manifest = {}
    for name, (n, c) in STORED.items():
        K = generate(n, c)
        text = K.to_edge_list_text().encode()
        path = workloads.DATA / f"{name}.edges.gz"
        path.write_bytes(gzip.compress(text, compresslevel=9, mtime=0))
        manifest[name] = {
            "file": path.name,
            "n": n,
            "c": list(c),
            "vertices": K.num_vertices,
            "edges": K.num_edges,
            "sha256": workloads.sha256(text),
            "made_by": f"ancrystal.generate({n}, {c}).to_edge_list_text()",
            "commit": commit,
        }
        print(f"{name}: {K.num_vertices} vertices, {K.num_edges} edges", flush=True)
    write_json(workloads.DATA / "inputs.json", manifest)


def make_goldens(commit):
    goldens = {"commit": commit}
    with tempfile.TemporaryDirectory() as tmp:
        for table in (workloads.CASES, workloads.SMOKE_CASES):
            for command, cases in table.items():
                for n, c in cases:
                    out = Path(tmp) / "out.json"
                    argv = [command, "--n", str(n), "--c", ",".join(map(str, c)),
                            "--format", "json", "--out", str(out)]
                    rc, _ = workloads.run_cli(argv)
                    if rc != 0:
                        raise SystemExit(f"{argv}: exit code {rc}")
                    K = generate(n, c)
                    key = workloads.case_key(command, n, c)
                    goldens[key] = {
                        "sha256": workloads.sha256(out.read_bytes()),
                        "vertices": K.num_vertices,
                        "edges": K.num_edges,
                    }
                    print(key, goldens[key], flush=True)
    write_json(workloads.DATA / "goldens.json", goldens)


def main(argv):
    what = set(argv) or {"inputs", "goldens"}
    if not what <= {"inputs", "goldens"}:
        raise SystemExit("usage: make_data.py [inputs] [goldens]")
    commit = workloads.git_commit(HERE.parent)
    workloads.DATA.mkdir(exist_ok=True)
    if "inputs" in what:
        make_inputs(commit)
    if "goldens" in what:
        make_goldens(commit)


if __name__ == "__main__":
    main(sys.argv[1:])
