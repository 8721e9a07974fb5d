"""Workload inputs, job command lists and output checks for the commca benchmark.

A workload turns a seed into input files, names the CLI commands that make up
one job, and checks every output of a job.  Checks return a list of problems
(empty when the job is correct) and run outside the timed region.

- sim-constant: `run --example 1/2/3`, the command users run most.  The trace
  CSV writer and the vectorized `run()` path do most of the work.
- sim-equivocate: `run --scenario F`, example 1 at 500 rounds with a `table`
  adversary presenting -100 or +100 to each legitimate neighbour.  The per-edge
  Python path of `run()` does most of the work.
- certify: `check --rs/--r/--community` on a fixed family of non-complete
  graphs (n = 11..14, half passing by full enumeration, half failing through
  the early-exit witness path), then `verify-prop1 --example 1 --mode sampled`.
  The robustness checker does most of the work.
"""

from __future__ import annotations

import hashlib
import random
import re
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

DEFAULT_SEED = 42


@dataclass
class Output:
    """What one CLI command returned: exit code (None if it raised) and streams."""

    rc: int | None
    stdout: str
    stderr: str


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _summary(stdout: str) -> dict[int, dict[str, str]]:
    # "community 2: agreement=no safety=yes clusters=2" -> {2: {...}}
    out = {}
    for line in stdout.splitlines():
        m = re.match(r"community (\d+): (agreement=.*)$", line)
        if m:
            out[int(m.group(1))] = dict(kv.split("=", 1) for kv in m.group(2).split())
    return out


class Workload:
    """Inputs and checks for one workload; subclasses fill in the specifics."""

    name = ""

    def __init__(self, seed: int, workdir: Path, expected: dict):
        self.workdir = workdir
        self.commands: list[list[str]] = []
        self.labels: list[str] = []

    def check(self, outputs: list[Output]) -> list[str]:
        """Problems found in one job's outputs; empty when the job is correct."""
        raise NotImplementedError

    def units(self, outputs: list[Output]) -> int:
        """Work units the job completed (only called on a correct job)."""
        raise NotImplementedError

    def clean(self) -> None:
        """Remove files a job wrote, so the next job's check sees fresh output."""


class _Simulation(Workload):
    """Shared checks for workloads made of `run` commands.

    Each run's trace.csv and verdict.txt must match the recorded digests at the
    default seed, and at any seed must match the digests of the first correct
    job of the same process (a trace is byte-identical for the same config).
    """

    # agents in each command's simulated graph, and its round count
    sizes: tuple[tuple[int, int], ...] = ()

    def __init__(self, seed, workdir, expected):
        super().__init__(seed, workdir, expected)
        recorded = expected.get(self.name, {}).get("digests")
        self.reference = recorded if seed == expected.get("seed") else None
        self.cells = [(rounds + 1) * n for n, rounds in self.sizes]
        self.outdirs = [workdir / f"out{i}" for i in range(len(self.sizes))]

    def _check_run(self, i: int, out: Output, want_rc: int) -> tuple[list[str], dict]:
        label = self.labels[i]
        if out.rc != want_rc:
            return [f"{label}: exit {out.rc}, expected {want_rc}: {out.stderr.strip()[-300:]}"], {}
        csv = self.outdirs[i] / "trace.csv"
        verdict = self.outdirs[i] / "verdict.txt"
        if not (csv.is_file() and verdict.is_file()):
            return [f"{label}: trace.csv or verdict.txt missing"], {}
        with open(csv, "rb") as fh:
            data = fh.read()
        rows = data.count(b"\n") - 1
        problems = []
        if rows != self.cells[i] or not data.startswith(b"round,agent,community,role,value\n"):
            problems.append(f"{label}: trace.csv has {rows} rows, expected {self.cells[i]}")
        digests = {
            "trace.csv": hashlib.sha256(data).hexdigest(),
            "verdict.txt": sha256_file(verdict),
        }
        return problems, digests

    def _check_digests(self, digests: list[dict]) -> list[str]:
        if self.reference is None:
            self.reference = digests
            return []
        problems = []
        for label, got, want in zip(self.labels, digests, self.reference):
            for name in ("trace.csv", "verdict.txt"):
                if got.get(name) != want.get(name):
                    problems.append(f"{label}: {name} sha256 {got.get(name)} != {want.get(name)}")
        return problems

    def units(self, outputs):
        return sum(self.cells)

    def clean(self):
        for d in self.outdirs:
            shutil.rmtree(d, ignore_errors=True)


class SimConstant(_Simulation):
    name = "sim-constant"
    sizes = ((158, 5000), (25, 5000), (26, 5000))

    def __init__(self, seed, workdir, expected):
        super().__init__(seed, workdir, expected)
        for e, out in zip((1, 2, 3), self.outdirs):
            self.commands.append(
                ["run", "--example", str(e), "--seed", str(seed), "--out", str(out)]
            )
            self.labels.append(f"run --example {e}")

    def check(self, outputs):
        problems, digests = [], []
        # The paper's per-example outcome, which holds at any seed.
        for i, (out, want_rc) in enumerate(zip(outputs, (0, 1, 1))):
            found, dig = self._check_run(i, out, want_rc)
            problems += found
            digests.append(dig)
            if found:
                continue
            s = _summary(out.stdout)
            c1, c2 = s.get(1, {}), s.get(2, {})
            if i == 0:
                ok = all(c.get("agreement") == "yes" and c.get("safety") == "yes"
                         for c in (c1, c2))
            elif i == 1:
                ok = (c1.get("agreement") == "yes" and c1.get("safety") == "yes"
                      and c2.get("safety") == "yes" and c2.get("agreement") == "no"
                      and c2.get("clusters") == "2")
            else:
                ok = c1.get("safety") == "no" and c2.get("safety") == "yes"
            if not ok:
                problems.append(f"{self.labels[i]}: unexpected verdict {s}")
        if not problems:
            problems += self._check_digests(digests)
        return problems


class SimEquivocate(_Simulation):
    name = "sim-equivocate"
    sizes = ((158, 500),)

    def __init__(self, seed, workdir, expected):
        super().__init__(seed, workdir, expected)
        from commca import PerNeighborTable, example1, format_scenario

        config = example1(seed=seed, rounds=500)
        rng = random.Random(seed)
        malicious = config.layout.malicious
        entries = {
            (m, v): rng.choice((-100.0, 100.0))
            for m in sorted(malicious)
            for v in config.graph.neighbors(m)
            if v not in malicious
        }
        config = replace(config, adversary=PerNeighborTable(entries, 60.0))
        doc = workdir / "scenario-F.txt"
        doc.write_text(format_scenario(config))
        self.commands.append(["run", "--scenario", str(doc), "--out", str(self.outdirs[0])])
        self.labels.append("run --scenario F")

    def check(self, outputs):
        problems, dig = self._check_run(0, outputs[0], 0)
        if problems:
            return problems
        s = _summary(outputs[0].stdout)
        if sorted(s) != [1, 2] or not all(
            c.get("agreement") == "yes" and c.get("safety") == "yes" for c in s.values()
        ):
            return [f"{self.labels[0]}: both communities must pass, got {s}"]
        return self._check_digests([dig])


# The certify family: (name, n, kind).  "dense" graphs are G(n, 0.85) draws
# that pass (1, 2)- and 1-excess robustness, so the checker enumerates all
# ~3^n/2 pairs; "split" graphs are two dense halves joined by two cross edges,
# which fail and exit early with a witness.  The draws are fixed; the workload
# seed only shuffles the order of edge lines and endpoints in the files, so
# every seed asks the checker the same questions.  Each graph is checked with
# `--rs 1 2`, `--r 1` and `--community 1` over its two halves.
FAMILY_SEED = "commca-certify"
FAMILY = tuple(
    (f"{kind}-{n}", n, kind) for n in (11, 12, 13, 14) for kind in ("dense", "split")
)
RS = (1, 2)
R = 1
F = 1


def family_edges(n: int, kind: str, draw: int = 0) -> list[tuple[int, int]]:
    rng = random.Random(f"{FAMILY_SEED}-{kind}-{n}-{draw}")
    half = n // 2
    if kind == "dense":
        return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.85]
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u < half) == (v < half) and rng.random() < 0.9
    ]
    cross = set()
    while len(cross) < 2:
        cross.add((rng.randrange(half), rng.randrange(half, n)))
    return edges + sorted(cross)


# Draw index per dense graph, picked so the draw passes both robustness checks.
DENSE_DRAW = {11: 0, 12: 1, 13: 0, 14: 0}


class Certify(Workload):
    name = "certify"

    def __init__(self, seed, workdir, expected):
        super().__init__(seed, workdir, expected)
        from commca import Graph

        rng = random.Random(seed)
        self.graphs = {}
        self.verdicts = expected.get(self.name, {}).get("verdicts", {})
        for name, n, kind in FAMILY:
            edges = family_edges(n, kind, DENSE_DRAW.get(n, 0) if kind == "dense" else 0)
            self.graphs[name] = Graph(n, edges)
            lines = [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}" for u, v in edges]
            rng.shuffle(lines)
            gpath = workdir / f"{name}.graph"
            gpath.write_text("\n".join([f"n {n}"] + lines) + "\n")
            halves = [list(range(n // 2)), list(range(n // 2, n))]
            for half in halves:
                rng.shuffle(half)
            cpath = workdir / f"{name}.communities"
            cpath.write_text(
                "".join(f"community {i}: {' '.join(map(str, h))}\n"
                        for i, h in enumerate(halves, start=1))
            )
            self.commands += [
                ["check", str(gpath), "--rs", str(RS[0]), str(RS[1])],
                ["check", str(gpath), "--r", str(R)],
                ["check", str(gpath), "--community", str(F), "--communities", str(cpath)],
            ]
            self.labels += [f"check {name} --rs", f"check {name} --r",
                            f"check {name} --community"]
        self.commands.append(
            ["verify-prop1", "--example", "1", "--mode", "sampled", "--seed", str(seed)]
        )
        self.labels.append("verify-prop1 --example 1 --mode sampled")

    def check(self, outputs):
        problems = []
        for k, (name, n, kind) in enumerate(FAMILY):
            want = self.verdicts.get(name)
            if want is None:
                problems.append(f"no recorded verdicts for {name}")
                continue
            g = self.graphs[name]
            rs_out, r_out, com_out = outputs[3 * k: 3 * k + 3]
            problems += self._check_robust(f"{name} --rs", rs_out, want["rs"], g, RS[0], RS[1])
            problems += self._check_robust(f"{name} --r", r_out, want["r"], g, R, 1)
            problems += self._check_community(name, com_out, want["community"], g)
        problems += self._check_prop1(outputs[-1])
        return problems

    @staticmethod
    def _check_robust(label, out, want, g, r, s) -> list[str]:
        if out.rc != (0 if want else 1):
            return [f"{label}: exit {out.rc}, expected {0 if want else 1}: {out.stderr.strip()[-300:]}"]
        if want:
            return [] if out.stdout.startswith("robust: yes") else [f"{label}: {out.stdout!r}"]
        return _recheck_witness(label, out.stdout, g, r, s)

    @staticmethod
    def _check_community(name, out, want: list[bool], g) -> list[str]:
        label = f"{name} --community"
        if out.rc != (0 if all(want) else 1):
            return [f"{label}: exit {out.rc}: {out.stderr.strip()[-300:]}"]
        got = re.findall(r"^community \d+: community=(yes|no)", out.stdout, re.M)
        if got != ["yes" if w else "no" for w in want]:
            return [f"{label}: verdicts {got}, expected {want}"]
        # A community's witness is a pair in its induced subgraph (original ids).
        problems = []
        blocks = out.stdout.split("robust: no")[1:]
        members = [frozenset(range(g.n // 2)), frozenset(range(g.n // 2, g.n))]
        for block in blocks:
            ids = _witness_ids(block)
            if ids is None:
                problems.append(f"{label}: unparsable witness {block[:200]!r}")
                continue
            first, second, r, s = ids
            home = [m for m in members if first | second <= m]
            if not home:
                problems.append(f"{label}: witness spans communities")
                continue
            sub, nodes = g.induced_subgraph(home[0])
            local = {u: i for i, u in enumerate(nodes)}
            problems += _recheck_pair(
                label, sub, {local[u] for u in first}, {local[u] for u in second}, r, s
            )
        return problems

    @staticmethod
    def _check_prop1(out) -> list[str]:
        label = "verify-prop1"
        if out.rc != 0:
            return [f"{label}: exit {out.rc}: {out.stderr.strip()[-300:]}"]
        lines = out.stdout.splitlines()
        want = [
            r"community 1: preservation ok over 10000 subsets \(sampled, threshold 2\)",
            r"community 2: preservation ok over 10000 subsets \(sampled, threshold 2\)",
            r"community 1: isolation ok over 5000 rounds",
            r"community 2: isolation ok over 5000 rounds",
        ]
        if len(lines) != len(want) or not all(re.fullmatch(p, l) for p, l in zip(want, lines)):
            return [f"{label}: unexpected output {out.stdout!r}"]
        return []

    def units(self, outputs):
        # predicate verdicts printed: one per robustness check, one per
        # community, and per prop1 community one preservation and one isolation
        count = 0
        for out in outputs:
            count += len(re.findall(r"^robust: |^community \d+: ", out.stdout, re.M))
        return count


def _witness_ids(text: str):
    first = re.search(r"^first subset: ([\d ]+)$", text, re.M)
    second = re.search(r"^second subset: ([\d ]+)$", text, re.M)
    thresh = re.search(r"^first excess \(threshold (\d+)\)", text, re.M)
    if not (first and second and thresh):
        return None
    bound = re.search(r"< (\d+), neither side fully reachable", text)
    s = int(bound.group(1)) if bound else 1
    return (frozenset(map(int, first.group(1).split())),
            frozenset(map(int, second.group(1).split())), int(thresh.group(1)), s)


def _recheck_witness(label, stdout, g, r, s) -> list[str]:
    ids = _witness_ids(stdout)
    if ids is None:
        return [f"{label}: negative verdict without a parsable witness: {stdout[:200]!r}"]
    first, second, r_got, s_got = ids
    if (r_got, s_got) != (r, s):
        return [f"{label}: witness states (r, s) = ({r_got}, {s_got}), asked ({r}, {s})"]
    return _recheck_pair(label, g, first, second, r, s)


def _recheck_pair(label, g, first, second, r, s) -> list[str]:
    from commca import evaluate_pair

    try:
        ev = evaluate_pair(g, first, second, r, s)
    except ValueError as exc:
        return [f"{label}: witness rejected: {exc}"]
    if ev.satisfied:
        return [f"{label}: witness pair satisfies the ({r}, {s}) clauses"]
    return []


CLASSES = {cls.name: cls for cls in (SimConstant, SimEquivocate, Certify)}
WORKLOADS = tuple(CLASSES)


def make(name: str, seed: int, workdir: Path, expected: dict) -> Workload:
    """Generate the workload's inputs from the seed into workdir."""
    return CLASSES[name](seed, workdir, expected)
