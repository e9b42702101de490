"""The benchmark's workloads: their inputs, requests and output checks.

Every workload is a closed loop with one client.  Inputs come from the
benchmark seed; the program only ever sees the generated files.  ``call``
is the call into the program, the part the benchmark times; ``check`` compares
what the program returned with a reference, outside the timed region.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from abstainrl import cli, retrieval
from abstainrl.synthenv import YEAR_FLOOR, YEAR_HORIZON, TimeInterval
from kg_reference import SCORE_TOL, TOP_K

# Final-eval fields printed by `train` are rounded to 4 decimals; floats may
# move by summation order in a refactor, integers may not move at all.
GOLDEN_FLOAT_TOL = 1e-3
# The trained policy's logits, which the final eval alone barely constrains:
# a change of summation order moves them by ~1e-12, a wrong update by far more.
LOGIT_TOL = 1e-6
DISTRACTORS = 4
BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
GOLDENS = BENCH_DIR / "goldens.json"
KG_REFERENCE = BENCH_DIR / "kg_reference.py"


def policy_logits(out_dir: Path) -> dict[str, dict[str, float]]:
    """Feature -> action -> logit of the policy.json `train` wrote."""
    return json.loads((out_dir / "policy.json").read_text(encoding="utf-8"))["logits"]


def parse_report(stdout: str) -> dict[str, float]:
    """The `key=value` fields of the final-eval line `train` prints."""
    for line in stdout.splitlines():
        if line.startswith("items="):
            fields = dict(part.split("=", 1) for part in line.split())
            return {k: (int(v) if k in ("items", "tp", "fp", "fn") else float(v)) for k, v in fields.items()}
    raise ValueError("no final-eval line in the train output")


class Workload:
    """What run.py needs of a workload; subclasses define the inputs,
    requests and checks."""

    min_requests: int
    min_traced_requests: int
    # What the checks cannot cover at this seed; printed and recorded.
    warnings: list[str]
    # Quadruples to rebuild a KG store from (the write side), if the workload has one.
    store_quads: list | None = None

    def setup_steps(self) -> tuple[list[list[str]], str | None]:
        """CLI argument lists that write the inputs, and a KG file to load."""
        raise NotImplementedError

    def input_files(self) -> list[Path]:
        """The files set-up writes; every set-up must write the same bytes."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Read the inputs and build references, once, before any request."""
        raise NotImplementedError

    def make_inputs(self, index: int) -> None:
        """Generate the inputs of request `index`, outside the timed region."""

    def call(self, index: int) -> object:
        """Make request `index`; return the program's output.  This is what
        the benchmark times."""
        raise NotImplementedError

    def check(self, index: int, output: object) -> str | None:
        """Why the output of request `index` is wrong, or None."""
        raise NotImplementedError

    def setup_in_process(self) -> None:
        steps, kg_path = self.setup_steps()
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in steps:
                if cli.main(argv) != 0:
                    raise RuntimeError(f"set-up step failed: {argv}")
        if kg_path:
            retrieval.KGStore.read_jsonl(kg_path)


@dataclass(frozen=True)
class TrainSpec:
    name: str
    gen: list[str]
    default_seed: int
    train: list[str]


def load_goldens() -> dict[str, dict[str, dict]]:
    """Workload name -> seed -> {"eval": the final-eval fields `train`
    printed, "logits": the trained policy's logits}, both recorded at the
    parent commit (see record_goldens.py)."""
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


class TrainWorkload(Workload):
    """One request is one in-process `abstainrl train` command."""

    min_requests = 3
    min_traced_requests = 1

    def __init__(self, spec: TrainSpec, work: Path, seed: int, goldens: dict | None = None) -> None:
        self.spec = spec
        self.seed = seed
        self.warnings = []
        if goldens is None:
            goldens = load_goldens()
        self.golden = goldens.get(spec.name, {}).get(str(seed))
        if self.golden is None:
            self.warnings.append(
                f"no golden for {spec.name} at seed {seed}: train outputs are checked only "
                "for A11 and the final-eval invariants"
            )
        self.dataset = work / "dataset.jsonl"
        self.out_dir = work / "run"
        self.first_artifacts: bytes | None = None

    def setup_steps(self) -> tuple[list[list[str]], str | None]:
        argv = ["gen", *self.spec.gen, "--seed", str(self.seed), "--out", str(self.dataset)]
        return [argv], None

    def input_files(self) -> list[Path]:
        return [self.dataset]

    def prepare(self) -> None:
        # Streamed, so that the benchmark keeps no copy of the dataset in the
        # measured process.
        self.n_items = self.n_unans = 0
        with self.dataset.open(encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    self.n_items += 1
                    self.n_unans += json.loads(line)["gold"] is None

    def argv(self) -> list[str]:
        argv = ["train", "--dataset", str(self.dataset), "--out-dir", str(self.out_dir), *self.spec.train]
        return [str(self.dataset) if a == "{dataset}" else a for a in argv]

    def call(self, index: int) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv())
        return code, out.getvalue()

    def check(self, index: int, output: tuple[int, str]) -> str | None:
        code, stdout = output
        if code != 0:
            return f"train exited {code}"
        artifacts = b"".join(
            (self.out_dir / name).read_bytes() for name in ("train_log.jsonl", "policy.json")
        )
        if self.first_artifacts is None:
            self.first_artifacts = artifacts
        elif artifacts != self.first_artifacts:
            return "train_log.jsonl/policy.json differ from the run's first command (A11)"
        report = parse_report(stdout)
        n, unans = self.n_items, self.n_unans
        if report["items"] != n:
            return f"evaluated {report['items']} items, dataset has {n}"
        if report["tp"] + report["fn"] != unans:
            return f"tp+fn={report['tp'] + report['fn']} but {unans} items are unanswerable"
        if report["fp"] > n - unans:
            return f"fp={report['fp']} exceeds the {n - unans} answerable items"
        if abs(report["abstain_rate"] * n - (report["tp"] + report["fp"])) > 5e-5 * n + 1e-9:
            return "abstain_rate disagrees with tp+fp"
        if self.golden is not None:
            for key, want in self.golden["eval"].items():
                got = report[key]
                bad = got != want if isinstance(want, int) else abs(got - want) > GOLDEN_FLOAT_TOL
                if bad:
                    return f"golden mismatch at seed {self.seed}: {key}={got}, expected {want}"
            return self._check_logits(policy_logits(self.out_dir))
        return None

    def _check_logits(self, got: dict[str, dict[str, float]]) -> str | None:
        want = self.golden["logits"]
        if {k: sorted(v) for k, v in got.items()} != {k: sorted(v) for k, v in want.items()}:
            return f"policy.json holds other features or actions than the golden at seed {self.seed}"
        for feature, actions in want.items():
            for action, logit in actions.items():
                if abs(got[feature][action] - logit) > LOGIT_TOL:
                    return (
                        f"golden mismatch at seed {self.seed}: logit {feature}/{action}="
                        f"{got[feature][action]}, expected {logit}"
                    )
        return None


def _rephrase(head: str, relation: str, tail: str, timestamp: str) -> str:
    return f"{head}'s {relation} was {tail} during {timestamp}."


def _question_window(spec: dict) -> tuple[int, int]:
    """The year range the request pipeline filters by, derived from the
    generator's specifier.  The early-decade phrase ("the early 1990s") names
    no four-digit year, so the pipeline falls back to the whole range."""
    kind, years = spec["kind"], spec["years"]
    if kind == "in_year":
        return years[0], years[0]
    if kind == "between":
        return years[0], years[1]
    if kind == "after":
        return min(years[0] + 1, YEAR_HORIZON), YEAR_HORIZON
    if kind == "before":
        return YEAR_FLOOR, max(years[0] - 1, YEAR_FLOOR)
    return YEAR_FLOOR, YEAR_HORIZON


def retrieval_pipeline(store, question: str, context: str):
    """One kg-retrieval request, as an application would chain the calls."""
    intervals = retrieval.parse_time_expressions(question)
    interval = intervals[0] if intervals else TimeInterval(YEAR_FLOOR, YEAR_HORIZON)
    sentences = retrieval.extract_time_sentences(interval, context)
    semantic = retrieval.topk_semantic(store, question, k=TOP_K)
    lexical = retrieval.topk_lexical(store, question, k=TOP_K)
    quads = list(dict.fromkeys([q for q, _ in semantic] + [q for q, _ in lexical]))
    return sentences, semantic, lexical, retrieval.rephrase_quadruples(quads)


def _fields(quad) -> tuple:
    return (quad.head, quad.relation, quad.tail, quad.timestamp)


class KgWorkload(Workload):
    """One request is the retrieval pipeline for one question and context,
    against a KG store holding the facts of a `train-readme`-sized dataset."""

    gen = ["--n", "1000", "--p-unans", "0.5", "--ambiguity", "0.5"]
    min_requests = 200
    min_traced_requests = 20

    def __init__(self, work: Path, seed: int) -> None:
        self.seed = seed
        self.warnings = []
        self.dataset = work / "dataset.jsonl"
        self.kg_path = work / "kg.jsonl"
        self.reference_path = work / "reference.npz"

    def setup_steps(self) -> tuple[list[list[str]], str | None]:
        gen = ["gen", *self.gen, "--seed", str(self.seed), "--out", str(self.dataset)]
        extract = ["extract", "--mode", "kg", "--dataset", str(self.dataset), "--out", str(self.kg_path)]
        return [gen, extract], str(self.kg_path)

    def input_files(self) -> list[Path]:
        return [self.dataset, self.kg_path]

    def prepare(self) -> None:
        # The brute-force top-k references come from a process of their own,
        # so that their arrays stay out of this process's peak memory.
        subprocess.run(
            [sys.executable, str(KG_REFERENCE), str(self.dataset), str(self.kg_path), str(self.reference_path)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            check=True,
            timeout=120,
        )
        with np.load(self.reference_path) as ref:
            self.ref = {name: ref[name] for name in ref.files}
        self.store = retrieval.KGStore.read_jsonl(self.kg_path)
        self.store_quads = self.store.quads
        # Only what the requests and checks need: per question its text, its
        # facts as (head, relation, tail, start, end) and its year window; per
        # fact its fields.
        self.questions = []
        with self.dataset.open(encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    item = json.loads(line)
                    facts = tuple((f["subject"], f["relation"], f["object"], f["start"], f["end"]) for f in item["facts"])
                    self.questions.append((item["question"], facts, _question_window(item["specifier"])))
        with self.kg_path.open(encoding="utf-8") as fh:
            self.rows = [
                (r["head"], r["relation"], r["tail"], r.get("timestamp"))
                for r in map(json.loads, filter(str.strip, fh))
            ]
        self.rng = np.random.default_rng(self.seed)
        self.generated = 0
        # The current request: (question index, [(sentence, start year, end year)], context text).
        self.spec: tuple[int, list[tuple[str, int, int]], str] | None = None

    def make_inputs(self, index: int) -> None:
        while self.generated <= index:
            qi = int(self.rng.integers(len(self.questions)))
            parts = list(self.questions[qi][1])
            for j in self.rng.choice(len(self.rows), size=DISTRACTORS, replace=False):
                head, relation, tail, timestamp = self.rows[int(j)]
                start, end = (int(y) for y in timestamp.split("-"))
                parts.append((head, relation, tail, start, end))
            order = self.rng.permutation(len(parts))
            context = [(_rephrase(h, rel, t, f"{a}-{b}"), a, b) for h, rel, t, a, b in (parts[i] for i in order)]
            self.spec = (qi, context, " ".join(s for s, _, _ in context))
            self.generated += 1

    def call(self, index: int) -> tuple:
        qi, _, text = self.spec
        return retrieval_pipeline(self.store, self.questions[qi][0], text)

    def check(self, index: int, output: tuple) -> str | None:
        qi, context, _ = self.spec
        sentences, semantic, lexical, rephrased = output
        lo, hi = self.questions[qi][2]
        if sentences != [s for s, a, b in context if a <= hi and b >= lo]:
            return "sub-context sentences differ from the reference"

        err = self._check_semantic(qi, semantic)
        if err:
            return err

        want = [(self.rows[i], int(s)) for i, s in zip(self.ref["lex_idx"][qi], self.ref["lex_score"][qi])]
        if [(_fields(q), int(s)) for q, s in lexical] != want:
            return "lexical top-k differs from the reference"

        quads = dict.fromkeys([q for q, _ in semantic] + [q for q, _ in lexical])
        expected = "\n".join(_rephrase(q.head, q.relation, q.tail, q.timestamp) for q in quads)
        if rephrased != expected:
            return "rephrased quadruples differ from the reference"
        return None

    def _check_semantic(self, qi: int, got) -> str | None:
        """The reference holds the top k and every fact tied with the k-th;
        an entry may be any fact whose reference score lies within SCORE_TOL
        of the reference's at that rank."""
        lo, hi = self.ref["sem_offsets"][qi : qi + 2]
        idx, scores = self.ref["sem_idx"][lo:hi], self.ref["sem_score"][lo:hi]
        if len(got) != TOP_K:
            return f"semantic top-k returned {len(got)} entries, expected {TOP_K}"
        for pos, (quad, score) in enumerate(got):
            if abs(score - scores[pos]) > SCORE_TOL:
                return f"semantic score at rank {pos} is {score}, reference {scores[pos]}"
            fields = _fields(quad)
            if not any(
                self.rows[i] == fields and abs(s - scores[pos]) <= SCORE_TOL for i, s in zip(idx, scores)
            ):
                return f"semantic top-k differs from the reference at rank {pos}"
        return None


TRAIN_README = TrainSpec(
    name="train-readme",
    gen=["--n", "1000", "--p-unans", "0.5", "--ambiguity", "0.5"],
    default_seed=7,
    train=["--iters", "300", "--lr", "0.05", "--seed", "1", "--sft-traces", "{dataset}"],
)

TRAIN_WIDE = TrainSpec(
    name="train-wide",
    gen=["--n", "10000", "--p-unans", "0.124", "--ambiguity", "0.25"],
    default_seed=11,
    train=[
        "--iters", "30", "--group-size", "8", "--batch-size", "64", "--lr", "0.05",
        "--seed", "2", "--reward-variant", "rouge+sem+em",
    ],
)

TRAIN_SPECS = (TRAIN_README, TRAIN_WIDE)

# Workload name -> (default seed, factory taking the work directory and seed).
WORKLOADS = {
    TRAIN_README.name: (TRAIN_README.default_seed, functools.partial(TrainWorkload, TRAIN_README)),
    TRAIN_WIDE.name: (TRAIN_WIDE.default_seed, functools.partial(TrainWorkload, TRAIN_WIDE)),
    "kg-retrieval": (7, KgWorkload),
}
