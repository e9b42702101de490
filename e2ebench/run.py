"""End-to-end benchmark of abstainrl.

    python3 e2ebench/run.py --workload train-readme --seed 7 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The full record (samples, failures, environment) goes to
``e2ebench/out/results/``, and a traced run writes its spans beside it.
See e2ebench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

# One BLAS/OpenMP thread, for the benchmark and its set-up subprocesses; set
# before numpy is first imported.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 15
SETUP_TIMEOUT_S = 120
# Set-up in a fresh interpreter: import the CLI, write the workload's inputs
# with it, and load the KG store the way a retrieval service starts.
SETUP_SCRIPT = """
import json, sys
from abstainrl import cli, retrieval
steps, kg_path = json.loads(sys.argv[1])
for argv in steps:
    if cli.main(argv) != 0:
        sys.exit(1)
if kg_path:
    retrieval.KGStore.read_jsonl(kg_path)
"""


class SetupError(RuntimeError):
    pass


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def run_setup(workload, env: dict[str, str]) -> float:
    steps = json.dumps(workload.setup_steps())
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, steps],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SetupError(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return elapsed


def input_digest(workload) -> str:
    digest = hashlib.sha256()
    for path in workload.input_files():
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Setups:
    """Timed fresh-interpreter set-ups, spread over a run: the host's speed
    drifts within seconds, and samples taken in one burst at the start would
    all see the same moment.  Every repeat must write byte-identical inputs."""

    def __init__(self, workload, repeats: int) -> None:
        self.workload = workload
        self.repeats = repeats
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples = [run_setup(workload, self.env)]
        self.digest = input_digest(workload)

    def catch_up(self, progress: float) -> None:
        """Run the set-ups due once `progress` (0 to 1) of the run is done."""
        while len(self.samples) < 1 + (self.repeats - 1) * min(progress, 1.0):
            self.samples.append(run_setup(self.workload, self.env))
            if input_digest(self.workload) != self.digest:
                raise SetupError("set-up wrote different inputs for the same seed")


# Request id of the spans recorded while outputs are checked; they are not
# part of any request.
CHECK_REQUEST = -3


def measure(workload, seconds: float, min_requests: int, first: int, tracer=None, between=None):
    """Closed loop: requests back to back until `seconds` have passed and at
    least `min_requests` were made.  After each request `between(progress)`
    is called, if given, with the share of `seconds` used so far; its time
    does not count toward `seconds`.  Returns latencies and failure messages."""
    latencies, failures = [], []
    start = time.perf_counter()
    paused = 0.0
    index = first
    while len(latencies) < min_requests or time.perf_counter() - start - paused < seconds:
        workload.make_inputs(index)
        # Every request starts from a collected heap, not from whatever the
        # previous request left for the cyclic collector.
        gc.collect()
        if tracer is not None:
            tracer.request_id = index
        # A request that raises is a failed request, not a crashed run.
        t0 = time.perf_counter()
        try:
            output = workload.call(index)
        except Exception:
            error = traceback.format_exc(limit=5)
        else:
            error = None
        latencies.append(time.perf_counter() - t0)
        if error is None:
            if tracer is not None:
                tracer.request_id = CHECK_REQUEST
            try:
                error = workload.check(index, output)
            except Exception:
                error = traceback.format_exc(limit=5)
        if error:
            failures.append(f"request {index}: {error}")
            print(f"FAILED request {index}: {error}", file=sys.stderr)
        index += 1
        if between is not None:
            t0 = time.perf_counter()
            between((t0 - start - paused) / seconds)
            paused += time.perf_counter() - t0
    return latencies, failures


def environment(kernels_backend: str) -> dict:
    import numpy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except OSError:  # no git on PATH
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "abstainrl").rglob("*")):
        if path.suffix in (".py", ".pyx"):
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "kernels_backend": kernels_backend,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def end_to_end(workload, args) -> tuple[dict, dict]:
    setups = Setups(workload, SETUP_REPEATS)
    workload.prepare()
    latencies, failures = measure(
        workload, args.seconds, workload.min_requests, first=0, between=setups.catch_up
    )
    setups.catch_up(1.0)
    metrics = {
        "setup_s": statistics.median(setups.samples),
        "request_p95_ms": percentile(latencies, 95) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "attempted": len(latencies),
        "setup_s": setups.samples,
        "latency_s": latencies,
        "failures": failures,
    }
    return metrics, record


KG_BUILDS_UNTRACED = 21
KG_BUILDS_TRACED = 5

INCLUSIVE = (
    "cli.main", "synthenv.read_dataset", "policy.make_expert_traces", "policy.sft_train",
    "grpo.train_rl", "grpo.rollout_group", "grpo.grpo_gradient", "grpo.grpo_objective",
    "grpo.evaluate_items", "reward.total_reward", "textmetrics.rouge_l", "textmetrics.semantic_sim",
    "kernels.log_softmax", "kernels.trigram_counts", "retrieval.topk_semantic",
    "retrieval.topk_lexical", "retrieval.extract_time_sentences", "retrieval.parse_time_expressions",
)
SELF = ("grpo.train_rl", "grpo.rollout_group")
CALLS = (
    "synthenv.read_dataset", "grpo.rollout_group", "grpo.evaluate_items", "reward.total_reward",
    "reward.parse_completion", "textmetrics.normalize_text", "textmetrics.semantic_sim",
    "kernels.log_softmax", "kernels.sample_categorical", "kernels.lcs_length", "kernels.trigram_counts",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(workload, args, tracer_mod, retrieval) -> tuple[dict, dict]:
    """Untraced requests, then the same requests with every layer wrapped.
    Per-layer values are per traced request unless their name says otherwise."""
    run_setup(workload, dict(os.environ, PYTHONPATH=str(SRC)))
    workload.prepare()
    untraced_lat, failures = measure(workload, args.seconds, workload.min_traced_requests, first=0)
    quads = workload.store_quads
    build_s = []
    for _ in range(KG_BUILDS_UNTRACED if quads is not None else 0):
        t0 = time.perf_counter()
        retrieval.KGStore(quads)
        build_s.append(time.perf_counter() - t0)

    distinct: dict[int, set] = defaultdict(set)
    item_actions: dict[int, set] = defaultdict(set)
    counts: dict[str, int] = defaultdict(int)

    def on_total_reward(tr, call_args, call_kwargs, result):
        distinct[tr.request_id].add(call_args + tuple(sorted(call_kwargs.items())))

    def on_sft_train(tr, call_args, call_kwargs, result):
        if tr.request_id >= 0:
            counts["sft_traces"] += len(call_args[1] if len(call_args) > 1 else call_kwargs["traces"])

    def on_rollout_group(tr, call_args, call_kwargs, result):
        if tr.request_id >= 0:
            counts["zero_adv_groups"] += not result.advantages.any()
            item_actions[tr.request_id].update((result.item.id, a.index) for a in result.actions)

    tracer = tracer_mod.Tracer(
        hooks={
            "reward.total_reward": on_total_reward,
            "policy.sft_train": on_sft_train,
            "grpo.rollout_group": on_rollout_group,
        }
    )
    first = len(untraced_lat)
    with tracer_mod.installed(tracer):
        tracer.request_id = -1
        workload.setup_in_process()
        tracer.request_id = -2
        n_builds = KG_BUILDS_TRACED if quads is not None else 0
        for _ in range(n_builds):
            retrieval.KGStore(quads)
        traced_lat, traced_failures = measure(
            workload, args.seconds / 2, workload.min_traced_requests, first=first, tracer=tracer
        )
    failures += traced_failures
    spans = tracer.spans()

    n = len(traced_lat)
    req = spans.request >= 0
    m: dict[str, float] = {}
    for name in INCLUSIVE:
        m[f"{name}.s"] = spans.inclusive_s(name, req) / n
    for name in SELF:
        m[f"{name}.self_s"] = spans.self_s(name, req) / n
    for name in CALLS:
        m[f"{name}.calls"] = spans.calls(name, req) / n
    for layer in tracer_mod.LAYERS:
        m[f"{layer}.self_s"] = spans.layer_self_s(layer, req) / n
    m["synthenv.generate_dataset.s"] = spans.inclusive_s("synthenv.generate_dataset", spans.request == -1)
    m["retrieval.KGStore.add.s"] = _ratio(spans.inclusive_s("retrieval.KGStore.add", spans.request == -2), n_builds)
    m["kg_build_ms"] = statistics.median(build_s) * 1e3 if build_s else 0.0
    m["policy.sft.traces"] = counts["sft_traces"] / n
    rollouts = spans.calls("grpo.rollout_group", req)
    m["grpo.zero_adv_group_frac"] = _ratio(counts["zero_adv_groups"], rollouts)
    in_rl = req & spans.within("grpo.train_rl")
    rl_rewards = spans.calls("reward.total_reward", in_rl)
    m["reward.total_reward.calls_in_rl"] = rl_rewards / n
    m["grpo.item_action_distinct_frac"] = _ratio(sum(len(v) for v in item_actions.values()), rl_rewards)
    reward_calls = spans.calls("reward.total_reward", req)
    m["reward.distinct_frac"] = _ratio(sum(len(v) for k, v in distinct.items() if k >= 0), reward_calls)
    in_semantic = req & spans.within("retrieval.topk_semantic")
    m["retrieval.embeds_per_query"] = _ratio(
        spans.calls("textmetrics.trigram_embedding", in_semantic), spans.calls("retrieval.topk_semantic", req)
    )
    untraced_p50 = statistics.median(untraced_lat) * 1e3
    traced_p50 = statistics.median(traced_lat) * 1e3
    m["trace.untraced_p50_ms"] = untraced_p50
    m["trace.traced_p50_ms"] = traced_p50
    m["trace.overhead_ms"] = traced_p50 - untraced_p50
    m["trace.requests"] = n
    m["trace.spans_per_request"] = int(req.sum()) / n

    stem = f"{args.workload}-seed{args.seed}-trace1"
    spans.save(OUT / "results" / f"{stem}-spans.npz")
    record = {
        "attempted": len(untraced_lat) + n,
        "untraced_latency_s": untraced_lat,
        "traced_latency_s": traced_lat,
        "kg_build_s": build_s,
        "zero_adv_groups": counts["zero_adv_groups"],
        "rollout_groups": rollouts,
        "spans_file": f"{stem}-spans.npz",
        "failures": failures,
    }
    return m, record


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, help="dataset seed (default: the workload's reference seed)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "abstainrl" / "cli.py").is_file():
        print(f"error: no abstainrl sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import abstainrl

    if Path(abstainrl.__file__).resolve().parent != SRC / "abstainrl":
        print(f"error: imported abstainrl from {abstainrl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads
    from abstainrl import kernels, retrieval

    default_seed, factory = workloads.WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = default_seed
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = factory(work, args.seed)
    for warning in workload.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    try:
        if args.trace:
            metrics, record = traced(workload, args, tracer_mod, retrieval)
            wanted = spec["per_layer"]
        else:
            metrics, record = end_to_end(workload, args)
            wanted = spec["end_to_end"]
    except (SetupError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != {w["name"] for w in wanted}:
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    failed = len(record["failures"])
    result = {
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]} for w in wanted},
    }
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(kernels.BACKEND),
        "result": result,
        "warnings": workload.warnings,
        **record,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
