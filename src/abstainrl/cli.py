"""Command-line driver and run persistence.

Subcommands: gen | build-mc | extract | train | eval | sweep | report.
Every command is a pure function of (config, seed, input files), so
re-running with the same inputs reproduces its artifacts byte for byte.
Exit codes: 0 success, 2 usage error, 3 input-data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from collections.abc import Callable, Iterable, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from abstainrl import policy, retrieval, synthenv
from abstainrl.grpo import (
    EvalReport,
    Evaluation,
    GrpoConfig,
    RewardTable,
    TrainLog,
    evaluate_items,
    summarize_items,
    train_rl,
)
from abstainrl.policy import DivergenceError, PolicyParams, sft_train
from abstainrl.reward import DEFAULT_VARIANT, RewardVariant
from abstainrl.retrieval import KGStore, fact_to_quadruple, quadruples_from_context
from abstainrl.synthenv import (
    YEAR_FLOOR,
    YEAR_HORIZON,
    DatasetError,
    GenConfig,
    TimeInterval,
    build_abstained_mc,
    iter_dataset,
    iter_lines,
    read_columns,
    read_mc_sources,
    write_lines,
    write_mc_items,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(ValueError):
    pass


# --- config resolution ----------------------------------------------------------

_TRAIN_DEFAULTS: dict[str, Any] = {
    "dataset": None,
    "out_dir": None,
    "iters": GrpoConfig.outer_iters,
    "group_size": GrpoConfig.group_size,
    "clip_eps": GrpoConfig.clip_eps,
    "beta": GrpoConfig.kl_beta,
    "lr": GrpoConfig.lr,
    "inner_steps": GrpoConfig.inner_steps,
    "std_eps": GrpoConfig.std_eps,
    "batch_size": GrpoConfig.batch_size,
    "seed": 0,
    "reward_variant": DEFAULT_VARIANT.value,
    "sft_traces": None,
    "sft_lr": policy.DEFAULT_SFT_LR,
    "sft_epochs": policy.DEFAULT_SFT_EPOCHS,
}

_GEN_DEFAULTS: dict[str, Any] = {
    "n": GenConfig.n_items,
    "p_unans": GenConfig.p_unans,
    "difficulty_mix": GenConfig.difficulty_mix,
    "ambiguity": GenConfig.ambiguity,
    "seed": 0,
    "out": None,
}


# Written into a run's config.json besides the train settings ("p_unans" by a
# p-unans sweep), so that the file is accepted back as --config.
_RUN_RECORD_KEYS = frozenset({"command", "p_unans"})


def _check_config_value(key: str, value: Any, default: Any) -> None:
    """A config-file value must have its default's JSON type: an integer for
    an int, any number for a float, a string (or null) where the default is
    a string or null."""
    if isinstance(value, bool):  # an int subclass, but never a setting here
        ok = False
    elif isinstance(default, int):
        ok = isinstance(value, int)
    elif isinstance(default, float):
        ok = isinstance(value, (int, float))
    else:
        ok = value is None or isinstance(value, str)
    if not ok:
        raise UsageError(f"config key {key!r} has the wrong type: {value!r}")


def _resolve(args: argparse.Namespace, defaults: dict[str, Any]) -> dict[str, Any]:
    """Merge flag values over config-file values over defaults (flags win)."""
    from_file: dict[str, Any] = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            from_file = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
            raise UsageError(f"config file {config_path}: {exc}") from None
        if not isinstance(from_file, dict):
            raise UsageError(f"config file {config_path}: must hold a JSON object")
        unknown = sorted(set(from_file) - set(defaults) - _RUN_RECORD_KEYS)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(map(repr, unknown))}")
        for key, default in defaults.items():
            if key in from_file:
                _check_config_value(key, from_file[key], default)
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in from_file:
            resolved[key] = from_file[key]
        else:
            resolved[key] = default
    return resolved


def _grpo_config(resolved: dict[str, Any]) -> GrpoConfig:
    return GrpoConfig(
        group_size=int(resolved["group_size"]),
        clip_eps=float(resolved["clip_eps"]),
        kl_beta=float(resolved["beta"]),
        lr=float(resolved["lr"]),
        outer_iters=int(resolved["iters"]),
        inner_steps=int(resolved["inner_steps"]),
        std_eps=float(resolved["std_eps"]),
        batch_size=int(resolved["batch_size"]),
        seed=int(resolved["seed"]),
    )


def _gen_config(resolved: dict[str, Any]) -> GenConfig:
    return GenConfig(
        n_items=int(resolved["n"]),
        p_unans=float(resolved["p_unans"]),
        difficulty_mix=float(resolved["difficulty_mix"]),
        ambiguity=float(resolved["ambiguity"]),
        seed=int(resolved["seed"]),
    )


def _sft_settings(resolved: dict[str, Any]) -> tuple[float, int]:
    """The SFT learning rate and epoch count, checked as ``GrpoConfig``
    checks ``lr`` and ``inner_steps``."""
    lr, epochs = float(resolved["sft_lr"]), int(resolved["sft_epochs"])
    if not math.isfinite(lr):
        raise UsageError(f"sft_lr must be finite, got {lr}")
    if lr < 0.0:
        raise UsageError("sft_lr must be >= 0")
    if epochs < 0:
        raise UsageError("sft_epochs must be >= 0")
    return lr, epochs


def _read_columns(path: str | Path) -> synthenv.ItemColumns:
    """The item columns of the dataset at ``path``; a missing or empty file
    is an input-data error."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset not found: {path}")
    columns = read_columns(path)
    if not columns.ids:
        raise DatasetError(f"dataset is empty: {path}")
    return columns


# a field that holds one of these is quoted: a lone "\r" too, since a reader
# takes a bare one for the end of the row
_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_field(value: object) -> str:
    """``value`` as one CSV field: quoted, its quotes doubled, when it holds
    a comma, a quote or a line break."""
    text = str(value)
    if _CSV_SPECIAL.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    """``header`` then ``rows`` as CSV lines."""
    write_lines(path, (",".join(map(_csv_field, row)) for row in itertools.chain([header], rows)))


def _write_summary_csv(path: Path, ids: Sequence[str], evaluation: Evaluation) -> None:
    """One CSV row per item: its id, then its values, which are formatted
    once per distinct cell, since items with the same cell share them."""
    _, first, inverse = np.unique(evaluation.cell, return_index=True, return_inverse=True)
    columns = (evaluation.rouge1, evaluation.rouge2, evaluation.rouge_l, evaluation.semantic,
               evaluation.em, evaluation.tp, evaluation.fp, evaluation.fn)
    tails = [
        f",{r1:.6f},{r2:.6f},{rl:.6f},{sem:.6f},{int(em)},{tp},{fp},{fn}"
        for r1, r2, rl, sem, em, tp, fp, fn in zip(*(c[first].tolist() for c in columns))
    ]
    # one search of the whole id column: only a column that holds a special
    # character is quoted field by field
    if _CSV_SPECIAL.search("".join(ids)) is not None:
        ids = map(_csv_field, ids)
    lines = (item_id + tails[c] for item_id, c in zip(ids, inverse.tolist()))
    write_lines(path, itertools.chain(["id,r1,r2,rl,sem,em,tp,fp,fn"], lines))


def _evaluate_and_write(params: PolicyParams, table: RewardTable, path: Path) -> EvalReport:
    """Greedy evaluation of ``table``'s items, written to ``path``; its report."""
    evaluation = evaluate_items(params, table)
    _write_summary_csv(path, table.ids, evaluation)
    return summarize_items(evaluation)


def _shown(path: str | Path) -> str:
    """``path`` as a success line prints it and an SVG draws a run's name:
    its bytes that are not UTF-8, which the OS path decoding holds as lone
    surrogates, as U+FFFD, so that a strict UTF-8 stdout takes it."""
    return str(path).encode("utf-8", "surrogateescape").decode("utf-8", "replace")


def _print_report(report: EvalReport) -> None:
    c = report.confusion
    print(
        f"items={report.n_items} mean_reward={report.mean_reward:.4f} "
        f"em_rate={report.em_rate:.4f} abstain_rate={report.abstain_rate:.4f} "
        f"r1={report.rouge1:.4f} r2={report.rouge2:.4f} rl={report.rouge_l:.4f} "
        f"sem={report.semantic:.4f} tp={c.tp} fp={c.fp} fn={c.fn}"
    )


# --- SVG rendering ---------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
# the characters XML 1.0 forbids in a document
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` as XML entities, as
    ``xml.sax.saxutils.escape`` writes them; that module is not imported
    because it pulls in the URL and HTTP client modules."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _polyline(points: list[tuple[float, float]], color: str, dashed: bool = False) -> str:
    if len(points) == 1:
        points = points * 2
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} points="{coords}"/>'


def render_curves_svg(runs: list[tuple[str, TrainLog]]) -> list[str]:
    """The lines of a standalone SVG: learning curves (mean reward solid,
    abstain rate dashed, both on their own vertical scales) plus final
    TP/FP/FN bars per run; a run name's characters that XML forbids show as
    U+FFFD."""
    runs = [(_NOT_XML_CHAR.sub("\ufffd", name), log) for name, log in runs]
    width, height = 960, 700
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        '<text x="70" y="24">mean reward (solid, left scale) and abstain rate '
        "(dashed, 0-1 scale) vs iteration</text>",
    ]
    x0, x1, y0, y1 = 70.0, 930.0, 40.0, 320.0
    max_reward = max(
        (rec.mean_reward for _, log in runs for rec in log.records), default=1.0
    )
    max_reward = max(max_reward, 1e-9)
    max_iter = max((len(log.records) - 1 for _, log in runs), default=1)
    max_iter = max(max_iter, 1)

    def _x(i: int) -> float:
        return x0 + (x1 - x0) * (i / max_iter)

    parts.append(f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    parts.append(f'<text x="{x0 - 60}" y="{y0 + 10}">{max_reward:.2f}</text>')
    parts.append(f'<text x="{x0 - 60}" y="{y1}">0.00</text>')
    parts.append(f'<text x="{x1 - 30}" y="{y1 + 16}">{max_iter}</text>')

    # a record is plotted at its position in the log, which is its iteration
    # in every log train writes
    for idx, (name, log) in enumerate(runs):
        color = _PALETTE[idx % len(_PALETTE)]
        reward_pts = [
            (_x(i), y1 - (y1 - y0) * (rec.mean_reward / max_reward))
            for i, rec in enumerate(log.records)
        ]
        abstain_pts = [
            (_x(i), y1 - (y1 - y0) * rec.abstain_rate) for i, rec in enumerate(log.records)
        ]
        parts.append(_polyline(reward_pts, color))
        parts.append(_polyline(abstain_pts, color, dashed=True))
        parts.append(
            f'<text x="{x0 + 6}" y="{y0 + 16 + 16 * idx}" fill="{color}">'
            f"{_escape(name)}</text>"
        )

    # grouped confusion bars from each run's final record
    bx0, bx1, by0, by1 = 70.0, 930.0, 400.0, 640.0
    parts.append(f'<text x="{bx0}" y="{by0 - 16}">final TP / FP / FN per run</text>')
    parts.append(f'<line x1="{bx0}" y1="{by1}" x2="{bx1}" y2="{by1}" stroke="black"/>')
    finals = [
        (name, log.records[-1] if log.records else None) for name, log in runs
    ]
    max_count = max(
        (max(rec.tp, rec.fp, rec.fn) for _, rec in finals if rec is not None),
        default=1,
    )
    max_count = max(max_count, 1)
    group_width = (bx1 - bx0) / max(len(finals), 1)
    bar_width = min(30.0, group_width / 5)
    bucket_colors = ("#4c9f70", "#d4a017", "#b03a48")
    for j, (name, rec) in enumerate(finals):
        if rec is None:
            continue
        gx = bx0 + j * group_width + group_width / 2
        for k, (label, value) in enumerate((("TP", rec.tp), ("FP", rec.fp), ("FN", rec.fn))):
            h = (by1 - by0) * (value / max_count)
            bx = gx + (k - 1.5) * bar_width
            parts.append(
                f'<rect x="{bx:.2f}" y="{by1 - h:.2f}" width="{bar_width:.2f}" '
                f'height="{h:.2f}" fill="{bucket_colors[k]}"/>'
            )
            parts.append(
                f'<text x="{bx:.2f}" y="{by1 + 14}" font-size="10">{label}:{value}</text>'
            )
        parts.append(
            f'<text x="{gx - group_width / 2 + 4:.2f}" y="{by1 + 30}">'
            f"{_escape(name[:36])}</text>"
        )
    parts.append("</svg>")
    return parts


# --- training driver (shared by train and sweep) ----------------------------------

def _check_run(resolved: dict[str, Any]) -> None:
    """Raise on any bad setting of a run, the SFT ones included, so that a
    run is refused before anything is read or written."""
    _sft_settings(resolved)
    _grpo_config(resolved)
    _variant(resolved)


def _variant(resolved: dict[str, Any]) -> RewardVariant:
    return RewardVariant.from_name(str(resolved["reward_variant"]))


def _cold_start(resolved: dict[str, Any], table: RewardTable | None = None) -> PolicyParams:
    """The policy RL starts from: the SFT fit to the expert cells of the
    ``sft_traces`` file's reward table when that is set, else the zero
    policy.  ``table``, the reward table of ``dataset``, is reused when
    ``sft_traces`` names that file; else the traces file is read into a
    table of its own."""
    if not resolved["sft_traces"]:
        return PolicyParams.zeros()
    sft_lr, sft_epochs = _sft_settings(resolved)
    traces = Path(resolved["sft_traces"])
    if table is None or traces.resolve() != Path(resolved["dataset"]).resolve():
        table = RewardTable(_read_columns(traces))
    cells = table.expert_cells()
    if not len(cells):
        raise DatasetError(f"no usable expert traces in {resolved['sft_traces']}")
    return sft_train(PolicyParams.zeros(), cells, lr=sft_lr, epochs=sft_epochs)


def _table_and_cold_start(resolved: dict[str, Any]) -> tuple[RewardTable, PolicyParams]:
    """The reward table of ``dataset``, its item columns read into it,
    and the policy RL starts from."""
    table = RewardTable(_read_columns(resolved["dataset"]), _variant(resolved))
    return table, _cold_start(resolved, table)


def _train_once(
    table: RewardTable, resolved: dict[str, Any], run_name: str, params0: PolicyParams
) -> EvalReport:
    """RL over ``table`` from ``params0`` and one greedy evaluation, set by
    ``resolved``, which is written to the run directory as config.json once
    training is done: a run that diverges writes nothing."""
    params, log = train_rl(params0, table, _grpo_config(resolved))
    out_dir = Path(resolved["out_dir"])
    # evaluation gathers from the table training read, so nothing is scored again
    report = _evaluate_and_write(params, table, out_dir / "summary.csv")
    write_lines(out_dir / "config.json", [json.dumps(resolved, sort_keys=True, indent=2)])
    log.write(out_dir / "train_log.jsonl")
    write_lines(out_dir / "policy.json", [params.dumps()])
    write_lines(out_dir / "curves.svg", render_curves_svg([(run_name, log)]))
    return report


# --- subcommands -------------------------------------------------------------------

def _cmd_gen(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _GEN_DEFAULTS)
    if resolved["out"] is None:
        raise UsageError("gen requires --out")
    cfg = _gen_config(resolved)
    # the lines are written as they are drawn: the dataset is never held
    write_lines(resolved["out"], iter_lines(cfg))
    n_unans = cfg.n_unanswerable
    print(
        f"wrote {cfg.n_items} items ({n_unans} unanswerable, "
        f"fraction {n_unans / cfg.n_items:.6f}) -> {_shown(resolved['out'])}"
    )
    return EXIT_OK


def _cmd_build_mc(args: argparse.Namespace) -> int:
    resolved = _resolve(
        args, {"in_path": None, "ratio": synthenv.DEFAULT_MC_RATIO, "seed": 0, "out": None}
    )
    if resolved["in_path"] is None or resolved["out"] is None:
        raise UsageError("build-mc requires --in and --out")
    ratio, seed = float(resolved["ratio"]), int(resolved["seed"])
    synthenv.check_mc_settings(ratio, seed)  # before --in is opened
    items = build_abstained_mc(read_mc_sources(resolved["in_path"]), ratio=ratio, seed=seed)
    write_mc_items(items, resolved["out"])
    n_unans = sum(1 for item in items if item.unanswerable)
    print(f"wrote {len(items)} items ({n_unans} unanswerable) -> {_shown(resolved['out'])}")
    return EXIT_OK


def _parse_window(text: str) -> TimeInterval:
    """``--window LO:HI``: two integer years, LO <= HI."""
    try:
        lo, hi = (int(part) for part in text.split(":"))
        return TimeInterval(lo, hi)
    except ValueError:  # not two parts, not integers, or LO > HI
        raise UsageError(f"--window takes LO:HI with integer years LO <= HI, got {text!r}") from None


def _question_interval(window: TimeInterval | None, question: str) -> TimeInterval:
    if window is not None:
        return window
    intervals = retrieval.parse_time_expressions(question)
    if intervals:
        return intervals[0]
    return TimeInterval(YEAR_FLOOR, YEAR_HORIZON)


def _cmd_extract(args: argparse.Namespace) -> int:
    mode = args.mode
    # a flag the command line would ignore is refused before any file is read
    if args.dataset:
        if mode != "kg":
            raise UsageError("--dataset conversion is only available with --mode kg")
        for flag in ("question", "context", "context_file", "window"):
            if getattr(args, flag) is not None:
                raise UsageError(
                    f"--dataset conversion reads only the dataset: drop --{flag.replace('_', '-')}"
                )
        if not args.out:
            raise UsageError("--dataset conversion requires --out")
        # the store is built before --out is written, so a bad record writes nothing
        store = KGStore(
            fact_to_quadruple(fact) for item in iter_dataset(args.dataset) for fact in item.facts
        )
        store.write_jsonl(args.out)
        print(f"wrote {len(store)} quadruples -> {_shown(args.out)}")
        return EXIT_OK

    if args.context is not None and args.context_file is not None:
        raise UsageError("--context and --context-file both give the context: drop one")
    if mode == "kg" and args.window is not None:
        raise UsageError("--mode kg reads no question interval: drop --window")
    window = _parse_window(args.window) if args.window is not None else None
    if not args.question:
        raise UsageError("extract requires --question")
    if not args.context_file and args.context is None:
        raise UsageError("extract requires --context or --context-file")
    context = synthenv.read_text(args.context_file) if args.context_file else args.context

    payload: dict[str, Any] = {"mode": mode, "source": "rules"}
    if mode == "sub-context":
        interval = _question_interval(window, args.question)
        payload["sentences"] = retrieval.extract_time_sentences(interval, context)
    else:
        payload["quadruples"] = [vars(q) for q in quadruples_from_context(args.question, context)]

    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        write_lines(args.out, [text])
        print(f"wrote extraction -> {_shown(args.out)}")
    else:
        print(text)
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _TRAIN_DEFAULTS)
    if not resolved["dataset"] or not resolved["out_dir"]:
        raise UsageError("train requires --dataset and --out-dir")
    _check_run(resolved)
    table, params0 = _table_and_cold_start(resolved)
    report = _train_once(
        table, {**resolved, "command": "train"}, _shown(Path(resolved["out_dir"]).name), params0
    )
    _print_report(report)
    print(f"artifacts -> {_shown(resolved['out_dir'])}")
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    if not args.checkpoint or not args.dataset:
        raise UsageError("eval requires --checkpoint and --dataset")
    variant = RewardVariant.from_name(args.reward_variant)
    checkpoint_path = Path(args.checkpoint)
    if not checkpoint_path.exists():
        raise DatasetError(f"checkpoint not found: {checkpoint_path}")
    try:
        params = PolicyParams.loads(checkpoint_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DatasetError(f"malformed checkpoint {checkpoint_path}: {exc}") from exc
    table = RewardTable(_read_columns(args.dataset), variant)
    _print_report(_evaluate_and_write(params, table, Path(args.out)))
    print(f"wrote per-item metrics -> {_shown(args.out)}")
    return EXIT_OK


# --axis -> (the setting each run sets to one of --values, how a value parses);
# a reward variant is checked with its run
_SWEEP_AXES: dict[str, tuple[str, Callable[[str], Any]]] = {
    "p-unans": ("p_unans", float),
    "beta": ("beta", float),
    "reward-variant": ("reward_variant", str),
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.axis not in _SWEEP_AXES:
        raise UsageError(f"--axis must be one of {tuple(_SWEEP_AXES)}")
    key, parse = _SWEEP_AXES[args.axis]
    values = [parse(v.strip()) for v in args.values.split(",") if v.strip()]
    if len(values) < 2:
        raise UsageError("sweep needs at least 2 values")
    if len(set(values)) != len(values):
        raise UsageError("duplicate sweep values are not allowed")
    if not args.out_dir_sweep:
        raise UsageError("sweep requires --out-dir")

    # only p-unans writes a dataset per run; every other axis shares --dataset
    own_dataset = args.axis == "p-unans"
    resolved = {**_resolve(args, _TRAIN_DEFAULTS), "command": "train"}
    if not own_dataset and not resolved["dataset"]:
        raise UsageError(f"sweep over {args.axis} requires --dataset")
    out_dir = Path(args.out_dir_sweep)
    runs: list[tuple[Any, str, dict[str, Any], GenConfig | None]] = []
    for value in values:
        run_name = f"{args.axis}_{value}"
        run = {**resolved, key: value, "out_dir": str(out_dir / run_name)}
        # --n, --difficulty-mix and --ambiguity are sweep flags, not run
        # settings; every axis checks them, though only p-unans generates
        gen_cfg = _gen_config({**_GEN_DEFAULTS, **vars(args), **run})
        if own_dataset:
            run["dataset"] = str(out_dir / run_name / "dataset.jsonl")
        _check_run(run)
        runs.append((value, run_name, run, gen_cfg if own_dataset else None))

    # no axis changes the cold start: any sweep but p-unans scores the dataset
    # once, with the first run's checked settings, and each run rescores that
    # table under its own variant
    if own_dataset:
        params0 = _cold_start(resolved)
    else:
        shared, params0 = _table_and_cold_start(runs[0][2])
    summary_rows = []
    for value, run_name, run, gen_cfg in runs:
        if gen_cfg is not None:
            # as gen then train: the lines stream into the run's file, and
            # its columns are read back out of it into the table
            write_lines(run["dataset"], iter_lines(gen_cfg))
            table = RewardTable(_read_columns(run["dataset"]), _variant(run))
        else:
            table = shared.with_variant(_variant(run))
        report = _train_once(table, run, run_name, params0)
        c = report.confusion
        summary_rows.append(
            [
                args.axis,
                value,
                f"{report.mean_reward:.6f}",
                f"{report.abstain_rate:.6f}",
                f"{report.em_rate:.6f}",
                c.tp,
                c.fp,
                c.fn,
            ]
        )
        print(f"run {run_name}: mean_reward={report.mean_reward:.4f} "
              f"abstain_rate={report.abstain_rate:.4f} tp={c.tp} fp={c.fp} fn={c.fn}")

    summary_path = out_dir / "sweep_summary.csv"
    _write_csv(
        summary_path,
        ["axis", "value", "mean_reward", "abstain_rate", "em_rate", "tp", "fp", "fn"],
        summary_rows,
    )
    print(f"sweep summary -> {_shown(summary_path)}")
    return EXIT_OK


def _aggregate_row(name: str, log: TrainLog) -> list:
    """A run's row of aggregate.csv; a run with no records leaves the final
    columns empty."""
    if not log.records:
        return [name, 0, "", "", "", "", ""]
    final = log.records[-1]
    return [
        name,
        len(log.records),
        f"{final.mean_reward:.6f}",
        f"{final.abstain_rate:.6f}",
        final.tp,
        final.fp,
        final.fn,
    ]


def _cmd_report(args: argparse.Namespace) -> int:
    run_dirs = [Path(p) for p in args.runs]
    runs: list[tuple[str, TrainLog]] = []
    for run_dir in run_dirs:
        log_path = run_dir / "train_log.jsonl"
        if not log_path.exists():
            raise DatasetError(f"missing train log: {log_path}")
        runs.append((_shown(run_dir.name), TrainLog.read(log_path)))
    out_dir = Path(args.out_dir)
    write_lines(out_dir / "curves.svg", render_curves_svg(runs))
    _write_csv(
        out_dir / "aggregate.csv",
        ["run", "iterations", "final_mean_reward", "final_abstain_rate", "tp", "fp", "fn"],
        (_aggregate_row(name, log) for name, log in runs),
    )
    print(f"report -> {_shown(out_dir / 'curves.svg')} and {_shown(out_dir / 'aggregate.csv')}")
    return EXIT_OK


# --- parser ------------------------------------------------------------------------

def _add_flags(parser: argparse.ArgumentParser, defaults: dict[str, Any]) -> None:
    """One flag per key of ``defaults``, typed as its default (a path where
    the default is None), then ``--config``; the defaults apply in
    ``_resolve``."""
    for key, default in defaults.items():
        parser.add_argument(
            "--" + key.replace("_", "-"),
            dest=key,
            type=str if default is None else type(default),
            help=(
                "dataset JSONL; expert traces are derived from it and filtered for correctness"
                if key == "sft_traces"
                else None
            ),
        )
    parser.add_argument("--config", type=str)


def _gen_flags(p: argparse.ArgumentParser) -> None:
    _add_flags(p, _GEN_DEFAULTS)
    p.set_defaults(handler=_cmd_gen)


def _build_mc_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="in_path", type=str)
    p.add_argument("--ratio", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=str)
    p.add_argument("--config", type=str)
    p.set_defaults(handler=_cmd_build_mc)


def _extract_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("sub-context", "kg"), default="sub-context")
    p.add_argument("--question", type=str)
    p.add_argument("--context", type=str)
    p.add_argument("--context-file", dest="context_file", type=str)
    p.add_argument("--dataset", type=str, help="convert dataset facts to a KG store")
    p.add_argument("--window", type=str, help="question interval as LO:HI years")
    p.add_argument("--out", type=str)
    p.set_defaults(handler=_cmd_extract)


def _train_flags(p: argparse.ArgumentParser) -> None:
    _add_flags(p, _TRAIN_DEFAULTS)
    p.set_defaults(handler=_cmd_train)


def _eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", type=str)
    p.add_argument("--dataset", type=str)
    p.add_argument("--reward-variant", dest="reward_variant", type=str, default=DEFAULT_VARIANT.value)
    p.add_argument("--out", type=str, default="summary.csv")
    p.set_defaults(handler=_cmd_eval)


def _sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--axis", type=str, required=True)
    p.add_argument("--values", type=str, required=True)
    # sweep's --out-dir is the parent of its run directories
    p.add_argument("--out-dir", dest="out_dir_sweep", type=str)
    for key in ("n", "difficulty_mix", "ambiguity"):  # argparse defaults, not config keys
        default = _GEN_DEFAULTS[key]
        p.add_argument(
            "--" + key.replace("_", "-"), dest=key, type=type(default), default=default
        )
    _add_flags(p, {key: v for key, v in _TRAIN_DEFAULTS.items() if key != "out_dir"})
    p.set_defaults(handler=_cmd_sweep)


def _report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out-dir", dest="out_dir", type=str, default="report")
    p.set_defaults(handler=_cmd_report)


# each subcommand's help line and the function that adds its flags
_SUBCOMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None]]] = {
    "gen": ("generate a synthetic temporal-QA dataset", _gen_flags),
    "build-mc": ("build the abstained 3-option MC dataset", _build_mc_flags),
    "extract": ("rule-based reasoning-information extraction", _extract_flags),
    "train": ("SFT cold start (optional) plus RL training", _train_flags),
    "eval": ("greedy evaluation of a checkpoint", _eval_flags),
    "sweep": ("train/eval once per value of one axis", _sweep_flags),
    "report": ("learning-curve SVG and aggregate CSV from run dirs", _report_flags),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, each with its flags; given
    ``command``, only that subcommand's flags are added, which is all a
    command line naming it reads."""
    parser = argparse.ArgumentParser(
        prog="abstainrl",
        description="Abstention-aware temporal-QA training harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command is None or command == name:
            add_flags(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top-level parser takes no option with a value, so its first
    # argument that is not an option names the subcommand, if any
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = build_parser(named)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return int(args.handler(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DatasetError as exc:
        print(f"input-data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # a missing path, a directory given as a file, ...
        print(f"input-data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
