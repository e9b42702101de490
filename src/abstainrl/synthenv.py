"""Synthetic temporal-QA generation and the abstained multiple-choice
dataset builder.

Every generated item is consistent by construction: the gold answer equals
what the answerability oracle derives from the item's facts and time
specifier.  The observable context feature may hide the true evidence signal
(collapsing it to "no evidence") with a configurable probability, which is
what makes abstention a genuine decision problem for the policy.
"""

from __future__ import annotations

import enum
import errno
import json
import math
import os
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TypeVar

import numpy as np

from abstainrl.policy import ContextFeature, Difficulty, Evidence
from abstainrl.textmetrics import GoldAnswer, normalize_text

YEAR_FLOOR = 1800
YEAR_HORIZON = 2100

# Fraction of unanswerable items whose facts conflict (the rest have no
# fact in the queried window).  Tests derive closed-form reward oracles
# from this constant, so keep it in sync with _generate_item.
CONTRADICT_FRACTION = 0.5

_T = TypeVar("_T")


class DatasetError(ValueError):
    """Raised for malformed dataset files or invalid source records."""


# Decoding with errors="surrogateescape" turns each byte that is not part of
# valid UTF-8 into one of these code points, which valid UTF-8 never yields.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")
# Any surrogate code point: JSON's escape "\ud800" decodes to one, and UTF-8
# cannot encode it, so no artifact could write a text that holds it.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _require_utf8(path: str | Path, text: str, lineno: int = 1) -> None:
    """Raise ``DatasetError`` naming ``path:line`` if ``text`` (``path``
    from line ``lineno`` on, decoded with errors="surrogateescape") holds a
    byte that is not UTF-8."""
    bad = None if text.isascii() else _NOT_UTF8.search(text)
    if bad is not None:
        line = lineno + text.count("\n", 0, bad.start())
        raise DatasetError(f"{path}:{line}: not valid UTF-8")


def read_text(path: str | Path) -> str:
    """The UTF-8 text file at ``path``; bytes that are not UTF-8 raise
    ``DatasetError`` naming ``path:line``."""
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    _require_utf8(path, text)
    return text


def read_records(
    path: str | Path, kind: str, parse: Callable[[dict], _T]
) -> Iterator[_T]:
    """Yield ``parse(record)`` for each non-blank line of the UTF-8
    JSON-Lines file at ``path``, line by line.  Bytes that are not UTF-8,
    invalid JSON and a value that is not a JSON object raise
    ``DatasetError`` naming ``path:line``, as do a ``KeyError`` from
    ``parse`` (``bad <kind> record: missing field 'x'``) and a
    ``ValueError`` (``bad <kind> record: <message>``)."""
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            _require_utf8(path, line, lineno)
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
                raise DatasetError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                if type(record) is not dict:
                    _json_object(record, "record")
                value = parse(record)
            except KeyError as exc:
                raise DatasetError(
                    f"{path}:{lineno}: bad {kind} record: missing field {exc.args[0]!r}"
                ) from exc
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: bad {kind} record: {exc}") from exc
            yield value


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each of ``lines`` and a newline to ``path`` (UTF-8), creating
    its parent directories.  The lines stream into a temporary file beside
    ``path`` that then replaces it, so a process that fails or is interrupted
    part-way leaves the previous file intact; nothing is fsynced, so this is
    no guard against power loss.  The file gets the mode a plain ``open``
    gives (0o666 less the umask).  A ``path`` that is a directory raises
    ``IsADirectoryError`` before a line is written, not once ``os.replace``
    refuses it."""
    path = Path(path)
    if path.is_dir() and not path.is_symlink():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: Iterable[object]) -> None:
    """Write one sorted-key JSON value per line, through ``write_lines``."""
    write_lines(path, (json.dumps(record, sort_keys=True) for record in records))


@dataclass(frozen=True)
class TimeInterval:
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} exceeds end {self.end}")

    def intersects(self, lo: int, hi: int) -> bool:
        return self.start <= hi and self.end >= lo


# Slotted, as is SynthQAItem: a parsed dataset holds one per record, and a
# per-instance __dict__ would be a large share of its memory.
@dataclass(frozen=True, slots=True)
class TemporalFact:
    subject: str
    relation: str
    obj: str
    scope: TimeInterval

    def __post_init__(self) -> None:
        if not self.subject or not self.relation or not self.obj:
            raise ValueError("facts need non-empty subject, relation, and object")


class SpecKind(enum.Enum):
    IN_YEAR = "in_year"
    BETWEEN = "between"
    AFTER = "after"
    BEFORE = "before"
    EARLY_DECADE = "early_decade"


_EASY_KINDS = (SpecKind.IN_YEAR, SpecKind.BETWEEN)
_HARD_KINDS = (SpecKind.AFTER, SpecKind.BEFORE, SpecKind.EARLY_DECADE)


@dataclass(frozen=True)
class TimeSpecifier:
    kind: SpecKind
    years: tuple[int, ...]

    def __post_init__(self) -> None:
        expected = 2 if self.kind is SpecKind.BETWEEN else 1
        if len(self.years) != expected:
            raise ValueError(f"{self.kind.value} takes {expected} year(s)")
        if self.kind is SpecKind.BETWEEN and self.years[0] > self.years[1]:
            raise ValueError("between requires a <= b")

    @classmethod
    def in_year(cls, y: int) -> "TimeSpecifier":
        return cls(SpecKind.IN_YEAR, (y,))

    @classmethod
    def between(cls, a: int, b: int) -> "TimeSpecifier":
        return cls(SpecKind.BETWEEN, (a, b))

    @classmethod
    def after(cls, y: int) -> "TimeSpecifier":
        return cls(SpecKind.AFTER, (y,))

    @classmethod
    def before(cls, y: int) -> "TimeSpecifier":
        return cls(SpecKind.BEFORE, (y,))

    @classmethod
    def early_decade(cls, d: int) -> "TimeSpecifier":
        return cls(SpecKind.EARLY_DECADE, (d,))

    @property
    def difficulty(self) -> Difficulty:
        return Difficulty.EASY if self.kind in _EASY_KINDS else Difficulty.HARD

    def window(self) -> tuple[int, int]:
        """The inclusive year range a fact scope must intersect to match."""
        if self.kind is SpecKind.IN_YEAR:
            return self.years[0], self.years[0]
        if self.kind is SpecKind.BETWEEN:
            return self.years
        if self.kind is SpecKind.AFTER:
            return self.years[0] + 1, YEAR_HORIZON
        if self.kind is SpecKind.BEFORE:
            return YEAR_FLOOR, self.years[0] - 1
        return self.years[0], self.years[0] + 3

    def phrase(self) -> str:
        if self.kind is SpecKind.IN_YEAR:
            return f"in {self.years[0]}"
        if self.kind is SpecKind.BETWEEN:
            return f"from {self.years[0]} to {self.years[1]}"
        if self.kind is SpecKind.AFTER:
            return f"after {self.years[0]}"
        if self.kind is SpecKind.BEFORE:
            return f"before {self.years[0]}"
        return f"in the early {self.years[0]}s"


@dataclass(frozen=True, slots=True)
class SynthQAItem:
    id: str
    question: str
    facts: tuple[TemporalFact, ...]
    specifier: TimeSpecifier
    gold: GoldAnswer
    candidate_a: str
    candidate_b: str
    feature: ContextFeature


@dataclass(frozen=True)
class GenConfig:
    n_items: int = 200
    p_unans: float = 0.124
    difficulty_mix: float = 0.5
    ambiguity: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_items < 1:
            raise ValueError("n_items must be >= 1")
        for name in ("p_unans", "difficulty_mix", "ambiguity"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


def answerability_oracle(
    facts: Iterable[TemporalFact], specifier: TimeSpecifier
) -> GoldAnswer:
    """Gold answer implied by the facts: the unique object whose scope matches
    the specifier window, or No-Answer when there is none or the matching
    objects conflict."""
    lo, hi = specifier.window()
    objects: list[str] = []
    for fact in facts:
        if fact.scope.intersects(lo, hi) and fact.obj not in objects:
            objects.append(fact.obj)
    if len(objects) == 1:
        return GoldAnswer.of(objects[0])
    return GoldAnswer.no_answer()


# Relation templates and object banks.  Entries within a bank are pairwise
# token-disjoint so a wrong candidate scores zero lexical overlap against
# the gold -- the closed-form reward oracles in the tests rely on that.
_RELATIONS = ("team", "position", "employer", "residence")

_QUESTION_TEMPLATES = {
    "team": "Which team did {s} play for {t}?",
    "position": "Which position did {s} hold {t}?",
    "employer": "Which company employed {s} {t}?",
    "residence": "Where did {s} live {t}?",
}

_OBJECT_BANKS = {
    "team": (
        "Caldera Wanderers",
        "Brightwater Athletic",
        "Ironvale Rangers",
        "Maplecrest United",
        "Seabrook Rovers",
        "Thornfield Albion",
    ),
    "position": (
        "Chief Engineer",
        "Deputy Curator",
        "Regional Treasurer",
        "Senior Archivist",
        "Provincial Magistrate",
        "Harbor Master",
    ),
    "employer": (
        "Veridian Mills",
        "Northgate Foundry",
        "Atlas Cartography",
        "Pembroke Instruments",
        "Solway Telegraph",
        "Kestrel Shipping",
    ),
    "residence": (
        "Ashford",
        "Belmore",
        "Corvale",
        "Dunmere",
        "Eastwick",
        "Farrowgate",
    ),
}

_FIRST_NAMES = (
    "Alma", "Boris", "Carla", "Devan", "Edna", "Farid",
    "Greta", "Hugo", "Iris", "Jonas", "Kira", "Lionel",
)
_LAST_NAMES = (
    "Arkwright", "Bellamy", "Cormier", "Dantas", "Eriksen", "Falk",
    "Giroux", "Hartman", "Ibarra", "Jansen", "Kovacs", "Lindqvist",
)


def _pick(rng: np.random.Generator, bank: Sequence[str]) -> str:
    return bank[int(rng.integers(0, len(bank)))]


def _pick_other(rng: np.random.Generator, bank: Sequence[str], taken: str) -> str:
    taken_tokens = set(normalize_text(taken))
    while True:
        candidate = _pick(rng, bank)
        if candidate != taken and not (set(normalize_text(candidate)) & taken_tokens):
            return candidate


def _make_specifier(rng: np.random.Generator, hard: bool) -> TimeSpecifier:
    base = int(rng.integers(1880, 2020))
    if not hard:
        kind = _EASY_KINDS[int(rng.integers(0, len(_EASY_KINDS)))]
        if kind is SpecKind.IN_YEAR:
            return TimeSpecifier.in_year(base)
        return TimeSpecifier.between(base, base + int(rng.integers(0, 5)))
    kind = _HARD_KINDS[int(rng.integers(0, len(_HARD_KINDS)))]
    if kind is SpecKind.AFTER:
        return TimeSpecifier.after(base)
    if kind is SpecKind.BEFORE:
        return TimeSpecifier.before(base)
    return TimeSpecifier.early_decade((base // 10) * 10)


def _scope_through(rng: np.random.Generator, lo: int, hi: int) -> TimeInterval:
    """A fact scope intersecting [lo, hi], anchored near the bounded side of
    open-ended windows so generated years stay plausible."""
    if hi >= YEAR_HORIZON:
        a_lo, a_hi = lo, lo + 8
    elif lo <= YEAR_FLOOR:
        a_lo, a_hi = hi - 8, hi
    else:
        a_lo, a_hi = lo, hi
    anchor = int(rng.integers(a_lo, a_hi + 1))
    start = max(YEAR_FLOOR, anchor - int(rng.integers(0, 5)))
    end = min(YEAR_HORIZON, anchor + int(rng.integers(0, 5)))
    return TimeInterval(start, end)


def _scope_outside(rng: np.random.Generator, lo: int, hi: int) -> TimeInterval:
    """A fact scope strictly disjoint from [lo, hi]."""
    length = int(rng.integers(1, 7))
    if lo - 2 - length >= YEAR_FLOOR:
        return TimeInterval(lo - 2 - length, lo - 2)
    return TimeInterval(hi + 2, hi + 2 + length)


def _generate_item(
    rng: np.random.Generator, item_id: str, unanswerable: bool, cfg: GenConfig
) -> SynthQAItem:
    hard = bool(rng.random() < cfg.difficulty_mix)
    specifier = _make_specifier(rng, hard)
    lo, hi = specifier.window()

    subject = f"{_pick(rng, _FIRST_NAMES)} {_pick(rng, _LAST_NAMES)}"
    relation = _RELATIONS[int(rng.integers(0, len(_RELATIONS)))]
    bank = _OBJECT_BANKS[relation]
    question = _QUESTION_TEMPLATES[relation].format(s=subject, t=specifier.phrase())

    facts: list[TemporalFact] = []
    if not unanswerable:
        gold_obj = _pick(rng, bank)
        distractor = _pick_other(rng, bank, gold_obj)
        facts.append(TemporalFact(subject, relation, gold_obj, _scope_through(rng, lo, hi)))
        if rng.random() < 0.5:
            facts.append(
                TemporalFact(subject, relation, distractor, _scope_outside(rng, lo, hi))
            )
        gold = GoldAnswer.of(gold_obj)
        evidence = Evidence.SUPPORTS
        if rng.random() < 0.5:
            candidate_a, candidate_b = gold_obj, distractor
        else:
            candidate_a, candidate_b = distractor, gold_obj
    else:
        obj_one = _pick(rng, bank)
        obj_two = _pick_other(rng, bank, obj_one)
        if rng.random() < CONTRADICT_FRACTION:
            facts.append(TemporalFact(subject, relation, obj_one, _scope_through(rng, lo, hi)))
            facts.append(TemporalFact(subject, relation, obj_two, _scope_through(rng, lo, hi)))
            evidence = Evidence.CONTRADICTS
        else:
            for obj in (obj_one, obj_two)[: int(rng.integers(0, 3))]:
                facts.append(TemporalFact(subject, relation, obj, _scope_outside(rng, lo, hi)))
            evidence = Evidence.NO_EVIDENCE
        gold = GoldAnswer.no_answer()
        candidate_a, candidate_b = obj_one, obj_two

    observed = Evidence.NO_EVIDENCE if rng.random() < cfg.ambiguity else evidence
    feature = ContextFeature(observed, Difficulty.HARD if hard else Difficulty.EASY)

    return SynthQAItem(
        id=item_id,
        question=question,
        facts=tuple(facts),
        specifier=specifier,
        gold=gold,
        candidate_a=candidate_a,
        candidate_b=candidate_b,
        feature=feature,
    )


def generate_dataset(cfg: GenConfig) -> list[SynthQAItem]:
    """Deterministic dataset with exactly round(n_items * p_unans) unanswerable items."""
    rng = np.random.default_rng(cfg.seed)
    n_unans = int(round(cfg.n_items * cfg.p_unans))
    flags = [True] * n_unans + [False] * (cfg.n_items - n_unans)
    rng.shuffle(flags)
    return [
        _generate_item(rng, f"q{i:05d}", flag, cfg) for i, flag in enumerate(flags)
    ]


# --- JSON-Lines serialization -------------------------------------------------

def item_to_dict(item: SynthQAItem) -> dict:
    return {
        "id": item.id,
        "question": item.question,
        "specifier": {"kind": item.specifier.kind.value, "years": list(item.specifier.years)},
        "facts": [
            {
                "subject": f.subject,
                "relation": f.relation,
                "object": f.obj,
                "start": f.scope.start,
                "end": f.scope.end,
            }
            for f in item.facts
        ],
        "gold": list(item.gold.aliases) if not item.gold.is_no_answer else None,
        "candidates": [item.candidate_a, item.candidate_b],
        "feature": {
            "evidence": item.feature.evidence.value,
            "difficulty": item.feature.difficulty.value,
        },
    }


def _json_list(value: object, where: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list, got {value!r}")
    return value


def _json_str(value: object, where: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{where} must be a string, got {value!r}")
    return value


def _json_int(value: object, where: str) -> int:
    # bool is an int subclass, but never a year
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return value


def _json_object(value: object, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {value!r}")
    return value


def _json_text(value: object, where: str) -> str:
    """``value``, if it is a string that UTF-8 can encode: one that holds no
    lone surrogate."""
    text = _json_str(value, where)
    if not text.isascii() and _SURROGATE.search(text):
        raise ValueError(f"{where} must not hold a lone surrogate, got {text!r}")
    return text


class _DatasetParts:
    """The value parts one ``read_dataset`` call has built, each keyed by its
    JSON content: specifiers by (kind, *years), golds by their aliases
    (``None`` for No-Answer), features by (evidence, difficulty) and fact
    scopes by (start, end).  ``texts`` maps each fact subject, relation and
    object, candidate and gold alias to the first equal string read, so a
    text that repeats across records is one object, checked once.  Ids and
    questions are not kept: almost none repeat."""

    __slots__ = ("specifiers", "golds", "features", "scopes", "texts")

    def __init__(self) -> None:
        self.specifiers: dict[tuple, TimeSpecifier] = {}
        self.golds: dict[tuple[str, ...] | None, GoldAnswer] = {}
        self.features: dict[tuple[str, str], ContextFeature] = {}
        self.scopes: dict[tuple[int, int], TimeInterval] = {}
        self.texts: dict[str, str] = {}

    def text(self, value: object, where: str) -> str:
        """The first-read string equal to ``value``; ``_json_text``'s checks
        run once per distinct text."""
        if type(value) is not str:
            _json_str(value, where)
        shared = self.texts.get(value)
        if shared is None:
            shared = self.texts[value] = _json_text(value, where)
        return shared


def item_from_dict(payload: dict, parts: _DatasetParts) -> SynthQAItem:
    """Inverse of ``item_to_dict``.  Texts must be strings that UTF-8 can
    encode (no lone surrogate) and years integers; ValueError names the
    first field that breaks this, and KeyError the first missing one.

    A specifier, gold, feature, fact scope or text whose JSON content
    ``parts`` holds is that object, not a new one.  A key is looked up only
    once its values have exactly the accepted JSON types, since ``true == 1``
    and ``1990.0 == 1990`` hash alike; any other value takes the checks
    below, which raise.  Fields are checked in one fixed order, so a record
    with several faults always reports the same one.
    """
    # each ``if type(x) is not T: _json_t(x, ...)`` raises: JSON decoding
    # yields no subclass of str, int, list or dict
    spec_json = payload["specifier"]
    if type(spec_json) is not dict:
        _json_object(spec_json, "specifier")
    years = spec_json["years"]
    if type(years) is not list:
        _json_list(years, "specifier years")
    kind = spec_json["kind"]
    if type(kind) is str and all(type(y) is int for y in years):
        key = (kind, *years)
        spec = parts.specifiers.get(key)
        if spec is None:
            spec = parts.specifiers[key] = TimeSpecifier(SpecKind(kind), key[1:])
    else:
        spec = TimeSpecifier(SpecKind(kind), tuple(_json_int(y, "specifier year") for y in years))

    facts_json = payload["facts"]
    if type(facts_json) is not list:
        _json_list(facts_json, "facts")
    scopes = parts.scopes
    text = parts.text
    facts = []
    for f in facts_json:
        if type(f) is not dict:
            _json_object(f, "fact")
        subject = text(f["subject"], "fact subject")
        relation = text(f["relation"], "fact relation")
        obj = text(f["object"], "fact object")
        start = f["start"]
        if type(start) is not int:
            _json_int(start, "fact start")
        end = f["end"]
        if type(end) is not int:
            _json_int(end, "fact end")
        scope = scopes.get((start, end))
        if scope is None:
            scope = scopes[start, end] = TimeInterval(start, end)
        facts.append(TemporalFact(subject, relation, obj, scope))

    aliases = payload["gold"]
    if aliases is None or (type(aliases) is list and all(type(a) is str for a in aliases)):
        key = aliases if aliases is None else tuple(aliases)
        gold = parts.golds.get(key)
        if gold is None:
            gold = parts.golds[key] = (
                GoldAnswer.no_answer()
                if key is None
                else GoldAnswer.of(*[text(a, "gold alias") for a in key])
            )
    else:
        gold = GoldAnswer.of(*_json_list(aliases, "gold"))

    feature_json = payload["feature"]
    if type(feature_json) is not dict:
        _json_object(feature_json, "feature")
    evidence = feature_json["evidence"]
    difficulty = feature_json.get("difficulty")
    if type(evidence) is str and type(difficulty) is str:
        key = (evidence, difficulty)
        feature = parts.features.get(key)
        if feature is None:
            feature = parts.features[key] = ContextFeature(
                Evidence(evidence), Difficulty(difficulty)
            )
    else:
        feature = ContextFeature(Evidence(evidence), Difficulty(feature_json["difficulty"]))

    candidates = payload["candidates"]
    if type(candidates) is not list:
        _json_list(candidates, "candidates")
    candidates = [text(candidate, "candidate") for candidate in candidates]
    if len(candidates) != 2:
        raise ValueError(f"candidates must hold two options, got {len(candidates)}")
    # an ASCII string holds no surrogate; any other value takes the checks
    item_id = payload["id"]
    if type(item_id) is not str or not item_id.isascii():
        _json_text(item_id, "id")
    question = payload["question"]
    if type(question) is not str or not question.isascii():
        _json_text(question, "question")
    return SynthQAItem(
        id=item_id,
        question=question,
        facts=tuple(facts),
        specifier=spec,
        gold=gold,
        candidate_a=candidates[0],
        candidate_b=candidates[1],
        feature=feature,
    )


def write_dataset(items: Iterable[SynthQAItem], path: str | Path) -> None:
    write_jsonl(path, map(item_to_dict, items))


def read_dataset(path: str | Path) -> list[SynthQAItem]:
    """The items of the dataset file at ``path``.  Equal specifiers, golds,
    features, fact scopes and texts other than ids and questions within the
    file are one shared object.  A record that is not a JSON object, lacks a
    field, holds a value of another type or a text with a lone surrogate
    raises ``DatasetError`` naming ``path:line`` and the field."""
    parts = _DatasetParts()
    return list(read_records(path, "dataset", lambda record: item_from_dict(record, parts)))


# --- Abstained multiple-choice construction ------------------------------------

_MC_LABELS = ("A", "B", "C", "D")
DEFAULT_MC_RATIO = 0.12  # of the records made unanswerable


@dataclass(frozen=True)
class MCSourceRecord:
    question: str
    options: tuple[str, str, str, str]
    answer_key: str

    def __post_init__(self) -> None:
        if len(self.options) != 4:
            raise DatasetError(f"source record needs exactly 4 options, got {len(self.options)}")
        if self.answer_key not in _MC_LABELS:
            raise DatasetError(f"answer key must be one of {_MC_LABELS}, got {self.answer_key!r}")


# written as vars(item): that holds exactly the fields only while there is no cached_property
@dataclass(frozen=True)
class MCItem:
    question: str
    options: tuple[str, str, str]
    answer_key: str
    unanswerable: bool


def build_abstained_mc(
    records: Sequence[MCSourceRecord], ratio: float = DEFAULT_MC_RATIO, seed: int = 0
) -> list[MCItem]:
    """Standardize 4-option records to 3 options, making floor(ratio * N) of
    them unanswerable by deleting their correct option and relabeling the
    answer to the placeholder key D."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must lie in [0, 1], got {ratio}")
    records = list(records)
    rng = np.random.default_rng(seed)
    n_unans = math.floor(ratio * len(records))
    selected = set(rng.choice(len(records), size=n_unans, replace=False).tolist()) if records else set()
    out: list[MCItem] = []
    for i, rec in enumerate(records):
        correct = _MC_LABELS.index(rec.answer_key)
        if i in selected:
            kept = [opt for j, opt in enumerate(rec.options) if j != correct]
            out.append(MCItem(rec.question, tuple(kept), "D", True))
        else:
            wrong = [j for j in range(4) if j != correct]
            drop = wrong[int(rng.integers(0, len(wrong)))]
            kept_idx = [j for j in range(4) if j != drop]
            kept = [rec.options[j] for j in kept_idx]
            new_key = _MC_LABELS[kept_idx.index(correct)]
            out.append(MCItem(rec.question, tuple(kept), new_key, False))
    return out


def mc_source_from_dict(payload: dict) -> MCSourceRecord:
    """A source record from its JSON object: a string question, a list of
    exactly four string options and a string answer key."""
    options = _json_list(payload["options"], "options")
    return MCSourceRecord(
        question=_json_str(payload["question"], "question"),
        options=tuple(_json_str(option, "option") for option in options),
        answer_key=_json_str(payload["answer_key"], "answer_key"),
    )


def read_mc_sources(path: str | Path) -> list[MCSourceRecord]:
    return list(read_records(path, "multiple-choice source", mc_source_from_dict))


def write_mc_items(items: Iterable[MCItem], path: str | Path) -> None:
    write_jsonl(path, map(vars, items))
