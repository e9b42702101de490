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
import functools
import itertools
import json
import math
import os
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple, TypeVar

import numpy as np

from abstainrl.policy import ContextFeature, Difficulty, Evidence
from abstainrl.textmetrics import GoldAnswer, normalize_text

YEAR_FLOOR = 1800
YEAR_HORIZON = 2100

# Fraction of unanswerable items whose facts conflict (the rest have no
# fact in the queried window).  Tests derive closed-form reward oracles
# from this constant, so keep it in sync with iter_lines.
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


def _parsed(path: str | Path, lineno: int, line: str, kind: str, parse: Callable[[dict], _T]) -> _T:
    """``parse`` of the record on line ``lineno`` of ``path``, a non-blank
    ``line``.  Invalid JSON and a value that is not a JSON object raise
    ``DatasetError`` naming ``path:line``, as do a ``KeyError`` from
    ``parse`` (``bad <kind> record: missing field 'x'``) and a
    ``ValueError`` (``bad <kind> record: <message>``)."""
    try:
        record = json.loads(line)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
        raise DatasetError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    try:
        if type(record) is not dict:
            _json_object(record, "record")
        return parse(record)
    except KeyError as exc:
        raise DatasetError(
            f"{path}:{lineno}: bad {kind} record: missing field {exc.args[0]!r}"
        ) from exc
    except ValueError as exc:
        raise DatasetError(f"{path}:{lineno}: bad {kind} record: {exc}") from exc


def read_records(path: str | Path, kind: str, parse: Callable[[dict], _T]) -> Iterator[_T]:
    """Yield ``parse(record)`` for each non-blank line of the UTF-8
    JSON-Lines file at ``path``, line by line.  Bytes that are not UTF-8
    raise ``DatasetError`` naming ``path:line``, and so does each fault
    ``_parsed`` names."""
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                _require_utf8(path, line, lineno)
            if line.strip():
                yield _parsed(path, lineno, line, kind, parse)


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


# Slotted, as are TemporalFact, TimeSpecifier and SynthQAItem: a parsed
# dataset holds one per record or fact, and a per-instance __dict__ would be
# a large share of its memory.
@dataclass(frozen=True, slots=True)
class TimeInterval:
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} exceeds end {self.end}")

    def intersects(self, lo: int, hi: int) -> bool:
        return self.start <= hi and self.end >= lo


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


@dataclass(frozen=True, slots=True)
class TimeSpecifier:
    kind: SpecKind
    years: tuple[int, ...]

    def __post_init__(self) -> None:
        expected = 2 if self.kind is SpecKind.BETWEEN else 1
        if len(self.years) != expected:
            raise ValueError(f"{self.kind.value} takes {expected} year(s)")
        if self.kind is SpecKind.BETWEEN and self.years[0] > self.years[1]:
            raise ValueError("between requires a <= b")

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


class ItemHead(NamedTuple):
    """The fields of a ``SynthQAItem`` that training and evaluation read:
    ``ItemColumns.heads`` holds one per content row."""

    id: str
    feature: ContextFeature
    gold: GoldAnswer
    candidate_a: str
    candidate_b: str


class ItemColumns(NamedTuple):
    """The items of a dataset as the columns ``grpo.RewardTable`` reads, in
    item order, as ``read_columns`` fills them: ``ids``, ``features`` (each
    item's feature row index) and ``row``, its content row.  An item's
    completions depend only on its two candidates, and the rule-based
    reward only on a completion and the gold, so items with the same
    (candidate_a, candidate_b, gold) share a content row, numbered in
    first-seen order; ``heads`` holds the head of each row's first item."""

    ids: list[str]
    features: list[int]
    row: list[int]
    heads: list[ItemHead]


@dataclass(frozen=True)
class GenConfig:
    n: int = 200
    p_unans: float = 0.124
    difficulty_mix: float = 0.5
    ambiguity: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for name in ("p_unans", "difficulty_mix", "ambiguity"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def n_unanswerable(self) -> int:
        """The number of items with a No-Answer gold: round(n * p_unans)."""
        return int(round(self.n * self.p_unans))


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


# Each bank entry's tokens, made once: the generator reuses them for every item.
_TOKENS = {
    obj: frozenset(normalize_text(obj)) for bank in _OBJECT_BANKS.values() for obj in bank
}


def _spelled(text: str) -> str:
    """``text`` as ``json.dumps`` spells it, quotes included.  Each text a
    generated line holds is spelled from constants spelled by this once, at
    import; each must be non-empty, as ``TemporalFact`` requires of a
    fact's texts.  JSON escapes character by character, so a text made by
    joining spelled parts is spelled as the joined text would be."""
    if not text:
        raise ValueError("a generated text must be non-empty")
    return encode_basestring_ascii(text)


# The texts of a generated line, spelled once: names without their quotes
# (a subject is two of them, and it is also a part of its question), the
# rest with them.  A question template keeps its {s} and {t} fields.
_FIRST_SPELLED = tuple(_spelled(name)[1:-1] for name in _FIRST_NAMES)
_LAST_SPELLED = tuple(_spelled(name)[1:-1] for name in _LAST_NAMES)
_RELATION_SPELLED = tuple(_spelled(relation) for relation in _RELATIONS)
_QUESTION_SPELLED = tuple(_spelled(_QUESTION_TEMPLATES[relation]) for relation in _RELATIONS)
_OBJECT_SPELLED = {obj: _spelled(obj) for obj in _TOKENS}
_KIND_SPELLED = {kind: _spelled(kind.value) for kind in SpecKind}
# each evidence's feature, easy then hard
_FEATURE_SPELLED = {
    evidence: tuple(
        f'{{"difficulty": {_spelled(difficulty.value)}, "evidence": {_spelled(evidence.value)}}}'
        for difficulty in (Difficulty.EASY, Difficulty.HARD)
    )
    for evidence in Evidence
}

# 64-bit words a _Draws reads from its generator at once (8 KiB); a
# 1000-item dataset takes nine blocks
_WORD_BLOCK = 1024


class _Draws:
    """The draws of a PCG64 ``np.random.Generator`` from its present state
    on: ``random()`` and ``integers(lo, hi)`` return what the generator's own
    methods would, call for call, without a numpy call per draw.  The 64-bit
    words are read in blocks with ``random_raw``, which moves the generator
    past words no draw takes, so the generator is not to be drawn from again.

    ``random()`` is the top 53 bits of a word over 2**53.  ``integers`` is
    Lemire's bounded-integer method (arXiv:1805.10941), as numpy runs it for
    a range of at most 2**32 values: over 32-bit draws, each the low half of
    a new word or the high half the previous 32-bit draw left pending, a half
    ``random()`` does not take.  A one-value range draws nothing; a wider
    range than 2**32 values raises ``ValueError``."""

    __slots__ = ("_next_word", "_half")

    def __init__(self, rng: np.random.Generator) -> None:
        bits = rng.bit_generator
        state = bits.state
        assert state["bit_generator"] == "PCG64", state["bit_generator"]
        self._next_word = itertools.chain.from_iterable(
            iter(lambda: bits.random_raw(_WORD_BLOCK).tolist(), None)
        ).__next__
        # the half a 32-bit draw such as rng.shuffle's left pending, if any
        self._half: int | None = state["uinteger"] if state["has_uint32"] else None

    def random(self) -> float:
        return (self._next_word() >> 11) * 2.0**-53

    def integers(self, lo: int, hi: int) -> int:
        span = hi - lo
        if span == 1:
            return lo
        if not 1 < span <= 1 << 32:
            raise ValueError(f"integers draws from 2 to 2**32 values, got [{lo}, {hi})")
        while True:
            half = self._half
            if half is None:
                word = self._next_word()
                self._half = word >> 32
                half = word & 0xFFFFFFFF
            else:
                self._half = None
            m = half * span
            low = m & 0xFFFFFFFF
            # numpy redraws while low < 2**32 % span, which is below span
            if low >= span or low >= (1 << 32) % span:
                return lo + (m >> 32)


def _pick_other(draws: _Draws, bank: Sequence[str], taken: str) -> str:
    taken_tokens = _TOKENS[taken]
    while True:
        candidate = bank[draws.integers(0, len(bank))]
        if candidate != taken and taken_tokens.isdisjoint(_TOKENS[candidate]):
            return candidate


def _specifier(draws: _Draws, hard: bool) -> tuple[str, str, int, int]:
    """A drawn specifier: its JSON, its phrase in the question, and the
    bounds of its window, as ``TimeSpecifier.window`` gives them."""
    base = draws.integers(1880, 2020)
    if not hard:
        kind = _EASY_KINDS[draws.integers(0, len(_EASY_KINDS))]
        if kind is SpecKind.IN_YEAR:
            years, phrase, lo, hi = f"{base}", f"in {base}", base, base
        else:
            lo, hi = base, base + draws.integers(0, 5)
            if lo > hi:
                raise ValueError("between requires a <= b")
            years, phrase = f"{lo}, {hi}", f"from {lo} to {hi}"
    else:
        kind = _HARD_KINDS[draws.integers(0, len(_HARD_KINDS))]
        if kind is SpecKind.AFTER:
            years, phrase, lo, hi = f"{base}", f"after {base}", base + 1, YEAR_HORIZON
        elif kind is SpecKind.BEFORE:
            years, phrase, lo, hi = f"{base}", f"before {base}", YEAR_FLOOR, base - 1
        else:
            lo = (base // 10) * 10
            years, phrase, hi = f"{lo}", f"in the early {lo}s", lo + 3
    return f'{{"kind": {_KIND_SPELLED[kind]}, "years": [{years}]}}', phrase, lo, hi


def _scope_through(draws: _Draws, lo: int, hi: int) -> tuple[int, int]:
    """A fact scope intersecting [lo, hi], anchored near the bounded side of
    open-ended windows so generated years stay plausible."""
    if hi >= YEAR_HORIZON:
        a_lo, a_hi = lo, lo + 8
    elif lo <= YEAR_FLOOR:
        a_lo, a_hi = hi - 8, hi
    else:
        a_lo, a_hi = lo, hi
    anchor = draws.integers(a_lo, a_hi + 1)
    start = max(YEAR_FLOOR, anchor - draws.integers(0, 5))
    return start, min(YEAR_HORIZON, anchor + draws.integers(0, 5))


def _scope_outside(draws: _Draws, lo: int, hi: int) -> tuple[int, int]:
    """A fact scope strictly disjoint from [lo, hi]."""
    length = draws.integers(1, 7)
    if lo - 2 - length >= YEAR_FLOOR:
        return lo - 2 - length, lo - 2
    return hi + 2, hi + 2 + length


def _fact(obj: str, scope: tuple[int, int], relation: str, subject: str) -> str:
    """The JSON of a fact: ``obj``, a bank entry, over ``scope``, with the
    spelled ``relation`` and ``subject``.  A scope whose start passes its
    end raises ``ValueError``, as ``TimeInterval`` does."""
    start, end = scope
    if start > end:
        raise ValueError(f"interval start {start} exceeds end {end}")
    return (
        f'{{"end": {end}, "object": {_OBJECT_SPELLED[obj]}, "relation": {relation}, '
        f'"start": {start}, "subject": {subject}}}'
    )


def iter_lines(cfg: GenConfig) -> Iterator[str]:
    """The lines of the dataset ``cfg`` describes, each spelled as it is
    drawn: line i holds item ``q{i:05d}``, and exactly
    ``cfg.n_unanswerable`` items, placed by a shuffle, have a No-Answer
    gold.  A line is ``json.dumps`` of its record with ``sort_keys=True``:
    candidates, facts (each with end, object, relation, start and subject),
    feature (difficulty, evidence), gold (the one alias, or null for
    No-Answer), id, question and specifier (kind, years).  It holds at most
    two facts, and the bank and template texts it is spelled from are
    printable ASCII with nothing to escape, so ``read_columns`` scans it
    with ``_written_form``: a change here must change that too."""
    rng = np.random.default_rng(cfg.seed)
    # one byte a flag; np.intp raises OverflowError on a count past any
    # array's size, which np.zeros would report as a ValueError
    flags = np.zeros(np.intp(cfg.n), dtype=bool)
    flags[: cfg.n_unanswerable] = True
    rng.shuffle(flags)
    draws = _Draws(rng)
    random, integers = draws.random, draws.integers
    supports, contradicts, no_evidence = (
        _FEATURE_SPELLED[e] for e in (Evidence.SUPPORTS, Evidence.CONTRADICTS, Evidence.NO_EVIDENCE)
    )
    for i, unanswerable in enumerate(flags):
        hard = random() < cfg.difficulty_mix
        specifier, phrase, lo, hi = _specifier(draws, hard)
        first = _FIRST_SPELLED[integers(0, len(_FIRST_SPELLED))]
        subject = f"{first} {_LAST_SPELLED[integers(0, len(_LAST_SPELLED))]}"
        r = integers(0, len(_RELATIONS))
        bank, relation = _OBJECT_BANKS[_RELATIONS[r]], _RELATION_SPELLED[r]
        subject_json = f'"{subject}"'
        if not unanswerable:
            gold_obj = bank[integers(0, len(bank))]
            distractor = _pick_other(draws, bank, gold_obj)
            facts = _fact(gold_obj, _scope_through(draws, lo, hi), relation, subject_json)
            if random() < 0.5:
                scope = _scope_outside(draws, lo, hi)
                facts += f", {_fact(distractor, scope, relation, subject_json)}"
            gold, evidence = f"[{_OBJECT_SPELLED[gold_obj]}]", supports
            candidates = (gold_obj, distractor) if random() < 0.5 else (distractor, gold_obj)
        else:
            obj_one = bank[integers(0, len(bank))]
            obj_two = _pick_other(draws, bank, obj_one)
            if random() < CONTRADICT_FRACTION:
                scopes = _scope_through(draws, lo, hi), _scope_through(draws, lo, hi)
                evidence = contradicts
            else:
                scopes = [_scope_outside(draws, lo, hi) for _ in range(integers(0, 3))]
                evidence = no_evidence
            facts = ", ".join([
                _fact(obj, scope, relation, subject_json)
                for obj, scope in zip((obj_one, obj_two), scopes)
            ])
            gold, candidates = "null", (obj_one, obj_two)
        feature = (no_evidence if random() < cfg.ambiguity else evidence)[hard]
        yield (
            f'{{"candidates": [{_OBJECT_SPELLED[candidates[0]]}, '
            f'{_OBJECT_SPELLED[candidates[1]]}], "facts": [{facts}], '
            f'"feature": {feature}, "gold": {gold}, "id": "q{i:05d}", '
            f'"question": {_QUESTION_SPELLED[r].format(s=subject, t=phrase)}, '
            f'"specifier": {specifier}}}'
        )


def generate_dataset(cfg: GenConfig) -> list[SynthQAItem]:
    """The items of ``iter_lines(cfg)``, read back by ``item_from_dict``."""
    return [item_from_dict(json.loads(line)) for line in iter_lines(cfg)]


# --- JSON-Lines serialization -------------------------------------------------

@functools.cache
def _written_form() -> re.Pattern[str]:
    """The line ``json.dumps`` writes with ``sort_keys=True``, the template
    ``iter_lines`` spells, for a record whose strings are printable ASCII
    with nothing to escape, whose integers have at most 18 digits and whose
    facts, at most two (as generated items hold), have non-empty texts, as
    ``TemporalFact`` requires.  Its groups are the two candidates; the end
    and start of the first fact and of the second; the feature's JSON, the
    gold's and the id; the specifier's JSON, and in it its kind and its
    years.  A change to the line ``iter_lines`` spells must change this
    too.  Compiled on first use, which keeps it out of the import."""
    # S: a printable ASCII character but '"' and '\'; Y: an integer; F: a fact
    fact = r'\{"end": (Y), "object": "S+", "relation": "S+", "start": (Y), "subject": "S+"\}'
    line = (
        r'\{"candidates": \["(S*)", "(S*)"\], '
        r'"facts": \[(?:F(?:, F)?)?\], '
        r'"feature": (\{"difficulty": "S*", "evidence": "S*"\}), '
        r'"gold": (null|\[(?:"S*"(?:, "S*")*)?\]), '
        r'"id": "(S*)", "question": "S*", '
        r'"specifier": (\{"kind": "(S*)", "years": \[((?:Y(?:, Y)*)?)\]\})\}\n?'
    ).replace("F", fact)
    return re.compile(
        line.replace("Y", "(?:0|-?[1-9][0-9]{0,17})").replace("S", r"[ !#-\[\]-~]")
    )


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


def item_from_dict(payload: dict) -> SynthQAItem:
    """The item of a decoded dataset record, in the layout ``iter_lines``
    writes.  Texts must be strings that UTF-8 can encode (no lone surrogate)
    and years integers; ValueError names the first field that breaks this,
    and KeyError the first missing one.
    Fields are checked in one fixed order, so a record with several faults
    always reports the same one."""
    spec_json = _json_object(payload["specifier"], "specifier")
    years = _json_list(spec_json["years"], "specifier years")
    spec = TimeSpecifier(
        SpecKind(spec_json["kind"]), tuple(_json_int(y, "specifier year") for y in years)
    )
    facts = []
    for f in _json_list(payload["facts"], "facts"):
        f = _json_object(f, "fact")
        facts.append(
            TemporalFact(
                _json_text(f["subject"], "fact subject"),
                _json_text(f["relation"], "fact relation"),
                _json_text(f["object"], "fact object"),
                TimeInterval(_json_int(f["start"], "fact start"), _json_int(f["end"], "fact end")),
            )
        )
    aliases = payload["gold"]
    if aliases is None:
        gold = GoldAnswer.no_answer()
    else:
        aliases = _json_list(aliases, "gold")
        # all-string aliases are checked for surrogates before GoldAnswer's
        # own checks; GoldAnswer names any other alias
        if all(type(a) is str for a in aliases):
            aliases = [_json_text(a, "gold alias") for a in aliases]
        gold = GoldAnswer.of(*aliases)
    feature_json = _json_object(payload["feature"], "feature")
    feature = ContextFeature(
        Evidence(feature_json["evidence"]), Difficulty(feature_json["difficulty"])
    )
    candidates = [
        _json_text(c, "candidate") for c in _json_list(payload["candidates"], "candidates")
    ]
    if len(candidates) != 2:
        raise ValueError(f"candidates must hold two options, got {len(candidates)}")
    return SynthQAItem(
        id=_json_text(payload["id"], "id"),
        question=_json_text(payload["question"], "question"),
        facts=tuple(facts),
        specifier=spec,
        gold=gold,
        candidate_a=candidates[0],
        candidate_b=candidates[1],
        feature=feature,
    )


def iter_dataset(path: str | Path) -> Iterator[SynthQAItem]:
    """The items of the dataset file at ``path``, one line at a time; the
    file is opened when the first item is asked for.  A record that is not
    a JSON object, lacks a field, holds a value of another type or a text
    with a lone surrogate raises ``DatasetError`` naming ``path:line`` and
    the field, once the iteration reaches it."""
    return read_records(path, "dataset", item_from_dict)


def read_columns(path: str | Path) -> ItemColumns:
    """The ``ItemColumns`` of the dataset file at ``path``, equal to those
    of the heads of the items of ``iter_dataset(path)``, with the same
    ``DatasetError`` on the same line.  One loop walks the file's lines and
    appends each line's head straight into the columns.  A line in the form
    ``iter_lines`` writes for an item of at most two facts (see
    ``_written_form``) is scanned, not decoded: its fact scopes are checked
    and it gives its head's fields without building its facts and question.
    Any other non-blank line, and a scanned one whose parts fail a check, is
    decoded and built by ``item_from_dict``, as ``read_records`` does.
    Scanned heads with equal features or golds hold one object of each."""
    line_form = _written_form()
    # each part keyed by its JSON text, which the form spells one way per
    # value, and checked once; a specifier is only checked, since heads do
    # not hold it
    specifiers: set[str] = set()
    features: dict[str, ContextFeature] = {}
    golds: dict[str, GoldAnswer] = {}

    def scan(line: str) -> tuple[str, ContextFeature, GoldAnswer, str, str] | None:
        """The head's fields of ``line`` without decoding it, if ``line``
        has the written form and its fact scopes, specifier, feature and
        gold pass the checks ``item_from_dict`` makes; else None."""
        match = line_form.fullmatch(line)
        if match is None:
            return None
        (candidate_a, candidate_b, end, start, end2, start2,
         feature_json, gold_json, item_id, specifier_json, kind, years) = match.groups()
        # a fact scope whose start passes its end: TimeInterval refuses it
        if end is not None and (
            int(start) > int(end) or end2 is not None and int(start2) > int(end2)
        ):
            return None
        try:
            if specifier_json not in specifiers:
                TimeSpecifier(SpecKind(kind), tuple(map(int, years.split(", "))) if years else ())
                specifiers.add(specifier_json)
            feature = features.get(feature_json)
            if feature is None:
                parts = json.loads(feature_json)
                feature = features[feature_json] = ContextFeature(
                    Evidence(parts["evidence"]), Difficulty(parts["difficulty"])
                )
            gold = golds.get(gold_json)
            if gold is None:
                # "[]" and an empty alias are refused by GoldAnswer
                aliases = json.loads(gold_json)
                gold = golds[gold_json] = (
                    GoldAnswer.no_answer() if aliases is None else GoldAnswer.of(*aliases)
                )
        except ValueError:  # a part item_from_dict refuses: it raises the error
            return None
        return item_id, feature, gold, candidate_a, candidate_b

    columns = ItemColumns([], [], [], [])
    ids, feature_rows, row, heads = columns
    rows: dict[tuple, int] = {}
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                _require_utf8(path, line, lineno)
            head = scan(line)
            if head is None:
                if not line.strip():
                    continue
                item = _parsed(path, lineno, line, "dataset", item_from_dict)
                head = item.id, item.feature, item.gold, item.candidate_a, item.candidate_b
            item_id, feature, gold, candidate_a, candidate_b = head
            ids.append(item_id)
            feature_rows.append(feature.index)
            n = len(heads)
            # keyed by the aliases, whose hash is computed in C, not the gold's
            r = rows.setdefault((candidate_a, candidate_b, gold.aliases), n)
            if r == n:
                heads.append(ItemHead._make(head))
            row.append(r)
    return columns


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


def check_mc_settings(ratio: float, seed: int) -> None:
    """Raise ``ValueError`` on a ``ratio`` outside [0, 1] or a negative ``seed``."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must lie in [0, 1], got {ratio}")
    if seed < 0:
        raise ValueError("seed must be >= 0")


def build_abstained_mc(
    records: Sequence[MCSourceRecord], ratio: float = DEFAULT_MC_RATIO, seed: int = 0
) -> list[MCItem]:
    """Standardize 4-option records to 3 options, making floor(ratio * N) of
    them unanswerable by deleting their correct option and relabeling the
    answer to the placeholder key D."""
    check_mc_settings(ratio, seed)
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
