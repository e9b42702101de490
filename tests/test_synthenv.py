"""Generator consistency and its draws, the dataset writer and reader, the
abstained-MC builder, and the JSON-Lines reader and atomic writer every file
goes through."""

import copy
import dataclasses
import hashlib
import json
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from abstainrl import synthenv
from abstainrl.cli import main
from abstainrl.grpo import TrainLog
from abstainrl.policy import Difficulty, Evidence
from abstainrl.retrieval import KGStore
from abstainrl.synthenv import (
    DatasetError,
    GenConfig,
    MCSourceRecord,
    SpecKind,
    TemporalFact,
    TimeInterval,
    TimeSpecifier,
    answerability_oracle,
    build_abstained_mc,
    generate_dataset,
    iter_dataset,
    iter_lines,
    read_columns,
    read_mc_sources,
    read_text,
    write_lines,
)
from abstainrl.textmetrics import normalize_text


class TestTimeInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeInterval(2000, 1999)

    def test_intersects(self):
        span = TimeInterval(1960, 1970)
        assert span.intersects(1970, 1980)
        assert span.intersects(1950, 1960)
        assert not span.intersects(1971, 1980)


class TestSpecifierWindows:
    def test_in_year(self):
        assert TimeSpecifier(SpecKind.IN_YEAR, (1969,)).window() == (1969, 1969)

    def test_between(self):
        assert TimeSpecifier(SpecKind.BETWEEN, (1966, 1967)).window() == (1966, 1967)
        with pytest.raises(ValueError):
            TimeSpecifier(SpecKind.BETWEEN, (1967, 1966))

    def test_after_excludes_the_named_year(self):
        lo, hi = TimeSpecifier(SpecKind.AFTER, (1969,)).window()
        assert lo == 1970

    def test_before_excludes_the_named_year(self):
        _, hi = TimeSpecifier(SpecKind.BEFORE, (1957,)).window()
        assert hi == 1956

    def test_early_decade(self):
        assert TimeSpecifier(SpecKind.EARLY_DECADE, (1980,)).window() == (1980, 1983)

    def test_difficulty_split(self):
        assert TimeSpecifier(SpecKind.IN_YEAR, (1969,)).difficulty is Difficulty.EASY
        assert TimeSpecifier(SpecKind.BETWEEN, (1, 2)).difficulty is Difficulty.EASY
        for spec in (
            TimeSpecifier(SpecKind.AFTER, (1969,)),
            TimeSpecifier(SpecKind.BEFORE, (1957,)),
            TimeSpecifier(SpecKind.EARLY_DECADE, (1980,)),
        ):
            assert spec.difficulty is Difficulty.HARD


class TestAnswerabilityOracle:
    def test_single_matching_fact(self):
        facts = [TemporalFact("X", "role", "chief", TimeInterval(1969, 1975))]
        gold = answerability_oracle(facts, TimeSpecifier(SpecKind.AFTER, (1969,)))
        assert gold.aliases == ("chief",)

    def test_no_matching_fact(self):
        facts = [TemporalFact("X", "role", "chief", TimeInterval(1950, 1960))]
        assert answerability_oracle(facts, TimeSpecifier(SpecKind.IN_YEAR, (1970,))).is_no_answer

    def test_conflicting_objects(self):
        facts = [
            TemporalFact("X", "role", "chief", TimeInterval(1969, 1975)),
            TemporalFact("X", "role", "deputy", TimeInterval(1970, 1972)),
        ]
        assert answerability_oracle(facts, TimeSpecifier(SpecKind.IN_YEAR, (1971,))).is_no_answer

    def test_same_object_twice_is_answerable(self):
        facts = [
            TemporalFact("X", "role", "chief", TimeInterval(1969, 1970)),
            TemporalFact("X", "role", "chief", TimeInterval(1971, 1975)),
        ]
        gold = answerability_oracle(facts, TimeSpecifier(SpecKind.BETWEEN, (1969, 1975)))
        assert gold.aliases == ("chief",)


class TestGenerateDataset:
    @pytest.mark.parametrize("n", [10, 100, 1000])
    @pytest.mark.parametrize("p", [0.0, 0.124, 0.5, 1.0])
    def test_exact_unanswerable_fraction(self, n, p):
        items = generate_dataset(GenConfig(n=n, p_unans=p, seed=3))
        assert len(items) == n
        assert sum(1 for i in items if i.gold.is_no_answer) == round(n * p)

    def test_determinism(self):
        cfg = GenConfig(n=60, p_unans=0.3, seed=17)
        a = [ref.item_to_dict(i) for i in generate_dataset(cfg)]
        b = [ref.item_to_dict(i) for i in generate_dataset(cfg)]
        assert a == b

    def test_regeneration_consistency(self):
        items = generate_dataset(GenConfig(n=300, p_unans=0.4, ambiguity=0.6, seed=5))
        for item in items:
            assert answerability_oracle(item.facts, item.specifier) == item.gold

    def test_answerable_items_have_gold_candidate(self):
        items = generate_dataset(GenConfig(n=200, p_unans=0.3, seed=6))
        for item in items:
            if item.gold.is_no_answer:
                continue
            gold_hits = [c for c in (item.candidate_a, item.candidate_b) if c in item.gold.aliases]
            assert len(gold_hits) == 1

    def test_candidates_token_disjoint(self):
        items = generate_dataset(GenConfig(n=200, p_unans=0.5, seed=7))
        for item in items:
            a = set(normalize_text(item.candidate_a))
            b = set(normalize_text(item.candidate_b))
            assert not a & b

    def test_zero_ambiguity_feature_matches_truth(self):
        items = generate_dataset(GenConfig(n=150, p_unans=0.5, ambiguity=0.0, seed=8))
        for item in items:
            if item.gold.is_no_answer:
                assert item.feature.evidence in (Evidence.CONTRADICTS, Evidence.NO_EVIDENCE)
            else:
                assert item.feature.evidence is Evidence.SUPPORTS

    def test_full_ambiguity_hides_everything(self):
        items = generate_dataset(GenConfig(n=100, p_unans=0.5, ambiguity=1.0, seed=9))
        assert all(i.feature.evidence is Evidence.NO_EVIDENCE for i in items)

    def test_unanswerable_never_observed_as_supports(self):
        items = generate_dataset(GenConfig(n=400, p_unans=0.5, ambiguity=0.7, seed=10))
        for item in items:
            if item.gold.is_no_answer:
                assert item.feature.evidence is not Evidence.SUPPORTS

    # sha256 of what `gen` wrote with these flags while it called numpy's
    # Generator once per draw and wrote each line with json.dumps
    @pytest.mark.parametrize(
        "flags, digest",
        [
            ("--n 1000 --p-unans 0.5 --ambiguity 0.5 --seed 7",
             "ab8114abcd8224da0099aa28711ee966511fe1151e57331549a6c9555e96cf39"),
            ("--n 10000 --p-unans 0.124 --ambiguity 0.25 --seed 11",
             "234e44fc9eacb1df59e67aa609a8ef6d19d9fe787678e06a2e93971632804531"),
            ("--n 200 --seed 3",
             "ae088cbff21a50541067ab5fa6a9f4ba16628b062290b5096f975ec3993b597c"),
            ("--n 500 --p-unans 0 --seed 5",
             "ef3502bcd20e80484336c810146b84d7288da09b4704891a2644c52605d65de8"),
            ("--n 500 --p-unans 1 --seed 5",
             "09955b9ae2e46b8355e411280fa027ae875d66bb81d4cdc0ef1cda92b34b2d5b"),
            ("--n 500 --ambiguity 0 --seed 5",
             "a21896edac4463ea357fd367c9b729d511833005f22915c8dbec9f8a2197bcc9"),
            ("--n 500 --ambiguity 1 --seed 5",
             "62227b3439074d260a36b6da329678274fe22a9960e3b087c79de2588d24a0e9"),
            ("--n 500 --difficulty-mix 0 --seed 5",
             "d7f9c5c3c3f4e271ed9242dc82aed05b41248316b3d44ac3c8cdc9b39f5de25a"),
            ("--n 500 --difficulty-mix 1 --seed 5",
             "2cf9cd588fbd3644febc6f6ff058c0bf385e172a55f9374357466f27687214c7"),
        ],
        ids=["readme", "train-wide", "n200", "p-unans-0", "p-unans-1", "ambiguity-0",
             "ambiguity-1", "difficulty-mix-0", "difficulty-mix-1"],
    )
    def test_gen_writes_the_pinned_bytes(self, tmp_path, flags, digest):
        path = tmp_path / "data.jsonl"
        assert main(["gen", *flags.split(), "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig(n=0)
        with pytest.raises(ValueError):
            GenConfig(n=10, p_unans=1.2)
        with pytest.raises(ValueError):
            GenConfig(n=10, ambiguity=-0.1)


class TestDatasetSerialization:
    def test_roundtrip(self, tmp_path):
        items = generate_dataset(GenConfig(n=40, p_unans=0.4, seed=11))
        path = tmp_path / "data.jsonl"
        ref.write_items(items, path)
        again = list(iter_dataset(path))
        assert [ref.item_to_dict(i) for i in again] == [ref.item_to_dict(i) for i in items]

    def test_stable_field_names(self, tmp_path):
        items = generate_dataset(GenConfig(n=1, seed=12))
        payload = ref.item_to_dict(items[0])
        assert set(payload) == {
            "id", "question", "specifier", "facts", "gold", "candidates", "feature",
        }

    def test_items_and_facts_are_slotted(self):
        """No per-instance ``__dict__``; replace, equality and hashing hold."""
        item = generate_dataset(GenConfig(n=1, p_unans=0.0, seed=0))[0]
        scope, specifier = item.facts[0].scope, item.specifier
        for value, field, new in (
            (item, "id", "other"),
            (item.facts[0], "obj", "other"),
            (scope, "end", scope.end + 1),
            (specifier, "years", tuple(year - 1 for year in specifier.years)),
        ):
            assert not hasattr(value, "__dict__")
            twin = dataclasses.replace(value)
            assert twin == value and twin is not value and hash(twin) == hash(value)
            other = dataclasses.replace(value, **{field: new})
            assert getattr(other, field) == new and other != value
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field, new)

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        good = json.dumps(ref.item_to_dict(generate_dataset(GenConfig(n=1, seed=0))[0]))
        path.write_text(good + "\n{not json\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=":2:"):
            list(iter_dataset(path))

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda d: d.update(question=5), "question"),
            (lambda d: d.update(id={"a": 1}), "id"),
            (lambda d: d.update(id=7), "id"),
            (lambda d: d.update(candidates=[1, 2]), "candidate"),
            (lambda d: d.update(candidates=["a", "b", "c"]), "candidates"),
            (lambda d: d["facts"][0].update(subject=7), "fact subject"),
            (lambda d: d["facts"][0].update(end=1990.0), "fact end"),
            (lambda d: d["facts"][0].update(start=True), "fact start"),
            (lambda d: d["specifier"].update(years=[1.5]), "specifier year"),
            (lambda d: d["specifier"].update(years="1990"), "specifier years"),
            # lone surrogates: json.dumps writes each as its \u escape
            (lambda d: d.update(id="q\ud800x"), "id"),
            (lambda d: d.update(question="When?\udfff"), "question"),
            (lambda d: d.update(candidates=["Ashford", "\udc80"]), "candidate"),
            (lambda d: d["facts"][0].update(object="Veridian\ud83d"), "fact object"),
            (lambda d: d.update(gold=["\udbff"]), "gold alias"),
        ],
        ids=["question", "object-id", "int-id", "candidates", "three-candidates", "subject",
             "float-end", "bool-start", "float-year", "string-years", "surrogate-id",
             "surrogate-question", "surrogate-candidate", "surrogate-object", "surrogate-gold"],
    )
    def test_wrongly_typed_field_is_rejected(self, tmp_path, edit, named):
        record = ref.item_to_dict(generate_dataset(GenConfig(n=1, p_unans=0.0, seed=0))[0])
        edit(record)
        path = tmp_path / "typed.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=f":1: bad dataset record: {named} must"):
            list(iter_dataset(path))


# the settings of a generated dataset, each free in its range
_GEN_CONFIGS = st.builds(
    GenConfig,
    n=st.integers(1, 60),
    p_unans=st.floats(0.0, 1.0),
    difficulty_mix=st.floats(0.0, 1.0),
    ambiguity=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
)


def _counted_decodes(calls):
    """A patch of ``synthenv.item_from_dict`` that appends each call's
    arguments to ``calls``."""
    original = synthenv.item_from_dict
    return mock.patch.object(
        synthenv, "item_from_dict", lambda *args: calls.append(args) or original(*args)
    )


class TestIterLines:
    """``iter_lines`` spells each line from its draws; ``json.dumps`` of
    ``ref.item_to_dict`` of the item read back from it, with sorted keys, is
    its oracle."""

    @given(_GEN_CONFIGS)
    @example(GenConfig(n=60, p_unans=0.0, difficulty_mix=1.0, ambiguity=0.0, seed=0))
    @example(GenConfig(n=60, p_unans=1.0, difficulty_mix=0.0, ambiguity=1.0, seed=1))
    @settings(max_examples=150)
    def test_equals_json_dumps_of_each_item(self, tmp_path_factory, cfg):
        """Each line is ``json.dumps`` of its item's record, and
        ``read_columns`` scans every line without decoding it."""
        lines = list(iter_lines(cfg))
        items = generate_dataset(cfg)
        assert lines == [json.dumps(ref.item_to_dict(item), sort_keys=True) for item in items]
        assert [item.id for item in items] == [f"q{i:05d}" for i in range(cfg.n)]
        assert sum(item.gold.is_no_answer for item in items) == cfg.n_unanswerable
        path = tmp_path_factory.mktemp("lines") / "data.jsonl"
        write_lines(path, lines)
        calls = []
        with _counted_decodes(calls):
            assert read_columns(path) == ref.columns_of(items)
        assert calls == []

    def test_keeps_the_checks_of_the_item_objects(self, monkeypatch):
        """A drawn ``between`` whose a passes its b, a fact scope whose
        start passes its end and an empty text raise, as ``TimeSpecifier``,
        ``TimeInterval`` and ``TemporalFact`` do."""
        cfg = GenConfig(n=5, p_unans=0.0, difficulty_mix=0.0, seed=0)
        integers = synthenv._Draws.integers
        # every easy specifier a between, whose b is one year before its a
        forced = {(0, 2): 1, (0, 5): -1}
        monkeypatch.setattr(
            synthenv._Draws, "integers",
            lambda draws, lo, hi: forced.get((lo, hi)) or integers(draws, lo, hi),
        )
        with pytest.raises(ValueError, match="between requires a <= b"):
            next(iter_lines(cfg))
        monkeypatch.undo()
        monkeypatch.setattr(synthenv, "_scope_through", lambda draws, lo, hi: (1991, 1990))
        with pytest.raises(ValueError, match="interval start 1991 exceeds end 1990"):
            next(iter_lines(cfg))
        with pytest.raises(ValueError, match="non-empty"):
            synthenv._spelled("")

    def test_bank_and_template_texts_need_no_escape(self):
        """Every constant a line is spelled from is printable ASCII with no
        '"' or '\\', so it is written in quotes as it stands, and the line
        keeps the form ``read_columns`` scans."""
        texts = [
            *synthenv._FIRST_NAMES, *synthenv._LAST_NAMES, *synthenv._RELATIONS,
            *synthenv._QUESTION_TEMPLATES.values(),
            *(obj for bank in synthenv._OBJECT_BANKS.values() for obj in bank),
            *(member.value for enum in (SpecKind, Evidence, Difficulty) for member in enum),
        ]
        for text in texts:
            assert text and all(" " <= c <= "~" and c not in '"\\' for c in text), text


_SPANS = st.integers(1, 2**32) | st.sampled_from([1, 2, 3, 5, 6, 2**31 + 1, 2**32 - 1, 2**32])


class TestDraws:
    """``_Draws`` reads a generator's words in blocks; the generator's own
    ``random`` and ``integers`` are its oracle, draw for draw."""

    @staticmethod
    def _generators(seed, shuffled):
        """Two generators from ``seed``, each past a shuffle of ``shuffled``
        values."""
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in rngs:
            rng.shuffle(list(range(shuffled)))
        return rngs

    @given(
        st.integers(0, 2**32),
        st.integers(0, 8),
        st.lists(st.none() | st.tuples(st.integers(-2**40, 2**40), _SPANS), max_size=60),
    )
    @example(0, 2, [(0, 2**32), None, (7, 1), (0, 6), (-3, 2**32), (0, 2**32 - 1)])
    @settings(max_examples=300)
    def test_equals_the_generator(self, seed, shuffled, ops):
        """``None`` draws ``random()``, ``(lo, span)`` ``integers(lo, lo + span)``."""
        rng, twin = self._generators(seed, shuffled)
        draws = synthenv._Draws(rng)
        for op in ops:
            if op is None:
                assert draws.random() == twin.random()
            else:
                lo, span = op
                got = draws.integers(lo, lo + span)
                assert type(got) is int and got == twin.integers(lo, lo + span)

    def test_takes_the_half_a_shuffle_left_pending(self):
        rng, twin = self._generators(0, 6)
        assert rng.bit_generator.state["has_uint32"]
        draws = synthenv._Draws(rng)
        got = [draws.integers(0, 6), draws.random(), draws.integers(0, 6), draws.integers(0, 6)]
        assert got == [twin.integers(0, 6), twin.random(), twin.integers(0, 6), twin.integers(0, 6)]

    def test_reads_past_a_block(self):
        rng, twin = self._generators(3, 0)
        draws = synthenv._Draws(rng)
        n = 3 * synthenv._WORD_BLOCK
        assert [draws.random() for _ in range(n)] == twin.random(n).tolist()

    @pytest.mark.parametrize("lo, hi", [(0, 2**32 + 1), (-(2**40), 2**40), (5, 5), (5, 4)])
    def test_refuses_ranges_it_cannot_draw_from(self, lo, hi):
        draws = synthenv._Draws(np.random.default_rng(0))
        with pytest.raises(ValueError, match="2\\*\\*32 values"):
            draws.integers(lo, hi)


# Valid dataset records drawn from small pools, so that records repeat their
# specifiers, facts' scopes, golds and features; 0 and 1 are among the years
# so that a later record can hold their bool twins.
_YEARS = st.sampled_from([0, 1, 1990, 1991])
_TEXTS = st.sampled_from(["Alma", "Seabrook Rovers", "x, \"y\""])
# printable ASCII but for '"' and '\', which json.dumps writes unescaped
_ASCII = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\'),
                 max_size=3)


def _scope(years):
    start, end = sorted(years)
    return {"start": start, "end": end}


_VALID_RECORDS = st.fixed_dictionaries(
    {
        "id": _ASCII | st.text(max_size=3),
        "question": _ASCII | st.text(max_size=3),
        "specifier": st.one_of(
            st.builds(lambda kind, y: {"kind": kind, "years": [y]},
                      st.sampled_from(["in_year", "after", "before", "early_decade"]), _YEARS),
            st.builds(lambda ys: {"kind": "between", "years": sorted(ys)},
                      st.lists(_YEARS, min_size=2, max_size=2)),
        ),
        "facts": st.lists(
            st.builds(
                lambda s, r, o, scope: {"subject": s, "relation": r, "object": o, **scope},
                _TEXTS, _TEXTS, _TEXTS,
                st.lists(_YEARS, min_size=2, max_size=2).map(_scope),
            ),
            max_size=2,
        ),
        "gold": st.none() | st.lists(_TEXTS, min_size=1, max_size=2),
        "candidates": st.lists(_TEXTS, min_size=2, max_size=2),
        "feature": st.fixed_dictionaries(
            {"evidence": st.sampled_from([e.value for e in Evidence]),
             "difficulty": st.sampled_from([d.value for d in Difficulty])}
        ),
    }
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["\ud800", "a\udfff"]),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4,
)
_DELETE = object()


def _paths(value, prefix=()):
    """The path of every value nested in ``value``, ``value`` itself first."""
    yield prefix
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from _paths(inner, (*prefix, key))
    elif isinstance(value, list):
        for i, inner in enumerate(value):
            yield from _paths(inner, (*prefix, i))


def _twins(value):
    """JSON values of another type that compare equal to ``value``, or a list
    holding it, which cannot be hashed."""
    twins = [[value]]
    if type(value) is int:
        twins.append(float(value))
        if value in (0, 1):
            twins.append(bool(value))
    return twins


@st.composite
def _faulty_record(draw, record):
    """``record`` with one to three of its values replaced, by a twin or any
    JSON value, or deleted."""
    record = copy.deepcopy(record)
    for _ in range(draw(st.integers(1, 3))):
        *parents, last = draw(st.sampled_from(list(_paths(record))[1:]))
        owner = record
        for key in parents:
            owner = owner[key]
        if not isinstance(owner, (dict, list)) or (isinstance(owner, list) and last >= len(owner)):
            continue  # an earlier edit replaced this part
        old = owner[last]
        new = draw(st.sampled_from([_DELETE, *_twins(old)]) | _JSON_VALUES)
        if new is _DELETE:
            del owner[last]
        else:
            owner[last] = new
    return record


@st.composite
def _records(draw):
    """Valid records, then a copy of one of them with faults."""
    records = draw(st.lists(_VALID_RECORDS, min_size=1, max_size=6))
    records.append(draw(_faulty_record(draw(st.sampled_from(records)))))
    return records


def _oracle_read(records):
    """The items of ``records``, or the message ``iter_dataset`` gives, past
    the path, for the first one ``ref.item_from_dict`` rejects."""
    items = []
    for lineno, record in enumerate(records, start=1):
        try:
            items.append(ref.item_from_dict(record))
        except KeyError as exc:
            return f":{lineno}: bad dataset record: missing field {exc.args[0]!r}"
        except ValueError as exc:
            return f":{lineno}: bad dataset record: {exc}"
    return items


def _record(**fields):
    """A valid record, with ``fields`` replaced."""
    record = ref.item_to_dict(generate_dataset(GenConfig(n=1, p_unans=0.0, seed=0))[0])
    return {**record, **fields}


def _record_with_year(year):
    return _record(specifier={"kind": "in_year", "years": [year]})


_FACT = {"subject": "s", "relation": "r", "object": "o", "start": 0, "end": 1}


class TestReadDataset:
    """``iter_dataset`` is held to ``ref.item_from_dict``, record by record."""

    @given(_records())
    @example([_record_with_year(1), _record_with_year(True)])
    @example([_record_with_year(1990), _record_with_year(1990.0)])
    @example([_record_with_year(1990), {**_record_with_year(1990), "gold": [["x"]]}])
    @example([_record(facts=[_FACT]), _record(facts=[{**_FACT, "start": False}])])
    @example([_record(feature={"evidence": "none"}, candidates=[1], id=2)])
    @example([_record(gold=["", "\ud800"])])
    @example([_record(gold=["\ud800", 5])])
    @example([_record(candidates=["a", "b"]), _record(candidates=["a\udfff", 1], id="\ud800")])
    @settings(max_examples=400)
    def test_equals_per_record_oracle(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("oracle") / "data.jsonl"
        write_lines(path, [json.dumps(record) for record in records])
        try:
            got = list(iter_dataset(path))
        except DatasetError as exc:
            got = str(exc).removeprefix(str(path))
        assert got == _oracle_read(records)

    @pytest.mark.parametrize(
        "record, message",
        [
            ([1, 2], "record must be a JSON object, got [1, 2]"),
            ("text", "record must be a JSON object, got 'text'"),
            ({}, "missing field 'specifier'"),
            *[
                ({k: v for k, v in _record().items() if k != field}, f"missing field {field!r}")
                for field in ("id", "question", "gold", "feature")
            ],
            (_record(feature={"evidence": "supports"}), "missing field 'difficulty'"),
        ],
    )
    def test_bad_record_shape_is_named(self, tmp_path, record, message):
        path = tmp_path / "data.jsonl"
        write_lines(path, [json.dumps(record)])
        with pytest.raises(DatasetError, match=f":1: bad dataset record: {re.escape(message)}$"):
            list(iter_dataset(path))


def _line(**fields):
    """A valid record, with ``fields`` replaced, in the form of ``gen``'s
    lines."""
    return json.dumps(_record(**fields), sort_keys=True)


def _fact_line(**fields):
    """A record with one fact, ``_FACT`` with ``fields`` replaced, in the
    form of ``gen``'s lines."""
    return _line(facts=[{**_FACT, **fields}])


# Lines of valid records, written with sorted keys (the form gen writes,
# which read_columns scans) or without (which it decodes).
_LINES = st.builds(
    lambda records, sort_keys: [json.dumps(r, sort_keys=sort_keys) for r in records],
    _records(),
    st.booleans(),
)


def _columns_or_error(read, path):
    try:
        return read(path)
    except DatasetError as exc:
        return str(exc)


class TestReadColumns:
    """``read_columns`` scans the lines ``gen`` writes instead of decoding
    them, and is held to the columns of the heads of
    ``iter_dataset``'s items."""

    @given(_LINES)
    # integers: -0, 19 digits (both valid JSON), a leading zero (invalid)
    @example([_line(specifier={"kind": "in_year", "years": [4321]}).replace("[4321]", "[-0]")])
    @example([_line(specifier={"kind": "in_year", "years": [1234567890123456789]})])
    @example([_fact_line(start=4321, end=4322).replace('"start": 4321', '"start": 04321')])
    # a year of another type, a specifier or a scope whose start is past its end
    @example([_line(specifier={"kind": "in_year", "years": [1990.0]})])
    @example([_line(specifier={"kind": "in_year", "years": [True]})])
    @example([_line(specifier={"kind": "between", "years": [1991, 1990]})])
    @example([_fact_line(), _fact_line(start=1991, end=1990)])
    # the same record in other forms
    @example([_line() + "\r", _line() + "  ", _line(zz=1), json.dumps(_record())])
    # texts the scan leaves to the decoder
    @example([_line(candidates=['say "a"', "b"]), _line(candidates=["\u00e9", "b"])])
    @example([json.dumps(_record(candidates=["\u00e9", "b"]), sort_keys=True, ensure_ascii=False)])
    @example([_line(), _line(candidates=["a", "\ud800"])])
    # parts that are empty
    @example([_line(gold=[""])])
    @example([_fact_line(), _fact_line(subject="")])
    @example([_line(facts=[])])
    # scanned lines, decoded-only ones (reordered keys, three facts, a
    # non-ASCII id) and blank ones, interleaved
    @example([
        _line(), "", json.dumps(dict(reversed(_record(id="q1").items()))), "",
        _line(id="q2", facts=[_FACT, {**_FACT, "object": "p"}, {**_FACT, "object": "q"}]),
        "  ", _line(id="q3"), json.dumps(_record(id="q\u00e9"), sort_keys=True, ensure_ascii=False),
        "", "", _line(id="q4"),
    ])
    @settings(max_examples=400)
    def test_equals_the_heads_of_iter_dataset(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("heads") / "data.jsonl"
        write_lines(path, lines)
        got = _columns_or_error(read_columns, path)
        want = _columns_or_error(lambda p: ref.columns_of(iter_dataset(p)), path)
        assert got == want

    def test_written_lines_are_not_decoded(self, tmp_path):
        cfg = GenConfig(n=300, p_unans=0.4, ambiguity=0.3, seed=8)
        path = tmp_path / "data.jsonl"
        write_lines(path, iter_lines(cfg))
        want = ref.columns_of(generate_dataset(cfg))
        calls = []
        with _counted_decodes(calls):
            assert read_columns(path) == want
        assert calls == []

    def test_lines_in_other_forms_are_decoded(self, tmp_path):
        """A file whose every other line is in another JSON form: its heads
        are those of its items, and exactly those other lines are decoded."""
        items = generate_dataset(GenConfig(n=300, p_unans=0.4, seed=8))
        path = tmp_path / "data.jsonl"
        write_lines(path, [
            json.dumps(ref.item_to_dict(item), sort_keys=True) if i % 2 == 0
            else json.dumps(ref.item_to_dict(item), separators=(",", ":"))
            for i, item in enumerate(items)
        ])
        calls = []
        with _counted_decodes(calls):
            assert read_columns(path) == ref.columns_of(items)
        assert len(calls) == len(items) // 2

    def test_scanned_heads_share_equal_parts(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, iter_lines(GenConfig(n=300, p_unans=0.4, seed=8)))
        heads = read_columns(path).heads
        for name in ("feature", "gold"):
            values = [getattr(head, name) for head in heads]
            first: dict = {}
            assert all(first.setdefault(v, v) is v for v in values), name
            assert len(first) < len(values), name


def _mc_records(n):
    return [
        MCSourceRecord(
            question=f"question {i}",
            options=(f"opt{i}a", f"opt{i}b", f"opt{i}c", f"opt{i}d"),
            answer_key="ABCD"[i % 4],
        )
        for i in range(n)
    ]


class TestBuildAbstainedMc:
    def test_counts_and_shape(self):
        items = build_abstained_mc(_mc_records(100), ratio=0.12, seed=1)
        assert len(items) == 100
        assert sum(1 for i in items if i.unanswerable) == 12
        for item in items:
            assert len(item.options) == 3
            assert item.answer_key in ("A", "B", "C", "D")
            assert (item.answer_key == "D") == item.unanswerable

    def test_remapped_key_points_at_original_correct_text(self):
        records = _mc_records(60)
        items = build_abstained_mc(records, ratio=0.25, seed=2)
        for rec, item in zip(records, items):
            correct_text = rec.options["ABCD".index(rec.answer_key)]
            if item.unanswerable:
                assert correct_text not in item.options
            else:
                assert item.options["ABC".index(item.answer_key)] == correct_text

    def test_question_multiset_preserved(self):
        records = _mc_records(50)
        items = build_abstained_mc(records, ratio=0.12, seed=3)
        assert sorted(i.question for i in items) == sorted(r.question for r in records)

    def test_deterministic(self):
        records = _mc_records(40)
        a = build_abstained_mc(records, seed=9)
        b = build_abstained_mc(records, seed=9)
        assert a == b

    def test_source_validation(self):
        with pytest.raises(DatasetError):
            MCSourceRecord(question="q", options=("a", "b", "c"), answer_key="A")
        with pytest.raises(DatasetError):
            MCSourceRecord(question="q", options=("a", "b", "c", "d"), answer_key="E")

    def test_read_sources_reports_line(self, tmp_path):
        path = tmp_path / "mc.jsonl"
        path.write_text(
            json.dumps({"question": "q", "options": ["a", "b", "c", "d"], "answer_key": "A"})
            + "\nnot json\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match=":2:"):
            read_mc_sources(path)


class TestFiles:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_lines(path, ["old 1", "old 2"])
        before = path.read_bytes()

        def lines():
            yield "new 1"
            raise RuntimeError("cut off")

        with pytest.raises(RuntimeError, match="cut off"):
            write_lines(path, lines())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_new_file_mode_follows_umask(self, tmp_path):
        umask = os.umask(0o022)
        try:
            write_lines(tmp_path / "new.csv", ["a,b"])
        finally:
            os.umask(umask)
        assert (tmp_path / "new.csv").stat().st_mode & 0o777 == 0o644

    def test_each_line_ends_in_a_newline(self, tmp_path):
        path = tmp_path / "a" / "b" / "c.txt"
        write_lines(path, ["x", "", "y"])
        assert path.read_bytes() == b"x\n\ny\n"

    @pytest.mark.parametrize(
        "read",
        [lambda path: list(iter_dataset(path)), read_mc_sources, KGStore.read_jsonl, TrainLog.read],
        ids=["dataset", "mc-sources", "kg-store", "train-log"],
    )
    def test_invalid_json_names_its_line(self, tmp_path, read):
        # line 1 is blank and skipped, so the error must still count it
        path = tmp_path / "broken.jsonl"
        path.write_text("\n{not json\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=":2: invalid JSON"):
            read(path)

    @pytest.mark.parametrize(
        "read, kind, first_field",
        [
            (lambda path: list(iter_dataset(path)), "dataset", "specifier"),
            (read_mc_sources, "multiple-choice source", "options"),
            (KGStore.read_jsonl, "quadruple", "head"),
            (TrainLog.read, "train", "iteration"),
        ],
        ids=["dataset", "mc-sources", "kg-store", "train-log"],
    )
    @pytest.mark.parametrize("line", ["[1]", "{}"], ids=["not-object", "empty-object"])
    def test_same_fault_same_message(self, tmp_path, read, kind, first_field, line):
        path = tmp_path / "broken.jsonl"
        path.write_text("\n" + line + "\n", encoding="utf-8")
        fault = {
            "[1]": "record must be a JSON object, got [1]",
            "{}": f"missing field {first_field!r}",
        }[line]
        with pytest.raises(DatasetError, match=f":2: bad {kind} record: {re.escape(fault)}$"):
            read(path)

    def test_directory_target_is_refused_before_writing(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        consumed = []

        def lines():
            consumed.append(True)
            yield "x"

        with pytest.raises(IsADirectoryError) as info:
            write_lines(target, lines())
        assert info.value.filename == str(target)
        assert not consumed
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize(
        "read",
        [
            lambda path: list(iter_dataset(path)), read_mc_sources, KGStore.read_jsonl,
            TrainLog.read, read_text,
        ],
        ids=["dataset", "mc-sources", "kg-store", "train-log", "text"],
    )
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_bytes_not_utf8_name_their_line(self, tmp_path, read, newline):
        # line 1 is blank; the stray byte sits past a valid two-byte character
        path = tmp_path / "broken.jsonl"
        path.write_bytes(newline + '"\u00e9'.encode() + b"\xff" + b'"' + newline)
        with pytest.raises(DatasetError, match=":2: not valid UTF-8"):
            read(path)
