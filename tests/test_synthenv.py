"""Generator consistency, the dataset reader, the abstained-MC builder, and
the JSON-Lines reader and atomic writer every file goes through."""

import copy
import dataclasses
import json
import os
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from abstainrl.grpo import TrainLog
from abstainrl.policy import Difficulty, Evidence
from abstainrl.retrieval import KGStore
from abstainrl.synthenv import (
    DatasetError,
    GenConfig,
    MCSourceRecord,
    TemporalFact,
    TimeInterval,
    TimeSpecifier,
    answerability_oracle,
    build_abstained_mc,
    generate_dataset,
    item_to_dict,
    read_dataset,
    read_mc_sources,
    read_text,
    write_dataset,
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
        assert TimeSpecifier.in_year(1969).window() == (1969, 1969)

    def test_between(self):
        assert TimeSpecifier.between(1966, 1967).window() == (1966, 1967)
        with pytest.raises(ValueError):
            TimeSpecifier.between(1967, 1966)

    def test_after_excludes_the_named_year(self):
        lo, hi = TimeSpecifier.after(1969).window()
        assert lo == 1970

    def test_before_excludes_the_named_year(self):
        _, hi = TimeSpecifier.before(1957).window()
        assert hi == 1956

    def test_early_decade(self):
        assert TimeSpecifier.early_decade(1980).window() == (1980, 1983)

    def test_difficulty_split(self):
        assert TimeSpecifier.in_year(1969).difficulty is Difficulty.EASY
        assert TimeSpecifier.between(1, 2).difficulty is Difficulty.EASY
        for spec in (
            TimeSpecifier.after(1969),
            TimeSpecifier.before(1957),
            TimeSpecifier.early_decade(1980),
        ):
            assert spec.difficulty is Difficulty.HARD


class TestAnswerabilityOracle:
    def test_single_matching_fact(self):
        facts = [TemporalFact("X", "role", "chief", TimeInterval(1969, 1975))]
        gold = answerability_oracle(facts, TimeSpecifier.after(1969))
        assert gold.aliases == ("chief",)

    def test_no_matching_fact(self):
        facts = [TemporalFact("X", "role", "chief", TimeInterval(1950, 1960))]
        assert answerability_oracle(facts, TimeSpecifier.in_year(1970)).is_no_answer

    def test_conflicting_objects(self):
        facts = [
            TemporalFact("X", "role", "chief", TimeInterval(1969, 1975)),
            TemporalFact("X", "role", "deputy", TimeInterval(1970, 1972)),
        ]
        assert answerability_oracle(facts, TimeSpecifier.in_year(1971)).is_no_answer

    def test_same_object_twice_is_answerable(self):
        facts = [
            TemporalFact("X", "role", "chief", TimeInterval(1969, 1970)),
            TemporalFact("X", "role", "chief", TimeInterval(1971, 1975)),
        ]
        gold = answerability_oracle(facts, TimeSpecifier.between(1969, 1975))
        assert gold.aliases == ("chief",)


class TestGenerateDataset:
    @pytest.mark.parametrize("n", [10, 100, 1000])
    @pytest.mark.parametrize("p", [0.0, 0.124, 0.5, 1.0])
    def test_exact_unanswerable_fraction(self, n, p):
        items = generate_dataset(GenConfig(n_items=n, p_unans=p, seed=3))
        assert len(items) == n
        assert sum(1 for i in items if i.gold.is_no_answer) == round(n * p)

    def test_determinism(self):
        cfg = GenConfig(n_items=60, p_unans=0.3, seed=17)
        a = [item_to_dict(i) for i in generate_dataset(cfg)]
        b = [item_to_dict(i) for i in generate_dataset(cfg)]
        assert a == b

    def test_regeneration_consistency(self):
        items = generate_dataset(GenConfig(n_items=300, p_unans=0.4, ambiguity=0.6, seed=5))
        for item in items:
            assert answerability_oracle(item.facts, item.specifier) == item.gold

    def test_answerable_items_have_gold_candidate(self):
        items = generate_dataset(GenConfig(n_items=200, p_unans=0.3, seed=6))
        for item in items:
            if item.gold.is_no_answer:
                continue
            gold_hits = [c for c in (item.candidate_a, item.candidate_b) if c in item.gold.aliases]
            assert len(gold_hits) == 1

    def test_candidates_token_disjoint(self):
        items = generate_dataset(GenConfig(n_items=200, p_unans=0.5, seed=7))
        for item in items:
            a = set(normalize_text(item.candidate_a))
            b = set(normalize_text(item.candidate_b))
            assert not a & b

    def test_zero_ambiguity_feature_matches_truth(self):
        items = generate_dataset(GenConfig(n_items=150, p_unans=0.5, ambiguity=0.0, seed=8))
        for item in items:
            if item.gold.is_no_answer:
                assert item.feature.evidence in (Evidence.CONTRADICTS, Evidence.NO_EVIDENCE)
            else:
                assert item.feature.evidence is Evidence.SUPPORTS

    def test_full_ambiguity_hides_everything(self):
        items = generate_dataset(GenConfig(n_items=100, p_unans=0.5, ambiguity=1.0, seed=9))
        assert all(i.feature.evidence is Evidence.NO_EVIDENCE for i in items)

    def test_unanswerable_never_observed_as_supports(self):
        items = generate_dataset(GenConfig(n_items=400, p_unans=0.5, ambiguity=0.7, seed=10))
        for item in items:
            if item.gold.is_no_answer:
                assert item.feature.evidence is not Evidence.SUPPORTS

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig(n_items=0)
        with pytest.raises(ValueError):
            GenConfig(n_items=10, p_unans=1.2)
        with pytest.raises(ValueError):
            GenConfig(n_items=10, ambiguity=-0.1)


class TestDatasetSerialization:
    def test_roundtrip(self, tmp_path):
        items = generate_dataset(GenConfig(n_items=40, p_unans=0.4, seed=11))
        path = tmp_path / "data.jsonl"
        write_dataset(items, path)
        again = read_dataset(path)
        assert [item_to_dict(i) for i in again] == [item_to_dict(i) for i in items]

    def test_stable_field_names(self, tmp_path):
        items = generate_dataset(GenConfig(n_items=1, seed=12))
        payload = item_to_dict(items[0])
        assert set(payload) == {
            "id", "question", "specifier", "facts", "gold", "candidates", "feature",
        }

    def test_items_and_facts_are_slotted(self):
        """No per-instance ``__dict__``; replace, equality and hashing hold."""
        item = generate_dataset(GenConfig(n_items=1, p_unans=0.0, seed=0))[0]
        for value, field in ((item, "id"), (item.facts[0], "obj")):
            assert not hasattr(value, "__dict__")
            twin = dataclasses.replace(value)
            assert twin == value and twin is not value and hash(twin) == hash(value)
            other = dataclasses.replace(value, **{field: "other"})
            assert getattr(other, field) == "other" and other != value
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field, "other")

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        good = json.dumps(item_to_dict(generate_dataset(GenConfig(n_items=1, seed=0))[0]))
        path.write_text(good + "\n{not json\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=":2:"):
            read_dataset(path)

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
        record = item_to_dict(generate_dataset(GenConfig(n_items=1, p_unans=0.0, seed=0))[0])
        edit(record)
        path = tmp_path / "typed.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=f":1: bad dataset record: {named} must"):
            read_dataset(path)


# Valid dataset records drawn from small pools, so that records repeat their
# specifiers, facts' scopes, golds and features; 0 and 1 are among the years
# so that a later record can hold their bool twins.
_YEARS = st.sampled_from([0, 1, 1990, 1991])
_TEXTS = st.sampled_from(["Alma", "Seabrook Rovers", "x, \"y\""])


def _scope(years):
    start, end = sorted(years)
    return {"start": start, "end": end}


_VALID_RECORDS = st.fixed_dictionaries(
    {
        "id": st.text(max_size=3),
        "question": st.text(max_size=3),
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
    """The items of ``records``, or the message ``read_dataset`` gives, past
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
    record = item_to_dict(generate_dataset(GenConfig(n_items=1, p_unans=0.0, seed=0))[0])
    return {**record, **fields}


def _record_with_year(year):
    return _record(specifier={"kind": "in_year", "years": [year]})


_FACT = {"subject": "s", "relation": "r", "object": "o", "start": 0, "end": 1}


class TestReadDataset:
    """``read_dataset`` shares the parts of records with equal JSON content,
    and is held to ``ref.item_from_dict``, which builds every part afresh."""

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
            got = read_dataset(path)
        except DatasetError as exc:
            got = str(exc).removeprefix(str(path))
        assert got == _oracle_read(records)

    def test_equal_parts_are_one_object(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_dataset(generate_dataset(GenConfig(n_items=300, p_unans=0.4, seed=8)), path)
        items = read_dataset(path)
        parts = {
            "specifier": [item.specifier for item in items],
            "gold": [item.gold for item in items],
            "feature": [item.feature for item in items],
            "scope": [fact.scope for item in items for fact in item.facts],
            # one pool across fields: an alias equal to a candidate is one object
            "text": [
                *(t for item in items for f in item.facts for t in (f.subject, f.relation, f.obj)),
                *(t for item in items for t in (item.candidate_a, item.candidate_b)),
                *(t for item in items for t in item.gold.aliases),
            ],
        }
        for name, values in parts.items():
            first: dict = {}
            assert all(first.setdefault(v, v) is v for v in values), name
            assert len(first) < len(values), name

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
            read_dataset(path)


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
        [read_dataset, read_mc_sources, KGStore.read_jsonl, TrainLog.read],
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
            (read_dataset, "dataset", "specifier"),
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
        [read_dataset, read_mc_sources, KGStore.read_jsonl, TrainLog.read, read_text],
        ids=["dataset", "mc-sources", "kg-store", "train-log", "text"],
    )
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_bytes_not_utf8_name_their_line(self, tmp_path, read, newline):
        # line 1 is blank; the stray byte sits past a valid two-byte character
        path = tmp_path / "broken.jsonl"
        path.write_bytes(newline + '"\u00e9'.encode() + b"\xff" + b'"' + newline)
        with pytest.raises(DatasetError, match=":2: not valid UTF-8"):
            read(path)
