from __future__ import annotations

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cdmgen.errors import EmptyExampleDir, MalformedDocument
from cdmgen.knowledge_base import Chunk, KnowledgeBase, ingest_examples, lexical_tokens, retrieve
from cdmgen.template_builder import load_examples

TWO_SUBTREE_EXAMPLE = {
    "alpha": {"first": "one two three", "second": "four five"},
    "beta": {"third": "six seven eight nine"},
}


def write_example(directory, name, payload) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(payload), encoding="utf-8")


def make_chunk(chunk_id: str, body: str) -> Chunk:
    return Chunk(
        chunk_id=chunk_id,
        contract_type="sample",
        source_path="",
        body=body,
        token_estimate=len(lexical_tokens(body)),
    )


# ---------------------------------------------------------------------------
# ingestion


def test_whole_file_fits_single_chunk(tmp_path):
    write_example(tmp_path, "e1.json", TWO_SUBTREE_EXAMPLE)
    kb = ingest_examples(tmp_path, "sample", chunk_budget=100)
    assert len(kb.chunks) == 1
    assert kb.chunks[0].source_path == ""
    assert json.loads(kb.chunks[0].body) == TWO_SUBTREE_EXAMPLE


def test_budget_splits_at_top_level(tmp_path):
    # Hand-split: the whole file costs more than 12 tokens, each top-level
    # subtree wrapped under its key costs at most 12, so the split stops at
    # the two top-level keys.
    write_example(tmp_path, "e1.json", TWO_SUBTREE_EXAMPLE)
    whole = len(lexical_tokens(json.dumps(TWO_SUBTREE_EXAMPLE, indent=2)))
    alpha = len(lexical_tokens(json.dumps({"alpha": TWO_SUBTREE_EXAMPLE["alpha"]}, indent=2)))
    beta = len(lexical_tokens(json.dumps({"beta": TWO_SUBTREE_EXAMPLE["beta"]}, indent=2)))
    assert whole > 12 and alpha <= 12 and beta <= 12
    kb = ingest_examples(tmp_path, "sample", chunk_budget=12)
    assert [c.source_path for c in kb.chunks] == ["alpha", "beta"]
    assert json.loads(kb.chunks[0].body) == {"alpha": TWO_SUBTREE_EXAMPLE["alpha"]}


def test_empty_dir_raises(tmp_path):
    with pytest.raises(EmptyExampleDir):
        ingest_examples(tmp_path, "sample", chunk_budget=10)


def test_examples_without_a_leaf_raise(tmp_path):
    write_example(tmp_path, "empty.json", {})
    write_example(tmp_path, "empty_list.json", [])
    with pytest.raises(EmptyExampleDir, match="has a leaf value"):
        ingest_examples(tmp_path, "sample", chunk_budget=10)


def test_oversized_leaf_emitted_and_flagged(tmp_path):
    write_example(tmp_path, "e1.json", {"blob": "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10"})
    kb = ingest_examples(tmp_path, "sample", chunk_budget=3)
    assert len(kb.chunks) == 1
    assert kb.chunks[0].oversized is True
    assert kb.chunks[0].token_estimate > 3


def test_an_example_nested_hundreds_of_levels_deep_is_split(tmp_path):
    # The split recurses once per level, and counting tokens adds no frame.
    example = "x"
    for _ in range(600):
        example = {"a": example}
    write_example(tmp_path, "deep.json", example)
    [chunk] = ingest_examples(tmp_path, "sample", 5).chunks
    assert chunk.source_path == ".".join(["a"] * 597)
    assert chunk.token_estimate == 5
    assert json.loads(chunk.body) == {"a": {"a": {"a": {"a": "x"}}}}


def test_leaf_partition_across_chunks(tmp_path):
    example = {
        "a": {"x": 1, "y": [2, 3]},
        "b": [{"z": "zz"}, {"z": "ww"}],
        "c": "leaf",
    }
    write_example(tmp_path, "e1.json", example)
    kb = ingest_examples(tmp_path, "sample", chunk_budget=6)
    whole = sorted(oracles.leaf_multiset(example))
    collected: list = []
    for chunk in kb.chunks:
        body = json.loads(chunk.body)
        prefix = ".".join(s for s in chunk.source_path.split(".") if not s.isdigit())
        for path, leaf in oracles.leaf_multiset(body):
            # chunk bodies wrap the subtree under its field name, which is
            # already the last segment of the normalized source path
            base = prefix.rsplit(".", 1)[0] if "." in prefix else ""
            full = f"{base}.{path}" if base else path
            collected.append((full, leaf))
    assert sorted(collected) == whole


def test_chunk_ids_unique(tmp_path):
    write_example(tmp_path, "e1.json", {"a": [{"k": 1}, {"k": 2}], "b": {"k": 3}})
    write_example(tmp_path, "e2.json", {"a": [{"k": 4}]})
    kb = ingest_examples(tmp_path, "sample", chunk_budget=2)
    ids = [c.chunk_id for c in kb.chunks]
    assert len(ids) == len(set(ids))


def test_nested_examples_of_one_name_keep_their_paths_in_chunk_ids(tmp_path):
    write_example(tmp_path / "a", "x.json", {"k": 1})
    write_example(tmp_path / "b", "x.json", {"k": 2})
    write_example(tmp_path, "x.json", {"k": 3})
    ids = [c.chunk_id for c in ingest_examples(tmp_path, "sample", chunk_budget=50).chunks]
    assert ids == ["a/x.json#", "b/x.json#", "x.json#"]
    assert [name for name, _ in load_examples(tmp_path)] == ["a/x.json", "b/x.json", "x.json"]
    (tmp_path / "b" / "x.json").write_text("{", encoding="utf-8")
    with pytest.raises(MalformedDocument) as exc_info:
        load_examples(tmp_path)
    assert exc_info.value.file == "b/x.json"


def test_token_estimates_respect_budget_unless_oversized(tmp_path, examples_root):
    for file in (examples_root / "interest_rate_swap").glob("*.json"):
        write_example(tmp_path, file.name, json.loads(file.read_text(encoding="utf-8")))
    for budget in (5, 20, 80):
        kb = ingest_examples(tmp_path, "InterestRateSwap", chunk_budget=budget)
        for chunk in kb.chunks:
            assert chunk.token_estimate <= budget or chunk.oversized
            json.loads(chunk.body)  # every body is well-formed on its own


# Strings with what indentation and separators would add around them, and
# with text that is not ASCII; keys from a smaller alphabet, so they repeat.
# Escapes and the case mappings of "İ" and the Kelvin sign give ASCII letters.
_WORDS = st.text(alphabet='ab Z9,:."é€中\\\nİ\u212a', max_size=10)
_KEYS = st.text(alphabet="abZ9 :,é\\\nİ\u212a", min_size=1, max_size=4)
_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-99, 99) | st.floats(allow_nan=False, allow_infinity=False) | _WORDS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(_KEYS, children, max_size=3),
    max_leaves=12,
)
# A non-empty object with non-empty keys always has a leaf (an empty
# container under a key is one).
_EXAMPLES = st.lists(st.dictionaries(_KEYS, _TREES, min_size=1, max_size=3), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(
    examples=_EXAMPLES,
    budget=st.integers(1, 40),
    queries=st.lists(st.text(alphabet="abZ9 é,:", max_size=12), min_size=1, max_size=3),
    data=st.data(),
)
def test_minified_bodies_chunk_and_rank_as_indented_ones(examples, budget, queries, data):
    named = [(f"e{i}.json", example) for i, example in enumerate(examples)]
    with tempfile.TemporaryDirectory() as directory:
        for name, example in named:
            write_example(Path(directory), name, example)
        kb = ingest_examples(directory, "sample", budget)
    expected = oracles.ingest_indented(named, "sample", budget)
    def fields(chunks):
        return [(c.chunk_id, c.contract_type, c.source_path, c.token_estimate, c.oversized) for c in chunks]

    assert fields(kb.chunks) == fields(expected)
    for chunk, indented in zip(kb.chunks, expected):
        assert json.loads(chunk.body) == json.loads(indented.body)
        assert len(chunk.body) <= len(indented.body)
    for query in queries:
        k = data.draw(st.integers(1, len(kb.chunks) + 1))
        got = [kb.chunks.index(c) for c in retrieve(kb, query, k)]
        assert got == [expected.index(c) for c in oracles.exhaustive_retrieve(expected, query, k)]


# ---------------------------------------------------------------------------
# lexical retrieval


@pytest.fixture()
def five_chunks() -> KnowledgeBase:
    return KnowledgeBase(
        chunks=(
            make_chunk("c1", '{"alpha": "one"}'),
            make_chunk("c2", '{"beta": "two"}'),
            make_chunk("c3", '{"notional": 500, "currency": "USD"}'),
            make_chunk("c4", '{"delta": "four"}'),
            make_chunk("c5", '{"epsilon": "five"}'),
        )
    )


def test_exact_field_query_ranks_matching_chunk_first(five_chunks):
    # Hand-computed: only c3 shares tokens with the query (notional,
    # currency), giving overlap 2 / 4 body tokens; all others score 0.
    [top] = retrieve(five_chunks, "notional currency", k=1)
    assert top.chunk_id == "c3"


def test_k_larger_than_corpus_returns_all(five_chunks):
    ranked = retrieve(five_chunks, "anything", k=50)
    assert len(ranked) == 5


def test_zero_overlap_falls_back_to_id_order(five_chunks):
    ranked = retrieve(five_chunks, "zzz qqq", k=5)
    assert [c.chunk_id for c in ranked] == ["c1", "c2", "c3", "c4", "c5"]


def test_retrieval_is_deterministic(five_chunks):
    first = [c.chunk_id for c in retrieve(five_chunks, "notional usd", k=3)]
    for _ in range(50):
        assert [c.chunk_id for c in retrieve(five_chunks, "notional usd", k=3)] == first


def test_irrelevant_chunk_preserves_relative_order(five_chunks):
    query = "notional currency alpha"
    before = [c.chunk_id for c in retrieve(five_chunks, query, k=5)]
    extended = KnowledgeBase(chunks=five_chunks.chunks + (make_chunk("zz-pad", '{"qqq": 1}'),))
    after = [c.chunk_id for c in retrieve(extended, query, k=6) if c.chunk_id != "zz-pad"]
    assert after == before


_TEXT = st.text(alphabet='abcAB01 {}[]":,._-\n', max_size=30)
# Drawn often, so bases repeat bodies and queries hit them; "{}" and "[]"
# have no tokens, and repeated tokens make the token count exceed the
# distinct-token count.
_BODIES = st.one_of(
    _TEXT,
    st.sampled_from(["{}", "[]", '{"alpha": "one"}', "ALPHA beta 01", '{"a": "a", "b": [1, 1]}']),
)
_QUERIES = st.one_of(_TEXT, st.sampled_from(["alpha", "beta one", "a b", "01 1"]))


@settings(max_examples=200, deadline=None)
@given(
    bodies=st.lists(_BODIES, min_size=1, max_size=8),
    queries=st.lists(_QUERIES, min_size=1, max_size=4),
    data=st.data(),
)
def test_retrieval_matches_an_exhaustive_scan(bodies, queries, data):
    # Ids are drawn with replacement, so chunks may share one; one base
    # answers every query from the index its first query built.
    ids = st.sampled_from([f"c{i}" for i in range(len(bodies))])
    kb = KnowledgeBase(chunks=[make_chunk(data.draw(ids), body) for body in bodies])
    for query in queries:
        k = data.draw(st.integers(1, len(kb.chunks) + 2))
        got = retrieve(kb, query, k)
        expected = oracles.exhaustive_retrieve(kb.chunks, query, k)
        assert [id(chunk) for chunk in got] == [id(chunk) for chunk in expected]


def test_retrieval_ranks_by_current_bodies_under_reused_chunk_ids():
    first = KnowledgeBase(
        chunks=[make_chunk("c1", '{"alpha": "one"}'), make_chunk("c2", '{"beta": "two"}')]
    )
    assert [c.chunk_id for c in retrieve(first, "alpha", k=1)] == ["c1"]
    second = KnowledgeBase(
        chunks=[make_chunk("c1", '{"beta": "two"}'), make_chunk("c2", '{"alpha": "one"}')]
    )
    assert [c.chunk_id for c in retrieve(second, "alpha", k=1)] == ["c2"]


def test_retrieve_rejects_bad_arguments(five_chunks):
    with pytest.raises(ValueError):
        retrieve(five_chunks, "q", k=0)
    with pytest.raises(ValueError):
        retrieve(KnowledgeBase(chunks=[]), "q", k=1)


def test_a_base_is_immutable_and_indexed_once(tmp_path, five_chunks):
    write_example(tmp_path / "examples", "e1.json", TWO_SUBTREE_EXAMPLE)
    ingested = ingest_examples(tmp_path / "examples", "sample", chunk_budget=12)
    five_chunks.save(tmp_path / "kb.json")
    loaded = KnowledgeBase.load(tmp_path / "kb.json")
    source = list(five_chunks.chunks)
    from_list = KnowledgeBase(chunks=source)
    source.append(make_chunk("c6", '{"alpha": "six"}'))
    assert from_list == five_chunks
    for kb in (ingested, loaded, five_chunks, from_list):
        assert isinstance(kb.chunks, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            kb.chunks = ()
        retrieve(kb, "alpha", k=1)
        assert kb._postings is kb._postings
    assert loaded == five_chunks


# ---------------------------------------------------------------------------
# persistence


def test_save_load_roundtrip(tmp_path, five_chunks):
    target = tmp_path / "kb.json"
    five_chunks.save(target)
    assert target.read_text(encoding="utf-8") == five_chunks.to_text()
    assert set(json.loads(five_chunks.to_text())) == {"chunks"}
    loaded = KnowledgeBase.load(target)
    assert loaded.chunks == five_chunks.chunks


def test_files_in_the_earlier_format_load_and_rank_lexically(tmp_path, five_chunks):
    # Earlier versions wrote a "scorer" and "embedding_dim" key and a
    # "vector" per chunk; loading ignores them, embedded files included.
    def chunk_entry(chunk, vector):
        return {
            "chunk_id": chunk.chunk_id,
            "contract_type": chunk.contract_type,
            "source_path": chunk.source_path,
            "body": chunk.body,
            "token_estimate": chunk.token_estimate,
            "oversized": chunk.oversized,
            "vector": vector,
        }

    chunks = five_chunks.chunks
    lexical = {
        "scorer": "lexical",
        "embedding_dim": None,
        "chunks": [chunk_entry(c, None) for c in chunks],
    }
    embedded = {
        "scorer": "embedding",
        "embedding_dim": 2,
        "chunks": [chunk_entry(c, [float(i == 0), float(i != 0)]) for i, c in enumerate(chunks)],
    }
    queries = ["notional currency", "alpha two", "zzz", "usd 500 beta"]
    for name, payload in (("lexical.json", lexical), ("embedded.json", embedded)):
        path = tmp_path / name
        path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        loaded = KnowledgeBase.load(path)
        assert loaded.chunks == chunks
        for query in queries:
            for k in (1, 3, 5):
                got = [c.chunk_id for c in retrieve(loaded, query, k)]
                assert got == [c.chunk_id for c in retrieve(five_chunks, query, k)]

