import os
import re
from dataclasses import replace

import numpy as np
import pytest

from svcascade.errors import CapacityError, ValidationError
from svcascade.synthcorpus import (
    CORPUS_FILE, CorpusSpec, generate_corpus, load_corpus, load_trials, save_corpus,
    save_trials, split_trials)


def small_spec(**kwargs):
    defaults = dict(languages=2, speakers_per_language=3, utterances_per_speaker=4,
                    keyword_frames=8, query_frames=12, feature_dim=6, seed=7)
    defaults.update(kwargs)
    return CorpusSpec(**defaults)


def test_generation_is_deterministic():
    a = generate_corpus(small_spec())
    b = generate_corpus(small_spec())
    assert a.ids == b.ids
    assert a.keyword.tobytes() == b.keyword.tobytes()
    assert a.query.tobytes() == b.query.tobytes()


def test_utterance_count_is_product_of_counts():
    corpus = generate_corpus(small_spec())
    assert len(corpus.ids) == 2 * 3 * 4


def test_segment_shapes():
    corpus = generate_corpus(small_spec())
    assert corpus.keyword.shape == (24, 8, 6) and corpus.keyword.dtype == np.float32
    assert corpus.query.shape == (24, 12, 6) and corpus.query.dtype == np.float32


def test_noise_free_mean_frame_recovers_voice_vector():
    """The sinusoid banks sum to zero over a segment, so without noise every
    keyword and query row of a speaker has its voice as the mean frame."""
    corpus = generate_corpus(small_spec(utterance_noise_scale=0.0))
    for rows in corpus.speaker_rows(range(2)).values():
        means = np.concatenate([corpus.keyword[rows].mean(axis=1), corpus.query[rows].mean(axis=1)])
        assert np.allclose(means, means[0], atol=1e-4)


def test_voice_vector_separation():
    spec = CorpusSpec(languages=3, speakers_per_language=8, utterances_per_speaker=2,
                      feature_dim=16, utterance_noise_scale=0.2, seed=5)
    # noise 0 scales the same noise draws, so the voices are those of `spec`
    clean = generate_corpus(replace(spec, utterance_noise_scale=0.0))
    voices = [clean.keyword[rows[0]].mean(axis=0, dtype=np.float64)
              for rows in clean.speaker_rows(range(3)).values()]
    cross = []
    for i in range(len(voices)):
        for j in range(i + 1, len(voices)):
            a, b = voices[i], voices[j]
            cross.append(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    assert max(cross) < 1.0  # same-speaker cosine is exactly 1


def test_utterance_overrides():
    spec = small_spec(utterance_overrides={1: 2})
    corpus = generate_corpus(spec)
    for lang, expected in ((0, 4), (1, 2)):
        for sid, rows in corpus.speaker_rows([lang]).items():
            assert len(rows) == expected
            assert [corpus.ids[row] for row in rows] == [f"{sid}u{u}" for u in range(expected)]
            assert {corpus.speaker_ids[row] for row in rows} == {sid}


@pytest.mark.parametrize("bad", [
    dict(languages=0), dict(feature_dim=0), dict(utterances_per_speaker=0),
    dict(language_shift_scale=-1.0), dict(utterance_noise_scale=float("nan")),
])
def test_invalid_spec_rejected(bad):
    with pytest.raises(ValidationError):
        generate_corpus(small_spec(**bad))


def test_split_trials_counts_and_labels():
    corpus = generate_corpus(small_spec())
    trials = split_trials(corpus, 100, 100, 3, seed=1)
    labels = [t.is_target for t in trials]
    assert sum(labels) == 100
    assert len(labels) - sum(labels) == 100
    for t in trials:
        assert len(t.enroll_utterance_ids) == 3
        test_speaker = corpus.speaker_ids[corpus.row(t.test_utterance_id)]
        assert (test_speaker == t.enroll_speaker_id) == t.is_target


def test_split_trials_deterministic():
    corpus = generate_corpus(small_spec())
    a = split_trials(corpus, 50, 50, 2, seed=9)
    b = split_trials(corpus, 50, 50, 2, seed=9)
    assert a == b


def test_no_enrollment_test_leakage():
    corpus = generate_corpus(small_spec())
    trials = split_trials(corpus, 80, 80, 3, seed=2)
    enrolled = {u for t in trials for u in t.enroll_utterance_ids}
    tested = {t.test_utterance_id for t in trials}
    assert not (enrolled & tested)


def test_capacity_error_names_shortfall():
    corpus = generate_corpus(small_spec())
    with pytest.raises(CapacityError, match="utterances"):
        split_trials(corpus, 10, 10, 4, seed=0)  # 4 enroll + 1 test > 4 utts


def test_split_refuses_a_language_the_corpus_lacks():
    corpus = generate_corpus(small_spec())
    for languages, message in (([9], "corpus has no language 9"),
                               ([0, -1], "corpus has no language -1"),
                               ([], "at least one language")):
        with pytest.raises(CapacityError, match=message):
            split_trials(corpus, 10, 10, 2, seed=0, languages=languages)


def test_split_needs_two_speakers_for_nontargets():
    corpus = generate_corpus(small_spec(speakers_per_language=1))
    with pytest.raises(CapacityError, match="nontarget trials need >= 2 speakers"):
        split_trials(corpus, 10, 10, 2, seed=0, languages=[0])
    # targets alone need one speaker, and both languages pooled hold two
    assert len(split_trials(corpus, 10, 0, 2, seed=0, languages=[0])) == 10
    assert len(split_trials(corpus, 10, 10, 2, seed=0)) == 20


def test_corpus_roundtrip_bytes(tmp_path):
    corpus = generate_corpus(small_spec(utterance_overrides={1: 2}))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    save_corpus(corpus, str(d1))
    save_corpus(generate_corpus(small_spec(utterance_overrides={1: 2})), str(d2))
    assert sorted(os.listdir(d1)) == [CORPUS_FILE]
    assert (d1 / CORPUS_FILE).read_bytes() == (d2 / CORPUS_FILE).read_bytes()
    loaded = load_corpus(str(d1))
    assert loaded.spec == corpus.spec
    assert loaded.spec.utterance_overrides == {1: 2}
    assert (loaded.ids, loaded.speaker_ids) == (corpus.ids, corpus.speaker_ids)
    for a, b in ((loaded.keyword, corpus.keyword), (loaded.query, corpus.query)):
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()


def _rewrite(**members):
    """An edit that saves the corpus again with `members` replaced; None drops one."""
    def edit(d):
        path = d / CORPUS_FILE
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays.update(members)
        np.savez(path, **{key: a for key, a in arrays.items() if a is not None})
    return edit


@pytest.mark.parametrize("edit, where", [
    pytest.param(lambda d: (d / CORPUS_FILE).unlink(), "No such file", id="file-missing"),
    pytest.param(lambda d: (d / CORPUS_FILE).write_text("languages=2\n"), "not a readable",
                 id="not-a-zip"),
    pytest.param(lambda d: (d / CORPUS_FILE).write_bytes((d / CORPUS_FILE).read_bytes()[:900]),
                 "not a zip file", id="truncated"),
    pytest.param(_rewrite(query=None), r"missing members \['query'\]$", id="member-missing"),
    pytest.param(_rewrite(extra=np.zeros(1)), r"unknown members \['extra'\]$",
                 id="member-unknown"),
    pytest.param(_rewrite(keyword=np.zeros((24, 3, 6), np.float32)), "keyword must be",
                 id="keyword-shape"),
    pytest.param(_rewrite(query=np.zeros((24, 12, 6))), "query must be <f4", id="query-float64"),
    pytest.param(_rewrite(keyword=np.full((24, 8, 6), np.inf, np.float32)),
                 "keyword must be .* with finite values", id="keyword-non-finite"),
    pytest.param(_rewrite(keyword=np.array([None, "x"], dtype=object)), "Object arrays",
                 id="object-array"),
    pytest.param(_rewrite(feature_dim=np.array(0)), "feature_dim must be a count",
                 id="feature-dim-zero"),
    pytest.param(_rewrite(languages=np.array(2.5)), "languages must be a single int",
                 id="languages-non-integer"),
])
def test_corrupt_corpus_names_path(tmp_path, edit, where):
    save_corpus(generate_corpus(small_spec()), str(tmp_path))
    edit(tmp_path)
    with pytest.raises(ValidationError, match=rf"corpus\.npz: .*{where}"):
        load_corpus(str(tmp_path))


def test_interrupted_save_leaves_no_corpus(tmp_path, monkeypatch):
    savez = np.savez

    def save_some_then_stop(file, **arrays):
        savez(file, **dict(list(arrays.items())[:3]))
        raise KeyboardInterrupt

    monkeypatch.setattr(np, "savez", save_some_then_stop)
    with pytest.raises(KeyboardInterrupt):
        save_corpus(generate_corpus(small_spec()), str(tmp_path))
    assert os.listdir(tmp_path) == []


def test_unknown_utterance_id_is_named_by_trial_line(tmp_path):
    corpus = generate_corpus(small_spec())
    for uid in ("l0s3u0", "l0s0u4", "x"):  # a fourth speaker, a fifth utterance
        with pytest.raises(ValidationError, match=rf"^unknown utterance id '{uid}'$"):
            corpus.row(uid)
    path = tmp_path / "trials.tsv"
    path.write_text("l0s0\tl0s0u0,l0s0u1\tl0s0u2\ttgt\nl0s0\tl0s0u0,l0s0u1\tl0s0u4\ttgt\n")
    with pytest.raises(ValidationError,
                       match=rf"^{re.escape(str(path))}:2: unknown utterance id 'l0s0u4'$"):
        load_trials(str(path), corpus)


def test_trial_tsv_roundtrip(tmp_path):
    corpus = generate_corpus(small_spec())
    trials = split_trials(corpus, 20, 20, 2, seed=3)
    path = tmp_path / "trials.tsv"
    save_trials(trials, str(path))
    first = path.read_text().splitlines()[0].split("\t")
    assert len(first) == 4 and first[3] in ("tgt", "non")
    assert load_trials(str(path), corpus) == trials
