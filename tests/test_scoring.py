import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svcascade import dvector, errors, ge2e, scoring
from svcascade.errors import ValidationError
from svcascade.metrics import compute_eer
from svcascade.scoring import (
    aggregate_enrollment, cosine_score, load_scores, save_scores, score_trials, system_scores)
from svcascade.synthcorpus import split_trials


def unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


def test_aggregate_single_embedding_is_identity():
    e = unit([3.0, 4.0])
    assert np.allclose(aggregate_enrollment([e]), e)


def test_aggregate_two_axes_gives_diagonal():
    out = aggregate_enrollment([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_aggregate_rejects_cancellation():
    e = unit([1.0, 2.0, -1.0])
    with pytest.raises(ValidationError, match="degenerate"):
        aggregate_enrollment([e, -e])


def test_aggregate_rejects_non_unit_input():
    with pytest.raises(ValidationError, match="unit-norm"):
        aggregate_enrollment([np.array([2.0, 0.0])])
    with pytest.raises(ValidationError):
        aggregate_enrollment([])


def test_aggregate_order_invariant():
    rng = np.random.default_rng(0)
    embs = [unit(rng.standard_normal(8)) for _ in range(5)]
    a = aggregate_enrollment(embs)
    b = aggregate_enrollment(embs[::-1])
    assert np.allclose(a, b, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6))
def test_aggregate_output_is_unit_norm(seed, count):
    rng = np.random.default_rng(seed)
    embs = [unit(rng.standard_normal(5)) for _ in range(count)]
    out = aggregate_enrollment(embs)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_cosine_hand_case():
    a = np.array([0.6, 0.8])
    b = np.array([1.0, 0.0])
    assert cosine_score(a, b) == pytest.approx(0.6, abs=1e-12)


def test_cosine_symmetric_and_bounded():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = unit(rng.standard_normal(6))
        b = unit(rng.standard_normal(6))
        s = cosine_score(a, b)
        assert s == pytest.approx(cosine_score(b, a), abs=1e-15)
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12
    assert cosine_score(a, a) == pytest.approx(1.0, abs=1e-12)
    assert cosine_score(a, -a) == pytest.approx(-1.0, abs=1e-12)


def test_cosine_rejects_unnormalized():
    with pytest.raises(ValidationError):
        cosine_score(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


def test_score_trials_order_and_labels(small_corpus, trained_models, scored_trials):
    trials = split_trials(small_corpus, 200, 200, 3, seed=11)
    assert scored_trials.speakers == [t.enroll_speaker_id for t in trials]
    assert scored_trials.utterances == [t.test_utterance_id for t in trials]
    assert scored_trials.labels.tolist() == [t.is_target for t in trials]
    for column in (scored_trials.td, scored_trials.ti):
        assert column.shape == (len(trials),)
        assert np.all((-1.0 <= column) & (column <= 1.0))


def test_score_trials_matches_per_utterance_reference(small_corpus, trained_models,
                                                      scored_trials):
    """Batched scores equal B = 1 embeddings, enrollment averaging and
    cosine scoring trial by trial."""
    trials = split_trials(small_corpus, 200, 200, 3, seed=11)
    for column, params, segment in (
            (scored_trials.td, trained_models["td"], lambda row: small_corpus.keyword[row]),
            (scored_trials.ti, trained_models["ti"],
             lambda row: np.concatenate([small_corpus.keyword[row], small_corpus.query[row]]))):
        def embed(uid):
            return dvector.forward_embedding(params, segment(small_corpus.row(uid)))
        expected = [cosine_score(aggregate_enrollment([embed(u) for u in t.enroll_utterance_ids]),
                                 embed(t.test_utterance_id)) for t in trials]
        np.testing.assert_allclose(column, expected, rtol=0, atol=1e-12)


def test_system_scores_is_the_ti_column(small_corpus, trained_models, scored_trials, monkeypatch):
    trials = split_trials(small_corpus, 200, 200, 3, seed=11)
    utterances = {u for t in trials for u in (*t.enroll_utterance_ids, t.test_utterance_id)}
    calls, forward_batch = [], dvector.forward_batch

    def counted(params, frames):
        calls.append(len(frames))
        return forward_batch(params, frames)

    monkeypatch.setattr(dvector, "forward_batch", counted)
    ti = system_scores(trained_models["ti"], ge2e.SEGMENT_KEYWORD_QUERY, small_corpus, trials)
    assert np.array_equal(ti, scored_trials.ti)
    assert len(utterances) > scoring._SCORE_BATCH
    assert max(calls) <= scoring._SCORE_BATCH and sum(calls) == len(utterances)
    assert len(calls) == -(-len(utterances) // scoring._SCORE_BATCH)


def test_system_scores_rejects_unknown_segment(small_corpus, trained_models):
    trials = split_trials(small_corpus, 5, 5, 3, seed=17)
    with pytest.raises(ValidationError, match="unknown segment"):
        system_scores(trained_models["ti"], "query", small_corpus, trials)


def test_trained_models_separate_speakers(scored_trials):
    td, ti, labels = scored_trials.td, scored_trials.ti, scored_trials.labels
    assert np.mean(td[labels]) > np.mean(td[~labels]) + 0.2
    assert compute_eer(td[labels], td[~labels]).eer < 0.15
    assert compute_eer(ti[labels], ti[~labels]).eer < 0.15


def test_scores_tsv_roundtrip(tmp_path, scored_trials):
    path = tmp_path / "scores.tsv"
    save_scores(str(path), scored_trials)
    data = path.read_bytes()
    assert b"\r" not in data and data.count(b"\n") == len(scored_trials.td)
    # as written, then with CRLF line ends and a blank first line
    for content in (data, b"\r\n" + data.replace(b"\n", b"\r\n")):
        path.write_bytes(content)
        loaded = load_scores(str(path))
        assert loaded.speakers == scored_trials.speakers
        assert loaded.utterances == scored_trials.utterances
        assert loaded.labels.tolist() == scored_trials.labels.tolist()
        assert loaded.td == pytest.approx(scored_trials.td, abs=1e-9)
        assert loaded.ti == pytest.approx(scored_trials.ti, abs=1e-9)


def test_load_scores_rejects_malformed(tmp_path):
    path = tmp_path / "bad.tsv"
    for text, where in (("a\tb\tmaybe\t0.5\t0.5\n", "bad.tsv:1: malformed score line"),
                        ("s0\tu0\ttgt\t0.9\t0.8\n\ns0\tu1\tnon\t0.1\n",
                         "bad.tsv:3: expected 5 fields")):
        path.write_text(text)
        with pytest.raises(ValidationError, match=where):
            load_scores(str(path))


def _memo_table(name):
    """A small table whose speaker ids, and so whose text, no other test writes."""
    return scoring.ScoreTable([name] * 4, ["u0", "u1", "u2", "u3"],
                              np.array([True, False, True, False]),
                              np.array([0.25, -0.5, 0.75, 0.0]), np.array([0.5, 0.125, -0.25, 1.0]))


def _same_table(a, b):
    return (a.speakers, a.utterances) == (b.speakers, b.utterances) and all(
        getattr(a, k).tobytes() == getattr(b, k).tobytes() for k in ("labels", "td", "ti"))


def test_unchanged_text_is_parsed_once(tmp_path):
    path = str(tmp_path / "scores.tsv")
    save_scores(path, _memo_table("once"))
    with mock.patch.object(scoring, "_score_columns", wraps=scoring._score_columns) as parse:
        first = load_scores(path)
        parsed = parse.call_count
        second = load_scores(path)
    assert parsed == 1 and parse.call_count == 1
    assert _same_table(first, second) and _same_table(first, _memo_table("once"))


def test_a_rewrite_in_place_is_parsed_afresh(tmp_path):
    """Same length, same inode, same mtime: only the text tells the two apart."""
    path = tmp_path / "scores.tsv"
    save_scores(str(path), _memo_table("rewrite"))
    assert load_scores(str(path)).td.tolist() == [0.25, -0.5, 0.75, 0.0]
    before = os.stat(path)
    with open(path, "r+b") as f:
        f.write(path.read_bytes().replace(b"0.250000000", b"0.875000000"))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
        before.st_ino, before.st_size, before.st_mtime_ns)
    assert load_scores(str(path)).td.tolist() == [0.875, -0.5, 0.75, 0.0]


def test_a_malformed_rewrite_fails_as_a_fresh_load(tmp_path):
    path = tmp_path / "scores.tsv"
    save_scores(str(path), _memo_table("malformed"))
    good = path.read_bytes()
    load_scores(str(path))
    path.write_bytes(good.replace(b"\tnon\t", b"\tmaybe\t", 1))
    with pytest.raises(ValidationError) as fresh:
        _per_line_load_scores(str(path))
    assert str(fresh.value) == f"{path}:2: malformed score line"
    for _ in range(2):  # a failed parse is not remembered
        with pytest.raises(ValidationError) as exc:
            load_scores(str(path))
        assert str(exc.value) == str(fresh.value)
    path.write_bytes(good)
    assert _same_table(load_scores(str(path)), _memo_table("malformed"))


def test_a_loaded_table_cannot_change_the_next(tmp_path):
    path = str(tmp_path / "scores.tsv")
    save_scores(path, _memo_table("readonly"))
    first = load_scores(path)
    for name in ("labels", "td", "ti"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(first, name)[0] = 1
    first.speakers.append("intruder")
    first.utterances.append("u9")
    assert _same_table(load_scores(path), _memo_table("readonly"))


def _per_line_load_scores(path):
    """load_scores as it was before it parsed blocks of columns: one line at
    a time, each field checked and converted on its own.  The oracle below."""
    speakers, utterances, labels, td, ti = [], [], [], [], []
    for lineno, line in enumerate(errors.read_text(path).split("\n"), 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ValidationError(f"{path}:{lineno}: expected 5 fields")
        if parts[2] not in ("tgt", "non"):
            raise ValidationError(f"{path}:{lineno}: malformed score line")
        try:
            td.append(float(parts[3]))
            ti.append(float(parts[4]))  # "NA" too is not a number
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: non-numeric score") from None
        if not (math.isfinite(td[-1]) and math.isfinite(ti[-1])):
            raise ValidationError(f"{path}:{lineno}: non-finite score")
        speakers.append(parts[0])
        utterances.append(parts[1])
        labels.append(parts[2] == "tgt")
    return scoring.ScoreTable(speakers=speakers, utterances=utterances,
                              labels=np.array(labels, dtype=bool),
                              td=np.array(td, dtype=np.float64),
                              ti=np.array(ti, dtype=np.float64))


_SCORE = st.floats(-1.0, 1.0).map("%.9f".__mod__)
_BAD_SCORE = st.sampled_from(["nan", "-inf", "1e999", "x", "", " 0.5 ", "1_0", "NA", "0.1"])


@st.composite
def _score_files(draw):
    """A scores.tsv, mostly well formed: each field and line width goes wrong
    now and then, so that errors land anywhere in the file; LF or CRLF ends."""
    def field(good, bad):
        return draw(bad if draw(st.integers(0, 12)) == 0 else good)

    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
        row = [draw(st.sampled_from(["s0", "s1"])), draw(st.sampled_from(["u0", "u1", "u2"])),
               field(st.sampled_from(["tgt", "non"]), st.sampled_from(["maybe", "", "Tgt"])),
               field(_SCORE, _BAD_SCORE), field(_SCORE, _BAD_SCORE)]
        if draw(st.integers(0, 30)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["0.5"]
        lines.append("\t".join(row))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))
    return text.replace("\n", "\r\n") if draw(st.booleans()) else text


@settings(max_examples=400, deadline=None)
@given(_score_files(), st.integers(1, 3))
@example("s0\tu0\ttgt\t0.5\tNA\ns0\tu1\tnon\t0.1\tnan\n", 1)  # NA before non-finite
@example("s0\tu0\ttgt\t0.5\t0.2\ns0\tu1\tnon\tinf\tNA\n", 2)
def test_load_scores_matches_per_line_reference(tmp_path_factory, text, block):
    """Blocks of 1-3 lines put an error in any block, not only the first."""
    path = str(tmp_path_factory.mktemp("scores") / "scores.tsv")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    # with no table remembered, so that every example is parsed in blocks of `block`
    with mock.patch.object(errors, "_TABLE_BLOCK", block), mock.patch.object(scoring, "_last", None):
        results = []
        for load in (_per_line_load_scores, load_scores):
            try:
                results.append(load(path))
            except ValidationError as exc:
                results.append(str(exc))
    expected, got = results
    if isinstance(expected, str):
        assert got == expected
        return
    assert not isinstance(got, str), got
    assert (got.speakers, got.utterances) == (expected.speakers, expected.utterances)
    for name in ("labels", "td", "ti"):
        want, have = getattr(expected, name), getattr(got, name)
        assert have.dtype == want.dtype and have.tobytes() == want.tobytes(), name
