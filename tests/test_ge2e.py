import hashlib
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcascade import dvector, ge2e
from svcascade.errors import CapacityError, ToolError, ValidationError
from svcascade.ge2e import (
    SCALE_FLOOR, SEGMENT_KEYWORD, SEGMENT_KEYWORD_QUERY, TrainConfig,
    _loss_and_embedding_grads, gradient_check, segment_frames, train)


def orthogonal_batch(n=2, m=3, d=4):
    emb = np.zeros((n, m, d))
    for j in range(n):
        emb[j, :, j] = 1.0
    return emb


def random_unit_batch(seed, n=3, m=3, d=6):
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((n, m, d))
    return emb / np.linalg.norm(emb, axis=2, keepdims=True)


def loss_of(emb, w):
    return _loss_and_embedding_grads(emb, w)[0]


def test_similarity_orthogonal_identical_speakers():
    # S is w on the own-speaker column and 0 elsewhere, so the scale
    # gradient is sum(dS * cos) = 6 (p_own - 1)
    _, _, dw = _loss_and_embedding_grads(orthogonal_batch(), 10.0)
    assert dw == pytest.approx(-6.0 / (1.0 + np.exp(10.0)), rel=1e-9)


def test_similarity_antipodal_cross_terms():
    emb = np.zeros((2, 2, 3))
    emb[0, :, 0] = 1.0
    emb[1, :, 0] = -1.0
    w = 1.0
    # own column w, other column -w
    per_utt = np.log(1.0 + np.exp(-2.0 * w))
    assert loss_of(emb, w) == pytest.approx(4 * per_utt, rel=1e-12)


def test_similarity_uses_leave_one_out_positive():
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.6, 0.8, 0.0])
    emb = np.stack([np.stack([u, v]), np.stack([[0, 0, 1.0], [0, 0, 1.0]])])
    # every cross-speaker cosine is 0; speaker 1's own cosines are 1
    other = 2 * (np.log(np.e + 1.0) - 1.0)
    # positive for u (and v) is against the other utterance alone, u @ v ...
    loo = 2 * (np.log(np.exp(u @ v) + 1.0) - u @ v)
    assert loss_of(emb, 1.0) == pytest.approx(loo + other, rel=1e-12)
    # ... not against the normalized mean of both
    mean = (u + v) / np.linalg.norm(u + v)
    full = sum(np.log(np.exp(e @ mean) + 1.0) - e @ mean for e in (u, v))
    assert abs(loss_of(emb, 1.0) - (full + other)) > 1e-3


def test_similarity_rejects_bad_batches():
    for shape in ((1, 3, 4), (3, 1, 4)):
        with pytest.raises(ValidationError, match="N >= 2"):
            loss_of(np.ones(shape), 10.0)


def test_softmax_loss_closed_form_on_degenerate_batch():
    per_utt = np.log(1.0 + np.exp(-10.0))
    assert loss_of(orthogonal_batch(n=2, m=3), 10.0) == pytest.approx(6 * per_utt, rel=1e-12)


def test_softmax_loss_is_log_n_when_all_embeddings_equal():
    emb = np.broadcast_to(np.array([1.0, 0, 0]), (3, 2, 3)).copy()
    assert loss_of(emb, 10.0) == pytest.approx(3 * 2 * np.log(3), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_loss_bounds_on_random_batches(seed):
    emb = random_unit_batch(seed)
    w = 4.0
    n, m = emb.shape[:2]
    assert 0.0 <= loss_of(emb, w) <= n * m * (np.log(n) + w + 1.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_permutation_equivariance(seed):
    """Reordering speakers, or utterances within a speaker, leaves the loss
    and the scale gradient alone and reorders the embedding gradients."""
    emb = random_unit_batch(seed, n=4)
    rng = np.random.default_rng(seed + 1)
    spk, utt = rng.permutation(4), rng.permutation(3)
    loss, dE, dw = _loss_and_embedding_grads(emb, 3.0)
    for permuted, reorder in ((emb[spk], lambda a: a[spk]), (emb[:, utt], lambda a: a[:, utt])):
        lp, dEp, dwp = _loss_and_embedding_grads(permuted, 3.0)
        assert lp == pytest.approx(loss, rel=1e-9)
        assert dwp == pytest.approx(dw, rel=1e-9, abs=1e-12)
        assert np.allclose(dEp, reorder(dE), rtol=1e-9, atol=1e-12)


def keyword_batch(corpus, n=3, m=2):
    by_speaker = corpus.speaker_rows(range(corpus.spec.languages))
    return corpus.keyword[[list(by_speaker[s][:m]) for s in sorted(by_speaker)[:n]]]


def test_segment_frames_matches_per_utterance_frames(small_corpus):
    """Rows out of order and repeated, against the per-utterance definition:
    each utterance's segment on its own, stacked and widened to float64."""
    rows = [17, 3, 17, 0, 319, 3]
    kw, query = small_corpus.keyword, small_corpus.query
    for segment, frames in ((SEGMENT_KEYWORD, [kw[row] for row in rows]),
                            (SEGMENT_KEYWORD_QUERY,
                             [np.concatenate([kw[row], query[row]], axis=0) for row in rows])):
        got = segment_frames(small_corpus, rows, segment)
        assert got.dtype == np.float64 and got.shape == (6, len(frames[0]), 16)
        assert np.array_equal(got, np.asarray(frames, dtype=np.float64))


def test_gradient_check_fresh_init(small_corpus):
    params = dvector.init_network(dvector.TD_SMALL, seed=0)
    batch = keyword_batch(small_corpus)
    assert gradient_check(params, batch, sample_count=100, seed=1) < 1e-4


def test_gradient_check_after_short_training(small_corpus):
    """Every coordinate, the trained scale included: it stays a 0-d array,
    so the checker's reshape(-1) perturbs it in place."""
    cfg = TrainConfig(batch_n=3, batch_m=2, steps=10,
                      language_weights={0: 1.0, 1: 1.0}, seed=7)
    params, _ = train(small_corpus, dvector.TD_SMALL, cfg, SEGMENT_KEYWORD)
    assert all(isinstance(v, np.ndarray) for v in params.values.values())
    count = sum(v.size for v in params.values.values())
    batch = keyword_batch(small_corpus)
    assert gradient_check(params, batch, sample_count=count, seed=4) < 1e-4


def test_gradient_check_memory_does_not_grow_with_coordinates():
    """TI_SPEC has 1.27M coordinates; the check samples one of them without
    building a record per coordinate."""
    params = dvector.init_network(dvector.TI_SPEC, seed=0)
    batch = np.random.default_rng(0).standard_normal((2, 2, 3, 80))
    tracemalloc.start()
    try:
        gradient_check(params, batch, sample_count=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6, f"peak {peak / 1e6:.1f} MB"


def test_larger_epsilon_gives_larger_error(small_corpus):
    params = dvector.init_network(dvector.TD_SMALL, seed=5)
    batch = keyword_batch(small_corpus)
    coarse = gradient_check(params, batch, epsilon=1e-2, sample_count=60, seed=6)
    fine = gradient_check(params, batch, epsilon=1e-4, sample_count=60, seed=6)
    assert coarse > fine


def test_train_single_language_samples_only_that_language(small_corpus):
    cfg = TrainConfig(batch_n=3, batch_m=2, steps=20, language_weights={2: 1.0}, seed=1)
    _, trace = train(small_corpus, dvector.TD_SMALL, cfg, SEGMENT_KEYWORD)
    assert all(lang == 2 for _, _, lang in trace)


def test_train_loss_decreases(small_corpus):
    cfg = TrainConfig(batch_n=4, batch_m=3, steps=2000,
                      language_weights={lang: 1.0 for lang in range(4)}, seed=2)
    _, trace = train(small_corpus, dvector.TD_SMALL, cfg, SEGMENT_KEYWORD)
    losses = [loss for _, loss, _ in trace]
    assert np.mean(losses[-100:]) < np.mean(losses[:100])


def test_train_deterministic(small_corpus):
    cfg = TrainConfig(batch_n=3, batch_m=2, steps=40,
                      language_weights={0: 1.0, 3: 2.0}, seed=9)
    a, trace_a = train(small_corpus, dvector.TD_SMALL, cfg, SEGMENT_KEYWORD)
    b, trace_b = train(small_corpus, dvector.TD_SMALL, cfg, SEGMENT_KEYWORD)
    assert a.values.keys() == b.values.keys()
    for name in a.values:
        assert a[name].tobytes() == b[name].tobytes(), name
    assert trace_a == trace_b


def test_train_keeps_scale_positive(small_corpus):
    cfg = TrainConfig(batch_n=3, batch_m=2, steps=60, learning_rate=5.0,
                      language_weights={0: 1.0}, seed=3)
    params, _ = train(small_corpus, dvector.TD_SMALL, cfg, SEGMENT_KEYWORD)
    assert float(params["ge2e/scale"]) >= SCALE_FLOOR


def test_train_capacity_error(small_corpus):
    cfg = TrainConfig(batch_n=50, batch_m=2, steps=5, language_weights={0: 1.0}, seed=0)
    with pytest.raises(CapacityError, match="language 0"):
        train(small_corpus, dvector.TD_SMALL, cfg, SEGMENT_KEYWORD)


def test_train_refuses_a_one_dimensional_embedding(small_corpus):
    """Unit embeddings of one dimension are +-1, so GE2E centroids cancel."""
    spec = dvector.NetworkSpec(input_dim=16, num_layers=1, cells=4, projection_dim=1, output_dim=1)
    cfg = TrainConfig(batch_n=2, batch_m=2, steps=5, language_weights={0: 1}, seed=0)
    with pytest.raises(ValidationError, match="output_dim 1"):
        train(small_corpus, spec, cfg, SEGMENT_KEYWORD)


def test_train_refuses_a_language_the_corpus_lacks(small_corpus):
    cfg = TrainConfig(batch_n=2, batch_m=2, steps=5, language_weights={9: 1}, seed=0)
    with pytest.raises(CapacityError, match="corpus has no language 9"):
        train(small_corpus, dvector.TD_SMALL, cfg, SEGMENT_KEYWORD)


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(batch_n=1, language_weights={0: 1.0})
    with pytest.raises(ValidationError):
        TrainConfig(language_weights={0: 0.0})
    with pytest.raises(ValidationError):
        TrainConfig(language_weights={0: -1.0})


def _digests(params):
    return {name: hashlib.sha256(value.tobytes()).hexdigest()
            for name, value in params.values.items()}


def _workers():
    return {p.pid for p in multiprocessing.active_children()}


def _trains_as_in_process(corpus, jobs):
    """Pool results equal `train`'s in process: the spec, every parameter
    block by sha256, and the loss trace."""
    for (params, trace), job in zip(ge2e.train_models(corpus, jobs), jobs, strict=True):
        expected, expected_trace = train(corpus, *job)
        assert params.spec == expected.spec and _digests(params) == _digests(expected)
        assert trace == expected_trace


def test_train_models_equals_train_bit_for_bit(small_corpus):
    """A TD and a TI model, and monolingual models of three languages,
    trained in the pool at one BLAS thread per worker."""
    weights = {lang: 1.0 for lang in range(4)}
    _trains_as_in_process(small_corpus, [
        (dvector.TD_SMALL, TrainConfig(weights, steps=30, seed=3), SEGMENT_KEYWORD),
        (dvector.TI_SMALL, TrainConfig(weights, steps=30, seed=4), SEGMENT_KEYWORD_QUERY),
        *((dvector.TI_SMALL, TrainConfig(weights, steps=10).monolingual(lang, 10 + lang),
           SEGMENT_KEYWORD_QUERY) for lang in range(3))])
    assert min(len(os.sched_getaffinity(0)), 5) <= len(_workers()) <= len(os.sched_getaffinity(0))


@pytest.fixture
def no_pool():
    """No training pool before the test, and none left after it."""
    def close():
        if ge2e._pool is not None:
            ge2e._pool.close()
        ge2e._pool = None
    close()
    yield
    close()


def test_the_pool_grows_to_its_jobs_up_to_the_cpus(small_corpus, no_pool, monkeypatch):
    """On 4 usable CPUs a 2-job call starts 2 workers, and a 3-job call then
    starts a third and keeps the first two."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    weights = {lang: 1.0 for lang in range(4)}
    jobs = [(dvector.TD_SMALL, TrainConfig(weights, steps=5, seed=seed), SEGMENT_KEYWORD)
            for seed in range(3)]
    _trains_as_in_process(small_corpus, jobs[:2])
    first = _workers()
    assert len(first) == 2
    _trains_as_in_process(small_corpus, jobs)
    assert len(_workers()) == 3 and first < _workers()


def test_train_models_raises_what_train_raises(small_corpus):
    """A job's error is the one `train` raises in process, and it leaves the
    pool in use."""
    ok = (dvector.TD_SMALL, TrainConfig({0: 1.0}, steps=20), SEGMENT_KEYWORD)
    bad = (dvector.TD_SMALL, TrainConfig({0: 1.0}, batch_m=9, steps=20), SEGMENT_KEYWORD)
    ge2e.train_models(small_corpus, [ok, ok])  # as many workers as the failing call uses
    workers = _workers()
    with pytest.raises(CapacityError) as expected:
        train(small_corpus, *bad)
    with pytest.raises(CapacityError) as raised:
        ge2e.train_models(small_corpus, [ok, bad])
    assert str(raised.value) == str(expected.value)
    assert _workers() == workers


class _EndsTheWorker:
    """Unpickled in a worker, it ends the worker's process at once."""

    def __reduce__(self):
        return os._exit, (7,)


class _Interrupts:
    """Pickled for a worker, it raises KeyboardInterrupt in the parent, as
    an interrupt while the jobs are sent would."""

    def __reduce__(self):
        raise KeyboardInterrupt


@pytest.mark.parametrize("breaker, raised, message", [
    pytest.param(_EndsTheWorker(), ToolError, "a training worker died (exit code 7) while "
                 "training the keyword model of languages 2 with seed 5", id="dead-worker"),
    pytest.param(_Interrupts(), KeyboardInterrupt, "", id="interrupt"),
])
def test_a_broken_pool_is_replaced(small_corpus, breaker, raised, message):
    """A worker that dies ends its call as a ToolError naming the model, and an
    interrupt leaves a job running; either way the next call starts new
    workers, so no result of the broken call is read as one of its own."""
    weights = {lang: 1.0 for lang in range(4)}
    ge2e.train_models(small_corpus, [(dvector.TD_SMALL, TrainConfig(weights, steps=1),
                                      SEGMENT_KEYWORD)])
    workers = _workers()
    with pytest.raises(raised) as info:
        ge2e.train_models(small_corpus, [
            (dvector.TI_SMALL, TrainConfig(weights, steps=300, seed=1), SEGMENT_KEYWORD_QUERY),
            (breaker, TrainConfig({2: 1.0}, seed=5), SEGMENT_KEYWORD)])
    assert str(info.value) == message
    _trains_as_in_process(small_corpus, [
        (dvector.TI_SMALL, TrainConfig(weights, steps=20, seed=2), SEGMENT_KEYWORD_QUERY)])
    assert not _workers() & workers
