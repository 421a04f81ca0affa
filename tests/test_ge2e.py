import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcascade import dvector, ge2e
from svcascade.errors import CapacityError, ValidationError
from svcascade.ge2e import (
    CONTRAST, SCALE_FLOOR, SEGMENT_KEYWORD, SOFTMAX, TrainConfig, backward,
    batch_loss, ge2e_loss, gradient_check, similarity_matrix, train)


def orthogonal_batch(n=2, m=3, d=4):
    emb = np.zeros((n, m, d))
    for j in range(n):
        emb[j, :, j] = 1.0
    return emb


def random_unit_batch(seed, n=3, m=3, d=6):
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((n, m, d))
    return emb / np.linalg.norm(emb, axis=2, keepdims=True)


def test_similarity_orthogonal_identical_speakers():
    s = similarity_matrix(orthogonal_batch(), w=10.0, b=0.0)
    for j in range(2):
        assert np.allclose(s[j, :, j], 10.0)
        assert np.allclose(s[j, :, 1 - j], 0.0)


def test_similarity_antipodal_cross_terms():
    emb = np.zeros((2, 2, 3))
    emb[0, :, 0] = 1.0
    emb[1, :, 0] = -1.0
    s = similarity_matrix(emb, w=1.0, b=0.0)
    assert np.allclose(s[0, :, 1], -1.0)
    assert np.allclose(s[1, :, 0], -1.0)


def test_similarity_uses_leave_one_out_positive():
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.6, 0.8, 0.0])
    emb = np.stack([np.stack([u, v]), np.stack([[0, 0, 1.0], [0, 0, 1.0]])])
    s = similarity_matrix(emb, w=1.0, b=0.0)
    # positive for u is against v alone, not against mean(u, v)
    assert s[0, 0, 0] == pytest.approx(u @ v)
    mean = (u + v) / 2
    against_mean = u @ (mean / np.linalg.norm(mean))
    assert abs(s[0, 0, 0] - against_mean) > 1e-3


def test_similarity_rejects_bad_batches():
    with pytest.raises(ValidationError):
        similarity_matrix(np.zeros((1, 3, 4)), 10.0, 0.0)
    with pytest.raises(ValidationError):
        similarity_matrix(orthogonal_batch(), w=0.0, b=0.0)
    with pytest.raises(ValidationError):
        similarity_matrix(2.0 * orthogonal_batch(), w=1.0, b=0.0)


def test_softmax_loss_closed_form_on_degenerate_batch():
    s = similarity_matrix(orthogonal_batch(n=2, m=3), w=10.0, b=0.0)
    per_utt = np.log(1.0 + np.exp(-10.0))
    assert ge2e_loss(s, SOFTMAX) == pytest.approx(6 * per_utt, rel=1e-12)


def test_contrast_loss_closed_form_on_degenerate_batch():
    s = similarity_matrix(orthogonal_batch(n=2, m=3), w=10.0, b=0.0)
    sigmoid = lambda z: 1.0 / (1.0 + np.exp(-z))
    per_utt = 1.0 - sigmoid(10.0) + sigmoid(0.0)
    assert ge2e_loss(s, CONTRAST) == pytest.approx(6 * per_utt, rel=1e-12)


def test_softmax_loss_is_log_n_when_all_embeddings_equal():
    emb = np.broadcast_to(np.array([1.0, 0, 0]), (3, 2, 3)).copy()
    s = similarity_matrix(emb, w=10.0, b=-5.0)
    assert ge2e_loss(s, SOFTMAX) == pytest.approx(3 * 2 * np.log(3), rel=1e-12)


def test_loss_sums_over_utterances():
    rng = np.random.default_rng(0)
    s = rng.standard_normal((3, 2, 3))
    doubled = np.concatenate([s, s], axis=1)
    for kind in (SOFTMAX, CONTRAST):
        assert ge2e_loss(doubled, kind) == pytest.approx(2 * ge2e_loss(s, kind), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_loss_bounds_on_random_batches(seed):
    emb = random_unit_batch(seed)
    w, b = 4.0, -1.0
    s = similarity_matrix(emb, w, b)
    n, m = emb.shape[:2]
    soft = ge2e_loss(s, SOFTMAX)
    assert 0.0 <= soft <= n * m * (np.log(n) + w + abs(b))
    contrast = ge2e_loss(s, CONTRAST)
    assert 0.0 <= contrast <= 2.0 * n * m


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_permutation_equivariance(seed):
    emb = random_unit_batch(seed, n=4)
    perm = np.random.default_rng(seed + 1).permutation(4)
    s = similarity_matrix(emb, 3.0, 0.5)
    sp = similarity_matrix(emb[perm], 3.0, 0.5)
    assert np.allclose(sp, s[perm][:, :, perm])
    for kind in (SOFTMAX, CONTRAST):
        assert ge2e_loss(sp, kind) == pytest.approx(ge2e_loss(s, kind), rel=1e-9)


def keyword_batch(corpus, n=3, m=2):
    rows = [corpus.by_speaker()[s][:m] for s in sorted(corpus.by_speaker())[:n]]
    return np.stack([[u.keyword for u in row] for row in rows])


def test_gradient_check_fresh_init(small_corpus):
    params = dvector.init_network(dvector.TD_SMALL, seed=0)
    batch = keyword_batch(small_corpus)
    assert gradient_check(params, batch, SOFTMAX, sample_count=100, seed=1) < 1e-4


def test_gradient_check_contrast(small_corpus):
    params = dvector.init_network(dvector.TD_SMALL, seed=2)
    batch = keyword_batch(small_corpus)
    assert gradient_check(params, batch, CONTRAST, sample_count=100, seed=3) < 1e-4


def test_gradient_check_after_short_training(small_corpus):
    cfg = TrainConfig(batch_n=3, batch_m=2, steps=10,
                      language_weights={0: 1.0, 1: 1.0}, seed=7)
    params, _ = train(small_corpus, dvector.TD_SMALL, cfg, SEGMENT_KEYWORD)
    batch = keyword_batch(small_corpus)
    assert gradient_check(params, batch, SOFTMAX, sample_count=100, seed=4) < 1e-4


def test_larger_epsilon_gives_larger_error(small_corpus):
    params = dvector.init_network(dvector.TD_SMALL, seed=5)
    batch = keyword_batch(small_corpus)
    coarse = gradient_check(params, batch, SOFTMAX, epsilon=1e-2, sample_count=60, seed=6)
    fine = gradient_check(params, batch, SOFTMAX, epsilon=1e-4, sample_count=60, seed=6)
    assert coarse > fine


def test_offset_gradient_matches_finite_difference(small_corpus):
    params = dvector.init_network(dvector.TD_SMALL, seed=8)
    batch = keyword_batch(small_corpus)
    _, grads = backward(params, batch, SOFTMAX)
    eps = 1e-6
    plus, minus = params.copy(), params.copy()
    plus["ge2e/offset"] = params["ge2e/offset"] + eps
    minus["ge2e/offset"] = params["ge2e/offset"] - eps
    numeric = (batch_loss(plus, batch, SOFTMAX) - batch_loss(minus, batch, SOFTMAX)) / (2 * eps)
    assert float(grads["ge2e/offset"]) == pytest.approx(numeric, abs=1e-6)


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


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(batch_n=1, language_weights={0: 1.0}).validate()
    with pytest.raises(ValidationError):
        TrainConfig(language_weights={0: 0.0}).validate()
    with pytest.raises(ValidationError):
        TrainConfig(language_weights={0: -1.0}).validate()
    with pytest.raises(ValidationError):
        TrainConfig(language_weights={0: 1.0}, loss_kind="hinge").validate()
