"""Generalized end-to-end training: batch similarity matrix S = w * cos
against speaker centroids (leave-one-out for the positive term), the
softmax GE2E loss, exact reverse-mode gradients through the network, and a
weighted-language batch sampler for multilingual training.  `train_models`
trains independent models at once in a pool of worker processes.

The loss is summed over the N*M utterances of a batch.  Softmax is
shift-invariant, so S carries no offset.  The similarity scale w is kept
strictly positive by projecting it to a small floor after each update.
"""

from __future__ import annotations

import atexit
import os
from dataclasses import dataclass, replace

import numpy as np

from . import dvector, errors
from .errors import CapacityError, NumericError, ToolError, ValidationError
from .synthcorpus import Corpus, CorpusSpec

SEGMENT_KEYWORD = "keyword"
SEGMENT_KEYWORD_QUERY = "keyword+query"
SEGMENTS = (SEGMENT_KEYWORD, SEGMENT_KEYWORD_QUERY)

SCALE_FLOOR = 1e-3
CLIP_NORM = 3.0  # the global gradient norm that each step is clipped to

# set to 1 in a training worker's environment: a worker is one CPU's worth of training
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class TrainConfig:
    language_weights: dict[int, float]
    batch_n: int = 4
    batch_m: int = 3
    steps: int = 200
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_n < 2 or self.batch_m < 2:
            raise ValidationError(
                f"batch needs >= 2 speakers and >= 2 utterances each, "
                f"got N={self.batch_n} M={self.batch_m}")
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        if not self.learning_rate > 0:
            raise ValidationError("learning_rate must be positive")
        if not self.language_weights:
            raise ValidationError("language_weights must not be empty")
        if any(w < 0 for w in self.language_weights.values()):
            raise ValidationError("language weights must be nonnegative")
        if all(w == 0 for w in self.language_weights.values()):
            raise ValidationError("language weights must not all be zero")

    @property
    def languages(self) -> tuple[int, ...]:
        """The languages a model is trained on: those of weight > 0, sorted."""
        return tuple(sorted(lang for lang, w in self.language_weights.items() if w > 0))

    def monolingual(self, language: int, seed: int) -> "TrainConfig":
        """This config on `language` alone, with its own seed."""
        return replace(self, language_weights={language: 1.0}, seed=seed)


def _check_batch_shape(shape: tuple[int, ...]) -> None:
    if len(shape) < 2 or shape[0] < 2 or shape[1] < 2:
        raise ValidationError(
            f"GE2E batch needs N >= 2 speakers and M >= 2 utterances, got shape {shape}")


def _centroids(embeddings: np.ndarray):
    """Full unit centroids per speaker plus leave-one-out unit centroids
    per utterance.  Returns (chat, mu_norm, chat_loo, mu_loo_norm)."""
    n, m, _ = embeddings.shape
    sums = embeddings.sum(axis=1)  # (N, d)
    mu = sums / m
    mu_norm = np.linalg.norm(mu, axis=1, keepdims=True)
    mu_loo = (sums[:, None, :] - embeddings) / (m - 1)  # (N, M, d)
    loo_norm = np.linalg.norm(mu_loo, axis=2, keepdims=True)
    if np.any(mu_norm == 0.0) or np.any(loo_norm == 0.0):
        raise NumericError("zero-norm speaker centroid")
    return mu / mu_norm, mu_norm, mu_loo / loo_norm, loo_norm


def _loss_and_embedding_grads(embeddings: np.ndarray, w: float):
    """The GE2E loss of a (N, M, d) batch of unit embeddings, plus its exact
    gradients w.r.t. the embeddings (centroid paths included) and the scale
    w.  Training, `batch_loss` and the gradient check all use it."""
    E = np.asarray(embeddings, dtype=np.float64)
    _check_batch_shape(E.shape)
    n, m, d = E.shape
    chat, mu_norm, chat_loo, loo_norm = _centroids(E)
    cos = np.einsum("jmd,kd->jmk", E, chat)
    diag = np.arange(n)
    cos[diag, :, diag] = np.sum(E * chat_loo, axis=2)
    S = w * cos
    mx = S.max(axis=2)
    ex = np.exp(S - mx[:, :, None])
    loss = float(np.sum(mx + np.log(ex.sum(axis=2)) - S[diag, :, diag]))
    dS = ex / ex.sum(axis=2, keepdims=True)
    dS[diag, :, diag] -= 1.0

    dw = float(np.sum(dS * cos))
    dcos = w * dS

    dcos_diag = dcos[diag, :, diag]  # (N, M)
    dcos_off = dcos.copy()
    dcos_off[diag, :, diag] = 0.0

    # direct dependence of cos on e_ji
    dE = np.einsum("jmk,kd->jmd", dcos_off, chat)
    dE += dcos_diag[:, :, None] * chat_loo

    # through full centroids (used by other speakers' rows)
    dchat = np.einsum("jmk,jmd->kd", dcos_off, E)
    dmu = (dchat - chat * np.sum(chat * dchat, axis=1, keepdims=True)) / mu_norm
    dE += dmu[:, None, :] / m

    # through leave-one-out centroids (spread to the speaker's other utterances)
    dchat_loo = dcos_diag[:, :, None] * E
    dmu_loo = (dchat_loo - chat_loo * np.sum(chat_loo * dchat_loo, axis=2, keepdims=True)) / loo_norm
    totals = dmu_loo.sum(axis=1, keepdims=True)
    dE += (totals - dmu_loo) / (m - 1)

    return loss, dE, dw


def batch_loss(params: dvector.Parameters, batch_frames: np.ndarray) -> float:
    """GE2E loss for a (N, M, T, D) batch of feature sequences, without the
    network's backward pass."""
    n, m = batch_frames.shape[0], batch_frames.shape[1]
    flat = batch_frames.reshape(n * m, batch_frames.shape[2], batch_frames.shape[3])
    emb, _ = dvector.forward_batch(params, flat)
    return _loss_and_embedding_grads(emb.reshape(n, m, -1), float(params["ge2e/scale"]))[0]


def backward(params: dvector.Parameters,
             batch_frames: np.ndarray) -> tuple[float, dvector.Parameters]:
    """Loss and exact gradients w.r.t. every parameter, the GE2E scale
    included, for one batch."""
    batch_frames = np.asarray(batch_frames, dtype=np.float64)
    if batch_frames.ndim != 4:
        raise ValidationError(f"batch must be (N, M, T, D), got shape {batch_frames.shape}")
    _check_batch_shape(batch_frames.shape)
    n, m, t, d = batch_frames.shape
    emb, cache = dvector.forward_batch(params, batch_frames.reshape(n * m, t, d),
                                       want_cache=True)
    loss, dE, dw = _loss_and_embedding_grads(emb.reshape(n, m, -1), float(params["ge2e/scale"]))
    if not np.isfinite(loss):
        raise NumericError("non-finite GE2E loss")
    grads = dvector.backward_batch(params, cache, dE.reshape(n * m, -1))
    grads["ge2e/scale"] = np.array(dw)
    return loss, grads


def gradient_check(params: dvector.Parameters, batch_frames: np.ndarray,
                   epsilon: float = 1e-4, sample_count: int = 200, seed: int = 0) -> float:
    """Max relative error between analytic gradients and central finite
    differences on randomly sampled parameter coordinates."""
    if not (0 < epsilon <= 1e-2):
        raise ValidationError(f"epsilon must be in (0, 1e-2], got {epsilon}")
    if sample_count < 1:
        raise ValidationError("sample_count must be >= 1")
    _, grads = backward(params, batch_frames)
    names = list(params.values)  # flat index k lies in names[i] for the first i with ends[i] > k
    ends = np.cumsum([params[name].size for name in names])
    rng = np.random.default_rng(seed)
    picks = rng.choice(int(ends[-1]), size=min(sample_count, int(ends[-1])), replace=False)
    work = params.copy()
    max_rel = 0.0
    for k in picks.tolist():
        i = int(np.searchsorted(ends, k, side="right"))
        name, local = names[i], k - int(ends[i]) + params[names[i]].size
        arr = work[name].reshape(-1)  # a view, for the 0-d scale too
        orig = arr[local]
        arr[local] = orig + epsilon
        lp = batch_loss(work, batch_frames)
        arr[local] = orig - epsilon
        lm = batch_loss(work, batch_frames)
        arr[local] = orig
        numeric = (lp - lm) / (2.0 * epsilon)
        analytic = float(grads[name].reshape(-1)[local])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        max_rel = max(max_rel, rel)
    return max_rel


def segment_frames(corpus: Corpus, rows, segment: str) -> np.ndarray:
    """(B, T, d) float64 frames of one segment of each of the corpus's `rows`:
    the keyword, or the keyword followed by the query."""
    if segment == SEGMENT_KEYWORD:
        return corpus.keyword[rows].astype(np.float64)
    if segment == SEGMENT_KEYWORD_QUERY:
        return np.concatenate([corpus.keyword[rows], corpus.query[rows]], axis=1, dtype=np.float64)
    raise ValidationError(f"unknown segment {segment!r}; use one of {SEGMENTS}")


def check_capacity(spec: CorpusSpec, network: dvector.NetworkSpec, cfg: TrainConfig,
                   languages) -> None:
    """Refuses a `network` that `train` cannot fit to a `spec` corpus and, as a
    CapacityError, batches of `cfg` on `languages` that the corpus lacks."""
    if network.input_dim != spec.feature_dim:
        raise ValidationError(
            f"network input_dim {network.input_dim} != corpus feature_dim {spec.feature_dim}")
    if network.output_dim < 2:  # a 1-d unit embedding is +-1, so centroids can cancel
        raise ValidationError(f"network output_dim {network.output_dim}: a trained embedding "
                              f"needs >= 2 dimensions for its cosine to rank speakers")
    for lang in languages:
        if spec.utterances_for(lang) < cfg.batch_m or spec.speakers_per_language < cfg.batch_n:
            raise CapacityError(f"language {lang} has {spec.speakers_per_language} speakers of "
                                f"{spec.utterances_for(lang)} utterances; batches need "
                                f"{cfg.batch_n} speakers of {cfg.batch_m} utterances")


def train(corpus: Corpus, spec: dvector.NetworkSpec, cfg: TrainConfig,
          segment: str) -> tuple[dvector.Parameters, list[tuple[int, float, int]]]:
    """SGD with global-norm clipping over language-sampled GE2E batches.

    Each step samples a language proportional to its weight, then batch_n
    speakers of that language and batch_m utterances each, all without
    replacement inside the batch.  Returns (parameters, loss trace), where
    the trace rows are (step, loss, language).
    """
    langs = cfg.languages
    check_capacity(corpus.spec, spec, cfg, langs)
    by_language = {lang: list(corpus.speaker_rows([lang]).values()) for lang in langs}
    weights = np.array([cfg.language_weights[l] for l in langs], dtype=float)
    weights = weights / weights.sum()

    rng = np.random.default_rng(cfg.seed)
    params = dvector.init_network(spec, cfg.seed)
    trace: list[tuple[int, float, int]] = []
    for step in range(cfg.steps):
        lang = langs[int(rng.choice(len(langs), p=weights))]
        speakers = by_language[lang]
        spk_idx = rng.choice(len(speakers), size=cfg.batch_n, replace=False)
        rows = []
        for si in spk_idx:
            utts = speakers[int(si)]
            utt_idx = rng.choice(len(utts), size=cfg.batch_m, replace=False)
            rows += [utts[int(ui)] for ui in utt_idx]
        frames = segment_frames(corpus, rows, segment)
        frames = frames.reshape(cfg.batch_n, cfg.batch_m, *frames.shape[1:])
        loss, grads = backward(params, frames)
        norm = dvector.global_norm(grads)
        scale = CLIP_NORM / norm if norm > CLIP_NORM else 1.0
        for name in params.values:
            params.values[name] -= cfg.learning_rate * scale * grads[name]
        if float(params["ge2e/scale"]) < SCALE_FLOOR:
            params["ge2e/scale"] = np.array(SCALE_FLOOR)
        trace.append((step, loss, lang))
    return params, trace


Job = tuple[dvector.NetworkSpec, TrainConfig, str]  # the arguments of `train` after the corpus
_pool: _Pool | None = None  # built by the first `train_models` call that has jobs


def train_models(corpus: Corpus, jobs: list[Job]) -> list[tuple[dvector.Parameters, list]]:
    """`train(corpus, *job)` for every job, in the process-wide training pool;
    the results come back in job order and equal those of `train` bit for
    bit.  The pool grows to one worker per job, up to one per usable CPU, and
    never shrinks.  A job that raises raises here, the first such job in job
    order; a worker that dies is a ToolError naming its model.  A pool broken
    by either a dead worker or an interrupt is replaced on the next call.  The
    pool serves one call at a time: call this from one thread."""
    global _pool
    if not jobs:
        return []
    if _pool is None or not _pool.alive():
        if _pool is not None:
            _pool.close(kill=True)
        _pool = _Pool()
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    _pool.grow(min(cpus, len(jobs)))
    return _pool.run(corpus, jobs)


def _serve(conn) -> None:
    """A training worker: trains each job it receives and sends back the
    result, or the exception, until the parent closes the pipe.  Each call
    sends a worker the corpus once, with its first job."""
    import signal  # only workers use these two
    import traceback
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles an interrupt
    corpus = None
    while True:
        try:
            sent, job = conn.recv()
        except EOFError:
            return
        corpus = corpus if sent is None else sent
        try:
            result = train(corpus, *job)
        except Exception as exc:
            if not isinstance(exc, ToolError):  # a fault: keep where it happened
                traceback.print_exc()
            result = exc
        conn.send(result)


class _Pool:
    """Spawn workers, each running `_serve` at one BLAS thread.  Spawned
    workers share nothing with the parent but their pipes."""

    def __init__(self) -> None:
        self.workers = {}  # the parent's end of each worker's pipe -> its process
        atexit.register(self.close)

    def grow(self, count: int) -> None:
        """Starts workers until there are `count`."""
        import multiprocessing  # here, so that importing the package does not pay for it
        context = multiprocessing.get_context("spawn")
        saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES}
        try:
            os.environ.update(dict.fromkeys(_BLAS_THREAD_VARIABLES, "1"))
            while len(self.workers) < count:
                conn, child = context.Pipe()
                process = context.Process(target=_serve, args=(child,), daemon=True)
                process.start()
                child.close()
                self.workers[conn] = process
        except BaseException:
            self.close(kill=True)
            raise
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value

    def alive(self) -> bool:
        return bool(self.workers) and all(p.is_alive() for p in self.workers.values())

    def run(self, corpus: Corpus, jobs: list[Job]) -> list:
        from multiprocessing.connection import wait
        results: list = [None] * len(jobs)
        todo = list(reversed(range(len(jobs))))  # popped from the end, so in job order
        idle = list(self.workers)
        lacking = set(idle)  # workers not yet sent this call's corpus
        busy = {}
        try:
            while todo or busy:
                while todo and idle:
                    conn, i = idle.pop(), todo.pop()
                    conn.send((corpus if conn in lacking else None, jobs[i]))
                    lacking.discard(conn)
                    busy[conn] = i
                for conn in wait(list(busy)):
                    i = busy.pop(conn)
                    results[i] = conn.recv()
                    idle.append(conn)
                    if isinstance(results[i], Exception):  # a later job cannot raise first
                        todo = [j for j in todo if j < i]
        except (EOFError, OSError):  # the pipe of job i's worker closed: it died
            process = self.workers[conn]
            self.close(kill=True)
            _, cfg, segment = jobs[i]
            raise ToolError(
                f"a training worker died (exit code {process.exitcode}) while training the "
                f"{segment} model of languages {'+'.join(map(str, cfg.languages))} with seed "
                f"{cfg.seed}") from None
        except BaseException:  # an interrupt leaves jobs running: the pool cannot be reused
            self.close(kill=True)
            raise
        for result in results:
            if isinstance(result, Exception):
                raise result
        return results

    def close(self, kill: bool = False) -> None:
        """Ends the workers: an idle one returns when its pipe closes, and
        `kill` terminates busy ones."""
        for conn, process in self.workers.items():
            if kill:
                process.terminate()
            else:
                conn.close()
        for conn, process in self.workers.items():
            process.join()
            conn.close()
        self.workers = {}


def save_loss_trace(path: str, trace: list[tuple[int, float, int]]) -> None:
    errors.write_table(path, ((str(step), "%.9f" % loss, str(lang)) for step, loss, lang in trace),
                       header=("step", "loss", "language"), sep=",")
