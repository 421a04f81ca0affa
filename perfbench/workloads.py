"""The benchmark's three workloads, each a closed loop with one client.

- desk-pipeline: the paper's experiment as users run it, the eight CLI
  stages on a frozen copy of configs/desk.cfg.  Training and scoring
  (`dvector`, `ge2e`) dominate.
- cascade-decisions: the deployed cascade at production shapes (TD_SPEC at
  70 frames, TI_SPEC at 370) on synthetic 16 kHz audio, one request at a
  time.  The only workload that runs `frontend`, B = 1 inference and
  production-size checkpoint I/O; it runs no backward pass and no EER.
- wide-sweep: the analytics stages on a generated file of about 20k
  non-saturated trials.  `metrics`, `fusion` and `triage` dominate.

A workload generates its inputs from the seed (`prepare`, `inputs`), sets
the program up (`setup`, the part `setup_s` times) and runs passes over
fixed work (`run_pass`).  Every pass does the same work, so the counts a
traced pass records repeat exactly; each pass also checks its outputs and
counts failures in a `Tally` instead of stopping the run.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
from typing import NamedTuple

import numpy as np

from svcascade import cli, config, dvector, frontend, scoring, triage
from svcascade.errors import ToolError
from svcascade.fusion import FusionWeight

from layers import FlopModel

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
REFERENCE = os.path.join(HERE, "reference")

# Reference outputs are compared with this tolerance, which admits
# last-bit float changes but no change of a decision or a threshold.
REL_TOL = 1e-6
ABS_TOL = 1e-8


def load_settings(name: str) -> dict:
    with open(os.path.join(INPUTS, "generators.json")) as f:
        return json.load(f)[name]


class Tally:
    """Operations attempted and failed; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.problems.append(reason)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def parse_report(path: str) -> dict[str, float]:
    values = {}
    with open(path) as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            values[key] = float(value)
    return values


REPORT_KEYS = ("eer_td", "eer_ti", "alpha", "eer_fused", "band_lower", "band_upper", "eer",
               "trigger_rate", "expected_latency_seconds", "expected_flops")


def check_report(r: dict[str, float], cfg, reference: dict | None) -> list[str]:
    """Problems with a parsed report.txt: the invariants any seed must
    satisfy, plus agreement with the stored reference where there is one."""
    missing = [k for k in REPORT_KEYS if k not in r]
    if missing:
        return [f"report.txt lacks {missing}"]
    problems = []
    if not all(math.isfinite(v) for v in r.values()):
        problems.append("report.txt has a non-finite value")
    for key in ("eer_td", "eer_ti", "eer_fused", "eer", "alpha", "trigger_rate"):
        if not 0.0 <= r[key] <= 1.0:
            problems.append(f"{key}={r[key]} outside [0, 1]")
    if r["band_lower"] > r["band_upper"]:
        problems.append("best band has lower > upper")
    # The empty band (lower == upper) is on the grid and equals TD alone.
    if r["eer"] > r["eer_td"] + ABS_TOL:
        problems.append(f"best band eer {r['eer']} worse than TD alone {r['eer_td']}")
    kw = cfg.corpus_spec.keyword_frames
    latency = cfg.keyword_seconds + r["trigger_rate"] * cfg.query_seconds
    flops = (dvector.flops_per_utterance(cfg.td_network, kw) + r["trigger_rate"]
             * dvector.flops_per_utterance(cfg.ti_network, kw + cfg.corpus_spec.query_frames))
    if not _close(r["expected_latency_seconds"], latency):
        problems.append("expected_latency_seconds disagrees with the cost model")
    if not _close(r["expected_flops"], flops):
        problems.append("expected_flops disagrees with the flop model")
    if reference is not None:
        for key in REPORT_KEYS:
            if not _close(r[key], reference[key]):
                problems.append(f"{key}={r[key]!r}, reference {reference[key]!r}")
    return problems


class _Pipeline:
    """CLI stages run through `cli.run` from the work directory."""

    name = ""
    stages: tuple[str, ...] = ()
    config_file = ""

    def __init__(self, seed: int, settings: dict, before_stage=None):
        self.seed = seed
        self.settings = settings
        self.config = os.path.join(INPUTS, settings.get("config", self.config_file))
        self.before_stage = before_stage  # lets the self-test break a stage
        self.first_report: bytes | None = None

    def _cli_seed(self) -> int | None:
        return None

    def prepare(self) -> None:
        pass

    def setup(self, tracer) -> None:
        with tracer.span("setup"):
            self.cfg = config.parse_config(self.config, seed_override=self._cli_seed())

    def inputs(self) -> None:
        ref = os.path.join(REFERENCE, f"{self.name}.seed{self.seed}.report.txt")
        self.reference = (parse_report(ref) if os.path.exists(ref)
                          and "config" not in self.settings else None)

    def _clean(self) -> None:
        shutil.rmtree(self.cfg.report_dir, ignore_errors=True)

    def run_pass(self, tracer, tally: Tally) -> None:
        self._clean()
        failed = []
        with tracer.span("pass"):
            for stage in self.stages:
                if self.before_stage is not None:
                    self.before_stage(stage)
                with tracer.span(f"stage.{stage}"):
                    code = cli.run(stage, self.config, self._cli_seed())
                if code != 0:
                    failed.append(stage)
        tally.attempted += len(self.stages)
        for stage in failed:
            tally.fail(f"stage {stage} exited non-zero")
        if "report" in failed:
            return
        report = os.path.join(self.cfg.report_dir, "report.txt")
        try:
            with open(report, "rb") as f:
                content = f.read()
            values = parse_report(report)
        except (OSError, ValueError) as exc:
            tally.fail(f"report.txt unreadable: {exc}")
            return
        problems = check_report(values, self.cfg, self.reference)
        if not problems:
            problems = self._extra_checks(values)
        if self.first_report is None:
            self.first_report = content
        elif content != self.first_report:
            problems.append("report.txt differs from the first pass of this run")
        if problems:
            tally.fail("report check: " + "; ".join(problems))

    def _extra_checks(self, report: dict[str, float]) -> list[str]:
        return []

    def flop_model(self) -> None:
        return None


class DeskPipeline(_Pipeline):
    name = "desk-pipeline"
    stages = ("gen-data", "train", "score", "fuse-sweep", "triage-sweep",
              "triage-apply", "eval", "report")
    config_file = "desk.cfg"

    def _cli_seed(self) -> int:
        return self.seed  # seed 0 reproduces desk.cfg

    def _clean(self) -> None:
        for d in (self.cfg.corpus_dir, self.cfg.checkpoint_dir, self.cfg.score_dir,
                  self.cfg.report_dir):
            shutil.rmtree(d, ignore_errors=True)


class WideSweep(_Pipeline):
    name = "wide-sweep"
    stages = ("fuse-sweep", "triage-sweep", "triage-apply", "eval", "report")
    config_file = "wide.cfg"

    def inputs(self) -> None:
        """Writes scores.tsv: Gaussian TD and TI scores, correlated within a
        trial, separated so that each system's EER is near its target."""
        super().inputs()
        s = self.settings
        rng = np.random.default_rng(self.seed)
        n_tgt, n_non = s["target_trials"], s["nontarget_trials"]
        labels = rng.permutation(np.r_[np.ones(n_tgt, bool), np.zeros(n_non, bool)])
        rho, sd = s["td_ti_correlation"], s["score_sd"]
        z_td = rng.standard_normal(labels.size)
        z_ti = rho * z_td + math.sqrt(1.0 - rho * rho) * rng.standard_normal(labels.size)
        columns = []
        for z, eer in ((z_td, s["td_eer"]), (z_ti, s["ti_eer"])):
            # Equal-variance Gaussians: EER = Phi(-d / 2) for separation d.
            d = 2.0 * statistics.NormalDist().inv_cdf(1.0 - eer)
            scores = 0.5 + sd * z - np.where(labels, 0.0, d * sd)
            columns.append(np.clip(scores, -0.999, 0.999))
        os.makedirs(self.cfg.score_dir, exist_ok=True)
        with open(os.path.join(self.cfg.score_dir, "scores.tsv"), "w") as f:
            for i, (td, ti, tgt) in enumerate(zip(columns[0], columns[1], labels)):
                f.write(f"wspk{i % 500:03d}\twutt{i:05d}\t{'tgt' if tgt else 'non'}\t"
                        f"{td:.9f}\t{ti:.9f}\n")

    def _extra_checks(self, r: dict[str, float]) -> list[str]:
        problems = []
        # At 10k trials per class the EER's standard error is below 0.004.
        for key, target in (("eer_td", self.settings["td_eer"]), ("eer_ti", self.settings["ti_eer"])):
            if abs(r[key] - target) > 0.02:
                problems.append(f"{key}={r[key]} far from the generated {target}")
        return problems


def _network(value) -> dvector.NetworkSpec:
    return getattr(dvector, value) if isinstance(value, str) else dvector.NetworkSpec(**value)


def _samples(stacked_frames: int) -> int:
    """Waveform length that the frontend turns into `stacked_frames` frames."""
    raw = 2 * stacked_frames
    return frontend.WINDOW_SAMPLES + (raw - 1) * frontend.HOP_SAMPLES


class _Request(NamedTuple):
    claimed: int  # index of the enrolled speaker the request claims to be
    keyword: np.ndarray
    query: np.ndarray


class CascadeDecisions:
    """TD decides; requests whose TD score falls inside the band escalate to
    TI over keyword + query and a linear fusion of the two scores."""

    name = "cascade-decisions"

    def __init__(self, seed: int, settings: dict, before_stage=None):
        self.seed = seed
        self.settings = settings
        self.first_ti: list | None = None

    def _audio(self, rng, voice: np.ndarray, frames: int) -> np.ndarray:
        """A voiced tone: harmonics of a jittered pitch with the voice's
        amplitudes, plus noise; float32 as audio arrives from a device."""
        n = _samples(frames)
        t = np.arange(n) / frontend.SAMPLE_RATE
        f0 = voice[0] * (1.0 + 0.03 * rng.standard_normal())
        k = np.arange(1, voice.size)[:, None]
        phases = rng.uniform(0, 2 * np.pi, (voice.size - 1, 1))
        x = (voice[1:, None] * np.sin(2 * np.pi * k * f0 * t + phases)).sum(axis=0)
        x += 0.1 * rng.standard_normal(n)
        return (0.3 * x / np.abs(x).max()).astype(np.float32)

    def prepare(self) -> None:
        s = self.settings
        self.td_spec, self.ti_spec = _network(s["td_network"]), _network(s["ti_network"])
        self.kw_frames, self.q_frames = s["keyword_frames"], s["query_frames"]
        # Decision latency does not depend on the weight values.
        self.td_init = dvector.init_network(self.td_spec, self.seed)
        self.ti_init = dvector.init_network(self.ti_spec, self.seed + 1)
        rng = np.random.default_rng(self.seed)
        self.voices = [np.r_[rng.uniform(90.0, 250.0), rng.uniform(0.1, 1.0, 8)]
                       for _ in range(2 * s["speakers"])]
        self.enroll_audio = [[(self._audio(rng, self.voices[spk], self.kw_frames),
                               self._audio(rng, self.voices[spk], self.q_frames))
                              for _ in range(s["enroll_utterances"])]
                             for spk in range(s["speakers"])]

    def _features(self, audio: np.ndarray) -> np.ndarray:
        raw = frontend.extract_logmel(frontend.Waveform(audio))
        return frontend.stack_and_normalize(raw).frames

    def setup(self, tracer) -> None:
        with tracer.span("setup"):
            dvector.save_checkpoint("td.ckpt", self.td_init)
            dvector.save_checkpoint("ti.ckpt", self.ti_init)
            self.td = dvector.load_checkpoint("td.ckpt")
            self.ti = dvector.load_checkpoint("ti.ckpt")
            self.profiles = []
            for utterances in self.enroll_audio:
                td_embs, ti_embs = [], []
                for kw_audio, q_audio in utterances:
                    kw = self._features(kw_audio)
                    td_embs.append(dvector.forward_embedding(self.td, kw))
                    frames = np.concatenate([kw, self._features(q_audio)])
                    ti_embs.append(dvector.forward_embedding(self.ti, frames))
                self.profiles.append((scoring.aggregate_enrollment(td_embs),
                                      scoring.aggregate_enrollment(ti_embs)))

    def inputs(self) -> None:
        """Requests, half from enrolled speakers and half from impostors, and
        the band: fixed between TD scores so that exactly
        `escalated_requests` requests fall strictly inside it."""
        s = self.settings
        rng = np.random.default_rng([self.seed, 1])
        speakers, count = s["speakers"], s["requests"]
        self.requests = []
        for i in range(count):
            claimed = i % speakers
            voice = self.voices[claimed if (i // speakers) % 2 == 0 else speakers + claimed]
            self.requests.append(_Request(claimed, self._audio(rng, voice, self.kw_frames),
                                          self._audio(rng, voice, self.q_frames)))
        self.expected_td = [
            scoring.cosine_score(self.profiles[r.claimed][0],
                                 dvector.forward_embedding(self.td, self._features(r.keyword)))
            for r in self.requests]
        ranked = sorted(self.expected_td)
        escalated = s["escalated_requests"]
        k = (count - escalated) // 2
        lo_pair, hi_pair = ranked[k - 1:k + 1], ranked[k + escalated - 1:k + escalated + 1]
        if lo_pair[0] == lo_pair[1] or hi_pair[0] == hi_pair[1]:
            raise ToolError("tied TD scores at the band edges; choose another seed")
        self.policy = triage.TriagePolicy(sum(lo_pair) / 2, sum(hi_pair) / 2,
                                          FusionWeight(s["alpha"]))
        ref = os.path.join(REFERENCE, f"{self.name}.seed{self.seed}.json")
        self.reference = None
        if os.path.exists(ref) and s["td_network"] == "TD_SPEC":
            with open(ref) as f:
                self.reference = json.load(f)

    def decide(self, request: _Request) -> tuple[float, bool, float | None, float]:
        kw = self._features(request.keyword)
        td_profile, ti_profile = self.profiles[request.claimed]
        td = scoring.cosine_score(td_profile, dvector.forward_embedding(self.td, kw))
        if triage.triage_decide(td, self.policy) is not triage.Decision.TRIGGER:
            return td, False, None, td
        frames = np.concatenate([kw, self._features(request.query)])
        ti = scoring.cosine_score(ti_profile, dvector.forward_embedding(self.ti, frames))
        alpha = self.policy.alpha.alpha
        return td, True, ti, alpha * td + (1.0 - alpha) * ti

    def run_pass(self, tracer, tally: Tally) -> None:
        outputs = []
        with tracer.span("pass"):
            for request in self.requests:
                try:
                    with tracer.span("decision"):
                        outputs.append(self.decide(request))
                except ToolError as exc:
                    outputs.append(exc)
        tally.attempted += len(outputs)
        ti_scores = []
        for i, out in enumerate(outputs):
            problem = self._check(i, out)
            ti_scores.append(None if problem or not out[1] else out[2])
            if problem:
                tally.fail(f"decision {i}: {problem}")
        if self.first_ti is None:
            self.first_ti = ti_scores

    def _check(self, i: int, out) -> str | None:
        """Each decision must reproduce the TD score the band was fixed from
        and escalate exactly when that score is inside the band, so a pass
        with no failure escalates exactly `escalated_requests` times.  With a
        reference, its TD/TI scores and escalations must match too."""
        if isinstance(out, Exception):
            return f"raised {out}"
        td, triggered, ti, _ = out
        lower, upper = self.policy.lower, self.policy.upper
        if not _close(td, self.expected_td[i]):
            return f"TD score {td!r}, expected {self.expected_td[i]!r}"
        if triggered != (lower < td < upper):
            return "escalation disagrees with the band"
        if triggered:
            if not (ti is not None and -1.0 - ABS_TOL <= ti <= 1.0 + ABS_TOL):
                return f"TI score {ti!r} is not a cosine"
            first = self.first_ti[i] if self.first_ti is not None else None
            if first is not None and not _close(ti, first):
                return f"TI score {ti!r} differs from the first pass"
        if self.reference is not None:
            ref_ti = self.reference["ti_scores"][i]
            if not _close(td, self.reference["td_scores"][i]):
                return f"TD score {td!r}, reference {self.reference['td_scores'][i]!r}"
            if (ti is None) != (ref_ti is None) or (ti is not None and not _close(ti, ref_ti)):
                return f"TI score {ti!r}, reference {ref_ti!r}"
        return None

    def flop_model(self) -> FlopModel:
        ti_frames = self.kw_frames + self.q_frames
        return FlopModel(self.kw_frames, ti_frames,
                         dvector.flops_per_utterance(self.td_spec, self.kw_frames),
                         dvector.flops_per_utterance(self.ti_spec, ti_frames))

    def outputs(self) -> dict:
        """What the reference file stores for this seed."""
        return {"band": [self.policy.lower, self.policy.upper],
                "trigger_count": sum(t is not None for t in self.first_ti),
                "td_scores": self.expected_td, "ti_scores": self.first_ti}


WORKLOADS = {w.name: w for w in (DeskPipeline, CascadeDecisions, WideSweep)}
