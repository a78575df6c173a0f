"""The NetBooster train -> deploy -> batch-inference flow, timed stage by stage.

Every workload runs this flow first; its output (the contracted net's int8
artifact) is what the serving phase then serves.  Stages:

* set-up: model, Network Expansion and the compiling first train step;
* training: ``STEPS`` steps at batch ``BATCH`` while a ``PLTSchedule`` decays
  the expanded blocks' slopes from 0 to 1 over the first half;
* deployment: contraction, quantization + calibration, float and int8
  compilation, artifact save and ``repro.load``;
* inference: batch-64 passes over the held-out set with both engines.

Two giants, ``a`` and ``b``, train one after the other from the same seed and
must end at the bitwise-same loss; ``a`` is the giant deployed.  ``a`` trains
through ``Trainer.train_step``.  Untraced, so does ``b``; traced, ``b``'s step
is spelled out as ``zero_grad`` -> compiled ``TrainStep`` -> ``FlatSGD.step``
-> ``PLTSchedule.step`` so each layer gets its own span, and the equal losses
show the traced loop ran the same program.  Set-up, deployment and
inference are repeated and reported as medians.
"""

from __future__ import annotations

import copy
import statistics
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro import nn
from repro.compress import calibrate, quantize_model
from repro.core import ExpansionConfig, PLTSchedule, contract_network, expand_network
from repro.data import DataLoader, SyntheticImageNet
from repro.eval.complexity import count_complexity
from repro.models import create_model
from repro.optim import FlatSGD
from repro.train import Trainer
from repro.train.trainer import StandardLoss
from repro.utils import ExperimentConfig, seed_everything
from spans import Tracer, span_cost_ms

MODEL = "mobilenetv2-tiny"
NUM_CLASSES = 16
SIGNAL_SCALE = 4.0  # class separation of the synthetic corpus
RESOLUTION = 32
INPUT_SHAPE = (3, RESOLUTION, RESOLUTION)
BATCH = 32
STEPS = 80
PLT_STEPS = STEPS // 2
LR = 0.1
INFER_BATCH = 64
CALIBRATION_BATCHES = 4
REPEATS = 5  # set-ups per run, reported as their median
DEPLOYS = 7  # deployments per run, reported as their median
INFER_ROUNDS = 10
CONTRACT_TOLERANCE = 1e-4  # max |logit(giant) - logit(contracted)| at alpha = 1
AGREEMENT_FLOOR = 0.90  # int8 vs float top-1 agreement on the held-out set


def make_corpus(seed: int) -> SyntheticImageNet:
    """The seeded training corpus and held-out set (untimed input generation)."""
    # signal_scale above the default 2.5: at 2.5 the giant reaches only 15-19%
    # top-1 in STEPS steps, its logits are near-tied, and int8 rounding flips
    # up to 10% of the held-out predictions on some seeds.
    return SyntheticImageNet(
        signal_scale=SIGNAL_SCALE,
        num_classes=NUM_CLASSES,
        samples_per_class=60,
        val_samples_per_class=16,
        resolution=RESOLUTION,
        seed=seed,
    )


@dataclass
class Outcome:
    """Operations attempted and failed, and each check's verdict."""

    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str) -> None:
        """A check is one more operation; it fails when ``ok`` is false."""
        self.ops(1, 0 if ok else 1)
        self.checks[name] = (bool(ok), detail)


def _batches(corpus: SyntheticImageNet, seed: int):
    loader = DataLoader(corpus.train, batch_size=BATCH, shuffle=True, seed=seed, drop_last=True)
    while True:
        yield from loader


class _Run:
    """One seeded giant with its batch stream, PLT schedule and step function."""

    def __init__(self, seed: int, corpus: SyntheticImageNet, tracer, manual: bool):
        self.stream = _batches(corpus, seed)
        first = next(self.stream)
        self.fallback_warnings = 0
        start = time.perf_counter()
        seed_everything(seed)
        model = create_model(MODEL, num_classes=NUM_CLASSES)
        with tracer.span("core.expand"):
            self.giant, self.records = expand_network(model, ExpansionConfig())
        self.giant.train()
        self.schedule = PLTSchedule(self.giant, total_steps=PLT_STEPS)
        config = ExperimentConfig(batch_size=BATCH, lr=LR, lr_schedule="constant", seed=seed)
        if manual:
            self.optimizer = FlatSGD(
                self.giant.parameters(),
                lr=config.lr,
                momentum=config.momentum,
                weight_decay=config.weight_decay,
            )
            with tracer.span("runtime.train_compile"):
                self.train_step = repro.compile(
                    self.giant, mode="train", loss=StandardLoss(config.label_smoothing),
                    optimizer=self.optimizer,
                )
            self.trainer = None
        else:
            self.trainer = Trainer(
                self.giant, config, iteration_callbacks=[lambda _i: self.schedule.step()]
            )
        self.loss = self.step(first, tracer)
        self.setup_s = time.perf_counter() - start

    def step(self, batch, tracer) -> float:
        images, labels = batch
        if self.trainer is not None:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                loss, _ = self.trainer.train_step(images, labels)
            # Trainer's silent slow path: compile raised and it ran eager.
            self.fallback_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
            return loss
        with tracer.span("optim.zero_grad"):
            self.optimizer.zero_grad()
        with tracer.span("runtime.train_fwd_bwd"):
            loss, _ = self.train_step(images, labels)
        with tracer.span("optim.step"):
            self.optimizer.step()
        with tracer.span("core.plt_step"):
            self.schedule.step()
        return loss

    def compiled(self) -> bool:
        """False when Trainer silently fell back to the eager tape."""
        if self.trainer is None:
            return True
        return self.trainer._compiled_step is not None

    def train(self, tracer) -> list[float]:
        """Steps 2..STEPS; returns each step's seconds, batch fetch included."""
        times = []
        for _ in range(STEPS - 1):
            with tracer.span("train.step"):
                start = time.perf_counter()
                with tracer.span("data.next_batch"):
                    batch = next(self.stream)
                self.loss = self.step(batch, tracer)
                times.append(time.perf_counter() - start)
        return times


class Pipeline:
    """The flow's stages; collects their timings, metrics and checks."""

    def __init__(self, seed: int, corpus: SyntheticImageNet, tracer: Tracer, workdir: Path,
                 outcome: Outcome):
        self.seed = seed
        self.corpus = corpus
        self.tracer = tracer
        self.outcome = outcome
        self.artifact = workdir / "net.rpa"
        self.val = np.ascontiguousarray(corpus.val.images, dtype=np.float32)
        self.calibration = [corpus.train.images[i * BATCH:(i + 1) * BATCH].astype(np.float32)
                            for i in range(CALIBRATION_BATCHES)]
        self.metrics: dict[str, float] = {}
        self.step_times: dict[str, list[float]] = {"a": [], "b": []}
        self.deploy_times: list[float] = []
        self.infer_times: dict[str, list[float]] = {"float": [], "int8": []}

    def run(self) -> dict[str, float]:
        """Every stage in order; returns the pipeline's metrics."""
        self.setup()
        self.train()
        for _ in range(DEPLOYS):
            deployed = self.deploy()
        self.check_deployment(*deployed)
        self.infer()
        return self.finish()

    def setup(self) -> None:
        """``REPEATS`` timed set-ups; ``b`` is the last, ``a`` a ``Trainer`` twin."""
        tracer, traced = self.tracer, self.tracer.enabled
        with tracer.span("bench.setup"):
            runs = [_Run(self.seed, self.corpus, tracer, manual=traced) for _ in range(REPEATS)]
        self.metrics["setup_s"] = statistics.median(r.setup_s for r in runs)
        losses = {r.loss for r in runs}
        self.outcome.ops(REPEATS)
        self.outcome.check("setup.first_loss_repeatable", len(losses) == 1,
                           f"{len(losses)} distinct first-step losses over {REPEATS} set-ups")
        self.b = runs.pop()
        self.a = _Run(self.seed, self.corpus, Tracer(False), manual=False) if traced else runs.pop()
        for spare in runs:
            spare.stream.close()  # stops its loader's prefetch thread

    def train(self) -> None:
        """Train ``a`` then ``b`` to the end; ``a``'s giant is the one deployed."""
        self.step_times["a"] = self.a.train(Tracer(False))
        self.a.stream.close()
        self.a.giant.eval()
        with self.tracer.span("bench.train"):
            self.step_times["b"] = self.b.train(self.tracer)
        self.b.stream.close()
        self.outcome.ops(2 * (STEPS - 1))
        a, b = self.a, self.b
        self.outcome.check(
            "train.compiled", a.compiled() and b.compiled() and a.fallback_warnings + b.fallback_warnings == 0,
            f"compiled steps in use, {a.fallback_warnings + b.fallback_warnings} eager-fallback warnings")
        self.outcome.check("train.alpha_reached_1", a.schedule.alpha == b.schedule.alpha == 1.0,
                           f"alpha {a.schedule.alpha} and {b.schedule.alpha}")
        self.outcome.check("train.loss_finite", bool(np.isfinite(a.loss)), f"final loss {a.loss!r}")
        self.outcome.check(
            "train.final_loss_repeatable", a.loss == b.loss,
            f"{'traced loop' if self.tracer.enabled else 'second Trainer'} {b.loss!r} vs Trainer {a.loss!r}")
        # Total over both giants, not a median: steps after the PLT decay
        # (alpha = 1) run faster, so step times form two clusters.
        times = self.step_times["a"] + self.step_times["b"]
        self.metrics["train_samples_per_s"] = BATCH * len(times) / sum(times)

    def deploy(self):
        """One deployment of the trained giant ``a``; returns what it built."""
        tracer = self.tracer
        start = time.perf_counter()
        with tracer.span("bench.deploy"):
            with tracer.span("core.contract"):
                tiny = contract_network(self.a.giant, self.a.records)
            with tracer.span("runtime.compile_float"):
                float_net = repro.compile(tiny, mode="infer")
            quantized = copy.deepcopy(tiny)
            with tracer.span("compress.quantize"):
                quantize_model(quantized)
            with tracer.span("compress.calibrate"):
                calibrate(quantized, self.calibration)
            with tracer.span("runtime.compile_int8"):
                int8_net = repro.compile(quantized, mode="int8")
            with tracer.span("runtime.artifact_save"):
                info = int8_net.save(str(self.artifact), input_shape=INPUT_SHAPE)
            with tracer.span("runtime.artifact_load"):
                loaded = repro.load(str(self.artifact))
        self.deploy_times.append(time.perf_counter() - start)
        self.outcome.ops(1)
        return tiny, float_net, int8_net, loaded, info

    def check_deployment(self, tiny, float_net, int8_net, loaded, info) -> None:
        """Check one deployment and keep its float and re-loaded int8 engines."""
        probe = self.val[:INFER_BATCH]
        with nn.no_grad():
            delta = float(np.abs(
                self.a.giant(nn.Tensor(probe)).numpy() - tiny(nn.Tensor(probe)).numpy()).max())
        self.outcome.check("deploy.contract_equivalent", delta <= CONTRACT_TOLERANCE,
                           f"max |dlogit| {delta:.3g} <= {CONTRACT_TOLERANCE:g}")
        self.outcome.check("deploy.artifact_roundtrip",
                           np.array_equal(int8_net.numpy_forward(probe), loaded.numpy_forward(probe)),
                           "re-loaded int8 artifact bit-identical to the fresh compile")
        self.tiny = tiny
        self.engines = {"float": float_net, "int8": loaded}
        self.metrics["runtime.artifact_bytes"] = info.nbytes

    def infer(self) -> None:
        """``INFER_ROUNDS`` batch-64 passes over the held-out set with both engines.

        Every pass must reproduce the first pass bit for bit.
        """
        batches = [self.val[i:i + INFER_BATCH] for i in range(0, len(self.val), INFER_BATCH)]
        first = {name: [net.numpy_forward(b) for b in batches] for name, net in self.engines.items()}
        agreement = float(np.mean(np.concatenate(first["float"]).argmax(1)
                                  == np.concatenate(first["int8"]).argmax(1)))
        self.outcome.check("infer.int8_agreement", agreement >= AGREEMENT_FLOOR,
                           f"int8 vs float top-1 agreement {agreement:.4f} >= {AGREEMENT_FLOOR}")
        wrong = 0
        with self.tracer.span("bench.infer"):
            for _ in range(INFER_ROUNDS):
                for i, batch in enumerate(batches):
                    for name, net in self.engines.items():
                        start = time.perf_counter()
                        with self.tracer.span(f"runtime.forward_{name}_b64"):
                            out = net.numpy_forward(batch)
                        self.infer_times[name].append(time.perf_counter() - start)
                        wrong += not np.array_equal(out, first[name][i])
        self.outcome.ops(INFER_ROUNDS * len(batches) * len(self.engines), wrong)
        self.outcome.check("infer.repeatable", wrong == 0, f"{wrong} batch outputs differ from the first pass")

    def finish(self) -> dict[str, float]:
        """The pipeline's metrics from the recorded timings and spans."""
        metrics, tracer = self.metrics, self.tracer
        metrics["deploy_s"] = statistics.median(self.deploy_times)
        median_s = {name: statistics.median(t) for name, t in self.infer_times.items()}
        metrics["infer_float_imgs_per_s"] = INFER_BATCH / median_s["float"]
        metrics["infer_int8_imgs_per_s"] = INFER_BATCH / median_s["int8"]
        if not tracer.enabled:
            return metrics
        step_ms = tracer.durations_ms("train.step")
        parts = ("data.next_batch", "optim.zero_grad", "runtime.train_fwd_bwd", "optim.step",
                 "core.plt_step")
        # the loop's spans are the last ones of each name; set-up's first steps come before
        per_step = {name: tracer.durations_ms(name)[-len(step_ms):] for name in parts}
        coverage = sum(map(sum, per_step.values())) / sum(step_ms)
        self.outcome.check("trace.step_covered", abs(coverage - 1.0) <= 0.10,
                           f"layer self times cover {coverage:.3f} of the traced step time")
        flops = count_complexity(self.tiny, INPUT_SHAPE).flops
        med = statistics.median
        metrics.update({
            "data.next_batch_ms": med(per_step["data.next_batch"]),
            "runtime.train_fwd_bwd_ms": med(per_step["runtime.train_fwd_bwd"]),
            "optim.step_ms": med(per_step["optim.step"]),
            "optim.zero_grad_ms": med(per_step["optim.zero_grad"]),
            "core.plt_step_ms": med(per_step["core.plt_step"]),
            "train.step_ms": med(step_ms),
            "trace.step_coverage": coverage,
            # what the traced loop adds to a step: its spans' own cost
            "trace.step_overhead_ms": (1 + len(parts)) * span_cost_ms(),
            "runtime.train_eager_nodes": sum(
                line.split()[1:2] == ["eager"] for line in self.b.train_step.describe().splitlines()
            ),
            "core.expand_ms": med(tracer.durations_ms("core.expand")),
            "runtime.train_compile_ms": med(tracer.durations_ms("runtime.train_compile")),
            "core.contract_ms": med(tracer.durations_ms("core.contract")),
            "compress.calibrate_ms": med(tracer.durations_ms("compress.calibrate")),
            "runtime.compile_float_ms": med(tracer.durations_ms("runtime.compile_float")),
            "runtime.compile_int8_ms": med(tracer.durations_ms("runtime.compile_int8")),
            "runtime.artifact_save_ms": med(tracer.durations_ms("runtime.artifact_save")),
            "runtime.artifact_load_ms": med(tracer.durations_ms("runtime.artifact_load")),
            "runtime.forward_float_b64_ms": 1e3 * median_s["float"],
            "runtime.forward_int8_b64_ms": 1e3 * median_s["int8"],
            # count_complexity counts multiply-accumulates, the repo's FLOP unit
            "runtime.float_gflops": flops * INFER_BATCH / median_s["float"] / 1e9,
            "runtime.int8_gops": flops * INFER_BATCH / median_s["int8"] / 1e9,
        })
        return metrics
