"""Parity and behaviour tests for the compiled training engine.

Covers the fused training runtime (`repro.compile(model, mode="train")`),
the flat-buffer optimisers (`repro.optim.flat`), flat EMA / clipping, and the
prefetching data pipeline's RNG stability.
"""

import numpy as np
import pytest

import repro
from repro import nn
from repro.data import (
    ClassificationDataset,
    Compose,
    DataLoader,
    Normalize,
    RandomCrop,
    RandomHorizontalFlip,
)
from repro.models import mcunet, mobilenet_v2
from repro.optim import (
    SGD,
    FlatParams,
    FlatSGD,
    ModelEMA,
    clip_grad_norm,
    clip_grad_norm_,
)
from repro.train import Trainer
from repro.utils import ExperimentConfig, seed_everything


def _dataset(n=64, classes=4, size=16, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    images = rng.normal(0.4, 0.2, size=(n, 3, size, size)).astype(np.float32)
    for i, label in enumerate(labels):
        images[i, 0] += 0.3 * label
    return ClassificationDataset(images, np.asarray(labels), classes)


def _run_steps(factory, compile_flag, steps=50, batch=8, classes=4, label_smoothing=0.1):
    """Train `steps` iterations; return per-step losses and the final state."""
    seed_everything(0)
    model = factory()
    trainer = Trainer(
        model,
        ExperimentConfig(batch_size=batch, lr=0.05, label_smoothing=label_smoothing),
        compile=compile_flag,
    )
    rng = np.random.default_rng(7)
    losses = []
    model.train()
    for _ in range(steps):
        images = rng.normal(size=(batch, 3, 16, 16)).astype(np.float32)
        labels = rng.integers(0, classes, size=batch)
        loss, _ = trainer.train_step(images, labels)
        losses.append(loss)
    return losses, model.state_dict(), trainer


class TestCompiledTrainStepParity:
    @pytest.mark.parametrize(
        "name,factory",
        [
            ("mobilenetv2-tiny", lambda: mobilenet_v2("tiny", num_classes=4)),
            ("mcunet", lambda: mcunet(num_classes=4)),
        ],
    )
    def test_parity_over_50_steps(self, name, factory):
        """Compiled and eager train steps agree on loss, params and BN stats."""
        eager_losses, eager_state, _ = _run_steps(factory, compile_flag=False)
        compiled_losses, compiled_state, trainer = _run_steps(factory, compile_flag=True)
        assert trainer._compiled_step is not None, "compiled path was not used"
        np.testing.assert_allclose(compiled_losses, eager_losses, atol=1e-6)
        for key in eager_state:
            np.testing.assert_allclose(
                compiled_state[key], eager_state[key], atol=1e-6,
                err_msg=f"state mismatch at {key} ({name})",
            )

    def test_bn_running_stats_updated_in_train_mode(self):
        seed_everything(0)
        model = mobilenet_v2("tiny", num_classes=4)
        before = {
            name: value.copy()
            for name, value in model.state_dict().items()
            if "running_" in name
        }
        trainer = Trainer(model, ExperimentConfig(batch_size=8, lr=0.01), compile=True)
        rng = np.random.default_rng(0)
        trainer.train_step(
            rng.normal(size=(8, 3, 16, 16)).astype(np.float32), rng.integers(0, 4, size=8)
        )
        assert trainer._compiled_step is not None
        after = model.state_dict()
        changed = [name for name in before if not np.allclose(after[name], before[name])]
        assert changed, "compiled step must update BN running statistics"

    def test_grads_land_in_flat_buffer(self):
        seed_everything(0)
        model = mobilenet_v2("tiny", num_classes=4)
        trainer = Trainer(model, ExperimentConfig(batch_size=4, lr=0.01), compile=True)
        step = trainer._ensure_compiled()
        assert step is not None
        trainer.optimizer.zero_grad()
        rng = np.random.default_rng(0)
        step(rng.normal(size=(4, 3, 16, 16)).astype(np.float32), rng.integers(0, 4, size=4))
        flat_grad = trainer.optimizer.flat.grad
        assert float(np.abs(flat_grad).sum()) > 0.0
        for param in trainer.optimizer.params:
            assert param.grad is not None
            assert param.grad.base is flat_grad or param.grad is flat_grad

    def test_structural_change_triggers_recompile(self):
        seed_everything(0)
        model = mobilenet_v2("tiny", num_classes=4)
        trainer = Trainer(model, ExperimentConfig(batch_size=4, lr=0.01), compile=True)
        first = trainer._ensure_compiled()
        assert first is not None and first.matches(model)
        model.reset_classifier(3)  # swaps the classifier module
        assert not first.matches(model)
        second = trainer._ensure_compiled()
        assert second is not None and second is not first

    def test_unsupported_loss_falls_back_to_eager(self):
        class CustomLoss:
            def __call__(self, model, images, labels):
                from repro.nn import functional as F

                logits = model(images)
                return F.cross_entropy(logits, labels), logits

        seed_everything(0)
        model = mobilenet_v2("tiny", num_classes=4)
        trainer = Trainer(
            model, ExperimentConfig(batch_size=4, lr=0.01), loss_computer=CustomLoss()
        )
        rng = np.random.default_rng(0)
        loss, logits = trainer.train_step(
            rng.normal(size=(4, 3, 16, 16)).astype(np.float32), rng.integers(0, 4, size=4)
        )
        assert trainer._compiled_step is None
        assert np.isfinite(loss) and logits.shape == (4, 4)

    def test_decayable_alpha_read_live(self):
        """PLT-style alpha mutation must be visible without recompilation."""
        act = nn.DecayableReLU(alpha=0.0)
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, bias=True), act, nn.GlobalAvgPool2d(), nn.Flatten(),
            nn.Linear(4, 2),
        )
        step = repro.compile(model, mode="train")
        assert step is not None
        x = np.full((2, 3, 4, 4), -1.0, dtype=np.float32)
        labels = np.zeros(2, dtype=np.int64)
        model.zero_grad()
        _, logits_relu = step(x, labels)
        act.set_alpha(1.0)  # identity now
        model.zero_grad()
        _, logits_linear = step(x, labels)
        assert not np.allclose(logits_relu, logits_linear)


class TestFlatOptim:
    def _model(self):
        seed_everything(3)
        return mobilenet_v2("tiny", num_classes=4)

    def test_flat_sgd_matches_sgd_bitwise(self):
        def train(opt_cls):
            seed_everything(1)
            model = mobilenet_v2("tiny", num_classes=4)
            opt = opt_cls(model.parameters(), lr=0.1, momentum=0.9, weight_decay=1e-4, nesterov=True)
            rng = np.random.default_rng(5)
            from repro.nn import functional as F

            for _ in range(5):
                opt.zero_grad()
                x = nn.Tensor(rng.normal(size=(4, 3, 16, 16)).astype(np.float32))
                loss = F.cross_entropy(model(x), rng.integers(0, 4, size=4))
                loss.backward()
                opt.step()
            return model.state_dict()

        ref, flat = train(SGD), train(FlatSGD)
        for key in ref:
            np.testing.assert_array_equal(ref[key], flat[key], err_msg=key)

    def test_flat_params_views_are_live(self):
        p1 = nn.Parameter(np.ones((2, 2), dtype=np.float32))
        p2 = nn.Parameter(np.full(3, 2.0, dtype=np.float32))
        flat = FlatParams([p1, p2])
        assert flat.size == 7
        flat.data += 1.0
        np.testing.assert_allclose(p1.numpy(), np.full((2, 2), 2.0))
        np.testing.assert_allclose(p2.numpy(), np.full(3, 3.0))
        p1.data *= 2.0
        np.testing.assert_allclose(flat.data[:4], 4.0)
        assert flat.check_bound()

    def test_flat_params_dedupes_shared_parameters(self):
        shared = nn.Parameter(np.ones(4, dtype=np.float32))
        flat = FlatParams([shared, shared])
        assert flat.size == 4

    def test_flat_sgd_recovers_from_model_zero_grad(self):
        model = self._model()
        opt = FlatSGD(model.parameters(), lr=0.1, momentum=0.0)
        model.zero_grad()  # sets grads to None, bypassing the flat buffer
        from repro.nn import functional as F

        rng = np.random.default_rng(0)
        loss = F.cross_entropy(
            model(nn.Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))),
            rng.integers(0, 4, size=2),
        )
        loss.backward()
        before = model.classifier.weight.numpy().copy()
        opt.step()  # must gather the stray grads
        assert not np.allclose(model.classifier.weight.numpy(), before)

    def test_clip_grad_norm_flat_matches_reference(self):
        model = self._model()
        opt = FlatSGD(model.parameters(), lr=0.1)
        opt.zero_grad()
        rng = np.random.default_rng(2)
        for param in opt.params:
            param.grad[...] = rng.normal(size=param.shape).astype(np.float32)
        reference = np.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum()) for p in opt.params))
        norm = clip_grad_norm_(opt, max_norm=0.5)
        assert norm == pytest.approx(reference, rel=1e-6)
        clipped = np.sqrt(float(np.dot(opt.flat.grad.astype(np.float64), opt.flat.grad)))
        assert clipped == pytest.approx(0.5, rel=1e-5)

    def test_clip_grad_norm_plain_params_fallback(self):
        p = nn.Parameter(np.ones(4, dtype=np.float32))
        p.grad = np.full(4, 3.0, dtype=np.float32)
        norm = clip_grad_norm_([p], max_norm=1.0)
        assert norm == pytest.approx(6.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-5)

    def test_flat_ema_matches_reference_update(self):
        model = self._model()
        ema = ModelEMA(model, decay=0.9)
        reference = {name: value.copy() for name, value in model.state_dict().items()}
        model.classifier.weight.data += 1.0
        ema.update(model)
        state = model.state_dict()
        for name, value in ema.shadow.items():
            if np.issubdtype(value.dtype, np.floating):
                expected = 0.9 * reference[name] + 0.1 * state[name]
                np.testing.assert_allclose(value, expected, atol=1e-6, err_msg=name)

    def test_flat_ema_update_is_allocation_free_per_param(self):
        """The shadow arrays must be stable views, not reallocated per step."""
        model = self._model()
        ema = ModelEMA(model, decay=0.5)
        ids_before = {name: id(value) for name, value in ema.shadow.items()}
        ema.update(model)
        ema.update(model)
        assert ids_before == {name: id(value) for name, value in ema.shadow.items()}


class TestPrefetchingLoader:
    def _loader(self, prefetch, transform=None, seed=9):
        return DataLoader(
            _dataset(), batch_size=16, shuffle=True, transform=transform,
            seed=seed, prefetch=prefetch,
        )

    def test_prefetch_on_off_identical_stream(self):
        transform = Compose([RandomHorizontalFlip(), RandomCrop(2), Normalize()])
        batches_off = [(i.copy(), l.copy()) for i, l in self._loader(False, transform)]
        batches_on = [(i.copy(), l.copy()) for i, l in self._loader(True, transform)]
        assert len(batches_on) == len(batches_off) == 4
        for (img_a, lab_a), (img_b, lab_b) in zip(batches_on, batches_off):
            np.testing.assert_array_equal(img_a, img_b)
            np.testing.assert_array_equal(lab_a, lab_b)

    def test_prefetch_on_off_identical_across_epochs(self):
        a, b = self._loader(True), self._loader(False)
        for _ in range(3):  # RNG state must advance identically epoch to epoch
            for (img_a, lab_a), (img_b, lab_b) in zip(a, b):
                np.testing.assert_array_equal(img_a, img_b)
                np.testing.assert_array_equal(lab_a, lab_b)

    def test_early_break_then_reiterate(self):
        loader = self._loader(True)
        iterator = iter(loader)
        next(iterator)
        del iterator  # abandon mid-epoch; thread must not wedge the loader
        batches = list(loader)
        assert len(batches) == 4

    def test_producer_exception_propagates(self):
        class Boom(Exception):
            pass

        class Exploding:
            def __call__(self, image, rng):
                raise Boom()

        loader = DataLoader(_dataset(), batch_size=16, transform=Exploding(), prefetch=True)
        with pytest.raises(Boom):
            list(loader)

    def test_batched_transforms_match_shapes_and_determinism(self):
        transform = Compose([RandomHorizontalFlip(), RandomCrop(2), Normalize()])
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        images = np.random.default_rng(0).random((8, 3, 12, 12)).astype(np.float32)
        out_a = transform.batch(images, rng_a)
        out_b = transform.batch(images, rng_b)
        assert out_a.shape == images.shape
        np.testing.assert_array_equal(out_a, out_b)

    def test_per_image_callable_still_supported(self):
        calls = []

        class Marker:
            def __call__(self, image, rng):
                calls.append(1)
                return image

        loader = DataLoader(_dataset(n=8), batch_size=8, transform=Marker(), prefetch=True)
        next(iter(loader))
        assert len(calls) == 8


class TestTrainerIntegration:
    def test_compiled_trainer_learns_toy_problem(self):
        dataset = _dataset(n=64)
        seed_everything(0)
        model = mobilenet_v2("tiny", num_classes=4)
        trainer = Trainer(model, ExperimentConfig(epochs=6, batch_size=16, lr=0.05), compile=True)
        history = trainer.fit(dataset, dataset)
        assert trainer._compiled_step is not None
        assert history.train_loss[-1] < history.train_loss[0]

    def test_fit_compiled_matches_eager_fit(self):
        def run(compile_flag):
            dataset = _dataset(n=32)
            seed_everything(0)
            model = mobilenet_v2("tiny", num_classes=4)
            trainer = Trainer(
                model,
                ExperimentConfig(epochs=2, batch_size=16, lr=0.05),
                train_transform=Compose([RandomHorizontalFlip(), Normalize()]),
                compile=compile_flag,
            )
            history = trainer.fit(dataset, dataset)
            return history, model.state_dict()

        hist_e, state_e = run(False)
        hist_c, state_c = run(True)
        np.testing.assert_allclose(hist_c.train_loss, hist_e.train_loss, atol=1e-6)
        np.testing.assert_allclose(hist_c.val_accuracy, hist_e.val_accuracy, atol=1e-6)
        for key in state_e:
            np.testing.assert_allclose(state_c[key], state_e[key], atol=1e-6, err_msg=key)
