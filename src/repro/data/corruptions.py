"""Common-corruption generators for robustness evaluation.

A small ImageNet-C-style battery of corruptions, each parameterised by a
severity level in ``{1..5}``.  The robustness ablation uses them to check that
the accuracy advantage of NetBooster-trained TNNs survives input perturbations
(a practical concern for IoT sensors with noisy optics).

All functions take and return ``(N, C, H, W)`` float32 arrays and never modify
their input in place.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gaussian_noise",
    "shot_noise",
    "impulse_noise",
    "gaussian_blur",
    "pixelate",
    "brightness",
    "contrast",
    "CORRUPTIONS",
    "corrupt",
    "available_corruptions",
]


def _check_severity(severity: int) -> int:
    if not 1 <= severity <= 5:
        raise ValueError("severity must lie in [1, 5]")
    return int(severity)


def _as_batch(images: np.ndarray) -> np.ndarray:
    images = np.asarray(images, dtype=np.float32)
    if images.ndim != 4:
        raise ValueError(f"expected (N, C, H, W) images, got shape {images.shape}")
    return images


def gaussian_noise(images: np.ndarray, severity: int = 1, seed: int = 0) -> np.ndarray:
    """Additive zero-mean Gaussian noise."""
    severity = _check_severity(severity)
    images = _as_batch(images)
    scale = [0.04, 0.08, 0.12, 0.18, 0.26][severity - 1]
    rng = np.random.default_rng(seed)
    return images + rng.normal(0.0, scale, size=images.shape).astype(np.float32)


def shot_noise(images: np.ndarray, severity: int = 1, seed: int = 0) -> np.ndarray:
    """Poisson (photon-count) noise; stronger on bright pixels."""
    severity = _check_severity(severity)
    images = _as_batch(images)
    photons = [60.0, 25.0, 12.0, 5.0, 3.0][severity - 1]
    rng = np.random.default_rng(seed)
    shifted = images - images.min()
    noisy = rng.poisson(np.maximum(shifted, 0.0) * photons) / photons
    return (noisy + images.min()).astype(np.float32)


def impulse_noise(images: np.ndarray, severity: int = 1, seed: int = 0) -> np.ndarray:
    """Salt-and-pepper noise replacing a fraction of pixels by extremes."""
    severity = _check_severity(severity)
    images = _as_batch(images)
    fraction = [0.01, 0.03, 0.06, 0.10, 0.17][severity - 1]
    rng = np.random.default_rng(seed)
    out = images.copy()
    mask = rng.random(images.shape) < fraction
    salt = rng.random(images.shape) < 0.5
    low, high = float(images.min()), float(images.max())
    out[mask & salt] = high
    out[mask & ~salt] = low
    return out


def gaussian_blur(images: np.ndarray, severity: int = 1, seed: int = 0) -> np.ndarray:
    """Gaussian blur applied independently to each channel."""
    from scipy import ndimage  # imported on use: it alone is most of ``import repro.data``

    severity = _check_severity(severity)
    images = _as_batch(images)
    sigma = [0.4, 0.7, 1.0, 1.5, 2.0][severity - 1]
    return ndimage.gaussian_filter(images, sigma=(0, 0, sigma, sigma)).astype(np.float32)


def pixelate(images: np.ndarray, severity: int = 1, seed: int = 0) -> np.ndarray:
    """Downsample then nearest-neighbour upsample, destroying fine detail."""
    severity = _check_severity(severity)
    images = _as_batch(images)
    factor = [1, 2, 3, 4, 6][severity - 1]
    if factor == 1:
        return images.copy()
    n, c, h, w = images.shape
    small_h, small_w = max(h // factor, 1), max(w // factor, 1)
    row_idx = (np.arange(h) * small_h // h).clip(0, small_h - 1)
    col_idx = (np.arange(w) * small_w // w).clip(0, small_w - 1)
    small = images[:, :, :: max(h // small_h, 1), :: max(w // small_w, 1)][:, :, :small_h, :small_w]
    return small[:, :, row_idx][:, :, :, col_idx].astype(np.float32)


def brightness(images: np.ndarray, severity: int = 1, seed: int = 0) -> np.ndarray:
    """Additive brightness shift."""
    severity = _check_severity(severity)
    images = _as_batch(images)
    shift = [0.1, 0.2, 0.3, 0.4, 0.5][severity - 1]
    return images + shift


def contrast(images: np.ndarray, severity: int = 1, seed: int = 0) -> np.ndarray:
    """Compress the dynamic range around the per-image mean."""
    severity = _check_severity(severity)
    images = _as_batch(images)
    factor = [0.75, 0.6, 0.45, 0.3, 0.2][severity - 1]
    mean = images.mean(axis=(1, 2, 3), keepdims=True)
    return ((images - mean) * factor + mean).astype(np.float32)


CORRUPTIONS = {
    "gaussian_noise": gaussian_noise,
    "shot_noise": shot_noise,
    "impulse_noise": impulse_noise,
    "gaussian_blur": gaussian_blur,
    "pixelate": pixelate,
    "brightness": brightness,
    "contrast": contrast,
}


def available_corruptions() -> list[str]:
    """Names accepted by :func:`corrupt`."""
    return sorted(CORRUPTIONS)


def corrupt(images: np.ndarray, name: str, severity: int = 1, seed: int = 0) -> np.ndarray:
    """Apply the named corruption at the given severity."""
    if name not in CORRUPTIONS:
        raise KeyError(f"unknown corruption {name!r}; available: {available_corruptions()}")
    return CORRUPTIONS[name](images, severity=severity, seed=seed)
