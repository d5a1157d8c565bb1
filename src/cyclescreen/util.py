"""Shared helpers: seed fanout, rounding, atomic writes, the feature-matrix
rule every detector reads its input by, min-max."""

from __future__ import annotations

import hashlib
import math
import os
from collections.abc import Iterable

import numpy as np

from .errors import InputError


def derive_seed(*parts) -> int:
    """Derive a stable 63-bit seed from an arbitrary tuple of tokens.

    Uses a cryptographic digest rather than hash() so the fanout is identical
    across processes and platforms.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def round_sig(x: float, digits: int = 6) -> float:
    """Round to a number of significant digits; inf/nan/0 pass through."""
    if not math.isfinite(x) or x == 0.0:
        return x
    scale = digits - 1 - math.floor(math.log10(abs(x)))
    return round(x, scale)


def round_half_up(x: float) -> int:
    """Round to nearest integer with exact halves going up."""
    return int(math.floor(x + 0.5))


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write text, a string or an iterable of strings, to path via a temp
    file and rename, so readers never see a partially written artifact."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # a fresh name, opened as open() would, so the file's mode follows umask
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def as_matrix(X) -> np.ndarray:
    """X as the 2-D float feature matrix every detector reads: a 1-D input
    is one feature column, there is at least one row, and the first NaN or
    infinity raises, named by its 0-based row, column and value, since a
    detector would miss it."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise InputError(f"expected a 2-D feature matrix, got {X.ndim}-D")
    if X.shape[0] == 0:
        raise InputError("feature matrix has no rows")
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise InputError(
            f"feature row {row}, column {col} is {float(X[row, col])!r}; "
            "detectors need finite values"
        )
    return X


def normalize_scores(values, reference=None) -> np.ndarray:
    """Min-max squash raw scores into outlier probabilities.

    By default the min/max come from the scored values themselves; passing a
    frozen reference reuses another score set's envelope instead, with the
    result clipped back into [0, 1]. A constant input maps to all zeros.
    """
    arr = np.asarray(values, dtype=float)
    ref = arr if reference is None else np.asarray(reference, dtype=float)
    if ref.size == 0:
        raise InputError("no reference scores to normalize against")
    rmin = float(ref.min())
    rmax = float(ref.max())
    if rmax == rmin:
        return np.zeros_like(arr)
    out = (arr - rmin) / (rmax - rmin)
    if reference is not None:
        out = np.clip(out, 0.0, 1.0)
    return out
