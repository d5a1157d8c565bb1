"""Small shared helpers: seed fanout, rounding, atomic writes, finite checks."""

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


def require_finite(X: np.ndarray) -> None:
    """Raise on the first NaN or infinity of a feature column or matrix,
    naming its 0-based row, column and value: detectors would miss it."""
    M = X.reshape(len(X), -1)
    bad = np.argwhere(~np.isfinite(M))
    if len(bad):
        row, col = bad[0]
        raise InputError(
            f"feature row {row}, column {col} is {float(M[row, col])!r}; "
            "detectors need finite values"
        )
