"""Shared helpers: seed fanout, rounding, atomic writes, the feature-matrix
rule every detector reads its input by, the check that a size's arrays can
be addressed, the floating-point policy every entry point runs under,
min-max, and the median and type-7 quartiles.

The order statistics avoid np.median and np.quantile: both import
numpy.ma on their first call in a process (np.median through its NaN
check, np.quantile through np.unique), about 1 MB and 8-18 ms that a CLI
process would pay for nothing. median and quartiles run NumPy's own
partition, mean and interpolation steps, so they return the same bits,
signed zeros included, and overflow with the same message."""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .errors import ConfigError, DegenerateDataError, InputError


def derive_seed(*parts) -> int:
    """Derive a stable 63-bit seed from an arbitrary tuple of tokens.

    Uses a cryptographic digest rather than hash() so the fanout is identical
    across processes and platforms.
    """
    import hashlib  # loaded on the first seed, not with the CLI

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
    is one feature column, there is at least one row and one column, and
    the first NaN or infinity raises, named by its 0-based row, column and
    value, since a detector would miss it."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise InputError(f"expected a 2-D feature matrix, got {X.ndim}-D")
    if X.shape[0] == 0:
        raise InputError("feature matrix has no rows")
    if X.shape[1] == 0:
        raise InputError("feature matrix has no columns")
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise InputError(
            f"feature row {row}, column {col} is {float(X[row, col])!r}; "
            "detectors need finite values"
        )
    return X


def is_integer(value) -> bool:
    """An integer that is not a bool; NumPy integers, as read from an
    array, count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_addressable(what: str, value: int, nbytes: int) -> None:
    """Refuse a size whose arrays would need nbytes, more bytes than NumPy
    can address (np.iinfo(np.intp).max), naming what, its value and the
    bytes: NumPy would stop at such an array with an OverflowError or a
    ValueError of its own."""
    limit = int(np.iinfo(np.intp).max)
    if nbytes > limit:
        raise ConfigError(
            f"{what} {value!r} needs arrays of {nbytes} bytes, more than "
            f"the {limit} NumPy can address"
        )


#: whether a float_policy is already held, so nested entry points (fit
#: calling pairwise, say) leave the error to the outermost one's label
_policy_held: ContextVar[bool] = ContextVar("float_policy_held", default=False)


@contextmanager
def float_policy(label: str):
    """Run the body with NumPy's overflow, invalid and divide-by-zero
    raising, and underflow silent; a FloatingPointError leaves as
    DegenerateDataError named by label, the model or metric the caller
    asked for. Inside another float_policy the body just runs: the
    outermost entry point names the error."""
    if _policy_held.get():
        yield
        return
    token = _policy_held.set(True)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            yield
    except FloatingPointError as err:
        raise DegenerateDataError(
            f"{label}: the arithmetic overflows on finite input ({err})"
        ) from None
    finally:
        _policy_held.reset(token)


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


def _nan_where(last, result):
    """result, with NumPy's NaN rule for the median and quantiles: the
    partition puts a lane's NaN last, and that NaN is the lane's result."""
    nan = np.isnan(last)
    return np.where(nan, last, result)[()] if nan.any() else result


def median(x):
    """np.median(x, axis=-1) of float input: the partition on np.median's
    own kth list, -1 included, so that equal values such as 0.0 and -0.0
    land where NumPy's selection puts them, then the mean of the middle one
    or two values."""
    n = np.shape(x)[-1]
    half = n // 2
    kth = [half, -1] if n % 2 else [half - 1, half, -1]
    part = np.partition(x, kth, axis=-1)
    return _nan_where(part[..., -1], np.mean(part[..., kth[0]:half + 1], axis=-1))


def quartiles(x):
    """np.quantile(x, [0.25, 0.75], axis=-1) of float input, the type-7
    (linear) quartiles, as a (first, third) pair: the partition on
    np.quantile's sorted index set, 0 and -1 included, then its lerp, which
    subtracts from the upper neighbour where the weight is at least 0.5."""
    n = np.shape(x)[-1]
    below, above, weight = [], [], []
    for q in (0.25, 0.75):
        virtual = (n - 1) * q
        low = -1 if virtual >= n - 1 else math.floor(virtual)
        below.append(low)
        above.append(-1 if low == -1 else low + 1)
        weight.append(virtual - low)
    part = np.partition(x, sorted({0, -1, *below, *above}), axis=-1)
    a, b, t = part[..., below], part[..., above], np.array(weight)
    diff = b - a
    lerp = np.add(a, diff * t)
    np.subtract(b, diff * (1 - t), out=lerp, where=t >= 0.5)
    first, third = np.moveaxis(_nan_where(part[..., -1:], lerp), -1, 0)
    return first, third
