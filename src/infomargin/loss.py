"""Angular-margin classification losses driven by category information.

The paper's one rule turns information amounts into margins:
`normalize_info` maps the amounts through a double exponential to a
(C,) array I' > 1, `build_margins` takes m_ij = (ln I'_i - ln I'_j) / pi
clamped at zero, and the margins widen the angles of non-target classes
in a scaled-cosine softmax loss:

    z_i = s * cos(theta_i)                (target class)
    z_j = s * cos(theta_j + m_ij)         (other classes, j != i)

so that against an information-rich target, competing classes must win by
a larger angular gap. With no margins this is the normalized-cosine
(NormFace) softmax loss, so one entry point gives both: `igam_batch` with a
MarginMatrix, or with None for NormFace. Plain cross-entropy on raw inner
products is the other reference loss.

The losses are array-in/array-out: `igam_batch` and `ce_batch` take an
(n, p) batch and return a LossBatch with per-sample losses, logits and the
analytic gradients of the mean loss. A single sample is a one-row batch.
Each checks its features and labels once with `errors.as_batch` (labels in
[0, C)) and its weights for finite values, and runs one private kernel
(`_cosine_kernel` on unit rows, or `_ce_kernel`); the trainer runs the
same kernels on rows it checked and normalized once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import InputError, NumericalError, as_batch, as_choice, as_int, as_number_array
from .info import InfoAmountTable

__all__ = [
    "MarginMatrix",
    "CosineClassifier",
    "LossBatch",
    "normalize_info",
    "build_margins",
    "igam_batch",
    "ce_batch",
    "margins_to_json",
    "margins_from_json",
]

MARGIN_DIRECTIONS = ("target", "rival")
IBAR_MODES = ("sum", "mean")

# Margin-active cosines this close to +-1 have an unbounded angle
# derivative; their gradient contribution is zeroed and counted.
_SATURATION_EPS = 1e-9

# exp(x) overflows float64 just above this.
_EXP_MAX = 709.0

# The smallest normal float64; a squared norm below it lost bits to underflow.
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class MarginMatrix:
    """Pairwise angular margins in radians; row = true class, column = rival.

    `build_margins` gives a zero diagonal and entries >= 0, with m[i, j] > 0
    exactly when I'_i > I'_j (target direction); one built directly from an
    array may hold negative margins, and the losses ignore its diagonal.
    `m` is a read-only copy, so its values stay the checked ones and the
    losses do not scan it again. The losses read cos and sin of the margins
    from `_trig`, computed once on first use and read-only; a batch that
    meets no nonzero margin never computes them. Where no margins were built
    (NormFace, or a ce or normface training run) the margins are None, which
    the losses read bit for bit as `MarginMatrix(np.zeros((C, C)))`.
    """

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"margin matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InputError("non-finite margin values")
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    @property
    def C(self) -> int:
        return self.m.shape[0]

    @cached_property
    def _trig(self) -> tuple[np.ndarray, np.ndarray]:
        """(cos m, sin m) of the off-diagonal margins.

        The diagonal and zero margins read exactly 1 and +0.0, so the margin
        formula evaluated there gives the margin-free logit and slope bit for
        bit.
        """
        off = self.m != 0.0
        np.fill_diagonal(off, False)
        cos_m = np.where(off, np.cos(self.m), 1.0)
        sin_m = np.where(off, np.sin(self.m), 0.0)
        cos_m.flags.writeable = False
        sin_m.flags.writeable = False
        return cos_m, sin_m


@dataclass
class CosineClassifier:
    """Linear classifier scored by cosine similarity.

    `weights` holds one weight vector W_j per category as a row (C, p);
    `scale` is the logit multiplier s.
    """

    weights: np.ndarray
    scale: float = 30.0

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=np.float64)
        if W.ndim != 2:
            raise InputError(f"weights must be (C, p), got shape {W.shape}")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise InputError(f"scale must be finite and > 0, got {self.scale}")
        self.weights = W

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    def cosines(self, X: np.ndarray) -> np.ndarray:
        """(n, C) matrix of cos(theta) between each input row and each class."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        _check_finite(X, "feature")
        _check_finite(self.weights, "weight")
        U, _ = _unit_rows(X, "feature")
        Wn, _ = _unit_rows(self.weights, "weight")
        return np.clip(U @ Wn.T, -1.0, 1.0)


@dataclass
class LossBatch:
    """Batched loss evaluation; gradients are of losses.mean().

    grad_cos is dL/dcos(theta) per sample and class, and is read-only.
    `grad_inputs` is computed on first read, from arrays the batch owns, so
    a later in-place step on the classifier's weights does not change it.
    `saturated` counts margin-active entries whose cosine sat within 1e-9
    of +-1, where the exact angle derivative is unbounded and the constant
    branch was used. `clamped` counts margin-active entries with
    theta + m > pi, whose logit was clamped to -s.
    """

    losses: np.ndarray
    logits: np.ndarray
    grad_weights: np.ndarray
    grad_cos: np.ndarray
    _grad_inputs: Callable[[], np.ndarray] = field(repr=False, compare=False)
    saturated: int = 0
    clamped: int = 0

    @property
    def mean(self) -> float:
        return float(self.losses.mean())

    @cached_property
    def grad_inputs(self) -> np.ndarray:
        return self._grad_inputs()


def normalize_info(table: InfoAmountTable, variant: str = "double-exp",
                   ibar: str = "sum") -> np.ndarray:
    """The normalized information amounts I'_i, a (C,) float64 array.

    The amounts are scaled to x_i = I_i / (i_bar * sqrt(C)) and mapped
    through the paper's double exponential

        I'_i = C * exp(exp(x_i)) / sum_j exp(x_j) + 1,

    so every I'_i > 1.

    Parameters
    ----------
    table : InfoAmountTable. Its id order fixes the order of the output,
        and so the row/column order of the margin matrix built from it.
    variant : "double-exp", the only value; the keyword is kept only
        because `bench/worker.py` passes it.
    ibar : "sum" uses i_bar = sum_j I_j (as typeset), so x_i <= 1/sqrt(C)
        and exp(exp(x_i)) cannot overflow; "mean" uses the average, so
        x_i <= sqrt(C), and one-hot amounts overflow from C = 44 on.

    All-zero input has i_bar = 0: the x_i are taken as zero by convention
    and every I'_i comes out as e + 1. Amounts so large that i_bar or
    i_bar * sqrt(C) overflows, and an exp(x_i) past 709 - ln C (where
    C * exp(exp(x_i)) nears the float64 limit), raise NumericalError.
    """
    as_choice(variant, "variant", ("double-exp",))
    as_choice(ibar, "ibar", IBAR_MODES)
    I = table.amounts
    if I.size < 2:
        raise InputError(f"need at least two categories, got {I.size}")
    C = I.size
    with np.errstate(over="ignore"):
        i_bar = float(I.sum() if ibar == "sum" else I.mean())
    scale = i_bar * math.sqrt(C)
    if not math.isfinite(scale):
        raise NumericalError(
            f"information amounts overflow the normalization: i_bar = {i_bar:.6g}, "
            f"i_bar * sqrt(C) = {scale:.6g} for C = {C}"
        )
    x = np.zeros(C, dtype=np.float64) if i_bar == 0.0 else I / scale
    ex = np.exp(x)
    # C * exp(exp(x_i)) must stay finite, not only exp(exp(x_i)).
    if ex.max() > _EXP_MAX - math.log(C):
        raise NumericalError(
            "double-exponential normalization overflow: max exp(x) = "
            f"{ex.max():.6g}; use ibar='sum' (CLI --ibar sum), which cannot overflow"
        )
    return C * np.exp(ex) / ex.sum() + 1.0


def build_margins(norm, variant: str = "clamped", direction: str = "target") -> MarginMatrix:
    """Pairwise angular margins from the normalized amounts of `normalize_info`.

    `norm` is the (C,) I' array, finite and > 0. m[i, j] = max(0,
    ln(I'_i / I'_j) / pi), natural log, diagonal exactly zero. `variant` is
    "clamped", the only value; the keyword is kept only because
    `bench/worker.py` passes it.

    `direction` picks which class's information advantage sets the margin.
    The default "target" reads m[i, j] off the target-over-rival ratio as
    above. "rival" transposes the ratio, m[i, j] = max(0, ln(I'_j / I'_i) /
    pi), so every class competing against an information-rich rival j must
    clear a wider angular gap; that expands rich classes' decision regions
    at the expense of poor ones and is the setting that reduces per-class
    accuracy variance in the bundled benchmark (the "target" direction
    measurably increases it; see README).
    """
    as_choice(variant, "variant", ("clamped",))
    as_choice(direction, "direction", MARGIN_DIRECTIONS)
    I = np.asarray(norm, dtype=np.float64).reshape(-1)
    if I.size < 2:
        raise InputError(f"need at least two categories to build margins, got {I.size}")
    if not np.all(np.isfinite(I)) or np.any(I <= 0):
        raise InputError("normalized information amounts must be finite and > 0")
    logs = np.log(I)
    m = (logs[:, None] - logs[None, :]) / np.pi
    if direction == "rival":
        m = -m
    m = np.maximum(m, 0.0)
    np.fill_diagonal(m, 0.0)
    return MarginMatrix(m)


def _check_finite(A: np.ndarray, what: str) -> None:
    # min and max propagate NaN and expose +-inf without an (n, p) temporary.
    if A.size and not (np.isfinite(A.min()) and np.isfinite(A.max())):
        raise InputError(f"non-finite {what} values")


def _unit_rows(A: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    # Callers check that A is finite. np.linalg.norm(A, axis=1), keeping the
    # squares as the buffer for the unit rows.
    with np.errstate(over="ignore"):
        buf = A * A
    sq = np.add.reduce(buf, axis=1)
    norms = np.sqrt(sq)
    # Squares of entries below about 1e-154 underflow, so a nonzero row can
    # sum to a subnormal or zero square. Only such rows are rescaled by their
    # max |x| before squaring; every other row keeps its bits.
    small = sq < _TINY
    rescale = small.any()
    if rescale:
        peak = np.abs(A[small]).max(axis=1)
        if (peak == 0.0).any():
            index = int(np.flatnonzero(small)[np.argmin(peak)])
            raise InputError(f"zero-norm {what} vector at index {index}")
        scaled = A[small] / peak[:, None]
        root = np.sqrt(np.add.reduce(scaled * scaled, axis=1))
        norms[small] = peak * root
    # Finite rows give no NaN; an overflowing square gives +inf.
    if (norms == np.inf).any():
        raise NumericalError(
            f"the norm of {what} vector at index {int(np.argmax(norms))} overflows float64"
        )
    unit = np.divide(A, norms[:, None], out=buf)
    if rescale:
        unit[small] = scaled / root[:, None]
    return unit, norms


def _check_batch(clf: CosineClassifier, X: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    C, p = clf.weights.shape
    if C < 2:
        raise InputError(f"need at least two categories, got {C}")
    X, labels = as_batch(np.atleast_2d(X), np.atleast_1d(labels), "batch", p=p, C=C)
    _check_finite(clf.weights, "weight")
    return X, labels


def _label_index(labels: np.ndarray, C: int) -> np.ndarray:
    """Flat index of each row's label entry in a C-contiguous (n, C) block."""
    flat = np.arange(0, labels.shape[0] * C, C)
    flat += labels
    return flat


def _ce_from_logits(z: np.ndarray, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample cross-entropy and dL/dz of the mean loss (a new array).

    `flat` is `_label_index` of the labels; `z` is C-contiguous.
    """
    n = z.shape[0]
    ed = z - z.take(flat)[:, None]
    np.exp(ed, out=ed)
    ed.put(flat, 0.0)
    losses = np.log1p(ed.sum(axis=1))
    gz = np.subtract(z, z.max(axis=1, keepdims=True), out=ed)
    np.exp(gz, out=gz)
    gz /= gz.sum(axis=1, keepdims=True)
    gz.reshape(-1)[flat] -= 1.0
    gz /= n
    return losses, gz


def _margined_logits(cos, m, active, trig, labels, s):
    """z, dz/dcos, saturated and clamped counts, densely over the (n, C) block.

    Inactive entries have m = 0 and read cos m = 1, sin m = +0.0 from
    `trig`, so the margin formula gives them z = s * cos and dz/dcos = s
    exactly; only `saturated` and `clamped` need the active mask.
    """
    cos_m = trig[0][labels]
    sin_m = trig[1][labels]
    theta = np.arccos(cos)
    theta += m
    clamp = theta > np.pi
    clamp &= active
    sin_t = cos * cos
    np.subtract(1.0, sin_t, out=sin_t)
    np.maximum(sin_t, 0.0, out=sin_t)
    np.sqrt(sin_t, out=sin_t)
    z = cos * cos_m
    z -= np.multiply(sin_t, sin_m, out=theta)
    np.copyto(z, -1.0, where=clamp)
    z *= s
    # |cos| > 1 - eps without an abs temporary; negation is exact.
    near_one = 1.0 - _SATURATION_EPS
    sat = (cos > near_one) | (cos < -near_one)
    sat &= active
    sat &= ~clamp
    np.copyto(sin_t, 1.0, where=sin_t == 0.0)
    dzdc = sin_m  # sin m is not read again
    dzdc *= cos
    dzdc /= sin_t
    dzdc += cos_m
    dzdc *= s
    np.copyto(dzdc, 0.0, where=clamp | sat)
    return z, dzdc, int(np.count_nonzero(sat)), int(np.count_nonzero(clamp))


def _cosine_input_grad(gc, gc_cos, U, Wn, xnorms) -> np.ndarray:
    # c_j = u . w_j with u = x/|x|, so dc_j/dx = (w_j - c_j u) / |x|.
    g = gc @ Wn
    g -= gc_cos.sum(axis=1, keepdims=True) * U
    g /= xnorms[:, None]
    return g


def _cosine_kernel(U, Wn, wnorms, labels, margins, s):
    """The scaled-cosine loss on checked, normalized inputs.

    `U` and `Wn` are unit feature and weight rows, `wnorms` the weights'
    norms, `labels` in [0, C), and `margins` a MarginMatrix of matching C or
    None for no margins. Returns (losses, grad_weights, logits, grad_cos,
    grad_cos * cos, saturated, clamped); `grad_cos * cos` is what
    `_cosine_input_grad` reads besides the inputs.
    """
    flat = _label_index(labels, Wn.shape[0])
    cos = U @ Wn.T
    np.clip(cos, -1.0, 1.0, out=cos)

    active = None
    if margins is not None:
        m = margins.m[labels]
        m.put(flat, 0.0)
        active = m != 0.0
    if active is not None and active.any():
        z, dzdc, saturated, clamped = _margined_logits(cos, m, active, margins._trig, labels, s)
    else:
        z, dzdc, saturated, clamped = s * cos, s, 0, 0

    losses, gc = _ce_from_logits(z, flat)
    gc *= dzdc
    # c_j = u . w_j with w_j = W_j/|W_j|, so dc_j/dW_j = (u - c_j w_j) / |W_j|.
    gc_cos = np.multiply(gc, cos, out=cos)  # cos is not read again
    grad_W = gc.T @ U
    grad_W -= gc_cos.sum(axis=0)[:, None] * Wn
    grad_W /= wnorms[:, None]
    return losses, grad_W, z, gc, gc_cos, saturated, clamped


def _ce_kernel(X, W, labels):
    """Plain cross-entropy on checked inputs: (losses, grad_weights, logits, dL/dz)."""
    z = X @ W.T
    losses, gz = _ce_from_logits(z, _label_index(labels, W.shape[0]))
    return losses, gz.T @ X, z, gz


def igam_batch(clf: CosineClassifier, X: np.ndarray, labels,
               margins: MarginMatrix | None) -> LossBatch:
    """Information-guided angular-margin loss over a batch.

    `margins` is a MarginMatrix of the classifier's C, or None for no
    margins: the normalized-cosine (NormFace) loss z_j = s cos(theta_j),
    with the same bits as an all-zero MarginMatrix. It has no default, so
    leaving it out is an error, not NormFace.

    Cosines are clipped to [-1, 1]. A margined angle theta_j + m_ij past
    pi is clamped there (logit -s, zero gradient) so the logit stays
    monotone in the angle; such entries are tallied in `clamped`.
    Margin-active classes whose |cos| is within 1e-9 of 1 get the
    clamped-branch zero gradient and are tallied in `saturated`. The
    returned batch computes `grad_inputs` on first read; `grad_cos` is
    read-only.
    """
    X, labels = _check_batch(clf, X, labels)
    C = clf.n_classes
    if margins is not None and margins.C != C:
        raise InputError(f"margin matrix must be ({C}, {C}), got shape {margins.m.shape}")
    U, xnorms = _unit_rows(X, "feature")
    Wn, wnorms = _unit_rows(clf.weights, "weight")
    losses, grad_W, z, gc, gc_cos, saturated, clamped = _cosine_kernel(
        U, Wn, wnorms, labels, margins, clf.scale)
    gc.flags.writeable = False
    return LossBatch(
        losses=losses,
        logits=z,
        grad_weights=grad_W,
        grad_cos=gc,
        _grad_inputs=partial(_cosine_input_grad, gc, gc_cos, U, Wn, xnorms),
        saturated=saturated,
        clamped=clamped,
    )


def ce_batch(clf: CosineClassifier, X: np.ndarray, labels) -> LossBatch:
    """Plain cross-entropy on raw logits z_j = W_j . x (no normalization).

    `grad_inputs` is computed before returning, since it reads
    `clf.weights`, which a training step may update in place.
    """
    X, labels = _check_batch(clf, X, labels)
    losses, grad_W, z, gz = _ce_kernel(X, clf.weights, labels)
    grad_inputs = gz @ clf.weights
    grad_cos = np.zeros_like(z)
    grad_cos.flags.writeable = False
    return LossBatch(
        losses=losses,
        logits=z,
        grad_weights=grad_W,
        grad_cos=grad_cos,
        _grad_inputs=lambda: grad_inputs,
    )


def margins_to_json(margins: MarginMatrix) -> dict:
    """JSON-ready form: {"C": int, "margins_row_major": [f64...]}."""
    return {
        "C": margins.C,
        "margins_row_major": margins.m.reshape(-1).tolist(),
    }


def margins_from_json(doc: dict) -> MarginMatrix:
    try:
        raw_C = doc["C"]
        flat = as_number_array(doc["margins_row_major"], "margins_row_major")
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed margin document: {exc}") from exc
    C = as_int(raw_C, "C", minimum=1)
    if flat.size != C * C:
        raise InputError(f"margins_row_major has {flat.size} entries, expected {C * C}")
    return MarginMatrix(flat.reshape(C, C))
