"""Angular-margin classification losses driven by category information.

Information amounts are normalized to a common positive scale, pairwise
margins are derived from their log-ratios, and the margins widen the
angles of non-target classes in a scaled-cosine softmax loss:

    z_i = s * cos(theta_i)                (target class)
    z_j = s * cos(theta_j + m_ij)         (other classes, j != i)

so that against an information-rich target, competing classes must win by
a larger angular gap. Two reference losses share the machinery: plain
cross-entropy on raw inner products, and the zero-margin normalized-cosine
loss (a zero margin matrix reduces the margined loss to it exactly).

The losses are array-in/array-out: `igam_batch`, `normface_batch` and
`ce_batch` take an (n, p) batch and return a LossBatch with per-sample
losses, logits and the analytic gradients of the mean loss. A single
sample is a one-row batch. Each checks its batch once (shapes, labels,
finite features and weights), normalizes it for the cosine losses, and runs
one private kernel (`_cosine_kernel` or `_ce_kernel`); the trainer runs the
same kernels on rows it checked and normalized once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import InputError, NumericalError, as_choice, as_int, as_number_array
from .info import InfoAmountTable

__all__ = [
    "InfoNormalization",
    "MarginMatrix",
    "CosineClassifier",
    "LossBatch",
    "normalize_info",
    "build_margins",
    "igam_batch",
    "normface_batch",
    "ce_batch",
    "margins_to_json",
    "margins_from_json",
]

INFO_VARIANTS = ("double-exp", "softmax-single-exp")
MARGIN_VARIANTS = ("clamped", "signed")
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
class InfoNormalization:
    """Normalized information amounts ready for margin construction.

    Attributes
    ----------
    raw : the input amounts I_i, ordered by category id.
    i_bar : the reference level the amounts were scaled by.
    normalized : the I'_i values (each > 1 under the double-exp variant).
    variant : "double-exp" or "softmax-single-exp".
    ibar_mode : whether i_bar is the sum (default) or the mean of the raw
        amounts.
    degenerate : True when every raw amount was zero and the scaled inputs
        were taken as zero by convention, making all I'_i equal.
    """

    raw: np.ndarray
    i_bar: float
    normalized: np.ndarray
    variant: str = "double-exp"
    ibar_mode: str = "sum"
    degenerate: bool = False


@dataclass(frozen=True)
class MarginMatrix:
    """Pairwise angular margins in radians; row = true class, column = rival.

    The diagonal is exactly zero. Under the default clamped variant every
    entry is >= 0 and m[i, j] > 0 exactly when I'_i > I'_j. `m` is a
    read-only copy, so its values stay the checked ones and the losses do
    not scan it again. The losses read cos and sin of the margins from
    `_trig`, computed once on first use and read-only; a batch that meets
    no nonzero margin never computes them.
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

    @classmethod
    def zeros(cls, C: int) -> "MarginMatrix":
        return cls(np.zeros((C, C), dtype=np.float64))

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
    `scale` is the logit multiplier s. Prediction ignores margins: the
    class with the largest cosine to the input wins.
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

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def cosines(self, X: np.ndarray) -> np.ndarray:
        """(n, C) matrix of cos(theta) between each input row and each class."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        _check_finite(X, "feature")
        _check_finite(self.weights, "weight")
        U, _ = _unit_rows(X, "feature")
        Wn, _ = _unit_rows(self.weights, "weight")
        return np.clip(U @ Wn.T, -1.0, 1.0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.cosines(X), axis=1)


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


def normalize_info(
    table,
    variant: str = "double-exp",
    ibar: str = "sum",
) -> InfoNormalization:
    """Normalize raw information amounts for margin construction.

    Parameters
    ----------
    table : InfoAmountTable or 1-D array of amounts, which is checked as
        the table of categories 0..C-1. The table's id order fixes the
        row/column order of the downstream margin matrix.
    variant : "double-exp" maps the scaled amounts x_i through

            I'_i = C * exp(exp(x_i)) / sum_j exp(x_j) + 1

        with x_i = I_i / (i_bar * sqrt(C)); "softmax-single-exp" replaces
        the numerator's double exponential with a plain exp(x_i).
    ibar : "sum" uses i_bar = sum_j I_j (as typeset); "mean" uses the
        average instead.

    All-zero input is degenerate (i_bar = 0): the x_i are taken as zero by
    convention, every I'_i comes out equal, and the result is flagged.
    Amounts so large that i_bar or i_bar * sqrt(C) overflows raise
    NumericalError.
    """
    as_choice(variant, "variant", INFO_VARIANTS)
    as_choice(ibar, "ibar", IBAR_MODES)
    if not isinstance(table, InfoAmountTable):
        table = InfoAmountTable(np.arange(np.size(table)), np.ravel(table))
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
    degenerate = i_bar == 0.0
    if degenerate:
        x = np.zeros(C, dtype=np.float64)
    else:
        x = I / scale
    ex = np.exp(x)
    if variant == "double-exp":
        if np.any(ex > _EXP_MAX):
            raise NumericalError(
                "double-exponential normalization overflow: max exp(x) = "
                f"{ex.max():.6g}; use the softmax-single-exp variant or ibar='sum'"
            )
        num = np.exp(ex)
    else:
        num = ex
    normalized = C * num / ex.sum() + 1.0
    return InfoNormalization(
        raw=I,
        i_bar=i_bar,
        normalized=normalized,
        variant=variant,
        ibar_mode=ibar,
        degenerate=degenerate,
    )


def build_margins(norm, variant: str = "clamped", direction: str = "target") -> MarginMatrix:
    """Pairwise angular margins from normalized information amounts.

    m[i, j] = max(0, ln(I'_i / I'_j) / pi), natural log, diagonal exactly
    zero. The "signed" variant drops the clamp so a rival richer than the
    target gets an angular head start (negative margin) instead of no
    adjustment.

    `direction` picks which class's information advantage sets the margin.
    The default "target" reads m[i, j] off the target-over-rival ratio as
    above. "rival" transposes the ratio, m[i, j] = max(0, ln(I'_j / I'_i) /
    pi), so every class competing against an information-rich rival j must
    clear a wider angular gap; that expands rich classes' decision regions
    at the expense of poor ones and is the setting that reduces per-class
    accuracy variance in the bundled benchmark (the "target" direction
    measurably increases it; see README).
    """
    as_choice(variant, "variant", MARGIN_VARIANTS)
    as_choice(direction, "direction", MARGIN_DIRECTIONS)
    I = norm.normalized if isinstance(norm, InfoNormalization) else norm
    I = np.asarray(I, dtype=np.float64).reshape(-1)
    if I.size < 2:
        raise InputError(f"need at least two categories to build margins, got {I.size}")
    if not np.all(np.isfinite(I)) or np.any(I <= 0):
        raise InputError("normalized information amounts must be finite and > 0")
    logs = np.log(I)
    m = (logs[:, None] - logs[None, :]) / np.pi
    if direction == "rival":
        m = -m
    if variant == "clamped":
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
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    C, p = clf.weights.shape
    if C < 2:
        raise InputError(f"need at least two categories, got {C}")
    if X.ndim != 2 or X.shape[1] != p:
        raise InputError(f"features must be (n, {p}), got shape {X.shape}")
    if labels.shape != (X.shape[0],):
        raise InputError(f"labels shape {labels.shape} does not match {X.shape[0]} features")
    if ((labels < 0) | (labels >= C)).any():
        raise InputError(
            f"labels must lie in [0, {C}), got range [{labels.min()}, {labels.max()}]"
        )
    _check_finite(X, "feature")
    _check_finite(clf.weights, "weight")
    return X, labels


def _margin_matrix(margins, C: int) -> MarginMatrix:
    # A MarginMatrix checked its values when it was built; a raw array is
    # checked by building one.
    if not isinstance(margins, MarginMatrix):
        margins = MarginMatrix(margins)
    if margins.C != C:
        raise InputError(f"margin matrix must be ({C}, {C}), got shape {margins.m.shape}")
    return margins


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


def _cosine_batch(clf: CosineClassifier, X: np.ndarray, labels: np.ndarray,
                  margins: MarginMatrix | None) -> LossBatch:
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


def igam_batch(clf: CosineClassifier, X: np.ndarray, labels, margins) -> LossBatch:
    """Information-guided angular-margin loss over a batch.

    Cosines are clipped to [-1, 1]. A margined angle theta_j + m_ij past
    pi is clamped there (logit -s, zero gradient) so the logit stays
    monotone in the angle; such entries are tallied in `clamped`.
    Margin-active classes whose |cos| is within 1e-9 of 1 get the
    clamped-branch zero gradient and are tallied in `saturated`. The
    returned batch computes `grad_inputs` on first read; `grad_cos` is
    read-only.
    """
    X, labels = _check_batch(clf, X, labels)
    return _cosine_batch(clf, X, labels, _margin_matrix(margins, clf.n_classes))


def normface_batch(clf: CosineClassifier, X: np.ndarray, labels) -> LossBatch:
    """Normalized-cosine softmax loss: z_j = s cos(theta_j), no margins.

    The same as `igam_batch` under an all-zero margin matrix, bit for bit.
    """
    X, labels = _check_batch(clf, X, labels)
    return _cosine_batch(clf, X, labels, None)


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
