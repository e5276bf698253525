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
sample is a one-row batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, as_int
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


@dataclass(frozen=True)
class InfoNormalization:
    """Normalized information amounts ready for margin construction.

    Attributes
    ----------
    raw : the input amounts I_i, ordered by category index.
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
    not scan it again.
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
        U, _ = _unit_rows(X, "feature")
        Wn, _ = _unit_rows(self.weights, "weight")
        return np.clip(U @ Wn.T, -1.0, 1.0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.cosines(X), axis=1)


@dataclass
class LossBatch:
    """Batched loss evaluation; gradients are of losses.mean().

    grad_cos is dL/dcos(theta) per sample and class. `saturated` counts
    margin-active entries whose cosine sat within 1e-9 of +-1, where the
    exact angle derivative is unbounded and the constant branch was used.
    """

    losses: np.ndarray
    logits: np.ndarray
    grad_weights: np.ndarray
    grad_inputs: np.ndarray
    grad_cos: np.ndarray
    saturated: int = 0

    @property
    def mean(self) -> float:
        return float(self.losses.mean())


def normalize_info(
    table,
    variant: str = "double-exp",
    ibar: str = "sum",
) -> InfoNormalization:
    """Normalize raw information amounts for margin construction.

    Parameters
    ----------
    table : InfoAmountTable or 1-D array of amounts. Table entries are
        taken in sorted category-id order, which fixes the row/column
        order of the downstream margin matrix.
    variant : "double-exp" maps the scaled amounts x_i through

            I'_i = C * exp(exp(x_i)) / sum_j exp(x_j) + 1

        with x_i = I_i / (i_bar * sqrt(C)); "softmax-single-exp" replaces
        the numerator's double exponential with a plain exp(x_i).
    ibar : "sum" uses i_bar = sum_j I_j (as typeset); "mean" uses the
        average instead.

    All-zero input is degenerate (i_bar = 0): the x_i are taken as zero by
    convention, every I'_i comes out equal, and the result is flagged.
    """
    if variant not in INFO_VARIANTS:
        raise InputError(f"variant must be one of {INFO_VARIANTS}, got {variant!r}")
    if ibar not in IBAR_MODES:
        raise InputError(f"ibar must be one of {IBAR_MODES}, got {ibar!r}")
    if isinstance(table, InfoAmountTable):
        _, I = table.as_arrays()
    else:
        I = np.asarray(table, dtype=np.float64).reshape(-1)
    if I.size < 2:
        raise InputError(f"need at least two categories, got {I.size}")
    if not np.all(np.isfinite(I)):
        raise InputError("non-finite information amount")
    if np.any(I < 0):
        raise InputError(f"information amounts must be >= 0, got min {I.min():.6g}")
    C = I.size
    i_bar = float(I.sum() if ibar == "sum" else I.mean())
    degenerate = i_bar == 0.0
    if degenerate:
        x = np.zeros(C, dtype=np.float64)
    else:
        x = I / (i_bar * np.sqrt(C))
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
    if variant not in MARGIN_VARIANTS:
        raise InputError(f"variant must be one of {MARGIN_VARIANTS}, got {variant!r}")
    if direction not in MARGIN_DIRECTIONS:
        raise InputError(
            f"direction must be one of {MARGIN_DIRECTIONS}, got {direction!r}"
        )
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


def _unit_rows(A: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    if not np.all(np.isfinite(A)):
        raise InputError(f"non-finite {what} values")
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms == 0.0):
        raise InputError(f"zero-norm {what} vector at index {int(np.argmin(norms))}")
    return A / norms[:, None], norms


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
    if np.any((labels < 0) | (labels >= C)):
        raise InputError(
            f"labels must lie in [0, {C}), got range [{labels.min()}, {labels.max()}]"
        )
    return X, labels


def _margins_array(margins, C: int) -> np.ndarray:
    # A MarginMatrix checked its values when it was built; a raw array is
    # checked by building one.
    if not isinstance(margins, MarginMatrix):
        margins = MarginMatrix(margins)
    if margins.C != C:
        raise InputError(f"margin matrix must be ({C}, {C}), got shape {margins.m.shape}")
    return margins.m


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=1, keepdims=True)


def _ce_from_logits(z: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample cross-entropy and dL/dz of the mean loss."""
    n = z.shape[0]
    rows = np.arange(n)
    diffs = z - z[rows, labels][:, None]
    ed = np.exp(diffs)
    ed[rows, labels] = 0.0
    losses = np.log1p(ed.sum(axis=1))
    gz = _softmax_rows(z)
    gz[rows, labels] -= 1.0
    return losses, gz / n


def igam_batch(clf: CosineClassifier, X: np.ndarray, labels, margins) -> LossBatch:
    """Information-guided angular-margin loss over a batch.

    Cosines are clipped to [-1, 1]. A margined angle theta_j + m_ij past
    pi is clamped there (logit -s, zero gradient) so the logit stays
    monotone in the angle. Margin-active classes whose |cos| is within
    1e-9 of 1 get the clamped-branch zero gradient and are tallied in
    `saturated`.
    """
    X, labels = _check_batch(clf, X, labels)
    C = clf.n_classes
    M = _margins_array(margins, C)
    s = clf.scale

    n = X.shape[0]
    rows = np.arange(n)
    U, xnorms = _unit_rows(X, "feature")
    Wn, wnorms = _unit_rows(clf.weights, "weight")
    cos = np.clip(U @ Wn.T, -1.0, 1.0)

    m = M[labels]
    m[rows, labels] = 0.0
    active = m != 0.0

    z = s * cos
    dzdc = np.full_like(cos, s)
    saturated = 0
    if active.any():
        c_a = cos[active]
        m_a = m[active]
        theta = np.arccos(c_a)
        clamp = theta + m_a > np.pi
        sin_t = np.sqrt(np.maximum(1.0 - c_a * c_a, 0.0))
        cos_m = np.cos(m_a)
        sin_m = np.sin(m_a)
        phi = c_a * cos_m - sin_t * sin_m
        sat = (~clamp) & (np.abs(c_a) > 1.0 - _SATURATION_EPS)
        saturated = int(sat.sum())
        safe_sin = np.where(sin_t > 0.0, sin_t, 1.0)
        d_a = s * (cos_m + c_a * sin_m / safe_sin)
        d_a[clamp | sat] = 0.0
        z[active] = s * np.where(clamp, -1.0, phi)
        dzdc[active] = d_a

    losses, gz = _ce_from_logits(z, labels)
    gc = gz * dzdc
    # c_j = u . w_j with u = x/|x| and w_j = W_j/|W_j|, so
    #   dc_j/dx   = (w_j - c_j u) / |x|
    #   dc_j/dW_j = (u - c_j w_j) / |W_j|
    gc_cos = gc * cos
    row_mix = gc_cos.sum(axis=1, keepdims=True)
    grad_X = (gc @ Wn - row_mix * U) / xnorms[:, None]
    col_mix = gc_cos.sum(axis=0)[:, None]
    grad_W = (gc.T @ U - col_mix * Wn) / wnorms[:, None]
    return LossBatch(
        losses=losses,
        logits=z,
        grad_weights=grad_W,
        grad_inputs=grad_X,
        grad_cos=gc,
        saturated=saturated,
    )


def normface_batch(clf: CosineClassifier, X: np.ndarray, labels) -> LossBatch:
    """Normalized-cosine softmax loss: z_j = s cos(theta_j), no margins."""
    return igam_batch(clf, X, labels, MarginMatrix.zeros(clf.n_classes))


def ce_batch(clf: CosineClassifier, X: np.ndarray, labels) -> LossBatch:
    """Plain cross-entropy on raw logits z_j = W_j . x (no normalization)."""
    X, labels = _check_batch(clf, X, labels)
    z = X @ clf.weights.T
    losses, gz = _ce_from_logits(z, labels)
    return LossBatch(
        losses=losses,
        logits=z,
        grad_weights=gz.T @ X,
        grad_inputs=gz @ clf.weights,
        grad_cos=np.zeros_like(z),
        saturated=0,
    )


def margins_to_json(margins: MarginMatrix) -> dict:
    """JSON-ready form: {"C": int, "margins_row_major": [f64...]}."""
    return {
        "C": margins.C,
        "margins_row_major": [float(v) for v in margins.m.reshape(-1)],
    }


def margins_from_json(doc: dict) -> MarginMatrix:
    try:
        raw_C = doc["C"]
        flat = np.asarray(doc["margins_row_major"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed margin document: {exc}") from exc
    C = as_int(raw_C, "C", minimum=1)
    if flat.size != C * C:
        raise InputError(f"margins_row_major has {flat.size} entries, expected {C * C}")
    return MarginMatrix(flat.reshape(C, C))
