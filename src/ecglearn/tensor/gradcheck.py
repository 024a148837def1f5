"""Finite-difference verification of autodiff gradients.

There is one finite-difference loop, ``param_gradcheck``, over a dict of
named float64 tensors; ``gradcheck`` is its one-tensor case, checking dF/dx
for a single input.

Central differences at double precision with step h have truncation error
O(h^2) and roundoff error ~eps/h, so h = 1e-5 keeps both far below the 1e-4
relative tolerance used throughout. Per-element relative error is
|a - n| / max(|a|, |n|, 1e-6); the floor keeps true-zero gradients from
being flagged by finite-difference noise while still exposing real errors at
small magnitudes.

These checks are meaningless at single precision, so inputs and parameters
must be float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import AutodiffError
from .tensor import Tensor, no_grad

__all__ = ["GradcheckReport", "gradcheck", "param_gradcheck"]

_ERR_FLOOR = 1e-6


@dataclass
class GradcheckReport:
    max_rel_err: float
    worst_index: tuple
    n_checked: int
    tol: float
    per_param: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), _ERR_FLOOR)


def _sample_indices(n: int, max_elements, rng) -> np.ndarray:
    if max_elements is None or n <= max_elements:
        return np.arange(n)
    return np.sort(rng.choice(n, size=max_elements, replace=False))


def gradcheck(f: Callable[[Tensor], Tensor], x: Tensor, tol: float = 1e-4,
              step: float = 1e-5, max_elements: int | None = None,
              rng: np.random.Generator | None = None) -> GradcheckReport:
    """Compare autodiff dF/dx against central finite differences, per element.

    Runs ``param_gradcheck`` on a private copy of ``x``; ``max_elements``
    caps the elements checked and ``worst_index`` indexes ``x``.
    """
    if x.dtype != np.float64:
        raise AutodiffError(
            f"gradcheck requires float64 input, got {x.dtype}; "
            "finite differences are unreliable at single precision")
    xt = Tensor(x.data.copy(), requires_grad=True)
    report = param_gradcheck(lambda: f(xt), {"x": xt}, tol, step,
                             max_elements, rng)
    worst = report.worst_index
    worst = np.unravel_index(worst[1], x.shape) if worst else ()
    return GradcheckReport(report.max_rel_err, worst, report.n_checked, tol)


def param_gradcheck(loss_fn: Callable[[], Tensor], parameters: dict,
                    tol: float = 1e-4, step: float = 1e-5,
                    samples_per_param: int | None = 4,
                    rng: np.random.Generator | None = None) -> GradcheckReport:
    """Finite-difference check of dLoss/dParam for a dict of named parameters.

    ``loss_fn`` evaluates the scalar loss with the parameters' current
    values; it must be deterministic. Large parameters are spot-checked at
    ``samples_per_param`` random coordinates (every coordinate when None).
    Each coordinate is perturbed in place and restored.
    """
    rng = rng or np.random.default_rng(0)
    for name, p in parameters.items():
        if p.dtype != np.float64:
            raise AutodiffError(
                f"param_gradcheck requires float64 parameters; {name!r} is {p.dtype}")

    with no_grad():
        y1, y2 = loss_fn().data.copy(), loss_fn().data.copy()
    if y1.shape != y2.shape or not np.array_equal(y1, y2):
        raise AutodiffError(
            "function is stochastic; freeze dropout and any other random op "
            "before running gradcheck")
    if y1.size != 1:
        raise AutodiffError(
            f"gradcheck needs a scalar output, got shape {y1.shape}; "
            "reduce with sum() or mean() first")

    for p in parameters.values():
        p.grad = None
    loss_fn().backward()

    worst = (0.0, ())
    per_param = {}
    n_checked = 0
    for name, p in parameters.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        idxs = _sample_indices(flat.size, samples_per_param, rng)
        pmax = 0.0
        for i in idxs:
            base = flat[i]
            with no_grad():
                flat[i] = base + step
                fp = loss_fn().item()
                flat[i] = base - step
                fm = loss_fn().item()
                flat[i] = base
            numeric = (fp - fm) / (2.0 * step)
            err = _rel_err(float(analytic.reshape(-1)[i]), numeric)
            pmax = max(pmax, err)
            if err > worst[0]:
                worst = (err, (name, int(i)))
            n_checked += 1
        per_param[name] = pmax
    return GradcheckReport(worst[0], worst[1], n_checked, tol, per_param)
