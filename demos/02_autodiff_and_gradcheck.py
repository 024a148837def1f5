"""The tensor engine: building graphs, backward passes, finite-difference
verification, and what happens when a function is stochastic.

Run:  python demos/02_autodiff_and_gradcheck.py
"""

import numpy as np

from ecglearn import Tensor, gradcheck
from ecglearn.errors import AutodiffError
from ecglearn.tensor import functional as F

print("=== a scalar chain, differentiated in reverse ===")
x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
loss = (x * x).sum()
loss.backward()
print(f"d/dx sum(x*x) at {x.data} -> {x.grad}   (expected 2x)")

w = Tensor(np.array(0.0), requires_grad=True)
(w * 1.0).sigmoid().backward()
print(f"d/dw sigmoid(w) at w=0 -> {float(w.grad):.4f}   (expected 0.25)")

print("\n=== fan-out accumulates additively ===")
y = Tensor(np.array([2.0]), requires_grad=True)
sq = y * y
(sq + sq + sq).sum().backward()
print(f"y used three times: grad {y.grad.item():.1f}   (expected 3 * 2y = 12)")

print("\n=== finite-difference verification of a conv chain ===")
rng = np.random.default_rng(0)
wconv = Tensor(rng.normal(size=(4, 3, 3)) * 0.5)
wlin = Tensor(rng.normal(size=(4, 2)) * 0.5)
mix = rng.normal(size=(2, 2))


def f(inp):
    h = F.relu(F.conv1d(inp, wconv, padding=1))
    return (F.linear(F.global_avg_pool1d(h), wlin) * mix).sum()


report = gradcheck(f, Tensor(rng.normal(size=(2, 3, 16))))
print(f"conv1d -> relu -> pool -> linear: max rel err "
      f"{report.max_rel_err:.2e} over {report.n_checked} elements "
      f"({'PASS' if report.passed else 'FAIL'} at tol {report.tol})")

print("\n=== stochastic ops must be frozen first ===")
drop_rng = np.random.default_rng(1)
try:
    gradcheck(lambda t: F.dropout(t, 0.5, drop_rng, training=True).sum(),
              Tensor(2.0 ** np.arange(6, dtype=np.float64)))
except AutodiffError as e:
    print(f"gradcheck refused: {e}")
