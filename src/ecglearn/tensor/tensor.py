"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a contiguous numpy float buffer. Operations on tensors that
require gradients record the computation implicitly: each result keeps
references to its parent tensors plus a closure that maps the incoming
gradient to per-parent gradients. ``backward()`` on a scalar walks this graph
once in reverse topological order, so gradient contributions from fan-out
accumulate additively, and writes dLoss/dLeaf into the ``grad`` of every leaf
that requires it.

Repeated ``backward()`` calls without ``zero-grad`` accumulate into leaf
grads (each pass adds a full dLoss/dLeaf), matching the usual deep-learning
convention. Intermediate nodes never retain grads.

Tensors are treated as immutable once created by an op; only optimizers
mutate Parameter buffers in place, between graph constructions.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import AutodiffError, ShapeError

__all__ = ["Tensor", "Parameter", "no_grad", "is_grad_enabled", "stable_sigmoid"]

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


class no_grad:
    """Context manager disabling graph recording (forward-only evaluation)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _as_float_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return arr


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    # make numpy defer mixed ndarray-Tensor arithmetic to our operators
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data: np.ndarray = _as_float_array(data, dtype)
        self.requires_grad: bool = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward: Optional[Callable] = None

    # -- construction used by ops ------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: Sequence["Tensor"],
                 backward: Callable) -> "Tensor":
        """Build a graph node; records parents only when a grad is needed."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    # -- basic properties ---------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """The underlying buffer (callers must not mutate it)."""
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # -- backward pass ------------------------------------------------------

    def backward(self) -> None:
        """Populate grads of reachable leaves with dSelf/dLeaf.

        Self must be scalar. Leaves already holding a grad accumulate
        (call a model/parameter ``zero_grad`` between steps).
        """
        if self.data.size != 1:
            raise AutodiffError(
                f"backward() requires a scalar, got shape {self.shape}; "
                "reduce with sum() or mean() first"
            )
        if not self.requires_grad:
            raise AutodiffError("backward() on a tensor that does not require grad")

        order = self._toposort()
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                prev = grads.get(id(parent))
                grads[id(parent)] = pg if prev is None else prev + pg

    def _toposort(self) -> list:
        # Iterative DFS: graphs from long RNN unrolls overflow the
        # recursion limit.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        return order

    # -- elementwise algebra --------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = _wrap(other, self.dtype)
        data = self.data + other.data

        def backward(g):
            return _unbroadcast(g, self.shape), _unbroadcast(g, other.shape)

        return Tensor._from_op(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._from_op(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other) -> "Tensor":
        return self + (-_wrap(other, self.dtype))

    def __rsub__(self, other) -> "Tensor":
        return _wrap(other, self.dtype) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = _wrap(other, self.dtype)
        data = self.data * other.data
        a, b = self, other

        def backward(g):
            return (_unbroadcast(g * b.data, a.shape),
                    _unbroadcast(g * a.data, b.shape))

        return Tensor._from_op(data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Tensor":
        if isinstance(scalar, Tensor):
            raise AutodiffError("tensor/tensor division is not supported; "
                                "multiply by a reciprocal instead")
        return self * (1.0 / float(scalar))

    def pow(self, exponent: float) -> "Tensor":
        """Elementwise power with a constant exponent."""
        p = float(exponent)
        data = np.power(self.data, p)
        x = self

        def backward(g):
            if p == 0.0:
                return (np.zeros_like(x.data),)
            return (g * p * np.power(x.data, p - 1.0),)

        return Tensor._from_op(data, (x,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        return self.pow(exponent)

    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        return Tensor._from_op(data, (self,), lambda g: (g * data,))

    def log(self) -> "Tensor":
        x = self
        return Tensor._from_op(np.log(self.data), (x,), lambda g: (g / x.data,))

    def sigmoid(self) -> "Tensor":
        data = stable_sigmoid(self.data)
        return Tensor._from_op(data, (self,), lambda g: (g * data * (1.0 - data),))

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        return Tensor._from_op(data, (self,), lambda g: (g * (1.0 - data * data),))

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape, dt = self.shape, self.dtype

        def backward(g):
            return (_expand_reduced(g, shape, axis, keepdims).astype(dt, copy=False),)

        return Tensor._from_op(np.asarray(data), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        n = self.size if axis is None else np.prod(
            [self.shape[a] for a in _normalize_axes(axis, self.ndim)])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        data = np.ascontiguousarray(self.data).reshape(shape)
        return Tensor._from_op(data, (self,), lambda g: (g.reshape(old),))

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        if sorted(axes) != list(range(self.ndim)):
            raise ShapeError(f"transpose axes {axes} invalid for ndim {self.ndim}")
        inv = tuple(np.argsort(axes))
        data = np.ascontiguousarray(self.data.transpose(axes))
        return Tensor._from_op(data, (self,),
                               lambda g: (np.ascontiguousarray(g.transpose(inv)),))

    def __getitem__(self, key) -> "Tensor":
        if isinstance(key, (np.ndarray, list)) or (
            isinstance(key, tuple) and any(isinstance(k, (np.ndarray, list)) for k in key)
        ):
            raise ShapeError("only basic slicing is differentiable here")
        data = np.ascontiguousarray(self.data[key])
        shape, dt = self.shape, self.dtype

        def backward(g):
            full = np.zeros(shape, dtype=dt)
            full[key] = g
            return (full,)

        return Tensor._from_op(data, (self,), backward)

    # -- matrix products --------------------------------------------------------

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = _wrap(other, self.dtype)
        a, b = self, other
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError(
                f"matmul requires ndim >= 2 on both sides, got {a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
        data = a.data @ b.data

        def backward(g):
            ga = g @ np.swapaxes(b.data, -1, -2)
            gb = np.swapaxes(a.data, -1, -2) @ g
            return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

        return Tensor._from_op(data, (a, b), backward)


class Parameter(Tensor):
    """A leaf tensor holding trainable state.

    ``name`` is assigned when the parameter is registered inside a model;
    hierarchical names are unique per model and identify the parameter in
    checkpoints. Freezing a parameter (requires_grad=False) removes it from
    recorded graphs, so it receives no gradient and no optimizer update.
    """

    __slots__ = ("name",)

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True)
        self.name = name


def _wrap(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function of an array, stable in both tails.

    exp is only taken of non-positive values, so no input overflows.
    """
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to `shape`, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _normalize_axes(axis, ndim) -> tuple:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_reduced(grad: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    """Broadcast the gradient of a reduction back to the input shape."""
    if axis is None:
        return np.broadcast_to(grad.reshape((1,) * len(shape)), shape).copy()
    axes = _normalize_axes(axis, len(shape))
    if not keepdims:
        kshape = tuple(1 if i in axes else s for i, s in enumerate(shape))
        grad = grad.reshape(kshape)
    return np.broadcast_to(grad, shape).copy()
