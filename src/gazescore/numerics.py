"""Dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small: it supports exactly the operations the
essay-scoring models need (dense matmul, broadcast arithmetic, 1-d
convolution, attention softmaxes, a forward LSTM, dropout, row selection,
and mean-squared-error reduction). Data lives in float64 numpy arrays.

Every operation returns a new ``Tensor`` that records its inputs and a
closure computing input gradients from the output gradient. ``backward``
replays that record in reverse topological order; a tensor consumed by
several downstream ops receives the sum of their gradient contributions,
added one at a time in replay order: ((g1 + g2) + g3) + .... Training
results depend on that order to the last bit, so an optimisation may
change where a sum is stored but never the order of its terms.

The first contribution is stored as given. It may be an array another
node still holds (``add`` hands one array to both inputs, ``transpose`` a
view), so the second contribution goes into a fresh buffer the engine
owns, and later ones are added into that buffer in place. ``+=`` performs
the same IEEE addition per element as ``a + b``. Ownership lasts for one
``backward`` call: a gradient left from an earlier call may be held by the
caller and is copied before it is written.

``gather_rows`` (the embedding lookup) sums its output gradient into the
distinct rows it read, each row's terms in the order ``np.add.at`` on a
dense table would add them, and adds only those rows into the table's
gradient; rows it never read are left untouched rather than given + 0.0.
``lstm`` runs a whole forward LSTM as one node, its time loop inside the
op as ``conv1d`` keeps its kernel loop; forward and backward evaluate the
same expressions, in the same order, as the per-step composition of
``narrow``, ``matmul``, ``add``, ``sigmoid``, ``tanh`` and ``mul``.
"""

from __future__ import annotations

import numpy as np

class ShapeError(ValueError):
    """Raised when operands of an operation have incompatible shapes."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "name", "_parents", "_grad_fn",
                 "_owns_grad")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.name = name
        self._parents = ()
        self._grad_fn = None
        self._owns_grad = False  # grad is a buffer the running backward allocated

    def __repr__(self):
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{label})"


def _as_tensor(value):
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _make_output(data, parents, grad_fn):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    return out


def _accumulate(tensor, grad):
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        tensor.grad = grad
    elif tensor._owns_grad:
        tensor.grad += grad
    else:
        tensor.grad = tensor.grad + grad
        tensor._owns_grad = True


def _owned_grad(tensor):
    """``tensor.grad`` as a buffer of this backward, safe to write in place."""
    if not tensor._owns_grad:
        tensor.grad = (np.zeros_like(tensor.data) if tensor.grad is None
                       else tensor.grad.copy())
        tensor._owns_grad = True
    return tensor.grad


def _unbroadcast(grad, shape):
    """Sum a gradient over the axes numpy broadcasting introduced."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _topological_order(root):
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss, parameters=None):
    """Populate ``grad`` on every tensor the scalar ``loss`` depends on.

    ``parameters``, when given, is an iterable of tensors that must end up
    with a gradient even if the loss does not reach them; those receive
    zeros. Gradients accumulate, so call ``zero_grads`` between steps.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be a scalar, got shape {loss.data.shape}")
    order = _topological_order(loss)
    for node in order:
        node._owns_grad = False
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._grad_fn is not None and node.grad is not None:
            node._grad_fn(node.grad)
    if parameters is not None:
        for p in parameters:
            if p.requires_grad and p.grad is None:
                p.grad = np.zeros_like(p.data)


def zero_grads(parameters):
    for p in parameters:
        p.grad = None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Strict 2-d matrix product: (n,k) @ (k,m) -> (n,m)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    out_data = a.data @ b.data

    def grad_fn(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _make_output(out_data, (a, b), grad_fn)


def add(a, b):
    """Elementwise addition with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}") from None

    def grad_fn(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make_output(out_data, (a, b), grad_fn)


def mul(a, b):
    """Elementwise product with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ShapeError(f"multiply: incompatible shapes {a.data.shape} and {b.data.shape}") from None

    def grad_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make_output(out_data, (a, b), grad_fn)


def neg(a):
    a = _as_tensor(a)

    def grad_fn(g):
        _accumulate(a, -g)

    return _make_output(-a.data, (a,), grad_fn)


def concat(tensors, axis=0):
    """Concatenate tensors of matching rank along ``axis``; one tensor comes back as is."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    ref = tensors[0].data.shape
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != len(ref) or any(s[i] != ref[i] for i in range(len(ref)) if i != axis):
            raise ShapeError(f"concat: incompatible shapes {ref} and {s} along axis {axis}")
    if len(tensors) == 1:
        return tensors[0]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            idx = tuple(slice(start, stop) if d == axis else slice(None) for d in range(g.ndim))
            _accumulate(t, g[idx])

    return _make_output(out_data, tuple(tensors), grad_fn)


def conv1d(x, w):
    """1-d convolution over a sequence: x (T, Cin), w (k, Cin, Cout) -> (T, Cout).

    The input is zero-padded by (k-1)/2 on each side so the output aligns
    position-for-position with the input tokens; k must be odd.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 2 or w.data.ndim != 3:
        raise ShapeError(f"conv1d: expected x (T, Cin) and w (k, Cin, Cout), got {x.data.shape} and {w.data.shape}")
    k, cin, cout = w.data.shape
    if k % 2 == 0:
        raise ShapeError(f"conv1d: kernel size must be odd, got {k}")
    if x.data.shape[1] != cin:
        raise ShapeError(f"conv1d: incompatible shapes {x.data.shape} and {w.data.shape}")
    t = x.data.shape[0]
    pad = (k - 1) // 2
    xp = np.zeros((t + 2 * pad, cin), dtype=x.data.dtype)
    xp[pad:pad + t] = x.data
    out_data = np.zeros((t, cout), dtype=np.result_type(x.data, w.data))
    for j in range(k):
        out_data += xp[j:j + t] @ w.data[j]

    def grad_fn(g):
        if w.requires_grad:
            gw = np.empty_like(w.data)
            for j in range(k):
                gw[j] = xp[j:j + t].T @ g
            _accumulate(w, gw)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[j:j + t] += g @ w.data[j].T
            _accumulate(x, gxp[pad:pad + t])

    return _make_output(out_data, (x, w), grad_fn)


def _sigmoid(d):
    return np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                    np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))


def sigmoid(x):
    x = _as_tensor(x)
    out_data = _sigmoid(x.data)

    def grad_fn(g):
        _accumulate(x, g * out_data * (1.0 - out_data))

    return _make_output(out_data, (x,), grad_fn)


def tanh(x):
    x = _as_tensor(x)
    out_data = np.tanh(x.data)

    def grad_fn(g):
        _accumulate(x, g * (1.0 - out_data * out_data))

    return _make_output(out_data, (x,), grad_fn)


def softmax(x, axis=-1):
    """Numerically stable softmax along ``axis``; rows sum to 1."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        _accumulate(x, out_data * (g - inner))

    return _make_output(out_data, (x,), grad_fn)


def masked_softmax(x, mask, axis=-1):
    """Softmax over the positions where ``mask`` is nonzero.

    ``mask`` is a plain array of x's shape (not differentiated). Masked
    positions get probability 0; a slice with no unmasked entries yields
    all zeros rather than NaN.
    """
    x = _as_tensor(x)
    m = np.asarray(mask) != 0
    if m.shape != x.data.shape:
        raise ShapeError(f"masked_softmax: mask shape {m.shape} does not match input shape {x.data.shape}")
    neg_inf = np.full_like(x.data, -np.inf)
    row_max = np.where(m, x.data, neg_inf).max(axis=axis, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    e = np.exp(x.data - row_max) * m
    s = e.sum(axis=axis, keepdims=True)
    out_data = np.divide(e, s, out=np.zeros_like(e), where=s > 0)

    def grad_fn(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        _accumulate(x, out_data * (g - inner))

    return _make_output(out_data, (x,), grad_fn)


def dropout(x, p, rng):
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    Training-time only; evaluation simply skips the call, which makes the
    evaluation path the identity without rescaling.
    """
    x = _as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: probability must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p).astype(x.data.dtype)
    scale = 1.0 / (1.0 - p)
    out_data = x.data * keep * scale

    def grad_fn(g):
        _accumulate(x, g * keep * scale)

    return _make_output(out_data, (x,), grad_fn)


def mse(pred, target):
    """Mean squared error over all elements, reduced to a scalar."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"mse: incompatible shapes {pred.data.shape} and {target.data.shape}")
    diff = pred.data - target.data
    out_data = np.asarray((diff * diff).mean(), dtype=pred.data.dtype)
    coeff = 2.0 / diff.size

    def grad_fn(g):
        scaled = g * coeff * diff
        _accumulate(pred, scaled)
        _accumulate(target, -scaled)

    return _make_output(out_data, (pred, target), grad_fn)


def gather_rows(table, ids):
    """Select rows of a 2-d tensor by integer index (embedding lookup)."""
    table = _as_tensor(table)
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows: table must be 2-d, got shape {table.data.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: ids must be 1-d, got shape {idx.shape}")
    n = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"gather_rows: index out of range for table with {n} rows")
    out_data = table.data[idx]

    def grad_fn(g):
        rows, inverse = np.unique(idx, return_inverse=True)
        summed = np.zeros((rows.size, g.shape[1]), dtype=g.dtype)
        np.add.at(summed, inverse, g)
        _owned_grad(table)[rows] += summed

    return _make_output(out_data, (table,), grad_fn)


def narrow(x, axis, start, stop):
    """Contiguous slice [start, stop) along one axis."""
    x = _as_tensor(x)
    dim = x.data.shape[axis]
    if not 0 <= start < stop <= dim:
        raise ShapeError(f"narrow: bounds [{start}, {stop}) invalid for axis {axis} of shape {x.data.shape}")
    idx = tuple(slice(start, stop) if d == axis else slice(None) for d in range(x.data.ndim))
    out_data = x.data[idx]

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gx[idx] = g
        _accumulate(x, gx)

    return _make_output(out_data, (x,), grad_fn)


def lstm(x, wx, wh, b):
    """Forward LSTM over the rows of x (n, F) from a zero state -> hidden states (n, H).

    wx (F, 4H), wh (H, 4H) and b (4H,) lay the gates out i, f, g, o; step t takes
    z = (x_t @ wx + h @ wh) + b, c' = f*c + i*g and h' = o*tanh(c'). The backward
    runs through time, last step first, adding into b, wx and wh once per step, so
    results match the per-step composition of ``narrow``, ``matmul``, ``add``,
    ``sigmoid``, ``tanh`` and ``mul`` bit for bit.
    """
    x, wx, wh, b = (_as_tensor(t) for t in (x, wx, wh, b))
    h_size = b.data.size // 4
    if (x.data.ndim != 2 or len(x.data) == 0 or wx.data.shape != (x.data.shape[1], 4 * h_size)
            or wh.data.shape != (h_size, 4 * h_size) or b.data.shape != (4 * h_size,)):
        raise ShapeError(f"lstm: expected x (n, F), wx (F, 4H), wh (H, 4H) and b (4H,), got "
                         f"{x.data.shape}, {wx.data.shape}, {wh.data.shape} and {b.data.shape}")
    n, h, c = len(x.data), np.zeros((1, h_size)), np.zeros((1, h_size))
    steps = []
    for t in range(n):
        z = (x.data[t:t + 1] @ wx.data + h @ wh.data) + b.data
        i, f = _sigmoid(z[:, :h_size]), _sigmoid(z[:, h_size:2 * h_size])
        g, o = np.tanh(z[:, 2 * h_size:3 * h_size]), _sigmoid(z[:, 3 * h_size:])
        c_prev, h_prev = c, h
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        steps.append((h_prev, c_prev, i, f, g, o, tc, h))
    out_data = np.concatenate([step[-1] for step in steps], axis=0)

    def grad_fn(grad):
        dx, dc, dz = [None] * n, np.zeros((1, h_size)), None
        for t in reversed(range(n)):
            h_prev, c_prev, i, f, g, o, tc, _ = steps[t]
            dh = grad[t:t + 1] if dz is None else grad[t:t + 1] + dz @ wh.data.T
            dc = dc + (dh * o) * (1.0 - tc * tc)
            dz = np.concatenate([((dc * g) * i) * (1.0 - i),
                                 ((dc * c_prev) * f) * (1.0 - f),
                                 (dc * i) * (1.0 - g * g),
                                 ((dh * tc) * o) * (1.0 - o)], axis=1)
            _accumulate(b, _unbroadcast(dz, b.data.shape))
            _accumulate(wx, x.data[t:t + 1].T @ dz)
            _accumulate(wh, h_prev.T @ dz)
            dx[t] = dz @ wx.data.T
            dc = dc * f
        _accumulate(x, np.concatenate(dx, axis=0))

    return _make_output(out_data, (x, wx, wh, b), grad_fn)


def tensor_sum(x, axis=None, keepdims=False):
    x = _as_tensor(x)
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        _accumulate(x, np.broadcast_to(gg, x.data.shape).copy())

    return _make_output(out_data, (x,), grad_fn)


def transpose(x):
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"transpose: expected a 2-d tensor, got shape {x.data.shape}")

    def grad_fn(g):
        _accumulate(x, g.T)

    return _make_output(x.data.T, (x,), grad_fn)


OP_KINDS = {
    "matmul": matmul,
    "add": add,
    "multiply": mul,
    "negate": neg,
    "concat": concat,
    "conv1d": conv1d,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "softmax": softmax,
    "masked_softmax": masked_softmax,
    "dropout": dropout,
    "mse": mse,
    "gather_rows": gather_rows,
    "narrow": narrow,
    "lstm": lstm,
    "sum": tensor_sum,
    "transpose": transpose,
}
