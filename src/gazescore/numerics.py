"""Dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small: the essay-scoring models use dense matmul,
1-d convolution, attention softmaxes, a forward LSTM, dropout and row
selection; broadcast arithmetic (``add``, ``mul``), ``mse``, ``gather_rows``,
``tensor_sum`` and ``narrow`` serve the tests' reference compositions, the
batch graph's loss among them. ``OP_KINDS`` names
every op, for the gradient oracle to check each one. Data is float64.

Every operation returns a new ``Tensor`` that records its inputs and a
function computing input gradients from the output gradient (a closure,
or for ``encode_tokens`` a ``_TokensBackward``, which ``_compact`` can
shrink). ``backward`` replays that record in one order, the reverse of a
depth-first post-order from the loss (``_topological_order``), so that each
node runs after every op that consumes it; a tensor consumed by several
downstream ops receives the sum of their gradient contributions, added one
at a time in replay order: ((g1 + g2) + g3) + .... Training results depend
on that order to the last bit, so an optimisation may change where a sum is
stored but never the order of its terms.

A caller that knows a loss's gradient into some tensors can also start a
backward there, without the loss's graph: ``_seeded`` makes a node that hands
each tensor its gradient, as the loss's own ops would (training seeds one
essay's outputs with that essay's share of the batch loss's gradient). The
readers of the leaves in ``backward``'s ``hold`` can wait: ``backward``
returns them with their gradients, and ``_replay`` runs them later, so
several graphs' contributions into those leaves can be put in the order one
graph over all of them would give. A held ``encode_tokens`` node whose
consumers have all run waits compact (``_compact``): it keeps its gradient
through tanh, the first step of its backward taken early, and not its
output, so an essay's token block is freed while its encoders wait.

The first contribution is stored as given. It may be an array another
node still holds (``add`` hands one array to both inputs, ``transpose`` a
view), so the second contribution goes into a fresh buffer the engine
owns, and later ones are added into that buffer in place. A first
contribution its op has just computed and holds nowhere else (``dense``'s
and ``additive_attention``'s gradients into their inputs) is owned from the
start, so the second is added into it without a third array. ``+=`` performs
the same IEEE addition per element as ``a + b``. Ownership lasts from
``zero_grads`` to the next, across backward calls: a training step that runs
one backward per essay adds into each parameter's gradient in place, as one
backward over the batch would. A caller that keeps a leaf's gradient array
across a later ``backward`` sees it change, so it copies the array to keep it.

``backward`` releases the graph as it replays it. Once a node's gradient
has reached its parents, the node drops that function (the arrays it saved
for backward), its parents and its gradient, so the batch's saved arrays
are freed as the replay passes them rather than when the caller lets go of
the loss. Leaves (tensors no op produced) keep ``.grad``; every interior
tensor ends with ``.grad`` None. A released graph cannot be replayed: a
second ``backward`` through it, or through an op fed one of its interior
tensors, raises. Dropout masks are kept as bool arrays, 1 byte an entry.

Row gradients (``gather_rows``, ``encode_tokens`` and ``_seeded`` into a
table) go into the table's gradient as each call computes them, in replay
order, like every other contribution (``_scatter_rows``). Each call's rows
are summed into the distinct rows it read, each row's terms from 0 in the
order ``np.add.at`` on a dense table would add them, and that sum is added
into those rows; rows no call read are left untouched rather than given
+ 0.0.
``lstm`` runs a whole forward LSTM as one node, its time loop inside the
op as ``conv1d`` keeps its kernel loop; forward and backward evaluate the
same expressions, in the same order, as the per-step composition of
``narrow``, ``matmul``, ``add``, ``sigmoid``, ``tanh`` and ``mul``. Its
backward writes each step's ``wx`` and ``wh`` terms, the K=1 matmuls of the
composition, as outer products into one scratch array and adds them into
the weights' gradient buffers in place.

Three fused ops run a chain of single ops as one node, keeping only the
arrays their backward reads besides their inputs:
- ``encode_tokens`` (gather, dropout, conv1d, bias, tanh) keeps the ids, the
  dropout mask and its output (a compact held node, its gradient through
  tanh instead).
  Its backward rebuilds the zero-padded conv input from the table, which
  does not change between forward and backward.
  It can write its output into a given array, as ``concat`` can: the model's
  sentence encoders fill one token block per essay, which the gaze heads
  read through a ``concat`` that copies nothing;
- ``additive_attention`` (matmul, bias, tanh, matmul, transpose, softmax,
  matmul) keeps only the attention weights. Its backward recomputes
  tanh(states @ w + b) with the forward's expression (``_attention_scores``)
  from its inputs, which do not change between forward and backward, so the
  scores come out with the forward's bits;
- ``dense`` (matmul, bias, tanh or sigmoid) keeps its output.
Each chain's intermediates have a single consumer, inside the chain, so in
the reference order its nodes replay as one contiguous run, and the
fused node's parents are listed so that the rest of the graph keeps its
order. A fused backward that runs its members' gradient formulas (the
private helpers the single ops use) in that run's order therefore adds the
same terms into each input in the same order: results stay bit-identical.
The model's block evaluator runs the ops' own forward formulas on arrays with
leading batch axes: ``_conv_forward``, ``_add_bias``, ``_softmax`` (masked over
padding), ``_attend`` (the attention pool), ``_lstm_step`` (one LSTM step) and
``_dense`` (a dense layer). These formulas make no temporary they can avoid:
``_add_bias`` adds into the fresh product its caller gives it, ``_conv_forward``
computes each window's product into one scratch buffer, and tanh (``_tanh``,
in ``_attention_scores`` and a tanh ``_dense``) is taken in place. Each value
equals the out-of-place expression's, bit for bit.
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
        self._owns_grad = False  # grad is a buffer a backward since zero_grads allocated

    def __repr__(self):
        label = f" name={self.name!r}" if self.name else ""
        if self.data is None:  # a held node's dropped output, see _compact
            return f"Tensor(data=None{label})"
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


def _accumulate(tensor, grad, fresh=False):
    """Add grad into ``tensor.grad``; ``fresh`` says grad is a new array no
    other tensor holds, which later contributions may then add into in place."""
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        tensor.grad = grad
        tensor._owns_grad = fresh
    elif tensor._owns_grad:
        tensor.grad += grad
    else:
        tensor.grad = tensor.grad + grad
        tensor._owns_grad = True


def _owned_grad(tensor):
    """``tensor.grad`` as a buffer the engine owns, safe to write in place."""
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


def _topological_order(*roots):
    """The nodes under ``roots``, each after its parents: a depth-first
    post-order from each root in turn."""
    order = []
    visited = set()
    stack = [(root, False) for root in reversed(roots)]
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


def _split_held(order, hold):
    """(the nodes of ``order`` that replay now, those held back), each in
    ``order``'s order. A node is held when it is one of ``hold``, reads one
    of them or an input of a held node, or is such an input (it must follow
    the held node that reads it). So moving the held nodes behind the rest
    keeps every tensor's consumers in order."""
    pending = {id(t) for t in hold}  # held nodes' inputs and the hold leaves
    now, held = [], []
    for node in order:
        if id(node) in pending or any(id(p) in pending for p in node._parents):
            held.append(node)
            pending.update(id(p) for p in node._parents)
        else:
            now.append(node)
    return now, held


def _released(g):
    raise RuntimeError("backward: the graph was released by an earlier backward through it; "
                       "run the forward again to rebuild it")


def backward(loss, hold=()):
    """Populate ``grad`` on every leaf tensor the scalar ``loss`` depends on.

    A leaf the loss does not reach keeps the gradient it had (``_fill_grads``
    gives zeros to those with none). Gradients accumulate, so call
    ``zero_grads`` between steps; a buffer an earlier backward allocated is
    added into in place.

    Nodes replay in the reverse of ``_topological_order(loss)``, so every
    sum adds its terms in that order. The graph is released as it replays:
    once a node has passed its gradient to its parents it drops its saved
    arrays, its parents and its ``.grad``, so interior tensors end with
    ``.grad`` None and only leaves keep theirs. A released node raises if a
    later backward reaches it, through ``loss`` again or through an op that
    was fed it.

    ``hold`` names leaves whose readers wait: the nodes ``_split_held``
    holds back keep their gradients and come back, in replay order, for a
    later ``_replay``; with ``hold`` empty the list is empty. They come back
    compact (``_compact``): a held ``encode_tokens`` node that no held node
    reads keeps only its gradient through tanh, not its output.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be a scalar, got shape {loss.data.shape}")
    order = _topological_order(loss)
    order.reverse()
    order, held = _split_held(order, hold) if hold else (order, [])
    loss.grad = np.ones_like(loss.data)
    _replay(order)
    _compact(held)
    return held


def _compact(held):
    """Shrink the nodes of list ``held`` whose consumers have all run, those
    no node of ``held`` reads: an ``encode_tokens`` node's backward
    (``_TokensBackward.compact``) multiplies its gradient g by 1 - out * out
    now, in a buffer it owns, which is the first step of that backward
    (``_tanh_grad``), and the node drops its output (its ``data`` becomes
    None), so the token block its output sits in can be freed. Each element
    takes the same IEEE operations as in the full backward, only earlier."""
    read = {id(parent) for node in held for parent in node._parents}
    for node in held:
        compact = getattr(node._grad_fn, "compact", None)  # a _TokensBackward's
        if compact is not None and id(node) not in read:
            compact(None if node.grad is None else _owned_grad(node))
            node.data = None


def _replay(order):
    """Run the backward of the nodes of list ``order``, given in replay order
    with their gradients in place (``backward``'s held nodes), releasing
    each; the list is emptied, so it holds no node that has run."""
    order.reverse()
    while order:
        node = order.pop()  # the order list no longer holds it
        if node._grad_fn is None:  # a leaf keeps its gradient
            continue
        if node.grad is not None:
            node._grad_fn(node.grad)
        node._grad_fn, node._parents, node.grad = _released, (), None


def _fill_grads(parameters):
    """Give zeros to each tensor of ``parameters`` that requires a gradient and has none."""
    for p in parameters:
        if p.requires_grad and p.grad is None:
            p.grad = np.zeros_like(p.data)


def zero_grads(parameters):
    for p in parameters:
        p.grad = None
        p._owns_grad = False


def _seeded(terms):
    """A scalar node, valued 0, through which ``backward`` gives each of
    ``terms``' tensors a known gradient, as a loss over them would.

    ``terms`` lists (tensor, grad, rows). With ``rows`` None, ``grad`` is
    added into the tensor's gradient as an op adds into its input's; else
    it holds the gradients of the tensor's rows ``rows`` (valid int64 row
    indices), added at once by ``_scatter_rows``, as ``gather_rows(tensor,
    rows)``'s backward adds them.
    The node's parents are the tensors in order, which sets the order
    ``backward`` replays their graph in.
    """

    def grad_fn(g):
        for tensor, grad, rows in terms:
            if rows is None:
                _accumulate(tensor, grad)
            else:
                _scatter_rows(tensor, rows, grad)

    return _make_output(np.zeros(()), [tensor for tensor, _, _ in terms], grad_fn)


# ---------------------------------------------------------------------------
# formulas shared by the single ops and the fused ones
# ---------------------------------------------------------------------------

def _check_matmul(op, a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def _add_bias(op, z, b):
    """z (..., m) + b (m,), added into z, a fresh array the caller gives up."""
    if b.shape != z.shape[-1:]:
        raise ShapeError(f"{op}: bias of shape {b.shape} does not fit shape {z.shape}")
    z += b
    return z


def _check_conv(op, x_shape, w_shape):
    if len(x_shape) != 2 or len(w_shape) != 3:
        raise ShapeError(f"{op}: expected x (T, Cin) and w (k, Cin, Cout), got {x_shape} and {w_shape}")
    if w_shape[0] % 2 == 0:
        raise ShapeError(f"{op}: kernel size must be odd, got {w_shape[0]}")
    if x_shape[1] != w_shape[1]:
        raise ShapeError(f"{op}: incompatible shapes {x_shape} and {w_shape}")


def _pad_rows(x, k):
    """x with (k-1)/2 zero rows added on each side, the input of a width-k window."""
    pad = (k - 1) // 2
    xp = np.zeros((len(x) + 2 * pad, x.shape[1]), dtype=x.dtype)
    xp[pad:pad + len(x)] = x
    return xp


def _conv_forward(xp, w):
    """The sum over the k windows of padded xp (..., T + k - 1, Cin) of window j @ w[j]."""
    t = xp.shape[-2] - len(w) + 1
    out = np.zeros(xp.shape[:-2] + (t, w.shape[2]), dtype=np.result_type(xp, w))
    product = np.empty_like(out)  # each window's product, in one scratch buffer
    for j in range(len(w)):
        out += np.matmul(xp[..., j:j + t, :], w[j], out=product)
    return out


def _conv_weight_grad(xp, w, g):
    gw = np.empty_like(w)
    for j in range(len(w)):
        gw[j] = xp[j:j + len(g)].T @ g
    return gw


def _conv_input_grad(padded_shape, w, g):
    t, pad = len(g), (len(w) - 1) // 2
    gxp = np.zeros(padded_shape, dtype=g.dtype)
    for j in range(len(w)):
        gxp[j:j + t] += g @ w[j].T
    return gxp[pad:pad + t]


def _sigmoid(d):
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _sigmoid_grad(g, out):
    return g * out * (1.0 - out)


def _tanh(z):
    """tanh(z), written into z."""
    return np.tanh(z, out=z)


def _tanh_grad(g, out, into=None):
    return np.multiply(g, 1.0 - out * out, out=into)


_ACTIVATIONS = {"tanh": (_tanh, _tanh_grad), "sigmoid": (_sigmoid, _sigmoid_grad)}


def _dense(x, w, b, activation):
    """activation(x @ w + b) of x (..., n), w (n, m) and b (m,); activation is
    "tanh" (computed in the product's array) or "sigmoid"."""
    return _ACTIVATIONS[activation][0](_add_bias("dense", x @ w, b))


def _softmax(x, axis=-1, mask=True):
    """Softmax along ``axis`` over the entries where ``mask`` holds, the others
    counting as -inf: a row with no entry is all zeros, a row holding nan is nan."""
    if mask is not True:
        x = np.where(mask, x, -np.inf)
    top = x.max(axis=axis, keepdims=True)
    top[top == -np.inf] = 0.0  # -inf - -inf would be nan
    e = np.exp(x - top)
    total = e.sum(axis=axis, keepdims=True)
    total[total == 0] = 1.0  # only where every e is 0
    return e / total


def _attention_scores(states, w, b):
    """u = tanh(states @ w + b) of additive attention over states (..., n, d),
    computed in the product's array."""
    return _tanh(_add_bias("additive_attention", states @ w, b))


def _attend(states, w, b, v, mask=True):
    """(alpha, pooled) of additive attention over states (..., n, d): alpha =
    softmax(u @ v) (..., 1, n) over the rows where mask (..., n) holds, alpha @ states."""
    u = _attention_scores(states, w, b)
    alpha = _softmax(np.swapaxes(u @ v, -1, -2), mask=mask if mask is True else mask[..., None, :])
    return alpha, alpha @ states


def _lstm_step(xw, h, c, wh, b):
    """One LSTM step from state (h, c) given xw = x_t @ wx: (i, f, g, o, tanh(c'), c', h')."""
    z, size = (xw + h @ wh) + b, len(wh)
    i, f = _sigmoid(z[:, :size]), _sigmoid(z[:, size:2 * size])
    g, o = np.tanh(z[:, 2 * size:3 * size]), _sigmoid(z[:, 3 * size:])
    c = f * c + i * g
    tc = np.tanh(c)
    return i, f, g, o, tc, c, o * tc


def _mse_grad(g, coeff, diff):
    """The gradient into mse's prediction: g times 2 / n times the differences."""
    return g * coeff * diff


def _softmax_grad(g, out, axis):
    inner = (g * out).sum(axis=axis, keepdims=True)
    return out * (g - inner)


def _dropout(op, x, p, rng):
    """(output, keep mask, scale) of inverted dropout on array x; p = 0 draws
    nothing and gives (x, None, None)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"{op}: probability must be in [0, 1), got {p}")
    if p == 0.0:
        return x, None, None
    keep = rng.random(x.shape) >= p  # bool: x * keep gives the bits x * 1.0 or x * 0.0 does
    scale = 1.0 / (1.0 - p)
    return x * keep * scale, keep, scale


def _gather_ids(op, table, ids):
    if table.ndim != 2:
        raise ShapeError(f"{op}: table must be 2-d, got shape {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"{op}: ids must be 1-d, got shape {idx.shape}")
    n = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"{op}: index out of range for table with {n} rows")
    return idx


def _scatter_rows(tensor, idx, g):
    """Add row i of g into row idx[i] of tensor's gradient, now: g's rows are
    summed into the distinct rows idx names, each row's terms in the order
    ``np.add.at`` on a dense table of zeros would add them, and those sums
    are added into tensor's gradient; a row idx does not name is left
    untouched rather than given + 0.0."""
    order = np.argsort(idx, kind="stable")
    rows = idx[order]
    if (rows[1:] != rows[:-1]).all():
        # distinct rows: + 0.0 turns -0.0 into +0.0, as add.at into zeros does
        _owned_grad(tensor)[rows] += g[order] + 0.0
        return
    rows, inverse = np.unique(idx, return_inverse=True)
    summed = np.zeros((rows.size, g.shape[1]), dtype=g.dtype)
    np.add.at(summed, inverse, g)
    _owned_grad(tensor)[rows] += summed


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Strict 2-d matrix product: (n,k) @ (k,m) -> (n,m)."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_matmul("matmul", a.data, b.data)
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


def concat(tensors, axis=0, out=None):
    """Concatenate tensors of matching rank along ``axis``; one tensor comes back as is.

    ``out`` receives the result, as in ``np.concatenate``, which copies no
    tensor whose data already is its slice of ``out``.
    """
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
    out_data = np.concatenate([t.data for t in tensors], axis=axis, out=out)
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
    _check_conv("conv1d", x.data.shape, w.data.shape)
    xp = _pad_rows(x.data, len(w.data))
    out_data = _conv_forward(xp, w.data)

    def grad_fn(g):
        if w.requires_grad:
            _accumulate(w, _conv_weight_grad(xp, w.data, g))
        if x.requires_grad:
            _accumulate(x, _conv_input_grad(xp.shape, w.data, g))

    return _make_output(out_data, (x, w), grad_fn)


def sigmoid(x):
    x = _as_tensor(x)
    out_data = _sigmoid(x.data)

    def grad_fn(g):
        _accumulate(x, _sigmoid_grad(g, out_data))

    return _make_output(out_data, (x,), grad_fn)


def tanh(x):
    x = _as_tensor(x)
    out_data = np.tanh(x.data)

    def grad_fn(g):
        _accumulate(x, _tanh_grad(g, out_data))

    return _make_output(out_data, (x,), grad_fn)


def softmax(x, axis=-1):
    """Numerically stable softmax along ``axis``; finite rows sum to 1."""
    x = _as_tensor(x)
    out_data = _softmax(x.data, axis)

    def grad_fn(g):
        _accumulate(x, _softmax_grad(g, out_data, axis))

    return _make_output(out_data, (x,), grad_fn)


def dropout(x, p, rng):
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    Training-time only; evaluation simply skips the call, which makes the
    evaluation path the identity without rescaling.
    """
    x = _as_tensor(x)
    out_data, keep, scale = _dropout("dropout", x.data, p, rng)
    if keep is None:
        return x

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
        scaled = _mse_grad(g, coeff, diff)
        _accumulate(pred, scaled)
        _accumulate(target, -scaled)

    return _make_output(out_data, (pred, target), grad_fn)


def gather_rows(table, ids):
    """Select rows of a 2-d tensor by integer index (embedding lookup)."""
    table = _as_tensor(table)
    idx = _gather_ids("gather_rows", table.data, ids)
    out_data = table.data[idx]

    def grad_fn(g):
        _scatter_rows(table, idx, g)

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
    for t in range(n):  # each step: h, c, then _lstm_step's (i, f, g, o, tanh(c'), c', h')
        steps.append((h, c) + _lstm_step(x.data[t:t + 1] @ wx.data, h, c, wh.data, b.data))
        *_, c, h = steps[-1]
    out_data = np.concatenate([step[-1] for step in steps], axis=0)

    def grad_fn(grad):
        dx, dc, dz = [None] * n, np.zeros((1, h_size)), None
        # a step's x_t.T @ dz and h.T @ dz are K=1 products: one rounded multiply
        # per entry, which einsum computes as the matmul does (a -0.0 product
        # comes out +0.0), so adding them into owned buffers keeps every sum
        gwx = _owned_grad(wx) if wx.requires_grad else None
        gwh = _owned_grad(wh) if wh.requires_grad else None
        term = np.empty((max(len(wx.data), h_size), 4 * h_size))
        for t in reversed(range(n)):
            h_prev, c_prev, i, f, g, o, tc, _, _ = steps[t]
            dh = grad[t:t + 1] if dz is None else grad[t:t + 1] + dz @ wh.data.T
            dc = dc + (dh * o) * (1.0 - tc * tc)
            dz = np.concatenate([((dc * g) * i) * (1.0 - i),
                                 ((dc * c_prev) * f) * (1.0 - f),
                                 (dc * i) * (1.0 - g * g),
                                 ((dh * tc) * o) * (1.0 - o)], axis=1)
            _accumulate(b, _unbroadcast(dz, b.data.shape))
            for buffer, rows in ((gwx, x.data[t]), (gwh, h_prev[0])):
                if buffer is not None:
                    buffer += np.einsum("i,j->ij", rows, dz[0], out=term[:len(rows)])
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


# ---------------------------------------------------------------------------
# fused ops: one node for a chain of the ops above
# ---------------------------------------------------------------------------

def encode_tokens(table, ids, conv_w, conv_b, p, rng, out=None):
    """tanh(conv1d(dropout(gather_rows(table, ids), p, rng), conv_w) + conv_b) as one node.

    Without an rng there is no dropout, as in evaluation. The token encodings
    (T, Cout) equal the chain's bit for bit, dropout draws the same mask at the
    same point, and the backward adds into conv_b, conv_w and the table's rows
    in the chain's order. ``out``, when given, is the (T, Cout) array the
    encodings are written into and which holds them.

    The node saves the ids, the dropout mask and its output
    (``_TokensBackward``). Its backward rebuilds the padded conv input from
    the table's values, so those must not change between forward and
    backward (training steps after backward).
    """
    table, conv_w, conv_b = _as_tensor(table), _as_tensor(conv_w), _as_tensor(conv_b)
    idx = _gather_ids("encode_tokens", table.data, ids)
    values, k = table.data, len(conv_w.data)
    embedded, keep, scale = values[idx], None, None
    if rng is not None:
        embedded, keep, scale = _dropout("encode_tokens", embedded, p, rng)
    _check_conv("encode_tokens", embedded.shape, conv_w.data.shape)
    conv = _add_bias("encode_tokens", _conv_forward(_pad_rows(embedded, k), conv_w.data),
                     conv_b.data)
    out_data = np.tanh(conv, out=out)
    return _make_output(out_data, (table, conv_w, conv_b),
                        _TokensBackward(table, conv_w, conv_b, idx, keep, scale, out_data))


class _TokensBackward:
    """``encode_tokens``' backward, with the arrays it reads: called with the
    output's gradient g, it adds into conv_b, conv_w and the table's rows.

    ``compact(g)`` takes its first step early, for ``_compact``: g (an
    owned buffer, or None) becomes g * (1 - out * out) in place and the
    output is dropped; the call then starts after that step."""

    __slots__ = ("table", "conv_w", "conv_b", "idx", "keep", "scale", "out")

    def __init__(self, table, conv_w, conv_b, idx, keep, scale, out):
        self.table, self.conv_w, self.conv_b = table, conv_w, conv_b
        self.idx, self.keep, self.scale, self.out = idx, keep, scale, out

    def __call__(self, g):
        table, conv_w, idx, keep, scale = self.table, self.conv_w, self.idx, self.keep, self.scale
        if self.out is not None:  # else compact has taken g through tanh
            g = _tanh_grad(g, self.out)
        _accumulate(self.conv_b, _unbroadcast(g, self.conv_b.data.shape))
        k = len(conv_w.data)
        if conv_w.requires_grad:
            # forward's padded input, bit for bit: the same rows, mask and scale
            x = table.data[idx] if keep is None else table.data[idx] * keep * scale
            _accumulate(conv_w, _conv_weight_grad(_pad_rows(x, k), conv_w.data, g))
        if table.requires_grad:
            g = _conv_input_grad((len(idx) + k - 1, table.data.shape[1]), conv_w.data, g)
            _scatter_rows(table, idx, g if keep is None else g * keep * scale)

    def compact(self, g):
        if g is not None:
            _tanh_grad(g, self.out, into=g)
        self.out = None


def additive_attention(states, w, b, v):
    """Pool states (n, d) into (1, d) as one node: (pooled, alpha), where
    alpha = softmax(transpose(tanh(states @ w + b) @ v)) and pooled = alpha @ states.

    alpha (1, n) holds values only, outside the graph. The backward adds into
    states (twice), v, b and w in the chain's order, so results equal the
    chain's bit for bit.
    """
    states, w, b, v = (_as_tensor(t) for t in (states, w, b, v))
    _check_matmul("additive_attention", states.data, w.data)
    _check_matmul("additive_attention", w.data, v.data)
    alpha, out_data = _attend(states.data, w.data, b.data, v.data)

    def grad_fn(g):
        g_alpha = g @ states.data.T
        if states.requires_grad:
            _accumulate(states, alpha.T @ g, fresh=True)
        g_scores = _softmax_grad(g_alpha, alpha, -1).T
        g_u = g_scores @ v.data.T
        u = _attention_scores(states.data, w.data, b.data)  # forward's, bit for bit
        if v.requires_grad:
            _accumulate(v, u.T @ g_scores)
        g_z = _tanh_grad(g_u, u)
        _accumulate(b, _unbroadcast(g_z, b.data.shape))
        if states.requires_grad:
            _accumulate(states, g_z @ w.data.T)
        if w.requires_grad:
            _accumulate(w, states.data.T @ g_z)

    # parents in the order that gives the chain's topological order
    return _make_output(out_data, (w, b, v, states), grad_fn), Tensor(alpha)


def dense(x, w, b, activation):
    """activation(x @ w + b) as one node; activation is "tanh" or "sigmoid".

    The backward adds into b, x and w in the chain's order, so results equal
    the chain's bit for bit.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if activation not in _ACTIVATIONS:
        raise ValueError(f"dense: unknown activation {activation!r}")
    _check_matmul("dense", x.data, w.data)
    out_data = _dense(x.data, w.data, b.data, activation)
    gradient = _ACTIVATIONS[activation][1]

    def grad_fn(g):
        g = gradient(g, out_data)
        _accumulate(b, _unbroadcast(g, b.data.shape))
        if x.requires_grad:
            _accumulate(x, g @ w.data.T, fresh=True)
        if w.requires_grad:
            _accumulate(w, x.data.T @ g)

    return _make_output(out_data, (x, w, b), grad_fn)


OP_KINDS = {
    "matmul": matmul,
    "add": add,
    "multiply": mul,
    "concat": concat,
    "conv1d": conv1d,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "softmax": softmax,
    "dropout": dropout,
    "mse": mse,
    "gather_rows": gather_rows,
    "narrow": narrow,
    "lstm": lstm,
    "sum": tensor_sum,
    "transpose": transpose,
    "encode_tokens": encode_tokens,
    "additive_attention": additive_attention,
    "dense": dense,
}
