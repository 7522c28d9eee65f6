"""Reverse-mode automatic differentiation on dense float64 arrays.

A :class:`Tensor` wraps a numpy array and remembers the operation that
produced it. Calling :func:`backward` on a scalar tensor walks the recorded
graph once, in reverse topological order, and adds each gradient that
reaches a leaf (a tensor created with ``requires_grad=True``, not produced
by an operation) into an accumulator as it arrives. Intermediate results
never hold a gradient array. By default the accumulator is the leaf's
``.grad``, allocated zeroed when first read and cleared in place by
:meth:`Tensor.zero_grad`. A training step instead passes ``on_leaf``: each
leaf's gradient is then handed over as soon as the last node reading the
leaf has run, so the optimizer can step that parameter and drop its
gradient while the walk goes on. Everything runs in 64-bit precision so
analytic gradients can be validated tightly against central finite
differences (:func:`finite_diff_check`).

Supported operand ranks are 0 (scalars), 1 (vectors) and 2 (matrices).
Broadcasting is deliberately restricted to adding a bias row to a matrix;
every other shape mismatch raises :class:`ShapeError` immediately.

A batch of B sequences is packed as :class:`SegmentLayout` describes. The
sequence ops (:func:`lstm`, :func:`attention`, :func:`segment_sum`,
:func:`segment_softmax`) take such a matrix and its layout and keep the
sequences apart, each as one tape node for the whole batch; padding to 3-d
blocks happens inside them only. :func:`attention` runs every head of a
multi-head layer in its one node. :func:`sparse_matmul` applies a constant
:class:`SparseMatrix`, such as a batch's packed graph adjacency, by its
entries.

``model.gradient_check_suite`` checks the 18 ops a training step records.
No model path calls :func:`slice_axis`, :func:`transpose`, :func:`tanh`,
:func:`sigmoid`, :func:`exp` or :func:`reduce_mean`.

:func:`relu` and :func:`clamp_min` record on their tape node which side of
the kink each input element lies on, where :func:`finite_diff_check` finds
it: the module keeps no state.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Operands of an operation have incompatible shapes."""


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or infinite values."""


class Tensor:
    __slots__ = ("data", "_grad", "requires_grad", "_parents", "_backward_fn", "_kink")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._grad: np.ndarray | None = None  # see grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None
        self._kink: np.ndarray | None = None  # which inputs of a relu or clamp_min pass

    @property
    def grad(self) -> np.ndarray | None:
        """A leaf's gradient accumulator; None for an op's result or a tensor not requiring grad.

        Repeated backward passes add into it until :meth:`zero_grad`. It is
        allocated zeroed when first read, so a leaf whose ``.grad`` nothing
        reads, such as a parameter that ``backward``'s ``on_leaf`` steps,
        never makes gradient pages resident.
        """
        if self._grad is None and self.requires_grad and self._backward_fn is None:
            self._grad = np.zeros(self.data.shape)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        """Clear a held accumulator in place, whatever ``requires_grad`` reads now.

        One of another shape than ``data`` is dropped instead, to be allocated
        again when read; a tensor holding none gets none.
        """
        if self._grad is not None and self._grad.shape == self.data.shape:
            self._grad.fill(0.0)
        else:
            self._grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn, op: str,
          kink: np.ndarray | None = None) -> Tensor:
    """Build an op result, recording the tape edge only when a parent needs it."""
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{op}: produced non-finite values")
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
        out._kink = kink
    return out


def _shape_fail(op: str, *shapes) -> None:
    raise ShapeError(f"{op}: incompatible shapes {' and '.join(str(s) for s in shapes)}")


# ---------------------------------------------------------------------------
# operations

def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        _shape_fail("matmul", ad.shape, bd.shape)
    if ad.shape[-1] != bd.shape[0]:
        _shape_fail("matmul", ad.shape, bd.shape)
    out = ad @ bd

    def backward(g):
        if ad.ndim == 2 and bd.ndim == 2:
            return g @ bd.T, ad.T @ g
        if ad.ndim == 2 and bd.ndim == 1:
            return np.outer(g, bd), ad.T @ g
        if ad.ndim == 1 and bd.ndim == 2:
            return bd @ g, np.outer(ad, g)
        return g * bd, g * ad

    return _make(out, (a, b), backward, "matmul")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts matrix + bias row (the one broadcast allowed)."""
    ad, bd = a.data, b.data
    if ad.shape == bd.shape:
        bias_row = False
    elif ad.ndim == 2 and bd.ndim == 1 and ad.shape[1] == bd.shape[0]:
        bias_row = True
    else:
        _shape_fail("add", ad.shape, bd.shape)
    out = ad + bd

    def backward(g):
        return g, (g.sum(axis=0) if bias_row else g)

    return _make(out, (a, b), backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product of same-shape tensors."""
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        _shape_fail("mul", ad.shape, bd.shape)

    def backward(g):
        return g * bd, g * ad

    return _make(ad * bd, (a, b), backward, "mul")


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat: empty tensor list")
    arrays = [t.data for t in tensors]
    ndim = arrays[0].ndim
    if any(arr.ndim != ndim for arr in arrays):
        _shape_fail("concat", *[arr.shape for arr in arrays])
    out = np.concatenate(arrays, axis=axis)
    sizes = [arr.shape[axis] for arr in arrays]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make(out, tuple(tensors), backward, "concat")


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    ad = a.data
    if axis >= ad.ndim or not (0 <= start < stop <= ad.shape[axis]):
        raise ShapeError(f"slice_axis: [{start}:{stop}] on axis {axis} of {ad.shape}")
    key = (slice(start, stop),) if axis == 0 else (slice(None), slice(start, stop))
    out = ad[key]

    def backward(g):
        full = np.zeros_like(ad)
        full[key] = g
        return (full,)

    return _make(out, (a,), backward, "slice_axis")


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        _shape_fail("transpose", a.data.shape)
    return _make(a.data.T.copy(), (a,), lambda g: (g.T,), "transpose")


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup with scatter-add backward; `ids` may repeat.

    When ``table`` is a leaf, such as an embedding table, backward sums the
    gradient of each looked-up row and adds it straight into the leaf's
    ``.grad``, so no table-sized array is made; the result is
    bit-identical to adding a dense scattered gradient. An intermediate
    ``table`` receives the dense gradient.
    """
    ids = np.asarray(ids, dtype=np.int64)
    td = table.data
    if td.ndim != 2 or ids.ndim != 1:
        _shape_fail("gather_rows", td.shape, ids.shape)
    if ids.size and (ids.min() < 0 or ids.max() >= td.shape[0]):
        raise ShapeError(f"gather_rows: id out of range for table with {td.shape[0]} rows")
    out = td[ids]

    def backward(g):
        if table._backward_fn is None:
            rows, inverse = np.unique(ids, return_inverse=True)
            sums = np.zeros((rows.size, g.shape[1]))
            np.add.at(sums, inverse, g)
            _check_finite(sums)
            table.grad[rows] += sums
            return (None,)
        gt = np.zeros_like(td)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make(out, (table,), backward, "gather_rows")


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)), into ``out`` if given. Callers ignore overflow: exp(-z) = inf gives 0."""
    out = np.negative(z, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),), "tanh")


def sigmoid(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = _sigmoid(a.data)
    return _make(out, (a,), lambda g: (g * out * (1.0 - out),), "sigmoid")


def relu(a: Tensor) -> Tensor:
    ad = a.data
    # subgradient at 0 is 0; only a recorded node needs the mask
    mask = (ad > 0).astype(np.float64) if a.requires_grad else None
    return _make(np.maximum(ad, 0.0), (a,), lambda g: (g * mask,), "relu", kink=mask)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,), "exp")


def log(a: Tensor) -> Tensor:
    ad = a.data
    if np.any(ad <= 0):
        raise ValueError("log: non-positive input")
    return _make(np.log(ad), (a,), lambda g: (g / ad,), "log")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(a.data * c, (a,), lambda g: (g * c,), "scale")


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor) elementwise; gradient is zero where the floor is active."""
    ad = a.data
    mask = (ad > floor).astype(np.float64) if a.requires_grad else None
    return _make(np.maximum(ad, floor), (a,), lambda g: (g * mask,), "clamp_min", kink=mask)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    ad = a.data
    shifted = ad - ad.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _make(out, (a,), backward, "softmax")


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    ad = a.data
    if axis is None:
        out = ad.sum()

        def backward(g):
            return (np.full_like(ad, float(g)),)
    else:
        if ad.ndim != 2 or axis not in (0, 1):
            _shape_fail("reduce_sum", ad.shape)
        out = ad.sum(axis=axis)

        def backward(g):
            return (np.broadcast_to(g, ad.shape).copy() if axis == 0
                    else np.broadcast_to(g[:, None], ad.shape).copy(),)

    return _make(out, (a,), backward, "reduce_sum")


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    ad = a.data
    count = ad.size if axis is None else ad.shape[axis]
    if count == 0:
        raise ShapeError("reduce_mean: empty axis")
    return scale(reduce_sum(a, axis=axis), 1.0 / count)


LAYER_NORM_EPS = 1e-12


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of a matrix to zero mean / unit variance, then scale and shift."""
    xd, gd, bd = x.data, gain.data, bias.data
    if xd.ndim != 2 or gd.shape != (xd.shape[1],) or bd.shape != (xd.shape[1],):
        _shape_fail("layer_norm", xd.shape, gd.shape, bd.shape)
    mu = xd.mean(axis=1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    out = xhat * gd + bd

    def backward(g):
        dgain = (g * xhat).sum(axis=0)
        dbias = g.sum(axis=0)
        dxhat = g * gd
        m1 = dxhat.mean(axis=1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgain, dbias

    return _make(out, (x, gain, bias), backward, "layer_norm")


# ---------------------------------------------------------------------------
# packed sequences: B sequences stacked row-wise in one matrix

@dataclass(frozen=True, eq=False)
class SegmentLayout:
    """Where each of B sequences sits in a packed matrix, built by :func:`segment_layout`.

    Their rows are stacked in one matrix: sequence j owns rows
    ``offsets[j]:offsets[j + 1]``, and row r is position ``pos[r]`` of sequence
    ``seq[r]``. ``slot`` ranks the sequences longest first, ties in order, and
    ``running[t]`` counts those longer than t: the ones still running at step
    t, in the first slots. One sequence of n rows is the layout of ``[n]``. The
    builder validates the lengths; a packed op checks only its input's rows.
    """

    lengths: np.ndarray  # (B,)
    offsets: np.ndarray  # (B + 1,)
    seq: np.ndarray      # (N,)
    pos: np.ndarray      # (N,)
    slot: np.ndarray     # (B,)
    running: list[int]   # one count per step of the longest sequence
    rows: int            # N


def segment_layout(lengths) -> SegmentLayout:
    """The layout of sequences with these row counts: one or more, each at least 1."""
    sizes = np.array(lengths, dtype=np.int64)
    if sizes.ndim != 1 or not sizes.size or sizes.min() < 1:
        raise ShapeError(f"segment_layout: lengths {lengths}: need at least one, each >= 1")
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    seq = np.repeat(np.arange(sizes.size), sizes)
    pos = np.arange(seq.size) - offsets[seq]
    slot = np.argsort(-sizes, kind="stable").argsort()  # the inverse of the longest-first order
    running = np.bincount(sizes)[:0:-1].cumsum()[::-1].tolist()  # [t]: how many exceed t
    return SegmentLayout(lengths=sizes, offsets=offsets, seq=seq, pos=pos, slot=slot,
                         running=running, rows=seq.size)


def segment_sum(a: Tensor, layout: SegmentLayout) -> Tensor:
    """Row block j of the (N x d) ``a`` summed to row j of a (B x d) result."""
    ad = a.data
    if ad.ndim != 2 or ad.shape[0] != layout.rows:
        _shape_fail("segment_sum", ad.shape, f"{layout.rows} layout rows")
    out = np.add.reduceat(ad, layout.offsets[:-1], axis=0)
    return _make(out, (a,), lambda g: (np.repeat(g, layout.lengths, axis=0),), "segment_sum")


def segment_softmax(a: Tensor, layout: SegmentLayout) -> Tensor:
    """Softmax of the (N,) vector ``a`` within each sequence's block of entries."""
    ad = a.data
    if ad.ndim != 1 or ad.shape[0] != layout.rows:
        _shape_fail("segment_softmax", ad.shape, f"{layout.rows} layout rows")
    lengths, starts = layout.lengths, layout.offsets[:-1]
    e = np.exp(ad - np.repeat(np.maximum.reduceat(ad, starts), lengths))
    out = e / np.repeat(np.add.reduceat(e, starts), lengths)

    def backward(g):
        dot = np.repeat(np.add.reduceat(g * out, starts), lengths)
        return ((g - dot) * out,)

    return _make(out, (a,), backward, "segment_softmax")


def scale_rows(a: Tensor, w: Tensor) -> Tensor:
    """Row i of the (N x d) ``a`` times entry i of the (N,) vector ``w``."""
    ad, wd = a.data, w.data
    if ad.ndim != 2 or wd.shape != (ad.shape[0],):
        _shape_fail("scale_rows", ad.shape, wd.shape)
    wc = wd[:, None]

    def backward(g):
        return g * wc, (g * ad).sum(axis=1)

    return _make(ad * wc, (a, w), backward, "scale_rows")


@dataclass
class SparseMatrix:
    """A constant ``shape`` matrix given by its entries: ``value[e]`` at ``(row[e], col[e])``.

    Entries may come in any order; a repeated position sums.
    """

    row: np.ndarray
    col: np.ndarray
    value: np.ndarray
    shape: tuple[int, int]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The dense matrix, so that ``np.asarray(m)`` reads it."""
        out = np.zeros(self.shape, dtype=dtype)
        np.add.at(out, (self.row, self.col), self.value)
        return out


def _sum_entries(keys: np.ndarray, others: np.ndarray, value: np.ndarray, n_out: int,
                 x: np.ndarray) -> np.ndarray:
    """Row k of the (n_out x d) result sums ``value[e] * x[others[e]]`` over the entries keyed k.

    The entries are sorted by key, stably, and each row's terms are added in
    entry order by one ``np.add.reduceat``; a row no entry reaches is zero.
    """
    order = keys.argsort(kind="stable")
    keys = keys[order]
    terms = x[others[order]]
    terms *= value[order, None]
    first = np.empty(keys.size, dtype=bool)  # where each key's run of entries begins
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = first.nonzero()[0]
    if starts.size == n_out and n_out:  # every row has an entry
        return np.add.reduceat(terms, starts, axis=0)
    out = np.zeros((n_out, x.shape[1]))
    if starts.size:
        out[keys[starts]] = np.add.reduceat(terms, starts, axis=0)
    return out


def sparse_matmul(m: SparseMatrix, x: Tensor, transpose: bool = False) -> Tensor:
    """The constant sparse ``m`` (or its transpose) times the matrix ``x``, as one node.

    Work and memory scale with the number of entries, not with ``m.shape``.
    Backward applies the other orientation to the incoming gradient.
    """
    xd = x.data
    n_out, n_in = m.shape[::-1] if transpose else m.shape
    if xd.ndim != 2 or xd.shape[0] != n_in:
        _shape_fail("sparse_matmul", m.shape, xd.shape)
    keys, others = (m.col, m.row) if transpose else (m.row, m.col)
    return _make(_sum_entries(keys, others, m.value, n_out, xd), (x,),
                 lambda g: (_sum_entries(others, keys, m.value, n_in, g),), "sparse_matmul")


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, layout: SegmentLayout) -> Tensor:
    """Multi-head softmax(q_h k_h^T / sqrt(d_k)) v_h within each sequence, as one node.

    Columns ``h*d_k:(h+1)*d_k`` of ``q`` and ``k`` are head h, and so are
    columns ``h*d_v:(h+1)*d_v`` of ``v`` and of the result, the heads' outputs
    side by side. Query i attends only to the keys of its own sequence, so no
    N x N score matrix exists: the scores are a (B x heads x n_max x n_max)
    stack padded per sequence, with the padded keys at -inf. One sequence is
    read through views, without padding. ``q``, ``k`` and ``v`` always have
    the layout's rows.
    """
    qd, kd, vd = q.data, k.data, v.data
    if (qd.ndim != 2 or kd.ndim != 2 or vd.ndim != 2 or qd.shape[1] != kd.shape[1]
            or not qd.shape[0] == kd.shape[0] == vd.shape[0] == layout.rows or heads < 1
            or qd.shape[1] % heads or vd.shape[1] % heads):
        _shape_fail("attention", qd.shape, kd.shape, vd.shape, f"{heads} heads, {layout.rows} rows")
    c = 1.0 / np.sqrt(qd.shape[1] // heads)
    lengths, n_max = layout.lengths, len(layout.running)
    # row r sits at position pos[r] of block seq[r]; one sequence's block is a view
    rows = None if lengths.size == 1 else (layout.seq, layout.pos)

    def split(a):
        """(N x heads*d) rows as a (B x heads x n x d) stack, padded when B > 1."""
        if rows is None:
            block = a[None]
        else:
            block = np.zeros((lengths.size, n_max, a.shape[1]))
            block[rows] = a
        return block.reshape(*block.shape[:2], heads, a.shape[1] // heads).transpose(0, 2, 1, 3)

    def merge(stack):
        """The inverse of split: back to N x heads*d rows."""
        block = stack.transpose(0, 2, 1, 3)
        block = block[0] if rows is None else block[rows]
        return block.reshape(block.shape[0], -1)

    qp, kp, vp = split(qd), split(kd), split(vd)
    scores = (qp @ kp.swapaxes(2, 3)) * c
    if rows is not None:
        # padded keys get -inf, so their weight is exactly zero
        scores += np.where(np.arange(n_max) < lengths[:, None], 0.0, -np.inf)[:, None, None, :]
    e = np.exp(scores - scores.max(axis=3, keepdims=True))
    weights = e / e.sum(axis=3, keepdims=True)

    def backward(g):
        gp = split(g)
        dw = gp @ vp.swapaxes(2, 3)
        ds = (dw - (dw * weights).sum(axis=3, keepdims=True)) * weights * c
        return merge(ds @ kp), merge(ds.swapaxes(2, 3) @ qp), merge(weights.swapaxes(2, 3) @ gp)

    return _make(merge(weights @ vp), (q, k, v), backward, "attention")


def lstm(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor, layout: SegmentLayout,
         reverse: bool = False) -> Tensor:
    """One LSTM direction over each sequence's rows of ``x``, from zero states, as one node.

    ``x`` holds B sequences stacked row-wise as ``layout`` says.
    Gate columns of ``wx`` (d_in x 4*d_h), ``wh`` (d_h x 4*d_h) and ``b``
    are ordered i, f, g, o. The input projection ``x @ wx`` of every row is
    one GEMM; step t then forms its pre-activation as
    ``(x_t wx + h_{t-1} wh) + b`` and updates

        c_t = f * c_{t-1} + i * g,    h_t = o * tanh(c_t)

    with sigmoid i, f, o and tanh g. With ``reverse`` each sequence is read
    last row to first. Row r of the (N x d_h) result is always the state
    after reading row r of ``x``. A non-finite pre-activation at any step
    raises :class:`NonFiniteError`, even where a saturated gate would hide it.

    The recurrence runs over a time-major (n_max x B) padded block whose
    slots hold the sequences longest first (``layout.slot``), so the
    sequences still running at step t are a prefix of slots and each step is
    one ``h[:k] @ wh`` GEMM on views. One sequence needs no padding: its block is a view of
    the projected rows.

    Backward runs BPTT in numpy to get dZ, the (N x 4*d_h) gradient of every
    step's pre-activation, and returns dx = dZ wx^T, dwx = x^T dZ,
    dwh = H_prev^T dZ (H_prev holds each step's incoming state) and
    db = dZ summed over steps.
    """
    xd, wxd, whd, bd = x.data, wx.data, wh.data, b.data
    d_h = whd.shape[0]
    if (xd.ndim != 2 or xd.shape[0] != layout.rows or whd.shape != (d_h, 4 * d_h)
            or wxd.shape != (xd.shape[1], 4 * d_h) or bd.shape != (4 * d_h,)):
        _shape_fail("lstm", xd.shape, wxd.shape, whd.shape, bd.shape, f"{layout.rows} layout rows")
    n_seq, n_max = layout.lengths.size, len(layout.running)
    if n_seq == 1:
        index = None
        active = [0] * n_max  # an integer index keeps the steps on 1-d rows and GEMVs
    else:
        # step t of a sequence is its row t, or its row (length - 1 - t) when reading in reverse
        step = layout.lengths[layout.seq] - 1 - layout.pos if reverse else layout.pos
        index = step * n_seq + layout.slot[layout.seq]
        active = [slice(0, k) for k in layout.running]

    def to_block(rows):
        if index is None:
            return (rows[::-1] if reverse else rows)[:, None]
        block = np.zeros((n_max * n_seq, rows.shape[1]))
        block[index] = rows
        return block.reshape(n_max, n_seq, rows.shape[1])

    def to_rows(block):
        if index is None:
            return block[::-1, 0] if reverse else block[:, 0]
        return block.reshape(-1, block.shape[2])[index]

    z = to_block(xd @ wxd)
    gates = np.zeros((n_max, n_seq, 4 * d_h))
    # step 0 of the state buffers is the zero initial state, step t + 1 the state after step t
    c = np.zeros((n_max + 1, n_seq, d_h))
    h = np.zeros((n_max + 1, n_seq, d_h))
    tanh_c = np.zeros((n_max, n_seq, d_h))
    with np.errstate(over="ignore"):
        for t, k in enumerate(active):
            zt = z[t, k]
            zt += h[t, k] @ whd
            zt += bd
            # sigmoid of the whole row, then tanh over the g columns
            gt = _sigmoid(zt, out=gates[t, k])
            np.tanh(zt[..., 2 * d_h:3 * d_h], out=gt[..., 2 * d_h:3 * d_h])
            c[t + 1, k] = (gt[..., d_h:2 * d_h] * c[t, k]
                           + gt[..., :d_h] * gt[..., 2 * d_h:3 * d_h])
            tanh_c[t, k] = np.tanh(c[t + 1, k])
            h[t + 1, k] = gt[..., 3 * d_h:] * tanh_c[t, k]
    if not np.isfinite(z).all():
        raise NonFiniteError("lstm: non-finite gate pre-activation")

    def backward(grad):
        gs = to_block(grad)
        i, f, g, o = (gates[:, :, k * d_h:(k + 1) * d_h] for k in range(4))
        # per-step factors: d(pre-activation) of i, f, g from dc; of o and dc from dh
        dc_to_dz = np.stack([g * i * (1.0 - i), c[:-1] * f * (1.0 - f), i * (1.0 - g * g)],
                            axis=2)
        dh_to_dz_o = tanh_c * o * (1.0 - o)
        dh_to_dc = o * (1.0 - tanh_c * tanh_c)
        dz_gates = np.zeros((n_max, n_seq, 4, d_h))
        dz = dz_gates.reshape(n_max, n_seq, 4 * d_h)
        dh_next = np.zeros((n_seq, d_h))
        dc_next = np.zeros((n_seq, d_h))
        for t in range(n_max - 1, -1, -1):
            k = active[t]
            dh = gs[t, k] + dh_next[k]
            dc = dh * dh_to_dc[t, k] + dc_next[k]
            dz_gates[t, k, :3] = dc[..., None, :] * dc_to_dz[t, k]
            dz_gates[t, k, 3] = dh * dh_to_dz_o[t, k]
            dc_next[k] = dc * f[t, k]
            dh_next[k] = whd @ dz[t, k] if index is None else dz[t, k] @ whd.T
        dz_rows = to_rows(dz)
        return (dz_rows @ wxd.T, xd.T @ dz_rows, to_rows(h[:-1]).T @ dz_rows,
                dz_rows.sum(axis=0))

    return _make(to_rows(h[1:]), (x, wx, wh, b), backward, "lstm")


# ---------------------------------------------------------------------------
# backward pass

def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        nid = id(node)
        if nid in visited:
            continue
        visited.add(nid)
        stack.append((node, True))
        for parent in node._parents:
            # leaves take their gradients as they arrive, so only ops are ordered
            if parent._backward_fn is not None and id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def _check_finite(g: np.ndarray) -> None:
    if not np.isfinite(g).all():
        raise NonFiniteError("backward: produced non-finite gradient")


def _last_readers(order: list[Tensor]) -> list[list[Tensor]]:
    """For each node of ``order``, the leaves requiring grad that no later node reads."""
    last: dict[Tensor, int] = {}
    for i, node in enumerate(order):
        for parent in node._parents:
            if parent.requires_grad and parent._backward_fn is None:
                last[parent] = i
    complete: list[list[Tensor]] = [[] for _ in order]
    for leaf, i in last.items():
        complete[i].append(leaf)
    return complete


def backward(loss: Tensor, on_leaf=None) -> None:
    """Walk the tape of ``loss`` once, giving each reachable leaf that requires grad d(loss)/d(leaf).

    Each gradient reaching a leaf is added into an accumulator as it
    arrives; from a zero start that is bit-identical to summing first and
    adding once. Intermediate tensors and a root that does not require grad
    get no gradient.

    Without ``on_leaf`` the accumulator is the leaf's ``.grad``, and repeated
    calls keep adding into it: zero grads between them.

    With ``on_leaf`` each leaf's accumulator is a copy of its first
    contribution, handed over as ``on_leaf(leaf, grad)`` right after the
    last node reading the leaf has run, and then dropped. No node left on
    the walk reads the leaf, so ``on_leaf`` may change ``grad`` and update
    the leaf's data in place. ``.grad`` is left alone, except that a table
    :func:`gather_rows` reads (it must have no other reader) is handed its
    ``.grad``, zeroed again once ``on_leaf`` returns. A leaf the walk never
    reaches is not handed over.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if loss._backward_fn is None:  # the root is itself a leaf
        if loss.requires_grad:
            if on_leaf is None:
                loss.grad += 1.0
            else:
                on_leaf(loss, np.ones(()))
        return
    order = _toposort(loss)
    complete = [()] * len(order) if on_leaf is None else _last_readers(order)
    # Totals of intermediate tensors, and with on_leaf those of leaves, propagate
    # through a local map so that stale values from a previous pass can never leak in.
    pending: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
    for node, leaves in zip(order, complete):
        g = pending.pop(id(node))
        _check_finite(g)
        for parent, pg in zip(node._parents, node._backward_fn(g)):
            if not parent.requires_grad or pg is None:
                continue
            key = id(parent)
            prev = pending.get(key)
            if parent._backward_fn is not None:
                pending[key] = pg if prev is None else prev + pg
                continue
            _check_finite(pg)
            if on_leaf is None:
                parent.grad += pg
            elif prev is None:  # a copy: add's backward hands one array to both its parents
                pending[key] = pg + 0.0
            else:
                prev += pg
        for leaf in leaves:
            grad = pending.pop(id(leaf), None)
            if grad is not None:
                on_leaf(leaf, grad)
            else:  # gather_rows added into the leaf's .grad itself
                on_leaf(leaf, leaf.grad)
                leaf.grad.fill(0.0)


# ---------------------------------------------------------------------------
# parameter registry

class ParameterStore:
    """Ordered name -> trainable Tensor registry."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self._no_decay: set[str] = set()

    def add(self, name: str, data, no_decay: bool = False) -> Tensor:
        """Register ``data``; a float64 array is kept without a copy and updated in place."""
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True)
        self._tensors[name] = t
        if no_decay:
            self._no_decay.add(name)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def items(self):
        return self._tensors.items()

    def tensors(self) -> list[Tensor]:
        return list(self._tensors.values())

    def decayed_items(self):
        """Parameters participating in the L2 penalty (biases are exempt)."""
        return [(n, t) for n, t in self._tensors.items() if n not in self._no_decay]

    def zero_grads(self) -> None:
        for t in self._tensors.values():
            t.zero_grad()

    @contextmanager
    def frozen(self):
        """A scope in which no parameter requires grad, so operations record no tape.

        Each parameter's previous ``requires_grad`` comes back on exit, also
        when the scope raises; ``.grad`` accumulators are left untouched.
        """
        previous = [(t, t.requires_grad) for t in self._tensors.values()]
        for t, _ in previous:
            t.requires_grad = False
        try:
            yield
        finally:
            for t, flag in previous:
                t.requires_grad = flag

    def state_dict(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self._tensors.items()}

    def check_names(self, names) -> None:
        """Raise a ValueError unless ``names`` are exactly the parameter names."""
        missing = set(self._tensors) - set(names)
        extra = set(names) - set(self._tensors)
        if missing or extra:
            raise ValueError(f"state mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}")

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy ``state`` into the parameter arrays; on any mismatch nothing is copied."""
        self.check_names(state)
        arrays = {name: np.asarray(state[name], dtype=np.float64) for name in self._tensors}
        for name, t in self._tensors.items():
            if arrays[name].shape != t.data.shape:
                raise ShapeError(
                    f"parameter {name!r}: shape {arrays[name].shape} != {t.data.shape}")
        for name, t in self._tensors.items():
            np.copyto(t.data, arrays[name])


# ---------------------------------------------------------------------------
# finite-difference oracle

@dataclass
class FiniteDiffReport:
    """Outcome of a finite-difference gradient check."""

    max_rel_error: float
    checked: int
    skipped: list[tuple[int, int]] = field(default_factory=list)


def finite_diff_check(fn, inputs: list[Tensor], eps: float,
                      outside_tape=None) -> FiniteDiffReport:
    """Compare analytic gradients of ``fn(*inputs)`` against central differences.

    The analytic gradient of an input is what backward gives it, plus its
    entry of ``outside_tape`` if given: one array (or 0.0) per input for a
    term of ``fn`` whose gradient is added off the tape, such as the L2
    penalty's, which the optimizer adds. A coordinate is excluded from the maximum and reported in ``skipped``
    instead of failing when the two probes put some element of a relu or
    clamp_min input on different sides of its kink: a difference across a
    kink measures no derivative. The relative error per coordinate is
    |analytic - numeric| / max(1, |analytic|).
    """
    out = fn(*inputs)
    if out.data.shape != ():
        raise ShapeError("finite_diff_check: fn must return a scalar tensor")
    for t in inputs:
        t.zero_grad()
    backward(out)
    analytic = [t.grad.copy() for t in inputs]
    for a, extra in zip(analytic, outside_tape or ()):
        a += extra

    max_err = 0.0
    checked = 0
    skipped: list[tuple[int, int]] = []
    for i, t in enumerate(inputs):
        flat = t.data.flat  # writes through, whatever the array's strides
        for c in range(t.data.size):
            orig = flat[c]
            f, sides = [], []
            for value in (orig + eps, orig - eps):
                flat[c] = value
                probe = fn(*inputs)
                f.append(float(probe.data))
                # the side masks of the probe's relu and clamp_min nodes, in tape order
                sides.append([n._kink for n in _toposort(probe) if n._kink is not None])
            flat[c] = orig
            if len(sides[0]) != len(sides[1]) or not all(map(np.array_equal, *sides)):
                skipped.append((i, c))
                continue
            numeric = (f[0] - f[1]) / (2.0 * eps)
            a = analytic[i].reshape(-1)[c]
            checked += 1
            max_err = max(max_err, abs(a - numeric) / max(1.0, abs(a)))
    return FiniteDiffReport(max_rel_error=max_err, checked=checked, skipped=skipped)

