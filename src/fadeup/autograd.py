"""Reverse-mode differentiation over the NCHW primitives.

A forward pass records a graph of :class:`Node` objects; the graph of
their :class:`Record` entries reachable from the loss is the tape.
:func:`backward` replays it in exact reverse topological order,
accumulating gradients additively into ``node.grad``.  Leaves wrapped
explicitly in :class:`Node` are the trainable parameters; plain ndarrays
flowing through the same ops are treated as constants.  That lets the
upsampling pipelines be written once and used both for inference and for
training.

The tape rule: every op computes its forward and returns
``_emit(out, [(input, vjp), ...])``.  :func:`_emit` alone decides whether
to record; when no input is a Node it returns ``out`` itself, a bare
ndarray.  Work that only a gradient needs lives inside the VJPs, so an
untaped call does none of it.

The tape keeps what the VJPs read, nothing more.  A record links its
parents' records, not their Nodes, so an output's data stays alive only
while the caller holds its Node or a VJP closure reads it; a VJP that
needs only a shape captures the shape.  A VJP rebuilds a derived buffer
it needs (a convolution's shifted copy, the reassembly windows, a
log-softmax) instead of holding it from forward to backward.  And only
leaves keep ``.grad``: :func:`backward` drops an interior record's
gradient once it has passed it on.

:func:`backward` consumes the tape: it releases each record's VJPs, and
the forward arrays only they read, once they have run, so the tape
shrinks as the pass walks back and a graph is backpropagated once.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import ShapeError, check_nchw


class DivergenceError(RuntimeError):
    """Raised when non-finite gradients reach the optimizer."""


class Record:
    """A node's entry on the tape: its gradient and what backward needs to
    pass it on, but not its data.

    The VJP contract: a VJP returns either a view of its gradient or an
    array nobody else keeps.  So a result that is neither the gradient
    nor a view is the VJP's to give away, and the first :meth:`accumulate`
    keeps it as the gradient when it has the record's shape and dtype;
    any other first gradient is added into zeros of ``shape`` and
    ``dtype``.  The hand-off rule: a child's gradient that :func:`backward`
    gives up is kept the same way by the parent whose VJP, the last to
    run, returns it unchanged (see :func:`_record`).  Either way no two
    records share a gradient array.

    ``_backprop`` is None on a leaf, the record's VJPs on an interior
    record, and :func:`_consumed` once :func:`backward` has released
    them; ``_parents`` stays, so a consumed graph can still be walked."""

    __slots__ = ("grad", "name", "shape", "dtype", "_parents", "_backprop")

    def __init__(self, shape, dtype, parents=(), backprop=None, name=None):
        self.grad = None
        self.name = name
        self.shape, self.dtype = shape, dtype
        self._parents = tuple(parents)
        self._backprop = backprop

    def accumulate(self, g, owned=False):
        """Add ``g`` to the gradient; ``owned`` says nobody else keeps ``g``."""
        if self.grad is None:
            if owned and g.shape == self.shape and g.dtype == self.dtype:
                self.grad = g
                return
            self.grad = np.zeros(self.shape, self.dtype)
        self.grad += g


class Node:
    """A value in the recorded graph: its data and its tape :class:`Record`,
    which holds the accumulated grad and the parents' records."""

    __slots__ = ("data", "record")

    def __init__(self, data, name=None, record=None):
        self.data = np.asarray(data)
        if record is None:
            record = Record(self.data.shape, self.data.dtype, name=name)
        self.record = record

    @property
    def grad(self):
        return self.record.grad

    @grad.setter
    def grad(self, g):
        self.record.grad = g

    @property
    def name(self):
        return self.record.name

    @property
    def _backprop(self):
        return self.record._backprop

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        tag = self.name or "node"
        return f"Node({tag}, shape={self.data.shape}, dtype={self.data.dtype})"


def value_of(x):
    """Underlying ndarray of a Node, or the input itself."""
    return x.data if isinstance(x, Node) else x


def _record(shape, dtype, pairs, name=None):
    """The tape record of a result of ``shape`` and ``dtype`` from its
    (parent, vjp) pairs, or None when no parent is taped.  A parent is
    taped when it is a Node or a Record, the record of a value whose data
    nobody keeps (a convolution's compressed input); any other parent is a
    constant and is dropped.

    Each vjp maps the output gradient g to its parent's share and keeps
    the :class:`Record` contract: it returns a view of g or an array
    nobody else keeps.  Backprop runs the vjps in pair order, and a
    parent's first gradient is the vjp's own array when that is neither
    g nor a view.  ``backprop(g, own=True)`` says the caller gives g up,
    as :func:`backward` does; then a last vjp that returns g itself hands
    g on, as no later vjp reads it, and a parent with no gradient yet
    takes g instead of a copy.  g += 0.0 runs first, so the parent holds
    the bits that zeros + g would give (-0.0 becomes 0.0).  An op saves
    that copy by listing its pass-through parent last (add's b,
    add_nearest_x2's hi)."""
    links = [
        (p.record if isinstance(p, Node) else p, vjp)
        for p, vjp in pairs
        if isinstance(p, (Node, Record))
    ]
    if not links:
        return None

    def backprop(g, own=False):
        for i, (r, vjp) in enumerate(links):
            d = vjp(g)
            if d is not g:
                owned = isinstance(d, np.ndarray) and d.base is None
            elif own and i == len(links) - 1:  # no later vjp reads g: hand it on
                g += 0.0  # as zeros + g gives: -0.0 becomes 0.0
                owned = True
            else:
                owned = False
            r.accumulate(d, owned)

    return Record(shape, dtype, [r for r, _ in links], backprop, name)


def _emit(out_data, pairs, name=None):
    """The op's result from its (parent, vjp) pairs (see :func:`_record`):
    ``out_data`` itself when no parent is taped, else a Node of it."""
    record = _record(out_data.shape, out_data.dtype, pairs, name)
    return out_data if record is None else Node(out_data, record=record)


_CONSUMED_MSG = (
    "backward already ran through this graph and released its tape; "
    "run the forward again to get a new graph"
)


def _consumed(g, own=False):
    """The backprop of a record whose VJPs :func:`backward` has released."""
    raise RuntimeError(_CONSUMED_MSG)


def _topo(root: Node):
    """The records reachable from ``root``'s, parents before children."""
    order, seen, stack = [], set(), [(root.record, False)]
    while stack:
        rec, expanded = stack.pop()
        if expanded:
            order.append(rec)
            continue
        if id(rec) in seen:
            continue
        seen.add(id(rec))
        stack.append((rec, True))
        for p in rec._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Node, seed: float = 1.0) -> None:
    """Reverse pass from ``loss``, seeding d(loss)/d(loss) = ``seed``.

    Only leaves keep ``.grad``: an interior record, one with a backprop,
    drops its gradient once it has passed it on to its parents, which
    is the last time the pass reads it.  The pass consumes the graph, as
    PyTorch's default ``retain_graph=False`` does: it releases each
    interior record's VJPs once they have run, or once it skips them
    because no gradient reached the record, which frees every forward
    array only they read.  A later call whose graph reaches a released
    record, the same loss or a new one built on an interior Node of
    this graph, raises RuntimeError before any VJP runs, so no leaf's
    ``.grad`` changes; run the forward again.

    A record's first gradient may be the array a VJP returned (see
    :class:`Record`), or, as backward gives each record's gradient up
    when it passes it on, the child's gradient handed to a last
    pass-through parent (see :func:`_record`).  Either way a leaf's
    ``.grad`` shares memory with no other record's.  A VJP's own first
    gradient of -0.0 stays -0.0; a handed one becomes 0.0, as in a copy
    into zeros.
    """
    if not isinstance(loss, Node):
        raise TypeError("backward needs a recorded Node; run a tracked forward first")
    order = _topo(loss)
    if any(rec._backprop is _consumed for rec in order):
        raise RuntimeError(_CONSUMED_MSG)
    loss.record.accumulate(np.full_like(loss.data, seed), owned=True)
    for rec in reversed(order):
        if rec._backprop is None:
            continue
        if rec.grad is not None:
            g, rec.grad = rec.grad, None
            rec._backprop(g, own=True)
        rec._backprop = _consumed


def zero_grad(nodes) -> None:
    for n in nodes:
        n.grad = None


def grad_of(node: Node) -> np.ndarray:
    return node.grad if node.grad is not None else np.zeros_like(node.data)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------


def add(a, b):
    sa, sb = np.shape(value_of(a)), np.shape(value_of(b))
    out = value_of(a) + value_of(b)
    return _emit(
        out,
        [
            (a, lambda g: _unbroadcast(g, sa)),
            (b, lambda g: _unbroadcast(g, sb)),
        ],
        name="add",
    )


def sub(a, b):
    sa, sb = np.shape(value_of(a)), np.shape(value_of(b))
    out = value_of(a) - value_of(b)
    return _emit(
        out,
        [
            (a, lambda g: _unbroadcast(g, sa)),
            (b, lambda g: _unbroadcast(-g, sb)),
        ],
        name="sub",
    )


def mul(a, b):
    ad, bd = value_of(a), value_of(b)
    out = ad * bd
    return _emit(
        out,
        [
            (a, lambda g: _unbroadcast(g * bd, ad.shape)),
            (b, lambda g: _unbroadcast(g * ad, bd.shape)),
        ],
        name="mul",
    )


def scale(a, s: float):
    out = value_of(a) * s
    return _emit(out, [(a, lambda g: g * s)], name="scale")


def one_minus(a):
    out = 1.0 - value_of(a)
    return _emit(out, [(a, lambda g: -g)], name="one_minus")


def relu(a):
    ad = value_of(a)
    out = np.maximum(ad, 0)
    return _emit(out, [(a, lambda g: g * (ad > 0))], name="relu")


def leaky_relu(a, slope: float = 0.1):
    """For slope > 0 the output has the input's sign mask (a NaN, a -0.0 or
    a negative that underflows to -0.0 is not > 0 either way), so the VJP
    reads the output and the input is not kept for it.  The VJP runs in the
    gradient's dtype, as the forward multiplies by slope in the data's, and
    builds one array: g * slope, with g copied in where the output is > 0."""
    ad = value_of(a)
    out = np.where(ad > 0, ad, slope * ad)

    def vjp(g):
        d = g * slope
        np.copyto(d, g, where=out > 0)
        return d

    return _emit(out, [(a, vjp)], name="leaky_relu")


def sigmoid(a):
    """Elementwise logistic, computed branch-wise so exp never overflows."""
    ad = value_of(a)
    pos = ad >= 0
    s = np.empty_like(ad)
    s[pos] = 1.0 / (1.0 + np.exp(-ad[pos]))
    ex = np.exp(ad[~pos])
    s[~pos] = ex / (1.0 + ex)
    return _emit(s, [(a, lambda g: g * s * (1.0 - s))], name="sigmoid")


def softmax_channel(a, out=None):
    """Softmax over the channel axis, max-subtracted for stability.

    The max-subtracted logits, their exp and the quotient by the sum are
    formed in one array: ``out`` when given (a's shape and dtype), else a
    new one.  ``out`` is untaped only, as the VJP reads the result; a
    Node raises ValueError.
    """
    ad = check_nchw(value_of(a))
    if out is not None:
        if isinstance(a, Node):
            raise ValueError("a taped softmax keeps its result for the gradient; it takes no out")
        if out.shape != ad.shape or out.dtype != ad.dtype:
            raise ShapeError(
                f"softmax out {out.shape} {out.dtype} does not match {ad.shape} {ad.dtype}"
            )
    s = np.subtract(ad, ad.max(axis=1, keepdims=True), out=out)
    np.exp(s, out=s)
    s /= s.sum(axis=1, keepdims=True)

    def vjp(g):
        return s * (g - (g * s).sum(axis=1, keepdims=True))

    return _emit(s, [(a, vjp)], name="softmax_channel")


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------


# the most terms one GEMM sums.  OpenBLAS cuts a deeper inner dimension
# into blocks that depend on its thread count, so the rounding would too
# (OpenBLAS 0.3.31 did so above ~440 f32 or ~380 f64 terms)
_DEPTH = 256


def _gemm(a, b, out=None):
    """a @ b, summed over the inner dimension in slices of at most _DEPTH
    and in slice order, so the result does not depend on BLAS threads."""
    acc = np.matmul(a[..., :_DEPTH], b[..., :_DEPTH, :], out=out)
    for k0 in range(_DEPTH, a.shape[-1], _DEPTH):
        acc += np.matmul(a[..., k0 : k0 + _DEPTH], b[..., k0 : k0 + _DEPTH, :])
    return acc


# the least S a forward strip holds per batch item, in values (256 KiB of
# f32): with 1-row strips, which each pay a dozen NumPy calls again, a
# 12 -> 12 conv's forward at 12^2 took 0.43-0.67 ms, against 0.09-0.14 ms in
# one strip (one BLAS thread).  The VJPs' floor is half of it: their scratch
# comes on top of the tape, and a 12 -> 12 conv's forward and backward at
# 48^2 went from 2.83 to 3.05 ms with it, for 0.36 MiB off the toy training
# step's peak
_STRIP_FLOOR = 1 << 16


def _tap_run(size, lo, tap, count):
    """The grid entries u < count whose plane position u + tap - lo lies in
    [0, size), as (plane slice, grid slice); the others read padding."""
    u0 = min(max(lo - tap, 0), count)
    u1 = max(min(size - tap + lo, count), u0)
    p0 = u0 + tap - lo
    return slice(p0, p0 + u1 - u0), slice(u0, u1)


def _pointwise_vjps(xd, wd, g):
    """``vjp_w`` and ``vjp_x`` of the 1 x 1 conv of the plane xd (n, c, h, w)
    by weights wd (o, c/g, 1, 1) in g groups: each is one GEMM over the
    whole plane, ``vjp_w``'s summed over the batch."""
    n, c = xd.shape[:2]
    o = wd.shape[0]
    wm = wd.reshape(g, o // g, c // g)
    xm = xd.reshape(n, g, c // g, -1)

    def vjp_w(grad):
        dw = np.zeros(wd.shape, np.result_type(grad, xd))
        dwm = dw.reshape(wm.shape)
        dwm += _gemm(grad.reshape(n, g, o // g, -1), xm.swapaxes(2, 3)).sum(axis=0)
        return dw

    def vjp_x(grad):
        dx = np.empty(xd.shape, np.result_type(wd, grad))
        _gemm(wm.swapaxes(1, 2), grad.reshape(n, g, o // g, -1), out=dx.reshape(n, g, c // g, -1))
        return dx

    return vjp_w, vjp_x


def _strips(h, halo, budget, per_row):
    """The strips (y0, m) of h rows for a pass whose scratch holds ``per_row``
    values for each of a strip's m rows and ``halo`` more: as many rows as
    fit ``budget``, and at least one."""
    rows = min(max(budget // per_row - halo, 1), h)
    return [(y0, min(rows, h - y0)) for y0 in range(0, h, rows)]


def _rolling_rows(fill, shape, dtype):
    """A reader of a plane's rows one block at a time, in a buffer of
    ``shape`` (..., size, w): ``read(pr)`` gives plane rows pr, at most
    ``size`` of them, as the buffer's first rows.  The blocks move down the
    plane and each row is made once: the rows a block shares with the one
    before are moved to the front of the buffer, and ``fill(dst, rows)``
    writes the others, plane rows ``rows``, into dst."""
    buf = np.empty(shape, dtype)
    held = slice(0, 0)

    def read(pr):
        nonlocal held
        if pr.start >= pr.stop:  # a block of padding rows only
            return buf[..., :0, :]
        keep = max(held.stop - pr.start, 0)
        buf[..., :keep, :] = buf[..., pr.start - held.start : held.stop - held.start, :]
        if pr.start + keep < pr.stop:
            fill(buf[..., keep : pr.stop - pr.start, :], slice(pr.start + keep, pr.stop))
        held = pr
        return buf[..., : pr.stop - pr.start, :]

    return read


def _compressed_rows(xd, wd, bias, size, dtype):
    """A reader (see :func:`_rolling_rows`) of the 1 x 1 conv wd x + bias of
    the plane xd (n, c, h, w) by weights wd (d, c, 1, 1): ``read(pr)`` gives
    plane rows pr, at most ``size`` of them, as (n, d, rows, w) in
    ``dtype``.  The new rows of a block are one GEMM, :func:`conv1x1`'s
    whole-plane GEMM over fewer columns.  OpenBLAS rounds a GEMM of a few
    hundred columns or fewer with another kernel, so a short block's last
    bits can differ from conv1x1's; like the strips, they depend on the
    shapes alone."""
    n, c, h, w = xd.shape
    d = wd.shape[0]
    wm = wd.reshape(1, d, c)

    def fill(dst, rows):
        _gemm(wm, xd[:, :, rows].reshape(n, 1, c, -1), out=dst.reshape(n, 1, d, -1))
        if bias is not None:
            dst += bias[:, None, None]

    return _rolling_rows(fill, (n, d, size, w), dtype)


def _conv(x, w, bias, k, groups, name, compressor=None):
    """The one convolution, stride 1 with k // 2 zeros of padding on every
    side, so the output has the plane's size: GEMMs over a column-shifted
    copy of its input plane, one strip of output rows at a time.

    The plane is x, or with ``compressor`` (wc, bc) the 1 x 1 conv wc x + bc
    (bc may be None), which is computed row by row as the strips read it
    and never exists in full.  The c plane and o output channels split into
    ``groups`` equal groups, and output group j reads plane group j only.

    The copy S[n, c, j, u, v] holds the zero-padded plane at (u, v + j),
    column tap j < k.  Its grid is (h + halo) x pw, where halo is k - 1
    rows and pw is w plus k - 1 junk columns, and a GEMM result uses the
    same pitch: output (y, x) is flat position y pw + x, and an output with
    x >= w, which reads across a row end, is junk.  Flattened, kernel row i
    is then the view of S at offset i pw.

    The forward, ``vjp_w`` and ``vjp_x`` each walk their own list of
    strips, building S in one reused buffer.  A forward strip (u0, m) holds
    S's grid rows u0 .. u0 + m, so each grid row is built and multiplied
    once.  A backward strip (y0, m) has output rows y0 .. y0 + m and reads
    grid rows y0 .. y0 + m + halo, which hold plane rows pr; ``vjp_x``'s
    fold, the adjoint of building S, adds back onto them.  A compressed
    plane's rows come from :func:`_compressed_rows`, which keeps the rows
    two strips share, so a pass computes each row once.  A pass's strip has
    as many rows as keep its scratch per row within max(o h w, f) values per
    batch item (o h w is the output), where the floor f is _STRIP_FLOOR in
    the forward and half of it in the VJPs; the compressed rows add 1/k of
    S again.  No GEMM shape depends on the batch size, but every buffer
    holds all n items, so the scratch grows linearly with the batch.  The
    forward's scratch is S and the k kernel rows' products, k o m pw
    values per item; ``vjp_w``'s is S and the gradient copied onto S's
    pitch; ``vjp_x``'s is dS and the stack of gradient rows.  A 1 x 1
    kernel with no compressor takes S as x
    itself: one GEMM into the output, and VJPs of one GEMM each
    (:func:`_pointwise_vjps`).

    Per forward strip, batch item and group, one (k o/g, c/g k) @ (c/g k,
    m pw) GEMM gives the products of all k kernel rows.  Grid row u of
    kernel row i is a term of output row u - i, which the strip writes
    into the output (the first term) or adds to it (the others).  An
    output row's terms can come from two strips, but strips run in order
    and add their kernel rows in order, so the k terms sum in row order
    wherever the strips split the grid; a strip's height can still move
    late bits through the GEMM's column count (see :func:`_compressed_rows`).
    ``vjp_w`` builds S again, as the tape holds none, and adds one
    transposed GEMM per kernel row, summed over the batch; the gradient's
    junk columns are zeros.  ``vjp_x`` stacks the strip's gradient rows
    once per kernel row i, shifted down by i rows, so dS is one GEMM with
    inner dimension k o/g; halo rows that two strips share get partial
    sums from each.  Its result, the plane's gradient, is allocated once
    the first strip's stack is freed, and the pairs go to :func:`_emit` as
    (w, bias, plane), so ``vjp_w`` runs before it exists.  A compressed
    plane is a tape :class:`Record` with no data, whose VJPs take its
    gradient on to x, wc and bc as :func:`conv1x1`'s do.  Every product
    goes through :func:`_gemm`.
    """
    xd, wd = value_of(x), value_of(w)
    n, c, h, wid = xd.shape
    pt = xd.dtype  # the plane's dtype
    if compressor is not None:
        wcd, bcd = (value_of(a) for a in compressor)
        c = wcd.shape[0]
        pt = np.result_type(wcd, xd) if bcd is None else np.result_type(wcd, xd, bcd)
    if k % 2 == 0 or min(h, wid) < 1:  # no centre tap, or no output row
        raise ShapeError(f"{name} has no 'same' output dim for k={k} on a {h}x{wid} plane")
    o, g, halo = wd.shape[0], groups, k - 1
    pw = wid + halo
    cols = [_tap_run(wid, k // 2, j, pw) for j in range(k)]
    budget = max(o * h * wid, _STRIP_FLOOR)
    vjp_budget = max(o * h * wid, _STRIP_FLOOR // 2)
    s_row = c * k * pw  # S's values per grid row and batch item

    def walk(part, extra=halo):
        """Each strip (y0, m) of ``part`` with its S on grid rows y0 .. y0 + m +
        ``extra``, (n, g, c/g k, (m + extra) pw); the buffer's padding columns
        are zeroed once, its padding rows per strip."""
        taps = np.zeros((n, c, k, part[0][1] + extra, pw), pt)
        read = (
            (lambda pr: xd[:, :, pr]) if compressor is None
            else _compressed_rows(xd, wcd, bcd, min(part[0][1] + extra, h), pt)
        )
        for y0, m in part:
            pr, ur = _tap_run(h, k // 2, y0, m + extra)
            rows = read(pr)
            for j, (pc, uc) in enumerate(cols):
                t = taps[:, :, j]
                t[..., : ur.start, uc] = t[..., ur.stop :, uc] = 0
                t[..., ur, uc] = rows[..., pc]
            yield y0, m, taps.reshape(n, g, c // g * k, -1)[..., : (m + extra) * pw]

    def shifted(grad, r, y0, m):
        """The gradient's rows y0 .. y0 + m on S's grid once per kernel row
        i < r, shifted i rows down: (n, g, r o/g, (m + halo) pw)."""
        gs = np.zeros((n, g, r, o // g, m + halo, pw), grad.dtype)
        rows = grad.reshape(n, g, o // g, h, wid)[..., y0 : y0 + m, :]
        for i in range(r):
            gs[:, :, i, :, i : i + m, :wid] = rows
        return gs.reshape(n, g, -1, (m + halo) * pw)

    # kernel row i as (g, o/g, c/g k) in S's (channel, column tap) order
    wr = np.ascontiguousarray(
        wd.reshape(g, o // g, c // g, k, k).transpose(3, 0, 1, 2, 4)
    ).reshape(k, g, o // g, c // g * k)

    def vjp_x(grad):
        wt = wr.transpose(1, 3, 0, 2).reshape(g, c // g * k, -1)
        dt = np.result_type(wr, grad)
        part = _strips(h, halo, vjp_budget, s_row + k * o * pw)  # dS and the stack of k gradient copies
        ds = np.empty((n, g, c // g * k, (part[0][1] + halo) * pw), dt)
        dx = None
        for y0, m in part:
            d = ds[..., : (m + halo) * pw]
            _gemm(wt, shifted(grad, k, y0, m), out=d)
            if dx is None:  # allocated once the first strip's stack is freed
                dx = np.zeros((n, c, h, wid), dt)
            d = d.reshape(n, c, k, m + halo, pw)
            pr, ur = _tap_run(h, k // 2, y0, m + halo)
            for j, (pc, uc) in enumerate(cols):
                dx[:, :, pr, pc] += d[:, :, j, ur, uc]
        return dx

    def vjp_w(grad):
        dw = np.zeros(wd.shape, np.result_type(grad, pt))
        dwr = dw.reshape(g, o // g, c // g, k, k)
        part = _strips(h, halo, vjp_budget, s_row + o * pw)  # S and the gradient on its pitch
        for y0, m, taps in walk(part):
            gm = shifted(grad, 1, y0, m)[..., : m * pw]
            for i in range(k):
                ti = taps[..., i * pw : (i + m) * pw]
                dwr[:, :, :, i] += _gemm(gm, ti.swapaxes(2, 3)).sum(axis=0).reshape(dwr.shape[:4])
        return dw

    def vjp_b(grad):
        return grad.sum(axis=(0, 2, 3))

    out = np.empty((n, o, h, wid), np.result_type(wr, pt))
    if k == 1 and compressor is None:  # nothing sums: one GEMM from the plane into the output
        _gemm(wr[0], xd.reshape(n, g, c // g, -1), out=out.reshape(n, g, o // g, -1))
        vjp_w, vjp_x = _pointwise_vjps(xd, wd, g)  # and one GEMM each, with no strips
    else:
        # the k kernel rows stacked as (g, k o/g, c/g k)
        wk = wr.swapaxes(0, 1).reshape(g, -1, c // g * k)
        # strips of grid rows, each with S and the k kernel rows' products
        fwd = _strips(h + halo, 0, budget, s_row + k * o * pw)
        prod = np.empty(n * k * o * fwd[0][1] * pw, out.dtype)
        out5 = out.reshape(n, g, o // g, h, wid)
        for u0, m, taps in walk(fwd, 0):
            p = prod[: n * k * o * m * pw].reshape(n, g, k * o // g, m * pw)
            _gemm(wk, taps, out=p)
            terms = p.reshape(n, g, k, o // g, m, pw)[..., :wid]
            for i in range(k):  # grid row u of kernel row i adds to output row u - i
                y0, y1 = max(u0 - i, 0), min(u0 + m - i, h)
                if y0 >= y1:
                    continue
                term, dst = terms[:, :, i, :, y0 + i - u0 : y1 + i - u0], out5[..., y0:y1, :]
                if i == 0:  # every output row's first term
                    dst[...] = term
                else:
                    dst += term
    if bias is not None:
        bd = value_of(bias)[None, :, None, None]
        out = np.add(out, bd, out=out if np.result_type(out, bd) == out.dtype else None)

    plane = x
    if compressor is not None:
        cw, cx = _pointwise_vjps(xd, wcd, 1)
        pairs = [(compressor[0], cw), (compressor[1], vjp_b), (x, cx)]
        plane = _record((n, c, h, wid), pt, pairs, name="compress")
    return _emit(out, [(w, vjp_w), (bias, vjp_b), (plane, vjp_x)], name=name)


def _plane_channels(x, compressor, name):
    """The channels of the plane a conv reads: x's, or those of the 1 x 1
    ``compressor`` (wc, bc) applied to x first."""
    c = value_of(x).shape[1]
    if compressor is None:
        return c
    wc, bc = (value_of(a) for a in compressor)
    if wc.ndim != 4 or wc.shape[1:] != (c, 1, 1):
        raise ShapeError(f"{name} compressor weights {wc.shape} are not (d, {c}, 1, 1)")
    if bc is not None and bc.shape != wc.shape[:1]:
        raise ShapeError(f"{name} compressor bias {bc.shape} does not match {wc.shape[:1]}")
    return wc.shape[0]


def conv2d(x, w, bias=None, compressor=None):
    """Dense cross-correlation, "same" padding; w is (out, in, k, k), bias
    (out,) or None.  ``compressor`` (wc, bc), weights (in, c, 1, 1) and
    bias (in,) or None, maps x's c channels to the in it convolves first,
    inside the convolution's strips (see :func:`_conv`)."""
    wd = value_of(w)
    c = _plane_channels(x, compressor, "conv2d")
    if c != wd.shape[1]:
        raise ShapeError(
            f"conv2d channel mismatch: input has {c}, "
            f"weights expect {wd.shape[1]}"
        )
    return _conv(x, w, bias, wd.shape[2], 1, "conv2d", compressor)


def conv2d_depthwise(x, w, bias=None, compressor=None):
    """Per-channel convolution, "same" padding; w is (c, 1, k, k), the
    grouped layout of c groups of one channel, bias (c,) or None, and
    ``compressor`` as for :func:`conv2d`."""
    wd = value_of(w)
    c = _plane_channels(x, compressor, "dwconv2d")
    if wd.ndim != 4 or wd.shape[:2] != (c, 1):
        raise ShapeError(
            f"depthwise channel mismatch: input has {c}, "
            f"weights {wd.shape} are not ({c}, 1, k, k)"
        )
    return _conv(x, w, bias, wd.shape[2], c, "dwconv2d", compressor)


def conv1x1(x, w, bias=None):
    """Per-pixel channel map; w is (o, c, 1, 1), bias (o,) or None."""
    xd, wd = value_of(x), value_of(w)
    if wd.shape[2] != 1 or wd.shape[3] != 1:
        raise ShapeError(f"conv1x1 requires k=1 weights, got {wd.shape[2:]}")
    if xd.shape[1] != wd.shape[1]:
        raise ShapeError(
            f"conv1x1 channel mismatch: input has {xd.shape[1]}, "
            f"weights expect {wd.shape[1]}"
        )
    return _conv(x, w, bias, 1, 1, "conv1x1")


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------


def _window_sum(g):
    """Each 2x2 window's sum of g, pairs first: the order that
    reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)) takes when w > 1."""
    return (g[..., 0::2, 0::2] + g[..., 0::2, 1::2]) + (g[..., 1::2, 0::2] + g[..., 1::2, 1::2])


def interp_nearest_x2(x):
    """x2 nearest-neighbour: output (i, j) copies input (i//2, j//2)."""
    out = np.repeat(np.repeat(check_nchw(value_of(x)), 2, axis=2), 2, axis=3)
    return _emit(out, [(x, _window_sum)], name="nn_x2")


def add_nearest_x2(hi, lo):
    """hi + interp_nearest_x2(lo), bit for bit, without the expansion: lo
    (n, c, h, w) is added into each 2x2 phase of hi (n, c, 2h, 2w).  lo's
    gradient is the nearest-x2 VJP, each 2x2 window's sum."""
    hd, ld = value_of(hi), value_of(lo)
    n, c, h, w = ld.shape
    if hd.shape != (n, c, 2 * h, 2 * w):
        raise ShapeError(f"add_nearest_x2 needs hi {hd.shape} at twice lo {ld.shape}")
    out = np.empty(hd.shape, np.result_type(hd, ld))
    for r, s in _PHASES:
        np.add(hd[..., r::2, s::2], ld, out=out[..., r::2, s::2])
    return _emit(out, [(lo, _window_sum), (hi, lambda g: g)], name="add_nearest_x2")


def _bilinear_axis(size: int, align_corners: bool, dtype) -> tuple:
    """Source indices and blend weights for one doubled axis."""
    out = 2 * size
    idx = np.arange(out, dtype=dtype)
    if align_corners:
        src = idx * ((size - 1) / (out - 1)) if out > 1 else np.zeros(1, dtype)
    else:
        src = np.clip((idx + 0.5) / 2.0 - 0.5, 0.0, size - 1)
    lo = np.floor(src).astype(np.int64)
    lo = np.clip(lo, 0, size - 1)
    hi = np.minimum(lo + 1, size - 1)
    t = (src - lo).astype(dtype)
    return lo, hi, t


def interp_bilinear_x2(x, align_corners: bool = False):
    """x2 bilinear resize; half-pixel centers unless align_corners."""
    xd = check_nchw(value_of(x))
    (n, c, h, w), dtype = xd.shape, xd.dtype
    y0, y1, ty = _bilinear_axis(h, align_corners, dtype)
    x0, x1, tx = _bilinear_axis(w, align_corners, dtype)
    rows = xd[:, :, :, x0] * (1 - tx) + xd[:, :, :, x1] * tx
    out = rows[:, :, y0, :] * (1 - ty)[None, None, :, None] + rows[:, :, y1, :] * ty[
        None, None, :, None
    ]
    out = out.astype(dtype, copy=False)

    def vjp(g):
        # adjoint of the separable gather: scatter along rows, then cols
        drows = np.zeros((n, c, h, 2 * w), dtype=g.dtype)
        gy = g.transpose(2, 0, 1, 3)
        dr = drows.transpose(2, 0, 1, 3)
        np.add.at(dr, y0, gy * (1 - ty)[:, None, None, None])
        np.add.at(dr, y1, gy * ty[:, None, None, None])
        dx = np.zeros((n, c, h, w), dtype=g.dtype)
        gx = drows.transpose(3, 0, 1, 2)
        dxt = dx.transpose(3, 0, 1, 2)
        np.add.at(dxt, x0, gx * (1 - tx)[:, None, None, None])
        np.add.at(dxt, x1, gx * tx[:, None, None, None])
        return dx

    return _emit(out, [(x, vjp)], name="bilinear_x2")


def maxpool2x2(x):
    """2x2 max pool.  The gradient of a window goes to its first maximum in
    row-major (r, s) order.  Spatial dims must be even.  A window that
    holds a NaN gives NaN, as ``np.maximum`` propagates it, and has no
    entry equal to its NaN output, so it passes no gradient on."""
    xd = check_nchw(value_of(x))
    h, w = xd.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 needs even spatial dims, got {h}x{w}")
    out = np.maximum(
        np.maximum(xd[..., 0::2, 0::2], xd[..., 0::2, 1::2]),
        np.maximum(xd[..., 1::2, 0::2], xd[..., 1::2, 1::2]),
    )

    def vjp(g):
        d = np.empty(xd.shape, g.dtype)  # the four phases cover it
        free = np.ones(out.shape, bool)  # windows whose maximum is not yet taken
        for r, s in _PHASES:
            hit = free & (xd[..., r::2, s::2] == out)
            d[..., r::2, s::2] = np.where(hit, g, 0)
            free &= ~hit
        return d

    return _emit(out, [(x, vjp)], name="maxpool2x2")


def pixel_shuffle_x2(x):
    """Depth-to-space: out(co, 2y+r, 2x+s) = in(4*co + 2*r + s, y, x)."""
    xd = check_nchw(value_of(x))
    n, c, h, w = xd.shape
    if c % 4:
        raise ShapeError(f"pixel_shuffle_x2 needs channels divisible by 4, got {c}")
    out = (
        xd.reshape(n, c // 4, 2, 2, h, w)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, c // 4, 2 * h, 2 * w)
    )
    return _emit(out, [(x, pixel_unshuffle_x2)], name="pixel_shuffle_x2")


def pixel_unshuffle_x2(x):
    """Exact inverse of :func:`pixel_shuffle_x2`, and so its VJP, in an array
    of its own (not a view or a reshape's copy), so a tape can keep it as a
    gradient."""
    check_nchw(x)
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"pixel_unshuffle_x2 needs even spatial dims, got {h}x{w}")
    out = np.empty((n, 4 * c, h // 2, w // 2), x.dtype)
    phases = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 5, 2, 4)
    out.reshape(n, c, 2, 2, h // 2, w // 2)[...] = phases
    return out


def interleave2x2(tl, tr, bl, br):
    """Weave four (n, c, H, W) phase maps into (n, c, 2H, 2W)."""
    subs = [value_of(s) for s in (tl, tr, bl, br)]
    n, c, h, w = subs[0].shape
    out = np.empty((n, c, 2 * h, 2 * w), dtype=subs[0].dtype)
    for (r, s), sub in zip(_PHASES, subs):
        out[:, :, r::2, s::2] = sub

    def make_vjp(r, s):
        return lambda g: g[:, :, r::2, s::2]

    pairs = [(src, make_vjp(r, s)) for (r, s), src in zip(_PHASES, (tl, tr, bl, br))]
    return _emit(out, pairs, name="interleave2x2")


def concat_channels(a, b):
    ad, bd = value_of(a), value_of(b)
    out = np.concatenate([ad, bd], axis=1)
    ca = ad.shape[1]
    return _emit(
        out,
        [(a, lambda g: g[:, :ca]), (b, lambda g: g[:, ca:])],
        name="concat_channels",
    )


# ---------------------------------------------------------------------------
# reassembly and gated fusion
# ---------------------------------------------------------------------------


_PHASES = ((0, 0), (0, 1), (1, 0), (1, 1))


def _phase_rows(a, rows, dst):
    """Write rows ``rows`` of the phases of a (n, ch, 2h, 2w), the rows 2y and
    2y + 1 of each y in ``rows``, into dst (n, 2, 2, ch, len(rows), w):
    dst[:, p, q, :, y, x] is entry (2y + p, 2x + q)."""
    n, ch, h2, w2 = a.shape
    m = rows.stop - rows.start
    block = a[:, :, 2 * rows.start : 2 * rows.stop].reshape(n, ch, m, 2, w2 // 2, 2)
    dst[...] = block.transpose(0, 3, 5, 1, 2, 4)


def _by_position(a):
    """(n, ch, 2h, 2w) -> view (n, h, w, p, ch, q) of entry (ch, 2y + p, 2x + q)."""
    n, ch, h2, w2 = a.shape
    return a.reshape(n, ch, h2 // 2, 2, w2 // 2, 2).transpose(0, 2, 4, 3, 1, 5)


_BAND = 8  # adjacent decoder positions per reassembly GEMM
_STRIP = 4  # decoder rows per row-shifted copy in the reassembly forward


def _shifted_rows(xd, k, y0, xs):
    """Fill xs[n, c, s, X, dy] with the zero-padded decoder at (y0 + s + dy - K//2, X - K//2).

    ``xs`` is (n, c, rows, w + 2 (K//2), K) and its pad columns must already
    be zero; rows that fall outside the decoder are zeroed here.  In xs the
    K x K window of decoder position (y0 + s, x) is the K^2 consecutive
    entries xs[n, c, s, x : x + K, :] in (dx, dy) order.
    """
    h, w = xd.shape[2:]
    r = k // 2
    rows = xs.shape[2]
    for dy in range(k):
        top = y0 + dy - r  # decoder row read at s = 0
        lo = min(max(-top, 0), rows)
        hi = max(min(h - top, rows), lo)
        xs[:, :, :lo, r : r + w, dy] = 0
        xs[:, :, hi:, r : r + w, dy] = 0
        xs[:, :, lo:hi, r : r + w, dy] = xd[:, :, top + lo : top + hi]
    return xs


def _window_matrices(xs):
    """The row-shifted copy xs (n, c, rows, w + K - 1, K) of :func:`_shifted_rows`
    -> view (n, rows, w, 1, c, K^2) of each of its decoder positions'
    zero-padded K x K window."""
    n, c, rows, wp, k = xs.shape
    return (
        sliding_window_view(xs, k, axis=3)
        .transpose(0, 2, 3, 1, 5, 4)
        .reshape(n, rows, wp - k + 1, 1, c, k * k)
    )


def reassemble(x_de, kernels, k: int, out=None):
    """Gather-and-dot: out(c, i, j) = sum_m kern(m, i, j) * window_m(c, i//2, j//2).

    ``kernels`` has K^2 channels at twice the resolution of ``x_de``; tap m
    addresses window offset (m // K - K//2, m % K - K//2), zero outside.

    ``out``, when given, is the (n, C, 2h, 2w) result array, in the
    result's dtype; it is untaped only, and a Node argument raises
    ValueError.  It must not overlap ``x_de``, but ``kernels`` may be a
    view of any of its channels, e.g. its last K^2: a strip of decoder
    rows copies all of its kernel rows into its band matrices before any
    of its GEMMs writes an output row, and a strip writes only its own
    rows, so each kernel value is read before it is written over.  The
    kernels are then lost.

    Non-finite values: a NaN or inf in decoder row y stays in its batch
    item, its channel and the 2K output rows 2 (y - K//2) .. 2 (y + K//2) + 1
    whose windows reach row y.  Every output whose window holds it is
    non-finite; which other columns of those rows turn NaN is unspecified,
    because the banded GEMM below multiplies neighbouring windows by zero
    and 0 * inf is NaN.
    """
    xd, kd = value_of(x_de), value_of(kernels)
    n, c, h, w = xd.shape
    if kd.shape != (n, k * k, 2 * h, 2 * w):
        raise ShapeError(
            f"kernel map {kd.shape} does not match decoder {xd.shape} with K={k}"
        )
    k2, r = k * k, k // 2
    dtype = np.result_type(xd, kd)
    if out is not None:
        if isinstance(x_de, Node) or isinstance(kernels, Node):
            raise ValueError(
                "a taped reassembly keeps its kernels for the gradient; it takes no out"
            )
        if out.shape != (n, c, 2 * h, 2 * w) or out.dtype != dtype or not out.flags.c_contiguous:
            raise ShapeError(
                f"reassembly out {out.shape} {out.dtype} is not a C-contiguous "
                f"{(n, c, 2 * h, 2 * w)} {dtype} array"
            )
    # One banded GEMM per _BAND adjacent decoder positions x0..x0+B-1 of row
    # y and output row phase p:
    #   (C, K (B+K-1)) @ (K (B+K-1), 2B) -> out[c, 2y+p, 2x0 : 2x0+2B].
    # The left matrix is the K (B+K-1) consecutive entries of the row-shifted
    # copy xs that cover the band's windows, so it is a view.  The right one
    # holds position b's K^2 taps, in xs's (dx, dy) order, at rows
    # K b .. K (b+K) of columns 2b and 2b+1, and zeros elsewhere.  The copy
    # xs exists for one strip of _STRIP decoder rows at a time, and matmul
    # writes each strip straight into its rows of the NCHW output.  The GEMM
    # shapes depend only on w, so results do not depend on batch or height.
    if out is None:
        out = np.empty((n, c, 2 * h, 2 * w), dtype)
    kd7 = kd.reshape(n, k, k, h, 2, w, 2)  # [n, dy, dx, y, p, x, q]
    out5 = out.reshape(n, c, h, 2, 2 * w)
    full = w // _BAND
    groups = [(0, full, _BAND)] if full else []
    if w % _BAND:
        groups.append((full * _BAND, 1, w % _BAND))  # the narrower remainder band
    strip = min(_STRIP, h)
    blocks = [
        np.zeros((n, strip, nb, 2, bw + k - 1, k, bw, 2), dtype) for _, nb, bw in groups
    ]
    xs = np.zeros((n, c, strip, w + 2 * r, k), dtype)
    for y0 in range(0, h, strip):
        rows = min(strip, h - y0)
        # every kernel of the strip is in its band matrix before a GEMM
        # writes the strip's output rows, which may hold the kernels (see out)
        for (x0, nb, bw), block in zip(groups, blocks):
            for b in range(bw):
                block[:, :rows, :, :, b : b + k, :, b, :] = kd7[
                    :, :, :, y0 : y0 + rows, :, x0 + b : x0 + nb * bw : bw, :
                ].transpose(0, 3, 5, 4, 2, 1, 6)
        flat = _shifted_rows(xd, k, y0, xs[:, :, :rows]).reshape(n, c, rows, -1)
        for (x0, nb, bw), block in zip(groups, blocks):
            kb = block[:, :rows]
            span = k * (bw + k - 1)
            win = sliding_window_view(flat[..., k * x0 :], span, axis=3)
            win = win[:, :, :, : k * bw * nb : k * bw].transpose(0, 2, 3, 1, 4)
            dst = out5[:, :, y0 : y0 + rows, :, 2 * x0 : 2 * (x0 + nb * bw)]
            np.matmul(
                win[:, :, :, None],
                kb.reshape(n, rows, nb, 2, span, 2 * bw),
                out=dst.reshape(n, c, rows, 2, nb, 2 * bw).transpose(0, 2, 4, 3, 1, 5),
            )

    # Each VJP walks strips of decoder rows whose scratch stays within half
    # the output per batch item, or a floor.  vjp_x's strip pays each tap's
    # NumPy calls again, so its floor is twice the convolution forward's and
    # a toy net's 24^2 plane is one strip.  vjp_k's pays a handful, so its
    # floor is 2^14 values, a quarter of the forward's, and that plane takes
    # 4-row strips, whose copy and products are under a third of its kernel
    # map.
    budget = max(2 * c * h * w, 2 * _STRIP_FLOOR)

    def vjp_x(g):
        # A tap loop, not the transposed GEMM: that would scatter K^2
        # overlapping windows back onto the decoder, which at toy-training
        # planes is slower and allocates more.  Each tap's four phase products
        # scatter-add onto the part of the decoder that tap read; what it
        # read of the zero padding gets nothing, so dx needs no padded border.
        # It runs by strips of dx rows; a strip's taps read the gradient's
        # phases on the strip's decoder rows and r more on each side, which
        # _rolling_rows reads once each, so every dx entry sums its taps in
        # tap order, whatever the strips.  Each tap copies the phases of its
        # own kernel-map channel on the rows it reads, and no more.
        per_row = (4 * c + 4 + 2 * c) * w  # the gradient's phases, one tap's, part and prod
        part_rows = _strips(h, 2 * r, budget, per_row)
        size = min(part_rows[0][1] + 2 * r, h)
        gph = _rolling_rows(lambda dst, rows: _phase_rows(g, rows, dst), (n, 2, 2, c, size, w), g.dtype)
        kt = np.empty((n, 2, 2, 1, size, w), kd.dtype)
        dxd = np.zeros((n, c, h, w), g.dtype)
        part = np.empty(n * c * part_rows[0][1] * w, g.dtype)  # flat, so each tap's is contiguous
        prod = np.empty_like(part)
        cols = [_tap_run(w, r, dx, w) for dx in range(k)]
        for y0, m in part_rows:
            pr = slice(max(y0 - r, 0), min(y0 + m + r, h))
            gs = gph(pr)
            for t in range(k2):
                dy, dx = divmod(t, k)
                ty, sy = _tap_run(m, r + y0 - pr.start, dy, pr.stop - pr.start)
                tx, sx = cols[dx]
                rows = sy.stop - sy.start
                ks = kt[..., :rows, :]
                _phase_rows(kd[:, t : t + 1], slice(pr.start + sy.start, pr.start + sy.stop), ks)
                count = n * c * rows * w
                pt, pd = part[:count].reshape(n, c, -1, w), prod[:count].reshape(n, c, -1, w)
                np.multiply(gs[:, 0, 0, :, sy], ks[:, 0, 0], out=pt)
                for a, b in _PHASES[1:]:
                    np.multiply(gs[:, a, b, :, sy], ks[:, a, b], out=pd)
                    pt += pd
                dxd[:, :, y0 + ty.start : y0 + ty.stop, tx] += pt[..., sx]
        return dxd

    def vjp_k(g):
        # the transposed GEMM over the same windows: (K^2, C) @ (C, 2), by
        # strips of decoder rows whose row-shifted copy is built as the
        # forward builds it, rather than kept on the tape, which would hold
        # a K-fold copy of the decoder per node until backward.  g takes
        # the window's dtype, as a mixed-dtype matmul would copy the K^2-fold
        # window view to cast it.  Each strip's copy and products go into
        # one buffer each, and the products are then copied into an array
        # in the kernel map's shape and dtype, which the tape keeps as is.
        part = _strips(h, 0, max(2 * c * h * w, _STRIP_FLOOR // 4), c * (w + 2 * r) * k + 4 * k2 * w)
        rows = part[0][1]
        xs = np.zeros((n, c, rows, w + 2 * r, k), dtype)
        dkq = np.empty((n, rows, w, 2, k2, 2), dtype)
        dk = np.empty(kd.shape, kd.dtype)
        for y0, m in part:
            win = _window_matrices(_shifted_rows(xd, k, y0, xs[:, :, :m]))
            gm = np.asarray(g[:, :, 2 * y0 : 2 * (y0 + m)], dtype=dtype)
            np.matmul(win.swapaxes(-1, -2), _by_position(gm), out=dkq[:, :m])
            taps = dkq[:, :m].reshape(n, m, w, 2, k, k, 2).transpose(0, 5, 4, 1, 3, 2, 6)
            dk.reshape(n, k, k, h, 2, w, 2)[:, :, :, y0 : y0 + m] = taps
        return dk

    return _emit(out, [(x_de, vjp_x), (kernels, vjp_k)], name="reassemble")


_BLEND_CHUNK = 16  # channels per chunk of the gate blend


def blend(f_en, f_up, g, *, overwrite_up: bool = False):
    """Convex gate blend f_en * g + f_up * (1 - g); f_en and f_up are
    (n, C, h, w) and g is (n, 1, h, w).

    The blend runs over _BLEND_CHUNK channels at a time, each chunk as
    out = f_up * (1 - g), then out += f_en * g, so no full-size temporary
    exists; each chunk rounds the same two products and the same sum as
    the one-line expression, so the result is equal to it bit for bit.
    ``overwrite_up`` says that the caller gives up f_up, an array that no
    other argument views: the result is written into it when its shape
    and dtype fit, so the blend allocates no output.  The VJPs read f_up,
    so a taped blend cannot overwrite it and raises ValueError.
    """
    fe, fu, gd = value_of(f_en), value_of(f_up), value_of(g)
    if overwrite_up and any(isinstance(a, Node) for a in (f_en, f_up, g)):
        raise ValueError("a taped blend keeps f_up for its gradients; it cannot overwrite it")
    og = 1.0 - gd
    shape = np.broadcast_shapes(fe.shape, fu.shape, gd.shape)
    dtype = np.result_type(fe, fu, gd)
    fits = overwrite_up and fu.shape == shape and fu.dtype == dtype
    out = fu if fits else np.empty(shape, dtype)
    for c0 in range(0, out.shape[1], _BLEND_CHUNK):
        chunk = slice(c0, c0 + _BLEND_CHUNK)
        np.multiply(fu[:, chunk], og, out=out[:, chunk])
        out[:, chunk] += fe[:, chunk] * gd

    def vjp_g(grad):
        # grad (fe - fu) summed over the channels, _BLEND_CHUNK of them at a
        # time and added in channel order, as the full product's sum adds them
        dg = None
        for c0 in range(0, shape[1], _BLEND_CHUNK):
            chunk = slice(c0, c0 + _BLEND_CHUNK)
            d = grad[:, chunk] * (fe[:, chunk] - fu[:, chunk])
            if dg is None:
                dg = d.sum(axis=1, keepdims=True)
                continue
            for i in range(d.shape[1]):
                dg += d[:, i : i + 1]
        return _unbroadcast(dg, gd.shape)

    return _emit(
        out,
        [
            (f_en, lambda grad: grad * gd),
            (f_up, lambda grad: grad * (1.0 - gd)),
            (g, vjp_g),
        ],
        name="blend",
    )


# ---------------------------------------------------------------------------
# reductions and losses
# ---------------------------------------------------------------------------


def sum_all(a):
    ad = value_of(a)
    out = np.asarray(ad.sum(), dtype=ad.dtype)
    return _emit(out, [(a, lambda g: np.full_like(ad, g))], name="sum")


def mean_all(a):
    ad = value_of(a)
    out = np.asarray(ad.mean(), dtype=ad.dtype)
    return _emit(out, [(a, lambda g: np.full_like(ad, g / ad.size))], name="mean")


def mse_loss(pred, target):
    pd, td = value_of(pred), value_of(target)
    diff = pd - td
    out = np.asarray((diff * diff).mean(), dtype=pd.dtype)
    m = diff.size
    # the VJPs form the difference again rather than keep it on the tape
    return _emit(
        out,
        [
            (pred, lambda g: (2.0 / m) * (pd - td) * g),
            (target, lambda g: (-2.0 / m) * (pd - td) * g),
        ],
        name="mse",
    )


def _log_softmax_channel(z):
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def softmax_cross_entropy(logits, labels: np.ndarray):
    """Mean per-pixel cross entropy; labels are int (n, h, w)."""
    zd = value_of(logits)
    n, c, h, w = zd.shape
    logp = _log_softmax_channel(zd)
    picked = np.take_along_axis(logp, labels[:, None, :, :], axis=1)[:, 0]
    out = np.asarray(-picked.mean(), dtype=zd.dtype)

    def vjp(g):
        # recomputed rather than kept on the tape
        soft = np.exp(_log_softmax_channel(zd))
        onehot = np.zeros_like(soft)
        np.put_along_axis(onehot, labels[:, None, :, :], 1.0, axis=1)
        return (soft - onehot) * (g / (n * h * w))

    return _emit(out, [(logits, vjp)], name="xent")


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def gradcheck(fn, inputs, eps: float = 1e-5) -> float:
    """Central-difference check of ``fn``'s analytic gradients.

    ``fn`` maps the wrapped inputs to a scalar Node.  Inputs are copied
    to float64, so the perturbations never reach the caller's arrays,
    not even when ``fn`` raises.  Returns the max over all coordinates of
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    nodes = [
        Node(np.array(a, dtype=np.float64, order="C"), name=f"arg{i}")
        for i, a in enumerate(inputs)
    ]
    loss = fn(*nodes)
    if not isinstance(loss, Node) or loss.data.size != 1:
        raise TypeError("gradcheck target must return a scalar Node")
    backward(loss)
    worst = 0.0
    for node in nodes:
        analytic = grad_of(node).ravel()
        flat = node.data.reshape(-1) if node.data.ndim else node.data.reshape(1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(value_of(fn(*nodes)))
            flat[i] = orig - eps
            fm = float(value_of(fn(*nodes)))
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            a = float(analytic[i])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if err > worst:
                worst = err
    return worst


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class MomentumSGD:
    """Stateful momentum SGD over parameter Nodes (updates data in place)."""

    def __init__(self, params, lr: float, momentum: float = 0.0):
        if not (np.isfinite(lr) and lr > 0):
            raise ValueError(f"lr must be positive and finite, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        zero_grad(self.params)

    def step(self):
        for p, v in zip(self.params, self._velocity):
            g = grad_of(p)
            if not np.all(np.isfinite(g)):
                raise DivergenceError(
                    f"non-finite gradient for parameter {p.name or '<unnamed>'}"
                )
            v *= self.momentum
            v += g
            p.data -= self.lr * v
