import hashlib
import inspect
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from fadeup import autograd as ag
from fadeup import kernelgen as kg
from fadeup import tensor as T
from fadeup.autograd import DivergenceError, MomentumSGD, Node, backward
from fadeup.cli import _gradcheck_battery, _gradcheck_cases
from fadeup.rng import ShuffledLcg


def _op_name(op):
    return getattr(op, "func", op).__name__


def _op_cases():
    """The gradcheck cases that apply one public op alone, each with an id:
    the op's name, or the case's own name for a second case of that op."""
    cases, ids = [], []
    for name, op, arrays, _ in _gradcheck_cases(0):
        if op is not None:
            seen = any(_op_name(other) == _op_name(op) for other, _ in cases)
            ids.append(name if seen else _op_name(op))
            cases.append((op, arrays))
    return cases, ids


OP_CASES, OP_CASE_IDS = _op_cases()

# the corner pads of h2l's four stride-2 sub-processes, by 2x2 phase (r, s):
# each pads exactly the two sides its corner names
_H2L_PADS = {
    (0, 0): T.PadSpec(1, 0, 1, 0),  # top-left
    (0, 1): T.PadSpec(1, 0, 0, 1),  # top-right
    (1, 0): T.PadSpec(0, 1, 1, 0),  # bottom-left
    (1, 1): T.PadSpec(0, 1, 0, 1),  # bottom-right
}


class TestBackwardBasics:
    def test_sigmoid_derivative_at_zero(self):
        x = Node(np.zeros((1, 1, 1, 1)))
        backward(ag.sum_all(ag.sigmoid(x)))
        assert x.grad[0, 0, 0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_gradients_accumulate_additively(self):
        x = Node(np.ones((1, 1, 2, 2)))
        y = ag.add(x, x)  # dy/dx = 2
        backward(ag.sum_all(y))
        np.testing.assert_allclose(x.grad, 2.0)

    def test_zero_grad_resets(self):
        x = Node(np.ones((2, 2)))
        backward(ag.sum_all(x))
        assert x.grad is not None
        ag.zero_grad([x])
        np.testing.assert_array_equal(ag.grad_of(x), np.zeros((2, 2)))

    def test_replay_produces_identical_gradients(self):
        """A second forward and backward from the same leaves gives the
        first pass's gradients bit for bit."""
        rng = np.random.default_rng(0)
        x = Node(rng.normal(size=(1, 2, 4, 4)))
        w = Node(rng.normal(size=(2, 2, 3, 3)))
        backward(ag.sum_all(ag.sigmoid(ag.conv2d(x, w))))
        first = (x.grad.copy(), w.grad.copy())
        ag.zero_grad([x, w])
        backward(ag.sum_all(ag.sigmoid(ag.conv2d(x, w))))
        np.testing.assert_array_equal(first[0], x.grad)
        np.testing.assert_array_equal(first[1], w.grad)

    def test_second_backward_raises_and_keeps_leaf_gradients(self):
        """backward consumes the graph: a second pass over it raises before
        any VJP runs, so the leaf keeps the first pass's gradient."""
        x = Node(np.random.default_rng(2).normal(size=(1, 2, 3, 3)))
        loss = ag.sum_all(ag.sigmoid(ag.add(x, x)))
        backward(loss)
        once = x.grad.copy()
        with pytest.raises(RuntimeError, match="run the forward again"):
            backward(loss)
        np.testing.assert_array_equal(x.grad, once)

    def test_loss_on_an_interior_node_of_a_consumed_graph_raises(self):
        """A new loss built on an interior Node of a consumed graph reaches
        released records: backward raises before the new loss's own VJPs
        run, and no leaf's gradient changes."""
        rng = np.random.default_rng(4)
        x, w = Node(rng.normal(size=(1, 2, 4, 4))), Node(rng.normal(size=(2, 2, 3, 3)))
        h = ag.sigmoid(ag.conv2d(x, w))
        backward(ag.sum_all(h))
        before = (x.grad.copy(), w.grad.copy())
        y = Node(rng.normal(size=h.shape))
        with pytest.raises(RuntimeError, match="run the forward again"):
            backward(ag.sum_all(ag.mul(h, y)))
        assert y.grad is None
        np.testing.assert_array_equal(x.grad, before[0])
        np.testing.assert_array_equal(w.grad, before[1])

    @pytest.mark.parametrize("op", ["leaky_relu", "sigmoid"])
    def test_forward_array_only_a_vjp_holds_is_freed_by_backward(self, op):
        """The op's VJP reads its output; once the caller drops the Node,
        only the closure keeps that array, and backward releases it."""
        x = Node(np.random.default_rng(5).normal(size=(2, 3, 4, 4)))
        h = getattr(ag, op)(x)
        data = weakref.ref(h.data)
        loss = ag.sum_all(h)
        del h
        assert data() is not None
        backward(loss)
        assert data() is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 25, 24, 24), (1, 3, 5, 7), (2, 12, 3, 2)])
    def test_nearest_gradient_matches_window_sum(self, shape, dtype):
        """Each input's gradient is its 2x2 output window's sum, bit for bit
        the reduce over the window axes (the same order whenever w > 1)."""
        rng = np.random.default_rng(3)
        x = Node(rng.normal(size=shape).astype(dtype))
        out = ag.interp_nearest_x2(x)
        g = (rng.normal(size=out.shape) * 10.0 ** rng.uniform(-3, 3, out.shape)).astype(dtype)
        out._backprop(g)
        n, c, h, w = shape
        want = g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))
        assert x.grad.dtype == want.dtype and x.grad.tobytes() == want.tobytes()

    def test_backward_requires_node(self):
        with pytest.raises(TypeError, match="tracked forward"):
            backward(np.zeros(3))

    @pytest.mark.parametrize("fn, arrays", OP_CASES, ids=OP_CASE_IDS)
    def test_untracked_ops_return_arrays(self, fn, arrays):
        """All-ndarray inputs give a bare ndarray with the bits of the taped
        call's data; one Node among ndarrays gives a Node whose only parent
        is that Node."""
        out = fn(*arrays)
        assert type(out) is np.ndarray
        for i in range(len(arrays)):
            node = Node(arrays[i])
            taped = fn(*arrays[:i], node, *arrays[i + 1 :])
            assert isinstance(taped, Node)
            assert taped.record._parents == (node.record,)
            assert (taped.dtype, taped.shape) == (out.dtype, out.shape)
            assert taped.data.tobytes() == out.tobytes()

    def test_tracked_matches_untracked_forward(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 3, 4, 4))
        w = rng.normal(size=(2, 3, 3, 3))
        np.testing.assert_array_equal(
            ag.conv2d(Node(x), Node(w)).data, ag.conv2d(x, w)
        )


class TestAddNearest:
    """add_nearest_x2(hi, lo) is add(hi, interp_nearest_x2(lo)) without the
    expanded lo: the same forward and gradients, one full-size array fewer."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 25, 24, 24), (1, 3, 5, 7), (2, 12, 3, 1)])
    def test_forward_and_gradients_equal_add_of_nearest(self, shape, dtype):
        rng = np.random.default_rng(23)
        n, c, h, w = shape
        hi = rng.normal(size=(n, c, 2 * h, 2 * w)).astype(dtype)
        lo = rng.normal(size=shape).astype(dtype)
        g = (rng.normal(size=hi.shape) * 10.0 ** rng.uniform(-3, 3, hi.shape)).astype(dtype)
        g[0, 0, 0] = -0.0
        runs = []
        for fn in (ag.add_nearest_x2, lambda a, b: ag.add(a, ag.interp_nearest_x2(b))):
            hn, ln = Node(hi), Node(lo)
            out = fn(hn, ln)
            backward(ag.sum_all(ag.mul(out, g)))
            runs.append((fn(hi, lo), out.data, hn.grad, ln.grad))
        for a, b in zip(*runs):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_rejects_planes_not_at_twice(self):
        with pytest.raises(T.ShapeError, match="twice"):
            ag.add_nearest_x2(np.zeros((1, 2, 4, 5)), np.zeros((1, 2, 2, 2)))

    def test_l2h_backward_holds_no_expanded_decoder_gradient(self):
        """The backward of a taped l2h generator peaks at 2.6x its kernel map;
        add plus interp_nearest_x2 in its place kept the full-size gradient of
        the expansion pending through the encoder conv's backward: 3.5x.
        (With the convolution VJPs' strips at a floor of 2^16 values, the
        two read 3.9x and 4.6x.)"""
        rng = np.random.default_rng(24)
        p = kg.make_semishift_params(ShuffledLcg(1), 8, 8, 5, np.float64)
        x_en, x_de = rng.normal(size=(2, 8, 32, 32)), rng.normal(size=(2, 8, 16, 16))
        probe = rng.normal(size=(2, 25, 32, 32))

        def l2h_expanded(en, de, p):
            en_branch = kg._compress_generate(en, p.compressor_en, p.generator)
            de_branch = kg._compress_generate(de, p.compressor_de, p.generator, False)
            return ag.add(en_branch, ag.interp_nearest_x2(de_branch))

        forms = {"fused": lambda *a: kg.semishift_l2h(*a).data, "expanded": l2h_expanded}
        peaks = {}
        for name, form in forms.items():
            loss = ag.sum_all(ag.mul(form(Node(x_en), Node(x_de), p), probe))
            tracemalloc.start()
            try:
                backward(loss)
                peaks[name] = tracemalloc.get_traced_memory()[1] / probe.nbytes
            finally:
                tracemalloc.stop()
        assert peaks["fused"] <= 3.0 < peaks["expanded"], peaks


class TestTapeLiveness:
    """The tape links records, not Nodes: an interior output lives only
    while the caller holds its Node or a VJP reads it."""

    def test_conv_output_feeding_leaky_relu_is_freed(self):
        rng = np.random.default_rng(21)
        x, w = rng.normal(size=(2, 3, 8, 8)), rng.normal(size=(4, 3, 3, 3))
        target = rng.normal(size=(2, 4, 8, 8))
        grads = {}
        for hold in (True, False):
            xn, wn = Node(x), Node(w)
            conv = ag.conv2d(xn, wn)
            data = weakref.ref(conv.data)
            out = ag.leaky_relu(conv)
            if not hold:
                del conv
            alive = data() is not None
            assert alive == hold
            backward(ag.mse_loss(out, target))
            grads[hold] = (xn.grad, wn.grad)
        for a, b in zip(grads[True], grads[False]):
            np.testing.assert_array_equal(a, b)

    def test_l2h_generator_interior_outputs_are_freed(self, monkeypatch):
        """Inside a taped l2h generator the 3x3 conv and add_nearest_x2
        outputs are freed once the caller drops the kernel map.  No 1x1
        compressor output exists to stay: the conv compresses its strips'
        rows itself, and its weight gradient compresses them again."""
        rng = np.random.default_rng(22)
        p = kg.make_semishift_params(ShuffledLcg(3), 4, 6, 3, np.float64)
        x_en, x_de = rng.normal(size=(2, 4, 8, 10)), rng.normal(size=(2, 4, 4, 5))
        target = rng.normal(size=(2, 9, 8, 10))
        grads = {}
        for hold in (True, False):
            refs, held = [], []

            def tap(name, fn):
                def wrapped(*args, **kwargs):
                    out = fn(*args, **kwargs)
                    refs.append((name, weakref.ref(out.data)))
                    if hold:
                        held.append(out)
                    return out

                monkeypatch.setattr(ag, name, wrapped)

            for name in ("conv1x1", "conv2d", "add_nearest_x2"):
                tap(name, getattr(ag, name))
            en, de = Node(x_en), Node(x_de)
            kmap = kg.semishift_l2h(en, de, p)
            soft = ag.softmax_channel(kmap.data)
            del kmap
            monkeypatch.undo()
            alive = [(name, r() is not None) for name, r in refs]
            if hold:
                assert all(a for _, a in alive)
            else:
                assert alive == [("conv2d", False), ("conv2d", False), ("add_nearest_x2", False)]
            backward(ag.mse_loss(soft, target))
            grads[hold] = (en.grad, de.grad)
        for a, b in zip(grads[True], grads[False]):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_output_mask_is_the_input_mask(self, dtype):
        """The VJP masks by the output's sign; for slope > 0 that is the
        input's, on NaN, signed zeros, infinities and negatives that
        underflow to -0.0."""
        info = np.finfo(dtype)
        x = np.array(
            [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, info.smallest_subnormal,
             -info.smallest_subnormal, -info.smallest_normal, -info.tiny * 3, 1.0, -1.0],
            dtype,
        )
        out = ag.leaky_relu(x)
        assert out[7] == 0 and np.signbit(out[7])  # -smallest_subnormal underflows
        np.testing.assert_array_equal(out > 0, x > 0)
        xn = Node(x)
        with np.errstate(invalid="ignore"):  # the sum meets inf - inf
            backward(ag.sum_all(ag.leaky_relu(xn)))
        np.testing.assert_array_equal(xn.grad, np.where(x > 0, 1.0, 0.1).astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_vjp_runs_in_the_gradient_dtype(self, dtype):
        """The VJP multiplies the gradient by the slope in the gradient's
        dtype, as the forward does the data: f32 gets g * f32(slope), not
        g * 0.1 rounded from float64."""
        rng = np.random.default_rng(25)
        x = rng.normal(size=(2, 3, 8, 8)).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        xn = Node(x)
        ag.leaky_relu(xn)._backprop(g)
        assert xn.grad.dtype == dtype
        np.testing.assert_array_equal(xn.grad, np.where(x > 0, g, g * dtype(0.1)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_vjp_is_the_where_formula_bit_for_bit(self, dtype):
        """The VJP copies g into g * slope where the output is > 0: the bits
        of np.where(out > 0, g, g * slope), for every pair of NaN, signed
        zeros, infinities and subnormals in the gradient and the output."""
        info = np.finfo(dtype)
        special = np.array(
            [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, info.smallest_subnormal,
             -info.smallest_subnormal, -info.smallest_normal, info.max, 1.0, -1.0],
            dtype,
        )
        x, g = np.repeat(special, special.size), np.tile(special, special.size)
        xn = Node(x)
        out = ag.leaky_relu(xn)
        out._backprop(g.copy())
        want = np.where(out.data > 0, g, g * 0.1)
        assert xn.grad.dtype == want.dtype and xn.grad.tobytes() == want.tobytes()


class TestGradientOwnership:
    """A record's first gradient may be the array its VJP returned, but
    never the incoming gradient, a view, or an array of another shape or
    dtype: no two records, and no record and the caller, share memory."""

    def test_add_gives_each_parent_its_own_gradient(self):
        """add's VJPs return the incoming gradient itself to both parents."""
        rng = np.random.default_rng(30)
        x, y = Node(rng.normal(size=(2, 3, 4, 4))), Node(rng.normal(size=(2, 3, 4, 4)))
        backward(ag.sum_all(ag.add(x, y)))
        assert not np.shares_memory(x.grad, y.grad)
        x.grad += 1.0
        np.testing.assert_array_equal(y.grad, np.ones(y.shape))

    @pytest.mark.parametrize("op", ["interleave2x2", "concat_channels", "concat_self"])
    def test_views_of_the_gradient_are_copied(self, op):
        """These VJPs return views of the incoming gradient; each parent's
        gradient is its own array, and the caller's gradient is not written."""
        rng = np.random.default_rng(31)
        nodes = [Node(rng.normal(size=(1, 2, 3, 3))) for _ in range(4)]
        a, b = nodes[:2]
        if op == "interleave2x2":
            leaves, out = nodes, ag.interleave2x2(*nodes)
        elif op == "concat_channels":
            leaves, out = [a, b], ag.concat_channels(a, b)
        else:  # one parent twice: its second share is added to its first
            leaves, out = [a], ag.concat_channels(a, a)
        g = rng.normal(size=out.shape)
        before = g.copy()
        out._backprop(g)
        np.testing.assert_array_equal(g, before)
        for i, leaf in enumerate(leaves):
            assert not np.shares_memory(leaf.grad, g)
            assert not any(np.shares_memory(leaf.grad, o.grad) for o in leaves[i + 1 :])
        if op == "concat_self":
            np.testing.assert_array_equal(a.grad, g[:, :2] + g[:, 2:])

    def test_other_dtype_is_cast_into_the_record(self):
        """An f32 leaf scaled by an f64 constant gets an f64 VJP result; its
        gradient is f32, not that array."""
        rng = np.random.default_rng(32)
        x = Node(rng.normal(size=(1, 2, 3, 3)).astype(np.float32))
        c = rng.normal(size=(1, 2, 3, 3))
        backward(ag.sum_all(ag.mul(x, c)))
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, c.astype(np.float32))

    def test_other_shape_is_broadcast_into_the_record(self):
        """A VJP result that only broadcasts to the record's shape is added
        into zeros of that shape."""
        rng = np.random.default_rng(33)
        x = Node(rng.normal(size=(2, 3)))
        share = np.arange(3.0)
        out = ag._emit(x.data * 2.0, [(x, lambda g: share.copy())])
        out._backprop(np.ones((2, 3)))
        assert x.grad.shape == (2, 3)
        np.testing.assert_array_equal(x.grad, np.broadcast_to(share, (2, 3)))

    def test_scalar_parent_gets_an_array(self):
        """mul's VJP for a 0-d parent sums down to a NumPy scalar, which the
        record does not keep as its gradient."""
        rng = np.random.default_rng(34)
        x, s = Node(rng.normal(size=(2, 3))), Node(np.array(2.0))
        backward(ag.sum_all(ag.mul(x, s)))
        assert isinstance(s.grad, np.ndarray) and s.grad.shape == ()
        assert s.grad == x.data.sum()

    @pytest.mark.parametrize("graph", ["mul_const", "conv", "leaf_is_summed"])
    def test_second_backward_doubles_a_kept_first_gradient(self, graph):
        """The leaf's first gradient is the array its parent's VJP returned;
        a second forward and backward adds exactly one more gradient."""
        rng = np.random.default_rng(35)
        x = Node(rng.normal(size=(1, 2, 3, 3)))
        c, w = rng.normal(size=(1, 2, 3, 3)), rng.normal(size=(2, 2, 3, 3))
        loss = {
            "mul_const": lambda: ag.sum_all(ag.mul(x, c)),
            "conv": lambda: ag.sum_all(ag.sigmoid(ag.conv2d(x, w))),
            "leaf_is_summed": lambda: ag.sum_all(x),
        }[graph]
        backward(loss())
        once = x.grad.copy()
        backward(loss())
        np.testing.assert_array_equal(x.grad, 2 * once)

    @pytest.mark.parametrize("op", ["reassemble", "pixel_shuffle_x2"])
    def test_reshaping_vjps_results_are_kept(self, op, monkeypatch):
        """Reassembly's two VJPs and pixel_shuffle_x2's write their results
        into arrays of the record's shape and dtype, so the tape keeps them
        as first gradients instead of adding them into zeros."""
        kept = []
        accumulate = ag.Record.accumulate

        def logged(rec, g, owned=False):
            accumulate(rec, g, owned)
            kept.append(rec.grad is g)

        rng = np.random.default_rng(36)
        if op == "reassemble":
            xn = Node(rng.normal(size=(2, 3, 4, 5)).astype(np.float32))
            kn = Node(rng.normal(size=(2, 9, 8, 10)).astype(np.float32))
            out = ag.reassemble(xn, kn, 3)
        else:
            out = ag.pixel_shuffle_x2(Node(rng.normal(size=(2, 8, 3, 4))))
        monkeypatch.setattr(ag.Record, "accumulate", logged)
        out._backprop(rng.normal(size=out.shape).astype(out.dtype))
        assert kept == [True] * len(out.record._parents)

    def test_pass_through_gradient_is_handed_to_the_last_parent(self, monkeypatch):
        """backward gives up each record's gradient: a last VJP that returns
        it unchanged hands the array itself to a parent with no gradient yet
        (add_nearest_x2's hi, then add's y), while earlier parents get
        arrays of their own."""
        arrays = {}
        accumulate = ag.Record.accumulate

        def logged(rec, g, owned=False):
            arrays.setdefault(rec, g)
            accumulate(rec, g, owned)

        rng = np.random.default_rng(37)
        x, y = Node(rng.normal(size=(2, 3, 4, 4))), Node(rng.normal(size=(2, 3, 4, 4)))
        lo = Node(rng.normal(size=(2, 3, 2, 2)))
        out = ag.add_nearest_x2(ag.add(x, y), lo)
        monkeypatch.setattr(ag.Record, "accumulate", logged)
        backward(ag.sum_all(ag.mul(out, rng.normal(size=out.shape))))
        first = arrays[out.record]  # mul's VJP result, kept by add_nearest_x2's record
        assert y.grad is first and arrays[out.record._parents[1]] is first
        assert x.grad is not first and lo.grad is not first
        assert not any(np.shares_memory(a.grad, b.grad) for a, b in ((x, y), (x, lo), (y, lo)))

    def test_handed_gradients_are_never_shared(self):
        """Leaves reached through chains of pass-throughs, one of them twice:
        after two forward and backward passes no two leaves share a gradient
        array, and each holds twice its first gradient."""
        rng = np.random.default_rng(38)
        x, y, z = (Node(rng.normal(size=(1, 2, 4, 4))) for _ in range(3))
        c = rng.normal(size=(1, 2, 4, 4))

        def loss():
            return ag.sum_all(ag.mul(ag.add(ag.add(x, y), ag.add(z, y)), c))

        backward(loss())
        once = [a.grad.copy() for a in (x, y, z)]
        backward(loss())
        for a, b in ((x, y), (x, z), (y, z)):
            assert not np.shares_memory(a.grad, b.grad)
        for a, first in zip((x, y, z), once):
            np.testing.assert_array_equal(a.grad, 2 * first)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_handed_gradient_turns_negative_zero_as_a_copy_does(self, dtype):
        """A handed first gradient has the bits that zeros plus the gradient
        would have: -0.0 arrives as 0.0 in the parent that takes the array
        and in the one that gets a copy; every other entry is unchanged."""
        x, y = Node(np.ones(4, dtype)), Node(np.ones(4, dtype))
        c = np.array([-0.0, 1.0, -2.5, np.inf], dtype)
        backward(ag.sum_all(ag.mul(ag.add(x, y), c)))
        want = np.zeros(4, dtype) + c
        for a in (x, y):
            assert a.grad.dtype == dtype and a.grad.tobytes() == want.tobytes()
        assert not np.signbit(y.grad[0])

    def test_add_nearest_backward_allocates_no_gradient_for_hi(self):
        """Given up by its caller, add_nearest_x2's gradient becomes hi's: its
        backprop leaves lo's gradient allocated and nothing for hi, one
        full-size gradient fewer than a pass that copies it into zeros."""
        rng = np.random.default_rng(39)
        kept = {}
        for own in (True, False):
            hi, lo = Node(rng.normal(size=(2, 8, 32, 32))), Node(rng.normal(size=(2, 8, 16, 16)))
            out = ag.add_nearest_x2(hi, lo)
            g = rng.normal(size=out.shape)
            tracemalloc.start()
            try:
                out._backprop(g, own=own)
                kept[own] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert (hi.grad is g) == own
        assert kept[True] <= lo.grad.nbytes + 4096 < kept[False] - 0.95 * g.nbytes, kept

    def test_owned_first_gradient_keeps_negative_zero(self):
        """A kept first gradient is the VJP's array bit for bit: -0.0 stays
        -0.0, which zeros plus the gradient would make +0.0."""
        x = Node(np.array([1.0, 2.0]))
        backward(ag.sum_all(ag.mul(x, np.array([-0.0, 1.0]))))
        assert np.signbit(x.grad[0]) and x.grad[1] == 1.0


class TestReassembleGradient:
    def test_center_onehot_kernel_grad_is_nn_scatter(self):
        """With center one-hot kernels the map is NN; the kernel gradient at
        tap m equals the gathered decoder value times the output grad, i.e.
        the NN-scatter structure."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 2, 2, 2))
        k = 3
        kern = np.zeros((1, 9, 4, 4))
        kern[:, 4] = 1.0
        xn, kn = Node(x), Node(kern)
        out = ag.reassemble(xn, kn, k)
        np.testing.assert_array_equal(out.data, ag.interp_nearest_x2(x))
        g = rng.normal(size=(1, 2, 4, 4))
        backward(ag.sum_all(ag.mul(out, g)))
        # d/dx: scatter of g summed over the 2x2 block that copies each pixel
        want_dx = (g * 1.0).reshape(1, 2, 2, 2, 2, 2).sum(axis=(3, 5))
        np.testing.assert_allclose(xn.grad, want_dx, rtol=1e-12)

    def test_grad_wrt_decoder_is_transpose_of_forward_map(self):
        """reassemble is linear in x_de; its input gradient must equal the
        transpose of the dense matrix of the forward map."""
        rng = np.random.default_rng(3)
        n, c, h, w, k = 1, 1, 2, 3, 3
        kern = ag.softmax_channel(rng.normal(size=(n, k * k, 2 * h, 2 * w)))
        size_in, size_out = h * w, 4 * h * w
        M = np.zeros((size_out, size_in))
        for i in range(size_in):
            basis = np.zeros((n, c, h, w))
            basis.reshape(-1)[i] = 1.0
            M[:, i] = ag.reassemble(basis, kern, k).reshape(-1)
        g = rng.normal(size=(n, c, 2 * h, 2 * w))
        xn = Node(np.zeros((n, c, h, w)))
        backward(ag.sum_all(ag.mul(ag.reassemble(xn, kern, k), g)))
        np.testing.assert_allclose(
            xn.grad.reshape(-1), M.T @ g.reshape(-1), rtol=1e-10, atol=1e-12
        )


class TestReassembleMemory:
    def test_untracked_peak_is_a_few_outputs(self):
        """The forward holds the output, one strip's K row-shifted copies of
        the decoder that the window matrices view, and one strip's banded
        kernel blocks; never a K^2-fold unfold or a whole-plane copy."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 64, 32, 32)).astype(np.float32)
        kern = ag.softmax_channel(rng.normal(size=(1, 25, 64, 64)).astype(np.float32))
        tracemalloc.start()
        try:
            out = ag.reassemble(x, kern, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the output"

    @pytest.mark.parametrize(
        "shape, bound", [((4, 12, 24, 24), 1.45), ((4, 12, 12, 12), 2.19), ((1, 64, 32, 32), 2.85)]
    )
    def test_backprop_peak_is_a_few_kernel_maps(self, shape, bound):
        """One backprop of a taped K=5 reassembly holds dx, dk, the
        gradient's phases and one tap's kernel-map phases in vjp_x, and one
        strip's row-shifted copy and products in vjp_k.  With the whole
        kernel map's phases in vjp_x and a whole-plane vjp_k at the toy
        plane, it peaked at 2.12, 2.19 and 3.05 kernel maps."""
        rng = np.random.default_rng(14)
        n, c, h, w = shape
        x = rng.normal(size=shape).astype(np.float32)
        kern = ag.softmax_channel(rng.normal(size=(n, 25, 2 * h, 2 * w)).astype(np.float32))
        g = rng.normal(size=(n, c, 2 * h, 2 * w)).astype(np.float32)
        out = ag.reassemble(Node(x), Node(kern), 5)
        tracemalloc.start()
        try:
            out.record._backprop(g, own=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * kern.nbytes, f"peak {peak / kern.nbytes:.3f}x the kernel map"


class TestReassembleDeterminism:
    @staticmethod
    def _run(x, kern, g, k):
        xn, kn = Node(x), Node(kern)
        out = ag.reassemble(xn, kn, k)
        backward(ag.sum_all(ag.mul(out, g)))
        return out.data, xn.grad, kn.grad

    def test_bit_identical_across_calls_and_batch_items(self):
        rng = np.random.default_rng(5)
        n, c, h, w, k = 2, 16, 6, 7, 5
        x = rng.normal(size=(n, c, h, w)).astype(np.float32)
        kern = ag.softmax_channel(
            rng.normal(size=(n, k * k, 2 * h, 2 * w)).astype(np.float32)
        )
        g = rng.normal(size=(n, c, 2 * h, 2 * w)).astype(np.float32)
        first = self._run(x, kern, g, k)
        for a, b in zip(first, self._run(x, kern, g, k)):
            np.testing.assert_array_equal(a, b)
        for i in range(n):
            alone = self._run(x[i : i + 1], kern[i : i + 1], g[i : i + 1], k)
            for a, b in zip(first, alone):
                np.testing.assert_array_equal(a[i : i + 1], b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 12, 24, 24), (2, 5, 7, 9)])
    def test_vjps_do_not_depend_on_strip_heights(self, shape, dtype, monkeypatch):
        """dx and dk have the same bytes with the VJPs' own strips, with
        one-row strips and with the whole plane as one strip."""
        rng = np.random.default_rng(13)
        n, c, h, w = shape
        k = 5
        x = rng.normal(size=shape).astype(dtype)
        kern = ag.softmax_channel(rng.normal(size=(n, k * k, 2 * h, 2 * w)).astype(dtype))
        g = rng.normal(size=(n, c, 2 * h, 2 * w)).astype(dtype)
        own = self._run(x, kern, g, k)[1:]
        strips = ag._strips
        for rows, budget in ((1, 0), (h, 1 << 40)):  # a budget of 0 gives one-row strips
            heights = set()

            def forced(size, halo, _, per_row, budget=budget):
                part = strips(size, halo, budget, per_row)
                heights.update(m for _, m in part)
                return part

            monkeypatch.setattr(ag, "_strips", forced)
            forced_grads = self._run(x, kern, g, k)[1:]
            assert heights == {rows}
            for a, b in zip(own, forced_grads):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_bit_identical_with_one_blas_thread(self):
        """Forward, dx and dk hash the same in this process and in one whose
        BLAS and OpenMP are held to a single thread."""
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            PYTHONPATH=os.pathsep.join(
                [os.path.dirname(os.path.dirname(ag.__file__)), os.path.dirname(__file__)]
            ),
        )
        script = "import test_autograd as t; print(t.reassembly_digest())"
        single = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert single.stdout.strip() == reassembly_digest()


def reassembly_digest() -> str:
    """sha256 of reassembly's forward, dx and dk at (1, 64, 20x20), K=5, f32."""
    rng = np.random.default_rng(9)
    n, c, h, w, k = 1, 64, 20, 20, 5
    xn = Node(rng.normal(size=(n, c, h, w)).astype(np.float32))
    kn = Node(ag.softmax_channel(rng.normal(size=(n, k * k, 2 * h, 2 * w)).astype(np.float32)))
    g = rng.normal(size=(n, c, 2 * h, 2 * w)).astype(np.float32)
    out = ag.reassemble(xn, kn, k)
    backward(ag.sum_all(ag.mul(out, g)))
    digest = hashlib.sha256()
    for a in (out.data, xn.grad, kn.grad):
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


class TestBlend:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_one_line_expression_bit_for_bit(self, dtype):
        rng = np.random.default_rng(6)
        fe = rng.normal(size=(2, 40, 6, 10)).astype(dtype)
        fu = rng.normal(size=(2, 40, 6, 10)).astype(dtype)
        g = rng.random(size=(2, 1, 6, 10)).astype(dtype)
        out = ag.blend(fe, fu, g)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, fe * g + fu * (1 - g))

    def test_untracked_peak_is_under_one_and_a_half_outputs(self):
        rng = np.random.default_rng(7)
        fe = rng.normal(size=(1, 64, 32, 32)).astype(np.float32)
        fu = rng.normal(size=(1, 64, 32, 32)).astype(np.float32)
        g = rng.random(size=(1, 1, 32, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            out = ag.blend(fe, fu, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the output"

    def test_caller_arrays_are_not_written(self):
        rng = np.random.default_rng(10)
        fe = rng.normal(size=(1, 20, 4, 6)).astype(np.float32)
        fu = rng.normal(size=(1, 20, 4, 6)).astype(np.float32)
        g = rng.random(size=(1, 1, 4, 6)).astype(np.float32)
        before = fu.copy()
        out = ag.blend(fe, fu, g)
        assert out is not fu
        np.testing.assert_array_equal(fu, before)

    def test_overwrite_writes_the_same_bits_into_f_up(self):
        rng = np.random.default_rng(11)
        fe = rng.normal(size=(2, 40, 6, 10)).astype(np.float32)
        fu = rng.normal(size=(2, 40, 6, 10)).astype(np.float32)
        g = rng.random(size=(2, 1, 6, 10)).astype(np.float32)
        expect = ag.blend(fe, fu, g)
        out = ag.blend(fe, fu, g, overwrite_up=True)
        assert out is fu
        np.testing.assert_array_equal(out, expect)

    @pytest.mark.parametrize("taped", ["f_en", "f_up", "g"])
    def test_overwrite_with_a_taped_input_raises(self, taped):
        rng = np.random.default_rng(12)
        args = {
            "f_en": rng.normal(size=(1, 3, 2, 2)),
            "f_up": rng.normal(size=(1, 3, 2, 2)),
            "g": rng.random(size=(1, 1, 2, 2)),
        }
        before = args["f_up"].copy()
        args[taped] = Node(args[taped])
        with pytest.raises(ValueError, match="taped"):
            ag.blend(args["f_en"], args["f_up"], args["g"], overwrite_up=True)
        np.testing.assert_array_equal(ag.value_of(args["f_up"]), before)


def _im2col_conv(x, w, b, gout, k, stride, pad, groups):
    """The literal im2col GEMM and its adjoints: forward, dx, dw and db."""
    n, c = x.shape[:2]
    o, g = w.shape[0], groups
    cols = T.im2col(x, k, stride, pad)
    oh, ow = cols.shape[4:]
    cm = cols.reshape(n, g, c // g * k * k, oh * ow)
    wm = w.reshape(g, o // g, -1)
    gm = gout.reshape(n, g, o // g, oh * ow)
    out = np.matmul(wm, cm).reshape(n, o, oh, ow) + b[None, :, None, None]
    dcols = np.matmul(wm.swapaxes(1, 2), gm).reshape(n, c, k, k, oh, ow)
    dx = T.col2im(dcols, x.shape[2:], k, stride, pad)
    dw = np.matmul(gm, cm.swapaxes(2, 3)).sum(axis=0).reshape(w.shape)
    return out, dx, dw, gout.sum(axis=(0, 2, 3))


def _as_one_conv(x, k, stride, pad):
    """A conv of x at ``stride`` with padding ``pad`` (None: k // 2 on every
    side) as ``_conv``, the one stride-1 conv with k // 2 on every side:
    output (u, v) reads the padded plane's rows s u .. s u + k - 1, the
    window that the one conv of that plane centres on row s u + k // 2.
    Returns the plane to convolve, the index of the outputs kept and the
    index of x in the plane."""
    p, r = pad or T.PadSpec.same(k // 2), k // 2
    if (stride, p) == (1, T.PadSpec.same(r)):
        return x, ..., ...
    xp = np.pad(x, ((0, 0), (0, 0), (p.top, p.bottom), (p.left, p.right)))
    hp, wp = xp.shape[2:]
    kept = (..., slice(r, hp - r, stride), slice(r, wp - r, stride))
    inside = (..., slice(p.top, p.top + x.shape[2]), slice(p.left, p.left + x.shape[3]))
    return xp, kept, inside


def _conv_run(x, w, b, gout, k, stride, pad, groups):
    """Taped forward, dx, dw and db of that conv, run as ``_conv``."""
    xp, kept, inside = _as_one_conv(x, k, stride, pad)
    xn, wn, bn = Node(xp), Node(w), Node(b)
    out = ag._conv(xn, wn, bn, k, groups, "conv")
    gp = np.zeros(out.shape, gout.dtype)
    gp[kept] = gout
    backward(ag.sum_all(ag.mul(out, gp)))
    return out.data[kept], xn.grad[inside], wn.grad, bn.grad


# (stride, pad): "same" padding, a valid conv, the h2l branch's four corner
# pads and one lopsided pad, each run as the one conv by ``_conv_run``
_CONV_PADS = [
    (s, pad)
    for s in (1, 2)
    for pad in (
        None,
        T.PadSpec.same(0),
        *_H2L_PADS.values(),
        T.PadSpec(2, 0, 1, 3),
    )
]


class TestCornerPadsArePhases:
    """The paper's h2l form runs four stride-2 sub-processes, one per corner
    pad; each, computed by the im2col reference, is one 2x2 phase of the
    stride-1 'same' conv, which is why ``kernelgen`` computes h2l as l2h.
    Equal up to rounding, not bit for bit: BLAS sums a product in an order
    that may depend on the GEMM's shape, and the two run GEMMs of different
    shapes."""

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-14)])
    @pytest.mark.parametrize("kind", ["dense", "depthwise"])
    @pytest.mark.parametrize("n,c,h,w", [(2, 12, 10, 14), (2, 12, 11, 13), (1, 64, 40, 40)])
    def test_stride_two_corner_conv_is_a_phase(self, n, c, h, w, kind, dtype, tol):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(n, c, h, w)).astype(dtype)
        if kind == "dense":
            conv, wt, g = ag.conv2d, rng.normal(size=(25, c, 3, 3)), 1
        else:
            conv, wt, g = ag.conv2d_depthwise, rng.normal(size=(c, 1, 3, 3)), c
        o = wt.shape[0]
        wt, b = wt.astype(dtype), rng.normal(size=o).astype(dtype)
        full = conv(x, wt, b)
        scale = np.abs(full).max()
        gout = np.zeros((n, o, h // 2, w // 2), dtype)  # only the forward is compared
        for (r, s), pad in _H2L_PADS.items():
            sub = _im2col_conv(x, wt, b, gout, 3, 2, pad, g)[0]
            # on an odd side phase 0 has one row or column more than the sub-process
            assert sub.shape[2:] == (h // 2, w // 2) and sub.dtype == dtype
            phase = full[:, :, r::2, s::2][:, :, : h // 2, : w // 2]
            np.testing.assert_allclose(sub, phase, rtol=0, atol=tol * scale)


class TestConvAgainstIm2col:
    """``_conv`` (no im2col) against the im2col GEMM kept in ``tensor`` as
    the reference, for every group kind and kernel size, on the planes that
    every stride and pad of ``_CONV_PADS`` gives it."""

    # (input channels, output channels, groups)
    GROUPS = {"dense": (3, 4, 1), "depthwise": (3, 3, 3), "one_input": (1, 4, 1)}

    @pytest.mark.parametrize("stride,pad", _CONV_PADS)
    @pytest.mark.parametrize("kind", sorted(GROUPS))
    def test_forward_and_gradients(self, stride, pad, kind):
        c, o, g = self.GROUPS[kind]
        rng = np.random.default_rng(13)
        for k in (1, 3, 5):
            p = T.PadSpec.same(k // 2) if pad is None else pad
            one_row = max(1, k - p.top - p.bottom)  # the fewest rows that give an output
            for n, h, w in ((2, 5, 7), (2, one_row, 6), (1, 8, 5)):
                for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-12)):
                    x = rng.normal(size=(n, c, h, w)).astype(dtype)
                    wt = rng.normal(size=(o, c // g, k, k)).astype(dtype)
                    b = rng.normal(size=o).astype(dtype)
                    oh = (h + p.top + p.bottom - k) // stride + 1
                    ow = (w + p.left + p.right - k) // stride + 1
                    gout = rng.normal(size=(n, o, oh, ow)).astype(dtype)
                    args = (x, wt, b, gout, k, stride, pad, g)
                    got = _conv_run(*args)
                    ref_all = _im2col_conv(x, wt, b, gout, k, stride, p, g)
                    for name, a, ref in zip(("out", "dx", "dw", "db"), got, ref_all):
                        assert a.dtype == dtype and a.shape == ref.shape, name
                        scale = max(float(np.abs(ref).max()), 1.0)
                        np.testing.assert_allclose(
                            a, ref, rtol=tol, atol=tol * scale,
                            err_msg=f"{name} k={k} n={n} {h}x{w} {dtype.__name__}",
                        )
                    for a, again in zip(got, _conv_run(*args)):
                        np.testing.assert_array_equal(a, again)
                    for i in range(n):
                        alone = _conv_run(x[i : i + 1], wt, b, gout[i : i + 1], k, stride, pad, g)
                        np.testing.assert_array_equal(got[0][i : i + 1], alone[0])
                        np.testing.assert_array_equal(got[1][i : i + 1], alone[1])

    def test_one_by_one_reads_the_plane_without_a_copy(self):
        """A 1x1 conv allocates its output and nothing of the input's
        size."""
        x = np.random.default_rng(14).normal(size=(1, 64, 32, 32)).astype(np.float32)
        w = np.ones((4, 64, 1, 1), np.float32)
        tracemalloc.start()
        try:
            out = ag.conv1x1(x, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 2, f"peak {peak / out.nbytes:.2f}x the output"

    def test_taped_forward_keeps_no_shifted_copy(self):
        """After a taped 3x3 conv's forward, what stays allocated is its
        output, a weight-sized copy and the node's closures: the k-fold
        shifted copy of x is rebuilt by vjp_w, not kept for it."""
        rng = np.random.default_rng(15)
        x = Node(rng.normal(size=(4, 12, 48, 48)).astype(np.float32))
        w = Node(rng.normal(size=(12, 12, 3, 3)).astype(np.float32))
        tracemalloc.start()
        try:
            out = ag.conv2d(x, w)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # 16 KiB covers the Node, its closures and their index tuples
        assert kept <= out.data.nbytes + w.data.nbytes + 16384, (
            f"kept {kept / out.data.nbytes:.2f}x the output"
        )

    def test_untaped_peak_is_bounded_by_the_output(self):
        """The l2h generator conv at the CLI shape: its k-fold shifted copy
        exists one strip of output rows at a time, not for the whole plane."""
        rng = np.random.default_rng(16)
        x = rng.normal(size=(1, 64, 64, 64)).astype(np.float32)
        w = rng.normal(size=(25, 64, 3, 3)).astype(np.float32)
        b = rng.normal(size=25).astype(np.float32)
        tracemalloc.start()
        try:
            out = ag.conv2d(x, w, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the output"

    @pytest.mark.parametrize(
        "n,c,d,o,size",
        [(4, 12, 16, 100, 24), (4, 1, None, 12, 48)],
        ids=["carafe-content-encoder", "toy-enc0"],
    )
    def test_untaped_forward_scratch_is_within_the_budget(self, n, c, d, o, size):
        """The toy CARAFE content encoder (12 channels through a 16-channel
        compressor to 100) and the toy net's first conv: beside its output,
        an untaped forward holds S and the k kernel rows' products within
        n max(o h w, _STRIP_FLOOR) values, plus the compressed rows,
        reordered copies of the weights and NumPy's buffers for the strided
        adds of the products into the output.  With the
        products outside the budget the encoder peaked at 5.69 MiB for a
        0.88 MiB output."""
        rng = np.random.default_rng(27)
        x = rng.normal(size=(n, c, size, size)).astype(np.float32)
        plane = c if d is None else d
        w = rng.normal(size=(o, plane, 3, 3)).astype(np.float32)
        b = rng.normal(size=o).astype(np.float32)
        comp = None if d is None else (rng.normal(size=(d, c, 1, 1)).astype(np.float32), None)
        tracemalloc.start()
        try:
            out = ag.conv2d(x, w, b, compressor=comp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = n * max(o * size * size, ag._STRIP_FLOOR) * 4
        rows = 0 if d is None else n * d * size * size * 4  # at most the whole compressed plane
        scratch = peak - out.nbytes - 2 * w.nbytes - 3 * np.getbufsize() * 4
        assert scratch <= budget + rows, f"scratch {scratch / budget:.2f}x the budget"

    @pytest.mark.parametrize("stride,pad", [(1, None), *((2, p) for p in _H2L_PADS.values())])
    def test_forward_and_gradients_across_strips(self, stride, pad, monkeypatch):
        """A generator-shaped conv whose forward, vjp_w and vjp_x each walk
        several strips of output rows, against the im2col reference."""
        n, c, h, w, o, k = 2, 32, 40, 36, 25, 3
        p = T.PadSpec.same(k // 2) if pad is None else pad
        oh = (h + p.top + p.bottom - k) // stride + 1
        ow = (w + p.left + p.right - k) // stride + 1
        rng = np.random.default_rng(18)
        for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-12)):
            x = rng.normal(size=(n, c, h, w)).astype(dtype)
            wt = rng.normal(size=(o, c, k, k)).astype(dtype)
            b = rng.normal(size=o).astype(dtype)
            gout = rng.normal(size=(n, o, oh, ow)).astype(dtype)
            xp, kept, inside = _as_one_conv(x, k, stride, pad)
            hp, wp = xp.shape[2:]
            budget = max(o * hp * wp, ag._STRIP_FLOOR)
            assert hp > budget // (c * k * (wp + k - 1)) - (k - 1), "one strip"
            xn, wn, bn = Node(xp), Node(wt), Node(b)
            out = ag._conv(xn, wn, bn, k, 1, "conv")
            gp = np.zeros(out.shape, dtype)
            gp[kept] = gout
            ranks, gemm = [], ag._gemm

            def counted(lhs, rhs, out=None):
                ranks.append(lhs.ndim)
                return gemm(lhs, rhs, out)

            monkeypatch.setattr(ag, "_gemm", counted)
            out._backprop(gp)
            monkeypatch.undo()
            # vjp_w's GEMMs read the gradient rows, (n, g, o/g, m pw), k per strip;
            # vjp_x's read the weights, (g, c/g k, k o/g), one per strip
            assert ranks.count(4) > k and ranks.count(3) > 1, "a backward pass in one strip"
            got = (out.data[kept], xn.grad[inside], wn.grad, bn.grad)
            ref_all = _im2col_conv(x, wt, b, gout, k, stride, p, 1)
            for name, a, ref in zip(("out", "dx", "dw", "db"), got, ref_all):
                scale = max(float(np.abs(ref).max()), 1.0)
                np.testing.assert_allclose(
                    a, ref, rtol=tol, atol=tol * scale, err_msg=f"{name} {dtype.__name__}"
                )

    @pytest.mark.parametrize("stride,pad", [(1, None), (2, T.PadSpec(1, 0, 1, 0))])
    def test_batched_equals_items_across_strips(self, stride, pad):
        """A generator-shaped conv runs in several strips of output rows; each
        batch item of a batched call, its output and its taped dx, equals
        that item alone, bit for bit."""
        rng = np.random.default_rng(17)
        for dtype in (np.float32, np.float64):
            x = rng.normal(size=(3, 64, 40, 36)).astype(dtype)
            w = rng.normal(size=(25, 64, 3, 3)).astype(dtype)
            b = rng.normal(size=25).astype(dtype)
            xp, kept, _ = _as_one_conv(x, 3, stride, pad)
            out = ag.conv2d(xp, w, b)[kept]
            gout = rng.normal(size=out.shape).astype(dtype)
            dx = _conv_run(x, w, b, gout, 3, stride, pad, 1)[1]
            for i in range(3):
                alone = ag.conv2d(xp[i : i + 1], w, b)[kept]
                np.testing.assert_array_equal(out[i : i + 1], alone)
                dx_alone = _conv_run(x[i : i + 1], w, b, gout[i : i + 1], 3, stride, pad, 1)[1]
                np.testing.assert_array_equal(dx[i : i + 1], dx_alone)

    def test_backward_peak_is_bounded_by_the_output(self):
        """b6's generator conv at the training shape: its backprop from a
        given output gradient builds S and dS one strip at a time, each
        pass in strips sized by its own scratch, so dx (0.64 outputs), kept
        as x's gradient, and the scratch stay within 1.8 outputs."""
        rng = np.random.default_rng(19)
        x = Node(rng.normal(size=(4, 16, 48, 48)).astype(np.float32))
        w = Node(rng.normal(size=(25, 16, 3, 3)).astype(np.float32))
        out = ag.conv2d(x, w)
        g = rng.normal(size=out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            out._backprop(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.8 * out.data.nbytes, f"peak {peak / out.data.nbytes:.2f}x the output"

    def test_single_strip_backward_frees_the_stack_before_dx(self, monkeypatch):
        """A conv whose backward runs in one strip: its backprop holds dS
        with the gradient stack, then dS with dx, never all three.  At 16^2
        both VJPs fit one strip under their floor."""
        rng = np.random.default_rng(26)
        x = Node(rng.normal(size=(4, 12, 16, 16)).astype(np.float32))
        w = Node(rng.normal(size=(12, 12, 3, 3)).astype(np.float32))
        out = ag.conv2d(x, w)
        g = rng.normal(size=out.shape).astype(np.float32)
        passes, strips = [], ag._strips
        monkeypatch.setattr(ag, "_strips", lambda *a: passes.append(strips(*a)) or passes[-1])
        tracemalloc.start()
        try:
            out._backprop(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert [len(p) for p in passes] == [1, 1], f"backward strips {passes}"
        grid = (16 + 2) * (16 + 2)  # S's grid, halo rows and junk columns included
        ds = 4 * (12 * 3) * grid * 4  # (n, c k, grid) in f32
        stack = 4 * (3 * 12) * grid * 4  # the gradient once per kernel row, k = 3
        assert peak <= ds + stack + out.data.nbytes // 4, f"peak {peak / (ds + stack):.3f}x dS and stack"

    def test_one_by_one_backward_builds_no_gradient_stack(self):
        """A 1x1 view conv's backprop holds dx, kept as x's gradient, plus
        a little: vjp_x runs its GEMM from the output gradient straight into
        dx."""
        rng = np.random.default_rng(24)
        x = Node(rng.normal(size=(1, 256, 56, 56)).astype(np.float32))
        w = Node(rng.normal(size=(64, 256, 1, 1)).astype(np.float32))
        out = ag.conv1x1(x, w)
        g = rng.normal(size=out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            out._backprop(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        floor = x.data.nbytes
        assert peak <= floor + out.data.nbytes // 4, f"peak {peak / floor:.3f}x dx"

    def test_one_by_one_weight_backward_copies_no_gradient(self):
        """A 1x1 view conv's vjp_w runs its GEMM from the output gradient
        itself: its backprop holds dw and the GEMM's result and partial sums,
        never a copy of the (12x larger) gradient."""
        rng = np.random.default_rng(24)
        x = rng.normal(size=(1, 256, 56, 56)).astype(np.float32)
        w = Node(rng.normal(size=(64, 256, 1, 1)).astype(np.float32))
        out = ag.conv1x1(x, w)
        g = rng.normal(size=out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            out._backprop(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * w.data.nbytes, f"peak {peak / w.data.nbytes:.2f}x dw"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bit_identical_across_blas_threads(self, threads):
        """Forward, dx and dw at two generator shapes hash the same in this
        process and in one whose BLAS runs ``threads`` threads."""
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(
                [os.path.dirname(os.path.dirname(ag.__file__)), os.path.dirname(__file__)]
            ),
        )
        script = "import test_autograd as t; print(t.conv_digest())"
        run = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert run.stdout.strip() == conv_digest()


def conv_digest() -> str:
    """sha256 of ``_conv``'s forward, dx and dw, f32, c -> 25 channels,
    k=3: 64 channels on a 36x44 plane (the kernel generator's conv) and
    16 on a 48x48 plane (b6's stage-2 generator).  Every pass runs in
    several strips of output rows, and the backward passes' strips differ
    from the forward's: the last conv's forward walks 2 strips, vjp_w 4
    and vjp_x 6."""
    rng = np.random.default_rng(15)
    digest = hashlib.sha256()
    for c, h, w in ((64, 36, 44), (16, 48, 48)):
        x = rng.normal(size=(1, c, h, w)).astype(np.float32)
        wt = rng.normal(size=(25, c, 3, 3)).astype(np.float32)
        b = rng.normal(size=25).astype(np.float32)
        gout = rng.normal(size=(1, 25, h, w)).astype(np.float32)
        for a in _conv_run(x, wt, b, gout, 3, 1, None, 1)[:3]:
            digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


class TestCompressorPrologue:
    """A conv with its 1x1 compressor inside equals ``conv1x1`` then the
    conv byte for byte, forward and every gradient, and never holds the
    compressed map in full."""

    @staticmethod
    def _run(arrays, gout, fused):
        """Output and the gradients of (x, wc, bc, w, b); bc may be None."""
        x, wc, bc, w, b = (None if a is None else Node(a) for a in arrays)
        conv = ag.conv2d if w.shape[1] == wc.shape[0] else ag.conv2d_depthwise
        if fused:
            out = conv(x, w, b, compressor=(wc, bc))
        else:
            out = conv(ag.conv1x1(x, wc, bc), w, b)
        backward(ag.sum_all(ag.mul(out, gout)))
        return [out.data] + [a.grad for a in (x, wc, bc, w, b) if a is not None]

    @pytest.mark.parametrize("floor", [1, 2000, None], ids=["1-row", "2-strips", "1-strip"])
    @pytest.mark.parametrize("bias", [True, False], ids=["bc", "no-bc"])
    @pytest.mark.parametrize("kind", ["dense", "depthwise"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_conv1x1_then_conv(self, dtype, kind, bias, floor, monkeypatch):
        if floor is not None:
            monkeypatch.setattr(ag, "_STRIP_FLOOR", floor)
        rng = np.random.default_rng(28)
        n, c, d, h, w, o = 2, 5, 6, 13, 9, 4
        wt = rng.normal(size=(o, d, 3, 3) if kind == "dense" else (d, 1, 3, 3))
        arrays = [
            rng.normal(size=(n, c, h, w)),
            rng.normal(size=(d, c, 1, 1)),
            rng.normal(size=d) if bias else None,
            wt,
            rng.normal(size=wt.shape[0]),
        ]
        arrays = [None if a is None else a.astype(dtype) for a in arrays]
        gout = rng.normal(size=(n, wt.shape[0], h, w)).astype(dtype)
        fused, composed = self._run(arrays, gout, True), self._run(arrays, gout, False)
        names = ("out", "dx", "dwc", "dbc", "dw", "db") if bias else ("out", "dx", "dwc", "dw", "db")
        assert len(fused) == len(composed) == len(names)
        for name, a, b in zip(names, fused, composed):
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)

    @pytest.mark.parametrize("k", [1, 5])
    def test_other_kernel_sizes(self, k, monkeypatch):
        """A 1x1 kernel with a compressor runs in strips like any other, so
        its dw, which a plain 1x1 conv sums in one GEMM, is summed strip by
        strip; everything else is equal byte for byte."""
        monkeypatch.setattr(ag, "_STRIP_FLOOR", 1)
        rng = np.random.default_rng(31)
        arrays = [rng.normal(size=s) for s in ((2, 3, 11, 7), (4, 3, 1, 1), (4,), (5, 4, k, k), (5,))]
        gout = rng.normal(size=(2, 5, 11, 7))
        got, ref = self._run(arrays, gout, True), self._run(arrays, gout, False)
        for name, a, b in zip(("out", "dx", "dwc", "dbc", "dw", "db"), got, ref):
            np.testing.assert_allclose(a, b, rtol=1e-13 if k == 1 and name == "dw" else 0, atol=0)

    def test_untaped_peak_stays_below_a_compressed_map(self):
        """The l2h encoder branch at the CLI shape, C = d = 64 on a 64x64
        plane: the generator holds its output and strip scratch, less than
        the output and one full (1, 64, 64, 64) compressed map together."""
        rng = np.random.default_rng(29)
        x = rng.normal(size=(1, 64, 64, 64)).astype(np.float32)
        p = kg.make_semishift_params(ShuffledLcg(5), 64, 64, 5, np.float32)
        tracemalloc.start()
        try:
            out = kg._compress_generate(x, p.compressor_en, p.generator)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        compressed = x.nbytes  # d = C, so the map has x's size
        assert peak < out.nbytes + compressed, f"peak {peak / compressed:.2f}x the compressed map"

    def test_taped_forward_keeps_no_compressed_map(self):
        """After a taped forward what stays allocated is the output, the
        weight copy and the closures: the compressed map's record holds no
        data, and vjp_w compresses each strip's rows again from x."""
        rng = np.random.default_rng(30)
        x = Node(rng.normal(size=(4, 12, 48, 48)).astype(np.float32))
        wc = Node(rng.normal(size=(16, 12, 1, 1)).astype(np.float32))
        w = Node(rng.normal(size=(25, 16, 3, 3)).astype(np.float32))
        tracemalloc.start()
        try:
            out = ag.conv2d(x, w, compressor=(wc, None))
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= out.data.nbytes + w.data.nbytes + 16384, (
            f"kept {kept / out.data.nbytes:.2f}x the output"
        )

    @pytest.mark.parametrize(
        "wc,bc",
        [((4, 3, 1, 1), None), ((4, 2, 3, 3), None), ((4, 2), None), ((4, 2, 1, 1), (3,))],
        ids=["in-channels", "not-1x1", "rank-2", "bias"],
    )
    def test_bad_compressor_raises(self, wc, bc):
        compressor = (np.zeros(wc), None if bc is None else np.zeros(bc))
        with pytest.raises(T.ShapeError, match="compressor"):
            ag.conv2d(np.zeros((1, 2, 4, 4)), np.zeros((3, 4, 3, 3)), compressor=compressor)


class TestGradcheckExamples:
    def test_conv2d_small(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        err = ag.gradcheck(lambda X, W: ag.sum_all(ag.conv2d(X, W)), [x, w])
        assert err < 1e-7

    @pytest.mark.parametrize("op", ["conv2d", "dwconv2d", "conv1x1"])
    def test_convs_at_batch_two(self, op):
        """The battery's conv checks run at n=2 but sum the output, and the
        depthwise and 1x1 checks take no bias; here each conv has a bias
        and a random probe, so a gradient sent to the wrong position shows."""
        fn, w_shape = {
            "conv2d": (ag.conv2d, (3, 2, 3, 3)),
            "dwconv2d": (ag.conv2d_depthwise, (2, 1, 3, 3)),
            "conv1x1": (ag.conv1x1, (3, 2, 1, 1)),
        }[op]
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 2, 4, 5))
        w, b = rng.normal(size=w_shape), rng.normal(size=w_shape[0])
        probe = rng.normal(size=fn(x, w, b).shape)
        err = ag.gradcheck(lambda X, W, B: ag.sum_all(ag.mul(fn(X, W, B), probe)), [x, w, b])
        assert err < 1e-7

    def test_input_is_untouched_when_fn_raises(self):
        """gradcheck perturbs a float64 copy of its own, so a check that
        raises between its probes leaves the caller's array as it was."""
        x = np.zeros((1, 1, 2, 2))
        calls = []

        def fn(X):
            calls.append(None)
            if len(calls) == 3:  # the second probe of the first entry
                raise RuntimeError("probe failed")
            return ag.sum_all(X)

        with pytest.raises(RuntimeError, match="probe failed"):
            ag.gradcheck(fn, [x])
        np.testing.assert_array_equal(x, np.zeros((1, 1, 2, 2)))

    def test_maxpool_matches_argmax_routing(self):
        """Forward and gradient equal the reshape-max forward and the argmax
        VJP bit for bit, ties included: a window's gradient goes to its
        first maximum in (r, s) order."""
        rng = np.random.default_rng(9)
        for dtype in (np.float32, np.float64):
            x = rng.integers(0, 3, size=(2, 3, 6, 8)).astype(dtype)  # many ties
            g = rng.normal(size=(2, 3, 3, 4)).astype(dtype)
            win = x.reshape(2, 3, 3, 2, 4, 2).transpose(0, 1, 2, 4, 3, 5).reshape(2, 3, 3, 4, 4)
            d = np.zeros_like(win)
            np.put_along_axis(d, win.argmax(axis=-1)[..., None], g[..., None], axis=-1)
            want = d.reshape(2, 3, 3, 4, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(x.shape)
            xn = Node(x)
            out = ag.maxpool2x2(xn)
            np.testing.assert_array_equal(out.data, win.max(axis=-1))
            backward(ag.sum_all(ag.mul(out, g)))
            assert xn.grad.tobytes() == want.tobytes()

    def test_maxpool_nan_window_passes_no_gradient(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        x[0, 0, 0, 1] = np.nan
        xn = Node(x)
        out = ag.maxpool2x2(xn)
        assert np.isnan(out.data[0, 0, 0, 0]) and np.isnan(out.data).sum() == 1
        backward(ag.sum_all(out))
        assert not xn.grad[0, 0, :2, :2].any()
        assert xn.grad.sum() == 3

    def test_maxpool_tie_free(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        err = ag.gradcheck(lambda X: ag.sum_all(ag.maxpool2x2(X)), [x])
        assert err < 1e-7

    def test_bilinear_both_modes(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2, 3, 5))
        for ac in (False, True):
            err = ag.gradcheck(
                lambda X: ag.sum_all(ag.interp_bilinear_x2(X, ac)), [x]
            )
            assert err < 1e-7

    def test_losses(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(2, 3, 4, 4))
        labels = rng.integers(0, 3, size=(2, 4, 4))
        err = ag.gradcheck(
            lambda Z: ag.softmax_cross_entropy(Z, labels), [logits]
        )
        assert err < 1e-7
        pred = rng.normal(size=(1, 2, 3, 3))
        target = rng.normal(size=(1, 2, 3, 3))
        err = ag.gradcheck(lambda P: ag.mse_loss(P, target), [pred])
        assert err < 1e-7

    def test_interleave_and_concat(self):
        rng = np.random.default_rng(7)
        subs = [rng.normal(size=(1, 2, 2, 2)) for _ in range(4)]
        probe = rng.normal(size=(1, 2, 4, 4))
        err = ag.gradcheck(
            lambda a, b, c, d: ag.sum_all(ag.mul(ag.interleave2x2(a, b, c, d), probe)),
            subs,
        )
        assert err < 1e-7
        a = rng.normal(size=(1, 2, 3, 3))
        b = rng.normal(size=(1, 3, 3, 3))
        probe2 = rng.normal(size=(1, 5, 3, 3))
        err = ag.gradcheck(
            lambda A, B: ag.sum_all(ag.mul(ag.concat_channels(A, B), probe2)), [a, b]
        )
        assert err < 1e-7


def sgd_run(p0, grads, lr, momentum):
    """Data of one parameter Node after one MomentumSGD step per gradient."""
    node = Node(np.array(p0, dtype=np.float64))
    opt = MomentumSGD([node], lr=lr, momentum=momentum)
    for g in grads:
        node.grad = np.array(g, dtype=np.float64)
        opt.step()
    return node.data


class TestSgd:
    def test_single_step_no_momentum(self):
        p = sgd_run([0.0], [[1.0]], lr=0.1, momentum=0.0)
        assert p[0] == pytest.approx(-0.1, abs=1e-15)

    def test_zero_grads_leave_params(self):
        p = np.array([1.0, -2.0])
        np.testing.assert_array_equal(sgd_run(p, [np.zeros(2)], lr=0.5, momentum=0.9), p)

    def test_momentum_recurrence(self):
        lr, mom = 0.1, 0.9
        g1, g2 = np.array([1.0]), np.array([0.5])
        p = np.array([0.0])
        p2 = sgd_run(p, [g1, g2], lr, mom)
        v1 = g1
        v2 = mom * v1 + g2
        want = p - lr * v1 - lr * v2
        np.testing.assert_allclose(p2, want, rtol=1e-14)

    def test_functional_matches_class(self):
        """The class against the classical-momentum recurrence on plain arrays."""
        rng = np.random.default_rng(0)
        p0 = rng.normal(size=(3,))
        gs = [rng.normal(size=(3,)) for _ in range(3)]
        arr, vel = p0.copy(), np.zeros(3)
        for g in gs:
            vel = 0.8 * vel + g
            arr = arr - 0.05 * vel
        np.testing.assert_allclose(sgd_run(p0, gs, 0.05, 0.8), arr, rtol=1e-14)

    def test_nonfinite_gradient_aborts(self):
        node = Node(np.zeros(2), name="weights")
        node.grad = np.array([np.nan, 0.0])
        opt = MomentumSGD([node], lr=0.1)
        with pytest.raises(DivergenceError, match="weights"):
            opt.step()
        with pytest.raises(DivergenceError):
            sgd_run([0.0], [[np.inf]], 0.1, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="lr"):
            MomentumSGD([], lr=0.0)
        with pytest.raises(ValueError, match="momentum"):
            MomentumSGD([], lr=0.1, momentum=1.0)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="positive"):
            MomentumSGD([], lr=lr)


class TestGradcheckBattery:
    def test_all_ops_pass_on_two_seeds(self):
        for seed in (0, 1):
            for name, err in _gradcheck_battery(seed):
                assert err < 1e-6, f"{name} seed {seed}: {err}"

    def test_every_public_op_has_a_case_of_its_own(self):
        """Each public function of the autograd module that is an op is
        gradchecked alone, so a new op without a case fails here."""
        not_ops = {
            "backward", "gradcheck", "grad_of", "pixel_unshuffle_x2", "value_of", "zero_grad"
        }
        public = {
            name
            for name, fn in inspect.getmembers(ag, inspect.isfunction)
            if fn.__module__ == ag.__name__ and not name.startswith("_")
        }
        assert public - not_ops == {_op_name(op) for op, _ in OP_CASES}
