"""Recurrent cells and multi-head attention against independent oracles."""

import numpy as np
import pytest

from ecglearn.errors import ShapeError
from ecglearn.tensor import (Tensor, gradcheck, gru_cell, lstm_cell,
                             multihead_attention, no_grad, param_gradcheck,
                             recurrent_layer, unroll)
from ecglearn.tensor import tensor as tensor_module
from oracles import oracle_sigmoid, oracle_unroll


def T64(arr, **kw):
    return Tensor(np.asarray(arr, dtype=np.float64), **kw)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def make_weights(rng, in_dim, hidden, gates):
    return {
        "w_ih": T64(rng.normal(size=(in_dim, gates * hidden)) * 0.4),
        "w_hh": T64(rng.normal(size=(hidden, gates * hidden)) * 0.4),
        "b_ih": T64(rng.normal(size=gates * hidden) * 0.1),
        "b_hh": T64(rng.normal(size=gates * hidden) * 0.1),
    }


class TestGruCell:
    def test_zero_weights_fixed_point(self):
        # all-zero weights/biases: z = 0.5, n = 0, so h stays 0 for any input
        hidden, in_dim = 4, 6
        zeros = {
            "w_ih": T64(np.zeros((in_dim, 3 * hidden))),
            "w_hh": T64(np.zeros((hidden, 3 * hidden))),
            "b_ih": T64(np.zeros(3 * hidden)),
            "b_hh": T64(np.zeros(3 * hidden)),
        }
        rng = np.random.default_rng(0)
        h = T64(np.zeros((3, hidden)))
        for _ in range(5):
            x = T64(rng.normal(size=(3, in_dim)) * 10)
            h = gru_cell(x, h, **zeros)
            assert np.array_equal(h.data, np.zeros((3, hidden)))

    def test_single_step_matches_gate_formulas(self):
        rng = np.random.default_rng(1)
        w = make_weights(rng, 3, 2, 3)
        x = rng.normal(size=(2, 3))
        h = rng.normal(size=(2, 2))
        out = gru_cell(T64(x), T64(h), **w)

        gi = x @ w["w_ih"].data + w["b_ih"].data
        gh = h @ w["w_hh"].data + w["b_hh"].data
        r = sigmoid(gi[:, 0:2] + gh[:, 0:2])
        z = sigmoid(gi[:, 2:4] + gh[:, 2:4])
        n = np.tanh(gi[:, 4:6] + r * gh[:, 4:6])
        expect = (1 - z) * n + z * h
        assert np.allclose(out.data, expect, atol=1e-12)

    def test_gradcheck_through_cell(self):
        rng = np.random.default_rng(2)
        w = make_weights(rng, 3, 4, 3)
        h0 = T64(rng.normal(size=(2, 4)))
        mix = rng.normal(size=(2, 4))
        report = gradcheck(
            lambda x: (gru_cell(x, h0, **w) * mix).sum(),
            T64(rng.normal(size=(2, 3))))
        assert report.passed


class TestLstmCell:
    def test_single_step_matches_gate_formulas(self):
        # brute-force evaluation of the gate equations on a 2-unit cell
        rng = np.random.default_rng(3)
        w = make_weights(rng, 3, 2, 4)
        x = rng.normal(size=(2, 3))
        h = rng.normal(size=(2, 2))
        c = rng.normal(size=(2, 2))
        h_new, c_new = lstm_cell(T64(x), (T64(h), T64(c)), **w)

        gates = x @ w["w_ih"].data + w["b_ih"].data + h @ w["w_hh"].data + w["b_hh"].data
        i = sigmoid(gates[:, 0:2])
        f = sigmoid(gates[:, 2:4])
        g = np.tanh(gates[:, 4:6])
        o = sigmoid(gates[:, 6:8])
        c_expect = f * c + i * g
        h_expect = o * np.tanh(c_expect)
        assert np.allclose(c_new.data, c_expect, atol=1e-12)
        assert np.allclose(h_new.data, h_expect, atol=1e-12)

    def test_gradcheck_through_cell(self):
        rng = np.random.default_rng(4)
        w = make_weights(rng, 3, 4, 4)
        state = (T64(rng.normal(size=(2, 4))), T64(rng.normal(size=(2, 4))))
        mix = rng.normal(size=(2, 4))
        report = gradcheck(
            lambda x: (lstm_cell(x, state, **w)[0] * mix).sum(),
            T64(rng.normal(size=(2, 3))))
        assert report.passed


class TestUnroll:
    def test_paper_scale_shape(self):
        # 2 layers, hidden 256, batch 2, full 2048-step sequence
        rng = np.random.default_rng(5)
        layers = [make_weights(rng, 8, 256, 3), make_weights(rng, 256, 256, 3)]
        x = T64(rng.normal(size=(2, 2048, 8)).astype(np.float64))
        with no_grad():
            out, states = unroll(x, layers, kind="gru")
        assert out.shape == (2, 2048, 256)
        assert states[-1].shape == (2, 256)

    def test_outputs_match_stepwise_cells(self):
        rng = np.random.default_rng(6)
        layers = [make_weights(rng, 3, 4, 3)]
        x = rng.normal(size=(2, 5, 3))
        out, states = unroll(T64(x), layers, kind="gru")
        h = T64(np.zeros((2, 4)))
        for t in range(5):
            h = gru_cell(T64(x[:, t, :]), h, **layers[0])
            assert np.allclose(out.data[:, t, :], h.data, atol=1e-12)
        assert np.allclose(states[0].data, h.data, atol=1e-12)

    def test_lstm_final_state_pair(self):
        rng = np.random.default_rng(7)
        layers = [make_weights(rng, 3, 4, 4), make_weights(rng, 4, 4, 4)]
        out, states = unroll(T64(rng.normal(size=(2, 6, 3))), layers, kind="lstm")
        assert out.shape == (2, 6, 4)
        h, c = states[1]
        assert h.shape == (2, 4) and c.shape == (2, 4)

    def test_mismatched_stack_raises(self):
        rng = np.random.default_rng(8)
        layers = [make_weights(rng, 3, 4, 3), make_weights(rng, 5, 4, 3)]
        with pytest.raises(ShapeError, match="stacked layer 1"):
            unroll(T64(rng.normal(size=(2, 4, 3))), layers, kind="gru")

    @pytest.mark.parametrize("kind, gates", [("gru", 3), ("lstm", 4)])
    def test_split_sequence_continues_from_initial(self, kind, gates):
        rng = np.random.default_rng(10)
        layers = [make_weights(rng, 3, 4, gates), make_weights(rng, 4, 4, gates)]
        x = T64(rng.normal(size=(2, 6, 3)))
        out, states = unroll(x, layers, kind=kind)
        first, mid = unroll(x[:, :3, :], layers, kind=kind)
        second, end = unroll(x[:, 3:, :], layers, kind=kind, initial=mid)
        assert np.concatenate([first.data, second.data], axis=1).tobytes() \
            == out.data.tobytes()

        def flat(layer_states):
            return [t.data.tobytes() for s in layer_states
                    for t in (s if kind == "lstm" else (s,))]

        assert flat(end) == flat(states)

    @pytest.mark.parametrize("case", ["too-few-states", "wrong-width"])
    @pytest.mark.parametrize("kind, gates", [("gru", 3), ("lstm", 4)])
    def test_malformed_initial_names_initial(self, kind, gates, case):
        rng = np.random.default_rng(11)
        layers = [make_weights(rng, 3, 4, gates), make_weights(rng, 4, 4, gates)]
        x = T64(rng.normal(size=(2, 5, 3)))
        _, states = unroll(x, layers, kind=kind)
        narrow = T64(np.zeros((2, 3)))
        initial = {"too-few-states": states[:1],
                   "wrong-width": [states[0],
                                   (narrow, narrow) if kind == "lstm" else narrow]}[case]
        with pytest.raises(ShapeError, match="initial"):
            unroll(x, layers, kind=kind, initial=initial)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_initial", [False, True], ids=["zeros", "initial"])
    @pytest.mark.parametrize("num_layers", [1, 3])
    @pytest.mark.parametrize("kind, gates", [("gru", 3), ("lstm", 4)])
    def test_matches_oracle_bitwise(self, kind, gates, num_layers, with_initial,
                                    dtype, monkeypatch):
        B, T, F, H = 3, 5, 4, 6

        def run(unroll_fn):
            rng = np.random.default_rng(13)

            def leaf(shape, scale=1.0):
                data = (rng.normal(size=shape) * scale).astype(dtype)
                return Tensor(data, requires_grad=True)

            def flat(layer_states):
                return [t for s in layer_states for t in (s if kind == "lstm" else (s,))]

            x = leaf((B, T, F))
            layers = [{"w_ih": leaf((F if li == 0 else H, gates * H), 0.4),
                       "w_hh": leaf((H, gates * H), 0.4),
                       "b_ih": leaf(gates * H, 0.1), "b_hh": leaf(gates * H, 0.1)}
                      for li in range(num_layers)]
            initial = None
            if with_initial:
                initial = [(leaf((B, H)), leaf((B, H))) if kind == "lstm"
                           else leaf((B, H)) for _ in range(num_layers)]
            out, states = unroll_fn(x, layers, kind=kind, initial=initial)
            # every output and every final state feeds the loss
            loss = (out * Tensor(rng.normal(size=out.shape).astype(dtype))).sum()
            for t in flat(states):
                loss = loss + (t * Tensor(rng.normal(size=t.shape).astype(dtype))).sum()
            loss.backward()
            leaves = [x, *(w for lw in layers for w in lw.values()),
                      *flat(initial or [])]
            return [t.data for t in (out, *flat(states))] + [t.grad for t in leaves]

        got = run(unroll)
        monkeypatch.setattr(tensor_module, "stable_sigmoid", oracle_sigmoid)
        want = run(oracle_unroll)
        assert len(got) == len(want)
        for i, (a, b) in enumerate(zip(got, want)):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes(), i

    def test_gradcheck_through_short_unroll(self):
        rng = np.random.default_rng(9)
        layers = [make_weights(rng, 3, 3, 3), make_weights(rng, 3, 3, 3)]
        mix = rng.normal(size=(2, 3))

        def f(x):
            _, states = unroll(x, layers, kind="gru")
            return (states[-1] * mix).sum()

        report = gradcheck(f, T64(rng.normal(size=(2, 4, 3))))
        assert report.passed


def stacked_layers(x, layers, kind):
    for lw in layers:
        x = recurrent_layer(x, lw["w_ih"], lw["w_hh"], lw["b_ih"], lw["b_hh"], kind)
    return x


class TestRecurrentLayer:
    """The fused one-node layer against the composed ``unroll``."""

    @staticmethod
    def leaves(kind, gates, num_layers, T, dtype, seed=21, B=3, F=4, H=5):
        rng = np.random.default_rng(seed)

        def leaf(shape, scale=1.0):
            return Tensor((rng.normal(size=shape) * scale).astype(dtype),
                          requires_grad=True)

        x = leaf((B, T, F))
        layers = [{"w_ih": leaf((F if li == 0 else H, gates * H), 0.4),
                   "w_hh": leaf((H, gates * H), 0.4),
                   "b_ih": leaf(gates * H, 0.1), "b_hh": leaf(gates * H, 0.1)}
                  for li in range(num_layers)]
        mix = Tensor(rng.normal(size=(B, T, H)).astype(dtype))
        return x, layers, mix

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("T", [1, 7])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("kind, gates", [("gru", 3), ("lstm", 4)])
    def test_matches_unroll(self, kind, gates, num_layers, T, dtype, rtol):
        x, layers, mix = self.leaves(kind, gates, num_layers, T, dtype)
        leaves = [x, *(w for lw in layers for w in lw.values())]

        def run(fn):
            for t in leaves:
                t.grad = None
            out = fn()
            (out * mix).sum().backward()
            return out.data, [t.grad for t in leaves]

        got, got_grads = run(lambda: stacked_layers(x, layers, kind))
        want, want_grads = run(lambda: unroll(x, layers, kind=kind)[0])
        assert got.dtype == dtype and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)
        # the GEMMs over all steps sum in another order than the steps do
        for g, w in zip(got_grads, want_grads):
            assert g.dtype == dtype
            np.testing.assert_allclose(g, w, rtol=0, atol=100 * rtol * np.abs(w).max())

    @pytest.mark.parametrize("kind, gates", [("gru", 3), ("lstm", 4)])
    def test_param_gradcheck(self, kind, gates):
        x, layers, mix = self.leaves(kind, gates, 2, 4, np.float64, seed=22)
        params = {"x": x, **{f"layer{li}.{k}": w for li, lw in enumerate(layers)
                             for k, w in lw.items()}}
        report = param_gradcheck(lambda: (stacked_layers(x, layers, kind) * mix).sum(),
                                 params, samples_per_param=None)
        assert report.passed, report

    @pytest.mark.parametrize("kind, gates", [("gru", 3), ("lstm", 4)])
    def test_seeded_rerun_is_bitwise(self, kind, gates):
        def run():
            x, layers, mix = self.leaves(kind, gates, 2, 9, np.float32, seed=23)
            out = stacked_layers(x, layers, kind)
            (out * mix).sum().backward()
            return [out.data, x.grad, *(w.grad for lw in layers for w in lw.values())]

        first, second = run(), run()
        assert [a.tobytes() for a in first] == [b.tobytes() for b in second]

    @pytest.mark.parametrize("case, match", [
        ("x-2d", r"\[B, T, F\]"), ("x-no-steps", r"T >= 1"),
        ("w_ih-rows", "w_ih shape"), ("w_ih-cols", "w_ih shape"),
        ("w_hh", "w_hh shape"), ("b_hh", "biases"), ("kind", "unknown cell kind")])
    def test_misshapen_input_is_shape_error(self, case, match):
        x, (lw,), _ = self.leaves("gru", 3, 1, 4, np.float64)
        args = {**lw, "x": x, "kind": "rnn" if case == "kind" else "gru"}
        args.update({"x-2d": {"x": x[:, 0, :]},
                     "x-no-steps": {"x": x[:, :0, :]},
                     "w_ih-rows": {"w_ih": Tensor(np.zeros((3, 15)))},
                     "w_ih-cols": {"w_ih": Tensor(np.zeros((4, 12)))},
                     "w_hh": {"w_hh": Tensor(np.zeros((5, 12)))},
                     "b_hh": {"b_hh": Tensor(np.zeros(12))},
                     "kind": {}}[case])
        with pytest.raises(ShapeError, match=match):
            recurrent_layer(**args)


def identity_proj(dim):
    eye = T64(np.eye(dim))
    zero = T64(np.zeros(dim))
    return dict(wq=eye, bq=zero, wk=T64(np.eye(dim)), bk=T64(np.zeros(dim)),
                wv=T64(np.eye(dim)), bv=T64(np.zeros(dim)),
                wo=T64(np.eye(dim)), bo=T64(np.zeros(dim)))


class TestAttention:
    def test_single_token_weight_is_one(self):
        # softmax over one key gives weight exactly 1 -> output == value
        rng = np.random.default_rng(10)
        x = T64(rng.normal(size=(2, 1, 4)))
        out = multihead_attention(x, x, x, 2, **identity_proj(4))
        assert np.allclose(out.data, x.data, atol=1e-12)

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(11)
        keys = T64(np.tile(rng.normal(size=(1, 1, 4)), (2, 6, 1)))
        values = T64(rng.normal(size=(2, 6, 4)))
        q = T64(rng.normal(size=(2, 3, 4)))
        out = multihead_attention(q, keys, values, 2, **identity_proj(4))
        expect = np.tile(values.data.mean(axis=1, keepdims=True), (1, 3, 1))
        assert np.allclose(out.data, expect, atol=1e-12)

    def test_paper_scale_shape(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 64, 512)).astype(np.float32))
        proj = {k: Tensor(v.data.astype(np.float32)) for k, v in identity_proj(512).items()}
        out = multihead_attention(x, x, x, 4, **proj)
        assert out.shape == (2, 64, 512)

    def test_indivisible_heads_raise(self):
        x = T64(np.zeros((1, 3, 10)))
        with pytest.raises(ShapeError, match="not divisible"):
            multihead_attention(x, x, x, 4, **identity_proj(10))

    def test_gradcheck_through_attention(self):
        rng = np.random.default_rng(13)
        proj = {k: T64(rng.normal(size=v.shape) * 0.4) if v.ndim == 2
                else T64(rng.normal(size=v.shape) * 0.1)
                for k, v in identity_proj(4).items()}
        mix = rng.normal(size=(2, 3, 4))

        def f(x):
            return (multihead_attention(x, x, x, 2, **proj) * mix).sum()

        report = gradcheck(f, T64(rng.normal(size=(2, 3, 4))))
        assert report.passed
