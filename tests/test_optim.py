import numpy as np
import pytest

from tinymmt.numerics import AdamState, ParameterStore, Tensor, adam_step


def make_store(values, trainable=None):
    store = ParameterStore()
    for name, data in values.items():
        store.add(name, Tensor(np.array(data, dtype=float)))
    if trainable is not None:
        store.set_trainable(trainable)
    return store


def test_zero_gradient_leaves_parameters_unchanged():
    store = make_store({"w.a": [1.0, 2.0], "w.b": [[3.0]]})
    state = AdamState(store, lr=0.1)
    for _, p in store.items():
        p.grad = np.zeros_like(p.data)
    before = {n: p.data.copy() for n, p in store.items()}
    adam_step(store, state)
    for name, p in store.items():
        assert np.array_equal(p.data, before[name])


def test_single_scalar_first_step_matches_hand_adam():
    # w=0, g=1, lr=0.1: bias correction makes both moment estimates 1,
    # so the update is lr * 1 / (1 + eps) ~ 0.1
    store = make_store({"w": 0.0})
    state = AdamState(store, lr=0.1)
    store["w"].grad = np.array(1.0)
    adam_step(store, state)
    assert abs(float(store["w"].data) - (-0.1)) < 1e-6


def test_two_steps_match_hand_adam():
    # beta1 0.9, beta2 0.999, eps 1e-8. Bias correction cancels both betas
    # in the first step only, and gradients near 1e-8 put eps on the scale
    # of sqrt(v) (the first step moves the second coordinate by lr / 2)
    store = make_store({"w": [0.0, 0.0]})
    state = AdamState(store, lr=0.1)
    m = v = want = np.zeros(2)
    for t, g in ((1, np.array([1.0, 1e-8])), (2, np.array([-0.5, 3e-8]))):
        store["w"].grad = g.copy()
        adam_step(store, state)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        want = want - 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    assert np.allclose(store["w"].data, want, rtol=1e-12, atol=0.0)


def test_frozen_parameter_bit_identical_despite_gradient():
    store = make_store({"a.w": [1.0, -1.0], "b.w": [2.0, 3.0]}, trainable={"a.w"})
    state = AdamState(store, lr=0.5)
    store["a.w"].grad = np.array([1.0, 1.0])
    store["b.w"].grad = np.array([100.0, -100.0])  # must be ignored
    frozen_bytes = store["b.w"].data.tobytes()
    adam_step(store, state)
    assert store["b.w"].data.tobytes() == frozen_bytes
    assert not np.array_equal(store["a.w"].data, [1.0, -1.0])


def test_missing_gradient_names_the_parameter():
    store = make_store({"layer.w": [1.0]})
    state = AdamState(store, lr=0.1)
    with pytest.raises(ValueError, match="layer.w"):
        adam_step(store, state)


def test_gradients_zeroed_after_step():
    store = make_store({"w": [1.0, 2.0]})
    state = AdamState(store, lr=0.1)
    store["w"].grad = np.array([1.0, 1.0])
    adam_step(store, state)
    assert store["w"].grad is None


def test_trainable_set_drift_rejected():
    store = make_store({"a.w": [1.0], "b.w": [1.0]})
    state = AdamState(store, lr=0.1)
    store.set_trainable({"a.w"})
    store["a.w"].grad = np.array([1.0])
    with pytest.raises(ValueError, match="trainable set changed"):
        adam_step(store, state)


def test_moments_exist_exactly_for_trainable():
    store = make_store({"a.w": [1.0], "b.w": [1.0]}, trainable={"a.w"})
    state = AdamState(store, lr=0.1)
    assert set(state.m) == {"a.w"}
    assert set(state.v) == {"a.w"}


def test_store_iterates_lexicographically():
    store = make_store({"z.w": [1.0], "a.w": [1.0], "m.b": [1.0]})
    assert store.names() == ["a.w", "m.b", "z.w"]
    assert [n for n, _ in store.items()] == ["a.w", "m.b", "z.w"]
    assert store.components() == ["a", "m", "z"]


def test_same_seed_bit_identical_trajectories():
    def run():
        rng = np.random.default_rng(42)
        store = make_store({"w": rng.normal(size=(4, 4))})
        state = AdamState(store, lr=1e-2)
        trajectory = []
        for step in range(5):
            grad_rng = np.random.default_rng(100 + step)
            store["w"].grad = grad_rng.normal(size=(4, 4))
            adam_step(store, state)
            trajectory.append(store["w"].data.tobytes())
        return trajectory

    assert run() == run()
