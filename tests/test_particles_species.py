"""Unit tests for the SoA species container."""

import numpy as np
import pytest

from repro.constants import c, m_e, q_e
from repro.exceptions import ConfigurationError
from repro.particles.species import Species


def test_empty_container():
    s = Species("e", ndim=2)
    assert len(s) == 0
    assert s.n == 0
    assert s.kinetic_energy() == 0.0


def test_add_particles_defaults():
    s = Species("e", ndim=2)
    ids = s.add_particles([[0.0, 1.0], [2.0, 3.0]])
    assert s.n == 2
    np.testing.assert_array_equal(ids, [0, 1])
    np.testing.assert_allclose(s.momenta, 0.0)
    np.testing.assert_allclose(s.weights, 1.0)


def test_ids_are_unique_across_additions():
    s = Species("e", ndim=1)
    a = s.add_particles([[0.0]])
    b = s.add_particles([[1.0], [2.0]])
    assert set(a) | set(b) == {0, 1, 2}


def test_add_wrong_shape_raises():
    s = Species("e", ndim=2)
    with pytest.raises(ConfigurationError):
        s.add_particles([[1.0, 2.0, 3.0]])
    with pytest.raises(ConfigurationError):
        s.add_particles([[1.0, 2.0]], momenta=[[1.0, 2.0]])


def test_remove_returns_removed():
    s = Species("e", ndim=1)
    s.add_particles([[float(i)] for i in range(5)])
    removed = s.remove(s.positions[:, 0] >= 3.0)
    assert s.n == 3
    assert removed.n == 2
    np.testing.assert_array_equal(removed.ids, [3, 4])


def test_extend_preserves_ids():
    a = Species("e", ndim=1)
    a.add_particles([[0.0]])
    b = Species("e", ndim=1)
    b.add_particles([[1.0], [2.0]])
    moved = b.remove(np.array([True, False]))
    a.extend(moved)
    assert a.n == 2
    assert list(a.ids) == [0, 0]  # ids are per-container counters
    with pytest.raises(ConfigurationError):
        a.extend(Species("e", ndim=2))


def test_gamma_and_velocity():
    s = Species("e", ndim=1)
    s.add_particles([[0.0]], momenta=[[3.0, 0.0, 4.0]])  # |u| = 5
    np.testing.assert_allclose(s.gamma(), np.sqrt(26.0))
    v = s.velocities()
    np.testing.assert_allclose(np.linalg.norm(v), 5.0 * c / np.sqrt(26.0))


def test_kinetic_energy_scaling_with_weight():
    s = Species("e", ndim=1)
    s.add_particles([[0.0]], momenta=[[1.0, 0.0, 0.0]], weights=[2.0])
    expected = (np.sqrt(2.0) - 1.0) * m_e * c**2 * 2.0
    assert s.kinetic_energy() == pytest.approx(expected)


def test_total_charge():
    s = Species("e", charge=-q_e, ndim=1)
    s.add_particles([[0.0], [1.0]], weights=[1e9, 2e9])
    assert s.total_charge() == pytest.approx(-3e9 * q_e)


def test_reorder_permutation():
    s = Species("e", ndim=1)
    s.add_particles([[0.0], [1.0], [2.0]])
    s.reorder(np.array([2, 0, 1]))
    np.testing.assert_allclose(s.positions[:, 0], [2.0, 0.0, 1.0])
    np.testing.assert_array_equal(s.ids, [2, 0, 1])


def test_copy_independent():
    s = Species("e", ndim=1)
    s.add_particles([[1.0]])
    t = s.copy()
    t.positions += 5.0
    assert s.positions[0, 0] == 1.0


def test_bad_construction():
    with pytest.raises(ConfigurationError):
        Species("e", ndim=4)
    with pytest.raises(ConfigurationError):
        Species("e", mass=-1.0)


# -- id-counter regressions (migration + injection) --------------------------

def test_extend_advances_id_counter_past_absorbed_ids():
    """Regression: ``extend`` used to leave ``_next_id`` untouched, so a
    rank that absorbed migrated particles and then injected fresh plasma
    handed out the ids it had just received."""
    sender = Species("e", ndim=1)
    sender.add_particles([[0.0], [1.0], [2.0]])  # ids 0, 1, 2
    receiver = Species("e", ndim=1)
    receiver.add_particles([[5.0]])  # id 0
    migrated = sender.remove(np.array([False, True, True]))  # ids 1, 2
    receiver.extend(migrated)
    new_ids = receiver.add_particles([[6.0], [7.0]])
    assert new_ids.min() >= 3
    assert len(set(receiver.ids)) == receiver.n


def test_select_inherits_id_counter():
    """Regression: ``select`` used to return a species whose counter
    restarted at 0, colliding with the copied ids on the next add."""
    s = Species("e", ndim=1)
    s.add_particles([[0.0], [1.0]])  # ids 0, 1
    sub = s.select(np.array([True, True]))
    new_ids = sub.add_particles([[2.0]])
    assert new_ids[0] == 2
    assert len(set(sub.ids)) == sub.n


def _arrays(sp):
    return [sp.positions, sp.momenta, sp.weights, sp.ids]


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_select_and_remove_compact_like_boolean_indexing(ndim):
    """``select`` / ``remove`` compact through an index array and ``take``;
    the result is byte for byte what boolean-mask indexing gives — values,
    dtype, shape, C order — for a mask, an index array and an empty
    selection, and the id counter is unchanged."""
    rng = np.random.default_rng(ndim)
    s = Species("e", ndim=ndim)
    s.add_particles(rng.random((37, ndim)), momenta=rng.normal(size=(37, 3)),
                    weights=rng.random(37))
    s.remove(np.arange(37) % 5 == 0)  # ids with holes, counter at 37
    mask = rng.random(s.n) < 0.4
    index = np.flatnonzero(mask)[::-1]
    for selector, want in (
        (mask, [a[mask] for a in _arrays(s)]),
        (index, [a[index] for a in _arrays(s)]),
        (np.zeros(s.n, dtype=bool), [a[:0] for a in _arrays(s)]),
        (np.array([], dtype=np.int64), [a[:0] for a in _arrays(s)]),
        ([], [a[:0] for a in _arrays(s)]),
    ):
        sub = s.select(selector)
        assert sub._next_id == s._next_id == 37
        for got, ref in zip(_arrays(sub), want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.flags.c_contiguous and got.tobytes() == ref.tobytes()
    for removing in (mask, np.zeros(s.n, dtype=bool), np.ones(s.n, dtype=bool)):
        kept = s.copy()
        want_kept = [a[~removing] for a in _arrays(s)]
        want_gone = [a[removing] for a in _arrays(s)]
        gone = kept.remove(removing)
        assert kept._next_id == gone._next_id == 37
        for got, ref in zip(_arrays(kept) + _arrays(gone), want_kept + want_gone):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
    with pytest.raises(ConfigurationError, match="mask of shape"):
        s.select(np.ones(s.n + 1, dtype=bool))
