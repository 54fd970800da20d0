import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralqed.fock_algebra import (
    BasisLabel,
    FockCutoff,
    annihilation,
    atom_lowering,
    composite_operators,
    kron,
    label_to_index,
)

from conftest import index_to_label


def test_annihilation_two_levels():
    a = annihilation(1)
    np.testing.assert_array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))


def test_annihilation_matrix_elements():
    a = annihilation(FockCutoff(3))
    for n in range(1, 4):
        assert a[n - 1, n] == pytest.approx(np.sqrt(n))
    # everything off the first superdiagonal vanishes
    assert np.count_nonzero(a) == 3


def test_number_operator_diagonal():
    a = annihilation(FockCutoff(5))
    num = a.conj().T @ a
    np.testing.assert_allclose(num, np.diag(np.arange(6, dtype=float)), atol=1e-15)


def test_commutator_exact_below_cutoff():
    n_max = 6
    a = annihilation(n_max)
    ad = a.conj().T
    comm = a @ ad - ad @ a
    expected = np.eye(n_max + 1, dtype=complex)
    expected[n_max, n_max] = -n_max  # truncation artifact in the top corner
    np.testing.assert_allclose(comm, expected, atol=1e-13)


def test_fock_cutoff_rejects_small_and_nonint():
    with pytest.raises(ValueError):
        FockCutoff(1)
    with pytest.raises(TypeError):
        FockCutoff(2.0)
    with pytest.raises(TypeError):
        FockCutoff(True)
    assert FockCutoff(2).dim == 6
    assert FockCutoff(8).fock_dim == 9


def test_annihilation_rejects_negative_int():
    with pytest.raises(ValueError):
        annihilation(-1)
    # bare 0 is fine: a one-level ladder is just the zero operator
    assert annihilation(0).shape == (1, 1)


def test_atom_lowering_action():
    sm = atom_lowering()
    ground = np.array([1.0, 0.0], dtype=complex)
    excited = np.array([0.0, 1.0], dtype=complex)
    np.testing.assert_array_equal(sm @ excited, ground)
    np.testing.assert_array_equal(sm @ ground, np.zeros(2))
    np.testing.assert_array_equal(sm @ sm, np.zeros((2, 2)))
    proj = sm.conj().T @ sm
    np.testing.assert_array_equal(proj, np.diag([0.0, 1.0]))
    anti = sm @ sm.conj().T + sm.conj().T @ sm
    np.testing.assert_array_equal(anti, np.eye(2))


def test_kron_identity_blocks():
    np.testing.assert_array_equal(
        kron(np.eye(2), np.eye(3)), np.eye(6, dtype=complex)
    )


def test_kron_rejects_nonsquare():
    with pytest.raises(ValueError):
        kron(np.ones((2, 3)), np.eye(2))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_kron_mixed_product(seed):
    """(A kron B)(C kron D) = (AC) kron (BD) for random complex factors."""
    rng = np.random.default_rng(seed)
    a, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
    b, d = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_label_index_round_trip():
    cutoff = FockCutoff(4)
    seen = set()
    for idx in range(cutoff.dim):
        label = index_to_label(idx, cutoff)
        assert label_to_index(label, cutoff) == idx
        seen.add((label.atom, label.photons))
    assert len(seen) == cutoff.dim


def test_label_index_ordering():
    # atom index is the slow one: |e, n> sits n_max + 1 slots after |g, n>
    cutoff = FockCutoff(3)
    assert label_to_index(BasisLabel("g", 0), cutoff) == 0
    assert label_to_index(BasisLabel("g", 3), cutoff) == 3
    assert label_to_index(BasisLabel("e", 0), cutoff) == 4
    assert label_to_index(BasisLabel("e", 2), cutoff) == 6


def test_label_validation():
    with pytest.raises(ValueError):
        BasisLabel("x", 0)
    with pytest.raises(ValueError):
        BasisLabel("g", -1)
    with pytest.raises(ValueError):
        label_to_index(BasisLabel("g", 5), FockCutoff(4))
    with pytest.raises(ValueError):
        index_to_label(10, FockCutoff(4))


def test_composite_operators_action():
    cutoff = FockCutoff(2)
    a, sm = composite_operators(cutoff)
    assert a.shape == (6, 6) and sm.shape == (6, 6)

    def ket(atom, n):
        v = np.zeros(cutoff.dim, dtype=complex)
        v[label_to_index(BasisLabel(atom, n), cutoff)] = 1.0
        return v

    np.testing.assert_allclose(a @ ket("g", 1), ket("g", 0), atol=1e-15)
    np.testing.assert_allclose(a @ ket("e", 2), np.sqrt(2) * ket("e", 1), atol=1e-15)
    np.testing.assert_allclose(sm @ ket("e", 1), ket("g", 1), atol=1e-15)
    np.testing.assert_array_equal(sm @ ket("g", 0), np.zeros(6))
    # the two factors commute
    np.testing.assert_allclose(a @ sm, sm @ a, atol=1e-15)


def test_composite_operators_are_built_once_and_read_only():
    a, sm = composite_operators(FockCutoff(3))
    assert composite_operators(3)[0] is a
    for op in (a, sm):
        with pytest.raises(ValueError, match="read-only"):
            op[0, 1] = 0.0
