import numpy as np
import pytest

from chiralqed.fock_algebra import FockCutoff, annihilation, atom_lowering, composite_operators

from conftest import product_index


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
    a = annihilation(FockCutoff(n_max))
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


def test_label_index_ordering():
    # atom index is the slow one: |e, n> sits n_max + 1 slots after |g, n>
    cutoff = FockCutoff(3)
    assert product_index("g", 0, cutoff) == 0
    assert product_index("g", 3, cutoff) == 3
    assert product_index("e", 0, cutoff) == 4
    assert product_index("e", 2, cutoff) == 6


def test_composite_operators_action():
    cutoff = FockCutoff(2)
    a, sm = composite_operators(cutoff)
    assert a.shape == (6, 6) and sm.shape == (6, 6)

    def ket(atom, n):
        v = np.zeros(cutoff.dim, dtype=complex)
        v[product_index(atom, n, cutoff)] = 1.0
        return v

    np.testing.assert_allclose(a @ ket("g", 1), ket("g", 0), atol=1e-15)
    np.testing.assert_allclose(a @ ket("e", 2), np.sqrt(2) * ket("e", 1), atol=1e-15)
    np.testing.assert_allclose(sm @ ket("e", 1), ket("g", 1), atol=1e-15)
    np.testing.assert_array_equal(sm @ ket("g", 0), np.zeros(6))
    # the two factors commute
    np.testing.assert_allclose(a @ sm, sm @ a, atol=1e-15)


def test_composite_operators_are_built_once_and_read_only():
    a, sm = composite_operators(FockCutoff(3))
    assert composite_operators(FockCutoff(3))[0] is a
    for op in (a, sm):
        with pytest.raises(ValueError, match="read-only"):
            op[0, 1] = 0.0
