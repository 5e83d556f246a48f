"""G-lattice calculus tests."""

import pytest
from hypothesis import given, settings, strategies as st

from glattice.errors import InvalidParameterError
from glattice.gmod import (
    EquivariantMap,
    GLattice,
    ShortExactSequence,
    augmentation_kernel,
    augmentation_map,
    check_exact,
    coset_lattice,
    direct_sum,
    dual,
    fixed_sublattice,
    norm_matrix,
    regular,
    restrict,
    sublattice_with_action,
    trivial,
)
from glattice.groups import (
    cyclic,
    semidirect,
    subgroup_from_generators,
    symmetric,
    whole_group,
)
from glattice.intlinalg import IntMatrix
from reference import (
    det, identity_map, is_unimodular_by_hermite, lattices_equal_all_elements, tensor,
)


def augmentation_sequence_of(P):
    """0 -> I -> ZX -> Z -> 0 for a permutation lattice ZX."""
    _, incl = augmentation_kernel(P)
    return ShortExactSequence(incl, augmentation_map(P))


def s3():
    return semidirect(3, 2, 2)


def sign_lattice(G, gen):
    """Rank-1 lattice where gen acts by -1 (G must be generated by gen with order 2)."""
    action = []
    for g in G.elements():
        # express g as power of gen
        sign = 1
        x = G.identity
        k = 0
        while x != g:
            x = G.mul(x, gen)
            k += 1
        sign = -1 if k % 2 else 1
        action.append(IntMatrix.from_rows([[sign]]))
    return GLattice(G, action)


class TestConstructors:
    def test_trivial(self):
        M = trivial(s3())
        assert M.rank == 1
        assert all(M.action[g] == IntMatrix.identity(1) for g in range(6))

    def test_coset_lattice_rank(self):
        G = s3()
        t = G.generator_indices["t"]
        M = coset_lattice(G, subgroup_from_generators(G, [t]))
        assert M.rank == 3
        assert M.is_permutation_action()

    def test_regular_fixed_point_free(self):
        G = s3()
        M = regular(G)
        assert M.rank == 6
        for g in range(1, 6):
            trace = sum(int(M.action[g][i, i]) for i in range(6))
            assert trace == 0

    def test_validate_is_exhaustive(self):
        M = regular(symmetric(3))
        M.validate()
        # sabotage one action matrix: homomorphism property must fail
        bad = list(M.action)
        bad[1] = IntMatrix.identity(6)
        with pytest.raises(InvalidParameterError):
            GLattice(M.group, bad).validate()


class TestDual:
    def test_dual_trivial(self):
        G = s3()
        assert lattices_equal_all_elements(dual(trivial(G)), trivial(G))

    def test_double_dual(self):
        M = sign_lattice(cyclic(2), 1)
        assert lattices_equal_all_elements(dual(dual(M)), M)

    def test_permutation_self_dual(self):
        G = s3()
        M = coset_lattice(G, subgroup_from_generators(G, [G.generator_indices["t"]]))
        assert lattices_equal_all_elements(dual(M), M)


class TestSumsAndTensors:
    def test_tensor_with_trivial_is_identity(self):
        G = cyclic(4)
        M = regular(G)
        T = tensor(trivial(G), M)
        assert lattices_equal_all_elements(T, M)

    def test_direct_sum_ranks_add(self):
        G = s3()
        assert direct_sum(regular(G), trivial(G)).rank == 7

    def test_tensor_of_regulars_is_free(self):
        # ZG tensor ZG decomposes as ZG^(|G|): basis pairs (g, gh) split into
        # |G| free orbits indexed by h; verified by brute-force orbit count.
        G = cyclic(2)
        T = tensor(regular(G), regular(G))
        assert T.is_permutation_action()
        # orbit enumeration on basis indices (i, j) ~ i*2+j
        orbits = set()
        for i in range(2):
            for j in range(2):
                orbit = frozenset(
                    (G.mul(g, i) * 2 + G.mul(g, j)) for g in G.elements()
                )
                orbits.add(orbit)
        assert len(orbits) == 2 and all(len(o) == 2 for o in orbits)
        # explicit unimodular equivariant map from ZG + ZG
        cols = []
        for h in G.elements():
            for g in G.elements():
                v = [0, 0, 0, 0]
                v[g * 2 + G.mul(g, h)] = 1
                cols.append(v)
        m = IntMatrix.from_columns(cols)
        phi = EquivariantMap(direct_sum(regular(G), regular(G)), T, m)
        phi.validate()
        assert is_unimodular_by_hermite(phi.matrix)

    def test_inverse_is_only_a_constructed_one(self):
        # unimodular, but built without an inverse: inverse() solves for none
        M = regular(cyclic(3))
        eye = EquivariantMap(M, M, IntMatrix.identity(3))
        assert is_unimodular_by_hermite(eye.matrix)
        with pytest.raises(InvalidParameterError, match="not constructed with an inverse"):
            eye.inverse()


    @given(st.lists(st.integers(-3, 3), min_size=9, max_size=9), st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_unimodular_against_determinant(self, flat, shear):
        # shearing the identity by flat gives determinant 1, the raw entries anything
        m = IntMatrix.from_rows([flat[0:3], flat[3:6], flat[6:9]])
        if shear:
            m = IntMatrix.from_rows(
                [[1 if i == j else (flat[3 * i + j] if j > i else 0) for j in range(3)]
                 for i in range(3)]) @ IntMatrix.from_rows(
                [[1 if i == j else (flat[3 * j + i] if i > j else 0) for j in range(3)]
                 for i in range(3)])
        assert is_unimodular_by_hermite(m) == (abs(det(m)) == 1)


class TestRestrictInduceFixedNorm:
    def test_restrict_regular_is_free(self):
        G = s3()
        H = subgroup_from_generators(G, [G.generator_indices["s"]])
        R = restrict(regular(G), H)
        assert R.group.order == 3
        assert R.is_permutation_action()
        for h in range(1, 3):
            assert sum(int(R.action[h][i, i]) for i in range(6)) == 0

    def test_fixed_sublattice_of_regular(self):
        G = s3()
        F = fixed_sublattice(regular(G), whole_group(G))
        assert F.cols == 1
        assert F.col_list(0) == [1] * 6

    def test_norm_matrix(self):
        G = cyclic(3)
        N = norm_matrix(regular(G), whole_group(G))
        assert all(int(N[i, j]) == 1 for i in range(3) for j in range(3))


class TestExactness:
    def test_canonical_split_sequence(self):
        G = s3()
        M, P = trivial(G), regular(G)
        B = direct_sum(M, P)
        incl = EquivariantMap(M, B, IntMatrix.from_columns([[1, 0, 0, 0, 0, 0, 0]]))
        proj = EquivariantMap(
            B, P, IntMatrix.identity(7).take_rows(range(1, 7))
        )
        report = check_exact(ShortExactSequence(incl, proj))
        assert report.ok, report.failures

    def test_augmentation_sequence(self):
        G = s3()
        seq = augmentation_sequence_of(regular(G))
        report = check_exact(seq)
        assert report.ok, report.failures
        assert seq.A.rank == 5

    def test_zero_right_map_diagnosed(self):
        G = cyclic(2)
        P = regular(G)
        I, incl = augmentation_kernel(P)
        zero = EquivariantMap(P, trivial(G), IntMatrix.zeros(1, 2))
        report = check_exact(ShortExactSequence(incl, zero))
        assert not report.ok
        assert any("surjective" in f for f in report.failures)


class TestExactnessTorture:
    def _known_sequence(self):
        G = s3()
        return augmentation_sequence_of(regular(G))

    def test_survives_unimodular_change_of_middle_basis(self):
        # conjugating the middle lattice by any unimodular map must not
        # change the exactness verdict
        seq = self._known_sequence()
        B = seq.B
        rows = IntMatrix.identity(B.rank).to_lists()
        seed = 11
        for _ in range(10):
            seed = (1103515245 * seed + 12345) % (1 << 31)
            i, j = seed % B.rank, (seed >> 9) % B.rank
            if i != j:
                for row in rows:
                    row[i] += ((seed >> 17) % 3 - 1) * row[j]
        U = IntMatrix.from_rows(rows)
        from glattice.intlinalg import solve_matrix

        Uinv = solve_matrix(U, IntMatrix.identity(B.rank))
        assert Uinv is not None
        B2 = GLattice(B.group, [U @ B.action[g] @ Uinv for g in B.group.elements()])
        twisted = ShortExactSequence(
            EquivariantMap(seq.A, B2, U @ seq.left.matrix),
            EquivariantMap(B2, seq.C, seq.right.matrix @ Uinv),
        )
        assert check_exact(twisted).ok

    def test_detects_each_corruption(self):
        seq = self._known_sequence()
        # non-injective left map
        bad_left = ShortExactSequence(
            EquivariantMap(seq.A, seq.B, IntMatrix.zeros(seq.B.rank, seq.A.rank)),
            seq.right,
        )
        report = check_exact(bad_left)
        assert not report.ok
        assert any("injective" in f or "kernel" in f for f in report.failures)
        # doubled left map: image no longer saturated, must be diagnosed
        doubled = ShortExactSequence(
            EquivariantMap(seq.A, seq.B, seq.left.matrix + seq.left.matrix), seq.right
        )
        report = check_exact(doubled)
        assert not report.ok
        assert any("image" in f for f in report.failures)


class TestSublatticeAction:
    def test_augmentation_kernel_action(self):
        G = s3()
        I, incl = augmentation_kernel(regular(G))
        assert I.rank == 5
        incl.validate()
        I.validate()

    def test_non_invariant_span_rejected(self):
        G = cyclic(2)
        M = regular(G)
        with pytest.raises(InvalidParameterError):
            sublattice_with_action(M, IntMatrix.from_columns([[1, 0]]))

    def test_identity_map(self):
        M = regular(cyclic(3))
        assert identity_map(M).equivariance_failure() is None
