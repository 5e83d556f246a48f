"""Every split the tests make is checked both ways, on every element.

``split_iso`` certifies fwd @ back = I only: its rank check,
rank A + rank C = rank B, makes fwd square, so back @ fwd = I follows.
It validates fwd on the group's generators, and the checks read its
certificate without proving either fact again.  For the whole session,
each iso that ``split_iso`` returns, called directly or by a check (edge
removal among them), also has its inverse confirmed as a left inverse,
and the two blocks of that inverse, the retraction r and the quotient
map, commute with every group element, by plain products: with
back @ fwd = I, that is fwd equivariant on every element.  The products
are made block by block, since a section or retraction can carry entries
of a hundred bits while the quotient map's are small, and
``equivariance_failure`` is left to the library, whose calls tests count.
"""

import pytest

from glattice import checks, cohom, gflows

_split_iso = cohom.split_iso


def _split_iso_checked_both_ways(seq):
    iso = _split_iso(seq)
    if iso is not None:
        back = iso.inverse().matrix
        assert (back @ iso.matrix).is_identity()
        k = seq.A.rank
        r, right = back.take_rows(range(k)), back.take_rows(range(k, back.rows))
        for g in seq.B.group.elements():
            b = seq.B.action[g]
            assert seq.A.action[g] @ r == r @ b, f"retraction not equivariant at {g}"
            assert seq.C.action[g] @ right == right @ b, f"quotient not equivariant at {g}"
    return iso


@pytest.fixture(autouse=True, scope="session")
def _splits_checked_both_ways():
    with pytest.MonkeyPatch.context() as patch:
        for module in (cohom, checks, gflows):
            patch.setattr(module, "split_iso", _split_iso_checked_both_ways)
        yield
