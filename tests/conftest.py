"""Every split the tests make is checked both ways.

``split_iso`` certifies fwd @ back = I only: its rank check,
rank A + rank C = rank B, makes fwd square, so back @ fwd = I follows.
For the whole session, each iso that ``split_iso`` returns, called
directly or by a check (edge removal among them), also has its inverse
confirmed as a left inverse.
"""

import pytest

from glattice import checks, cohom, gflows

_split_iso = cohom.split_iso


def _split_iso_checked_both_ways(seq):
    iso = _split_iso(seq)
    if iso is not None:
        assert (iso.inverse().matrix @ iso.matrix).is_identity()
    return iso


@pytest.fixture(autouse=True, scope="session")
def _splits_checked_both_ways():
    with pytest.MonkeyPatch.context() as patch:
        for module in (cohom, checks, gflows):
            patch.setattr(module, "split_iso", _split_iso_checked_both_ways)
        yield
