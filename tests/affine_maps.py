"""Affine maps for the tests, built from their matrix and translation.

The library keeps an affine map x -> M x + t as the linear map on lifted
points [1 | x]: column 0 is [1 | t] and column j + 1 is [0 | M e_j].
"""

from qramsey import AFFINE, LinearMap


def _lifted(head: int, v):
    """v behind one lifted entry; a vector that is not bytes stays a
    tuple, so the constructor's type check still sees it."""
    return bytes((head,)) + v if type(v) is bytes else (head, *v)


def affine_map(f, domain_len, codomain_len, columns, translation):
    """The affine map x -> M x + t, M given by its columns, as stored."""
    return LinearMap(AFFINE, f, domain_len, codomain_len,
                     (_lifted(1, translation),
                      *(_lifted(0, c) for c in columns)))
