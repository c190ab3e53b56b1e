"""Fixtures shared by several test modules."""

import numpy as np
import pytest

import ambishrink.covariance as covariance


@pytest.fixture
def eig_calls(monkeypatch):
    """Record calls of ``np.linalg.eigh``, ``np.linalg.eigvalsh`` and the ``eigh`` of ``covariance``.

    Each call is recorded as the function's name and the shape of the matrix
    it decomposes, such as ``("eigh", (3, 3))``.
    """
    calls = []
    for namespace, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (covariance, "eigh")):
        original = getattr(namespace, name)

        def counted(a, *args, _original=original, **kwargs):
            calls.append((_original.__name__, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(namespace, name, counted)
    return calls
