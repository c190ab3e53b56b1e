"""Fixtures shared by several test modules."""

import numpy as np
import pytest

import ambishrink.covariance as covariance


@pytest.fixture
def eig_calls(monkeypatch):
    """Count calls of ``np.linalg.eigh``, ``np.linalg.eigvalsh`` and the ``eigh`` of ``covariance``."""
    calls = []
    for namespace, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (covariance, "eigh")):
        original = getattr(namespace, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(_original.__name__)
            return _original(*args, **kwargs)

        monkeypatch.setattr(namespace, name, counted)
    return calls
