"""Fixtures shared by several test modules."""

import numpy as np
import pytest


@pytest.fixture
def eig_calls(monkeypatch):
    """Count calls of ``np.linalg.eigh`` and ``np.linalg.eigvalsh``."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(_original.__name__)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
