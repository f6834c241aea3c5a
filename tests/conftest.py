import pytest

from hemix import similarity


@pytest.fixture
def two_threads(monkeypatch):
    """Call it to run all work that can split on two threads, at any size and CPU count."""

    def force():
        monkeypatch.setattr(similarity, "_SPLIT_ELEMENTS", 0)
        monkeypatch.setattr(similarity, "_SPLIT_MULADDS", 0)
        monkeypatch.setattr(similarity, "_cpu_count", lambda: 2)

    return force
