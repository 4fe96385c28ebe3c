import pytest


@pytest.fixture(autouse=True)
def cache_home(tmp_path_factory, monkeypatch):
    """Each test's embedding cache root (`$XDG_CACHE_HOME`): a fresh
    directory, so no test reads or writes the user's cache, and child
    processes inherit it."""
    home = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home
