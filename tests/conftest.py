"""Suite-wide set-up: interpreters started by the tests (the CLI runs in
test_cli, the memory probe in test_fileio) import the same bharm as the
suite itself, also when it runs from an uninstalled checkout with a plain
`pytest`, where only this process gets `src` on its path."""
import os
import pathlib

import pytest

import bharm

_SRC = str(pathlib.Path(bharm.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def splu_calls(monkeypatch):
    """The list that gets the shape of the matrix of each spla.splu call."""
    import scipy.sparse.linalg as spla
    calls = []
    splu = spla.splu

    def counting_splu(a, *args, **kwargs):
        calls.append(a.shape)
        return splu(a, *args, **kwargs)
    monkeypatch.setattr(spla, "splu", counting_splu)
    return calls
