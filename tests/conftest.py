"""Suite-wide set-up: interpreters started by the tests (the CLI runs in
test_cli, the memory probe in test_fileio) import the same bharm as the
suite itself, also when it runs from an uninstalled checkout with a plain
`pytest`, where only this process gets `src` on its path."""
import os
import pathlib

import bharm

_SRC = str(pathlib.Path(bharm.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
