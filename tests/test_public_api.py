import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import docrag


def test_every_exported_name_resolves():
    missing = [name for name in docrag.__all__ if not hasattr(docrag, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(docrag.__all__) == len(set(docrag.__all__))


def test_dir_lists_every_exported_name_before_any_is_loaded():
    # In a fresh interpreter: here earlier tests have already loaded every name.
    code = (
        "import sys, docrag; "
        "print(sorted(set(docrag.__all__) - set(dir(docrag))), "
        "sorted(m for m in sys.modules if m.startswith('docrag.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(docrag.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.strip() == "[] []"


def test_star_import_binds_each_name_to_its_submodule_attribute():
    namespace = {}
    exec("from docrag import *", namespace)
    for name in docrag.__all__:
        module = importlib.import_module(f"docrag.{docrag._EXPORTS[name]}")
        assert namespace[name] is getattr(module, name), name


def test_an_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="^module 'docrag' has no attribute 'no_such_name'$"):
        docrag.no_such_name
