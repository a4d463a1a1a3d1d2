"""README's references into the library resolve: every dotted name it gives
for a module, function or class of equicell, such as `equicell.poset.boundary`
or `weights.check_tol`, imports and is found, so a deletion or a rename
cannot leave README naming code that is gone."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import equicell

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = {m.name for m in pkgutil.iter_modules(equicell.__path__)}
FILE_SUFFIXES = {"py", "json", "csv", "svg", "toml", "md"}
REFS = sorted({ref for ref in re.findall(r"\b[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", README)
               if ref.split(".")[0] in MODULES | {"equicell"}
               and ref.split(".")[-1] not in FILE_SUFFIXES})


def resolve(ref: str):
    parts = ref.split(".")
    if parts[0] != "equicell":
        parts.insert(0, "equicell")
    for k in range(len(parts), 0, -1):   # the longest prefix that is a module
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ModuleNotFoundError:
            continue
        for attr in parts[k:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(ref)


def test_references_are_found():
    for ref in ("equicell.poset.boundary", "poset.charge", "weights.check_tol",
                "equicell.enumerate_cells", "equicell.cli"):
        assert ref in REFS


@pytest.mark.parametrize("ref", REFS)
def test_reference_resolves(ref):
    assert resolve(ref) is not None
