"""Every name README gives for the package's code resolves."""

import importlib
import re
from pathlib import Path

import pytest

import rolecomms

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def resolves(dotted: str) -> bool:
    """Whether a dotted name is a module, or attributes of its longest module prefix."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for name in parts[i:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def layout_rows() -> list[tuple[str, list[str]]]:
    """Each Library layout row's module and the backticked spans of its contents."""
    section = README.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        match = re.fullmatch(r"\| `(rolecomms\.\w+)` \| (.*) \|", line)
        if match:
            rows.append((match[1], re.findall(r"`([^`]+)`", match[2])))
    return rows


@pytest.mark.parametrize("dotted", sorted(set(re.findall(r"`(rolecomms\.[\w.]+)`", README))))
def test_backticked_package_reference_resolves(dotted):
    assert resolves(dotted), f"README names {dotted}, which does not exist"


@pytest.mark.parametrize("module, spans", layout_rows(), ids=lambda v: v if isinstance(v, str) else None)
def test_library_layout_names_resolve(module, spans):
    mod = importlib.import_module(module)
    # `rolecomms` in the cli row names the command
    names = [s for s in spans if s.isidentifier() and s != "rolecomms"]
    missing = [n for n in names if not (hasattr(mod, n) or hasattr(rolecomms, n))]
    assert not missing, f"README's Library layout lists {missing} under {module}"


def test_library_layout_is_found():
    # the table's rows are the parameters above, so an unparsed table would test nothing
    modules = [module for module, _ in layout_rows()]
    assert modules and len(modules) == len(set(modules))
