"""Every name README gives for the package's code resolves, and every bound
it states beside a declared constant equals the constant."""

import importlib
import json
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


# the declared bounds README states, each as "N (`rolecomms.module.NAME`)" or
# "`rolecomms.module.NAME` = N"
BOUNDS = ("MAX_OBSTACLES", "MAX_GAMES", "MAX_STEPS", "MAX_RETRY_CAP", "MAX_LENGTH", "MAX_WEIGHT", "MAX_SEED")
NUMBER = r"(\d[\d,]*(?:\.\d+)?(?:e[+-]?\d+)?)"


@pytest.mark.parametrize("name", BOUNDS)
def test_stated_bound_equals_its_constant(name):
    pairs = re.findall(NUMBER + r"\s+\(`(rolecomms\.[\w.]+)`\)", README)
    pairs += [(number, dotted) for dotted, number in re.findall(r"`(rolecomms\.[\w.]+)` = " + NUMBER, README)]
    stated = [(number, dotted) for number, dotted in pairs if dotted.rsplit(".", 1)[1] == name]
    assert stated, f"README states no bound beside {name}"
    for number, dotted in stated:
        module, attr = dotted.rsplit(".", 1)
        value = getattr(importlib.import_module(module), attr)
        assert json.loads(number.replace(",", "")) == value, f"README states {number} for {dotted}, which is {value}"
