"""The mutation sampler's sites on a small snippet: which nodes it mutates,
in which order, and what each mutant reads as.  No tests are run."""

import ast

import pytest
from mutation_sample import _mutate, _sites

SNIPPET = '''
def target(a, b):
    if not a and b or a > 2:
        return a + 1

def logic_only(a, b):
    return not (a or b)

def strings_only():
    return "xy", {"k": "v"}

def outside():
    return not 1

def outer(a):
    def inner(b):
        return b - 3
    return inner(a) * 2
'''

MUTANTS = {
    "target": [
        "    if not a and b or a >= 2:",
        "    if (not a and b) and a > 2:",
        "    if (not a or b) or a > 2:",
        "    if not not a and b or a > 2:",
        "    if not a and b or a > 1:",
        "        return a - 1",
        "        return a + 0",
    ],
    "logic_only": [
        "    return not (a and b)",
        "    return not not (a or b)",
    ],
}


def mutants(names):
    count = len(_sites(ast.parse(SNIPPET), names))
    texts = []
    for k in range(count):
        tree = ast.parse(SNIPPET)
        node, slot, _ = _sites(tree, names)[k]
        _mutate(node, slot)
        texts.append(ast.unparse(tree))
    return texts


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_site_changes_one_thing(name):
    """Comparisons, arithmetic, and/or, not and small ints each give one
    mutant; the functions not named give none."""
    base = ast.unparse(ast.parse(SNIPPET)).splitlines()
    changed = []
    for text in mutants({name}):
        lines = text.splitlines()
        assert len(lines) == len(base)
        diff = [line for line, old in zip(lines, base) if line != old]
        assert len(diff) == 1, diff
        changed.append(diff[0])
    assert sorted(changed) == sorted(MUTANTS[name])


def test_the_descriptions_name_each_operator():
    descriptions = [site[2] for site in _sites(ast.parse(SNIPPET), {"target", "logic_only"})]
    assert sorted(d.split(" ", 1)[1] for d in descriptions) == sorted([
        "Or -> And", "And -> Or", "Not -> drop", "Gt -> GtE", "2 -> 1", "Add -> Sub", "1 -> 0",
        "Or -> And", "Not -> drop"])


def test_a_function_without_operators_gives_no_site():
    assert _sites(ast.parse(SNIPPET), {"strings_only"}) == []


def test_a_nested_function_named_with_its_outer_one_gives_each_site_once():
    sites = _sites(ast.parse(SNIPPET), {"outer", "inner"})
    assert len({(id(node), slot) for node, slot, _ in sites}) == len(sites)
    assert sorted(d.split(" ", 1)[1] for _, _, d in sites) == [
        "2 -> 1", "3 -> 2", "Mult -> FloorDiv", "Sub -> Add"]
