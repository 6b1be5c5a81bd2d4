"""The mutation probe's list stays applicable: each mutant's old text occurs exactly once in
its file, so a change to the package that moves a mutant's text fails here, not at its next run,
and each mutant names a test that its test file defines."""

import ast

import mutants


def test_every_mutant_matches_its_file_once():
    mutants.check_mutants(list(range(len(mutants.MUTANTS))))
    files = {file for file, *_ in mutants.MUTANTS}
    assert files == {path.name for path in (mutants.ROOT / mutants.PACKAGE).glob("*.py")}
    assert all(old != new for _, old, new, _ in mutants.MUTANTS)


def test_every_mutant_names_a_test_that_exists():
    # Read from the source, not collected: each "path::Class::test[case]" names a test file,
    # the class and test function it gives, and a parametrized function where it names a case.
    # A bare path names the module, for a mutant that fails its collection.
    killers = [killer for *_, killer in mutants.MUTANTS]
    paths = {killer.split("::")[0] for killer in killers}
    trees = {path: ast.parse((mutants.ROOT / path).read_text()) for path in paths}
    missing = []
    for killer in killers:
        path, *names = killer.split("::")
        scope = trees[path]
        for name in names:
            scope = next((node for node in getattr(scope, "body", ()) if isinstance(
                node, (ast.ClassDef, ast.FunctionDef)) and node.name == name.split("[")[0]), None)
        parametrized = any("parametrize" in ast.unparse(decorator)
                           for decorator in getattr(scope, "decorator_list", ()))
        if scope is None or not path.startswith("tests/test_") or ("[" in killer and not parametrized):
            missing.append(killer)
    assert missing == []
