"""The mutation probe's list stays applicable: each mutant's old text occurs exactly once in
its file, so a change to the package that moves a mutant's text fails here, not at its next run,
and each mutant names a test that its test file defines."""

import ast
import functools

import mutants


def test_every_mutant_matches_its_file_once():
    mutants.check_mutants(list(range(len(mutants.MUTANTS))))
    files = {file for file, *_ in mutants.MUTANTS}
    assert files == {path.name for path in (mutants.ROOT / mutants.PACKAGE).glob("*.py")}
    assert all(old != new for _, old, new, _ in mutants.MUTANTS)


@functools.cache
def _tree(path: str) -> ast.Module:
    return ast.parse((mutants.ROOT / path).read_text())


def _literal_ids(tree: ast.Module, decorator: ast.expr) -> list | None:
    """The case ids a parametrize decorator states literally: its ``ids=`` list, or a
    module-level literal D given as ``ids=D`` or ``ids=list(D)`` (a dict's keys); else None."""
    ids = next((k.value for k in getattr(decorator, "keywords", ()) if k.arg == "ids"), None)
    if isinstance(ids, ast.Call) and ast.unparse(ids.func) == "list" and len(ids.args) == 1:
        ids = ids.args[0]
    if isinstance(ids, ast.Name):
        ids = next((node.value for node in tree.body if isinstance(node, ast.Assign)
                    and [ast.unparse(target) for target in node.targets] == [ids.id]), None)
    if isinstance(ids, ast.Dict):
        ids = ids.keys
    elif isinstance(ids, (ast.List, ast.Tuple)):
        ids = ids.elts
    else:
        return None
    try:
        return [ast.literal_eval(key) for key in ids]
    except ValueError:  # a ** entry or a computed id
        return None


def _unnamed(killers: list[str]) -> list[str]:
    """The killers that name no test. Read from the source, not collected: each
    "path::Class::test[case]" names a test file, the class and test function it gives, and a
    parametrized function where it names a case. The case must be one of the ids its only
    parametrize decorator states literally; where none are stated, its bracket must close. A
    bare path names the module, for a mutant that fails its collection."""
    missing = []
    for killer in killers:
        path, *names = killer.split("::")
        tree = scope = _tree(path)
        for name in names:
            scope = next((node for node in getattr(scope, "body", ()) if isinstance(
                node, (ast.ClassDef, ast.FunctionDef)) and node.name == name.split("[")[0]), None)
        parametrize = [decorator for decorator in getattr(scope, "decorator_list", ())
                       if "parametrize" in ast.unparse(decorator)]
        case = killer.partition("[")[2]
        ids = _literal_ids(tree, parametrize[0]) if len(parametrize) == 1 else None
        named = not case or (parametrize and case.endswith("]")
                             and (ids is None or case[:-1] in ids))
        if scope is None or not path.startswith("tests/test_") or not named:
            missing.append(killer)
    return missing


def test_every_mutant_names_a_test_that_exists():
    assert _unnamed([killer for *_, killer in mutants.MUTANTS]) == []


def test_a_killer_naming_no_case_of_its_test_is_refused():
    # Cut at a space, a case id that the ids= list does not state, a case of a test that is not
    # parametrized, and an unclosed bracket where the ids are not literal.
    fold = "tests/test_verify.py::test_the_blockwise_fold_names_the_draw_of_one_block"
    refused = [f"{fold}[largest,", f"{fold}[largest]", f"{fold}[largest, then NaN]]",
               "tests/test_verify.py::test_check_sequence_is_pinned[1-42]",
               "tests/test_verify.py::test_reports_are_pinned[1-42"]
    assert _unnamed([f"{fold}[largest, then NaN]", *refused]) == refused
