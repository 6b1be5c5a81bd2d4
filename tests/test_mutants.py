"""The mutation probe's list stays applicable: each mutant's old text occurs exactly once in
its file, so a change to the package that moves a mutant's text fails here, not at its next run."""

import mutants


def test_every_mutant_matches_its_file_once():
    mutants.check_mutants(list(range(len(mutants.MUTANTS))))
    files = {file for file, _, _ in mutants.MUTANTS}
    assert files == {path.name for path in (mutants.ROOT / mutants.PACKAGE).glob("*.py")}
    assert all(old != new for _, old, new in mutants.MUTANTS)
