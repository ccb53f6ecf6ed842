"""The rows of ``_mutants.py`` stay applicable to the code they mutate.

Running the mutants takes tier-1 once per row, so it is done by hand; a
refactor that moves a row's old text must still fail here at once.
"""

import collections

import _mutants


def test_every_row_old_text_occurs_once_in_its_file():
    stale = {m.name: n for m in _mutants.MUTANTS if (n := _mutants.occurrences(m)) != 1}
    assert not stale, f"rows whose old text is not found exactly once: {stale}"


def test_row_names_are_unique():
    counts = collections.Counter(m.name for m in _mutants.MUTANTS)
    assert not [name for name, c in counts.items() if c > 1]
