from collections import Counter

import pytest

from adlv import admissible


@pytest.fixture
def memo_runs(monkeypatch):
    """Counts the runs of each memoized body by name: admissible._keep is
    called once per body run that returns."""
    runs = Counter()
    keep = admissible._keep

    def counting(entries, key, value, weight):
        runs[key[0].__name__] += 1
        keep(entries, key, value, weight)

    monkeypatch.setattr(admissible, "_keep", counting)
    return runs
