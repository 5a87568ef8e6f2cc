from collections import Counter

import pytest

from adlv.admissible import MEMO


@pytest.fixture
def memo_runs(monkeypatch):
    """Counts the runs of each memoized body by name: MEMO._keep is
    called once per body run that returns."""
    runs = Counter()
    keep = MEMO._keep

    def counting(group, key, value, weight):
        runs[key[0].__name__] += 1
        keep(group, key, value, weight)

    monkeypatch.setattr(MEMO, "_keep", counting)
    return runs
