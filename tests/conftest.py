from itertools import chain

import pytest

from lamlat import EnumerationFilter, catalog, enumerate_completions, enumerate_posets, verify
from lamlat.search import _walk


@pytest.fixture(scope="session")
def fixtures():
    return catalog()


@pytest.fixture(scope="session")
def small_completions():
    """Every completion of every directed poset with at most 4 elements."""
    out = []
    for p in enumerate_posets(EnumerationFilter(max_elements=4, require_bounded=True)):
        out.extend(enumerate_completions(p))
    return out


@pytest.fixture(scope="session")
def completions_upto5():
    """Every completion of every bounded poset with at most 5 elements, in stream order."""
    out = [ll for p in enumerate_posets(EnumerationFilter(max_elements=5, require_bounded=True))
           for ll in enumerate_completions(p)]
    assert len(out) == 545
    return out


@pytest.fixture(scope="session")
def bounded_upto6():
    """Every bounded labeled poset with at most 6 elements, in stream order."""
    out = list(enumerate_posets(EnumerationFilter(max_elements=6, require_bounded=True)))
    assert len(out) == 6995
    return out


@pytest.fixture(scope="session")
def completions_upto6(bounded_upto6):
    """Every completion of every bounded poset with at most 6 elements, in stream order."""
    out = [ll for p in bounded_upto6 for ll in enumerate_completions(p)]
    assert len(out) == 19955
    return out


@pytest.fixture(scope="session")
def default_run():
    """verify(theorem_id) at the theorem's default range, run once per session."""
    results = {}

    def run(theorem_id):
        if theorem_id not in results:
            results[theorem_id] = verify(theorem_id)
        return results[theorem_id]

    return run


def idx(instance, name):
    """Element index by display label."""
    return instance.labels.index(name)


def labeled_rows(n):
    """Every labeled poset on n elements as bare up-set rows, in stream order."""
    return chain.from_iterable(batch for batch, _ in _walk(n))
