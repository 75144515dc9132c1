import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args, **kwargs)``: peak bytes traced by tracemalloc
    while ``fn(*args, **kwargs)`` runs.

    ``fn`` runs once untraced first, so that lazy imports and first-call
    caches (the LAPACK wrappers, say) are not counted. Memory allocated
    before the traced call, its arguments included, is not counted either.
    """

    def peak(fn, *args, **kwargs) -> int:
        fn(*args, **kwargs)
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
