"""Every warning raised while a test runs fails that test."""

import contextlib
import warnings

import pytest

# Hypothesis imports its patch writer, and with it libcst, which warns on
# import, only while it reports a failing example.  Under the "error"
# filter that warning would abort the whole session instead of reporting
# the failure, so the import happens once here, outside every test.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings("error"))
