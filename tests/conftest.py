import importlib

import pytest

from extappell import hyper, meijer

# ``extappell.f1pv`` is the function; the module is reached by its full name
f1pv_module = importlib.import_module("extappell.f1pv")


@pytest.fixture(autouse=True)
def fresh_input_caches():
    """Clear the caches keyed on inputs before each test, so that no test
    reads a value an earlier test computed, perhaps through a
    monkeypatched layer."""
    f1pv_module._series_diagonal.cache_clear()
    meijer._g_form_integral.cache_clear()
    hyper.euler_beta.cache_clear()
