from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# property tests replay the same examples on every run and store none
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    # hypothesis still caches the constants it reads from the sources; keep
    # that cache in pytest's cache directory instead of a .hypothesis/ one
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))
