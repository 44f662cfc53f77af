import warnings

import pytest

# suppress only the third-party noise, not warnings from the code under
# test (a deprecation in sagan_ray must stay visible)
for mod in ("ray", "pyarrow", "pandas", "numpy"):
    warnings.filterwarnings("ignore", module=mod)
warnings.filterwarnings("ignore", category=ResourceWarning)


@pytest.fixture(autouse=True)
def deprecation_in_sagan_ray_is_an_error():
    """A DeprecationWarning raised from sagan_ray code fails the test.
    Set per test: pytest's own per-test filters show every
    DeprecationWarning and would override a module-level filter."""
    warnings.filterwarnings("error", category=DeprecationWarning,
                            module="sagan_ray")


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    """One Ray session for the whole pytest run (per project contract)."""
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()
