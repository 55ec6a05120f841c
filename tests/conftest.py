import pytest

from ariswpc import SystemConfig, montecarlo


@pytest.fixture
def default_cfg() -> SystemConfig:
    return SystemConfig()


@pytest.fixture
def sample_batch_sizes(monkeypatch) -> list[int]:
    """Sizes of the sample_batch calls montecarlo makes during the test, in order."""
    sizes = []
    original = montecarlo.sample_batch

    def counting(cfg, rng, n, *args, **kwargs):
        sizes.append(n)
        return original(cfg, rng, n, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "sample_batch", counting)
    return sizes
