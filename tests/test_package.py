import ariswpc
from ariswpc import channel, closedform, config, montecarlo, optimize, power, ris

LIBRARY_MODULES = (channel, closedform, config, montecarlo, optimize, power, ris)


def test_exports_are_the_library_modules_public_names():
    expected = [name for module in LIBRARY_MODULES for name in module.__all__] + ["__version__"]
    assert ariswpc.__all__ == expected
    assert len(set(ariswpc.__all__)) == len(ariswpc.__all__)


def test_every_exported_name_resolves_to_its_module_object():
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(ariswpc, name) is getattr(module, name), name
    assert isinstance(ariswpc.__version__, str)

