"""Simulation and verification toolkit for the external branch lengths of
Kingman's coalescent."""

__version__ = "0.1.0"


def __getattr__(name):  # PEP 562: a submodule loads on first use, so a command loads only its own
    if name in "batch cli coalescent indexing moments rng stats urn verify".split():
        import importlib
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
