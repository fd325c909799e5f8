"""The bundled corpus, loaded from default.cfg the way ``gnsparse`` loads it.

default.cfg is the only definition of the corpus, so tests pick its members
here, by name or by dimension, and never restate their parameters.
"""

import functools

from gnsparse.cli import _build_parser, load_run_config


def run_config(*argv):
    """The RunConfig ``gnsparse argv...`` would run (the bundled suite for no arguments)."""
    return load_run_config(_build_parser().parse_args(argv))


@functools.cache
def _bundled():
    return run_config().corpus  # {name: frozen TestFunctionSpec}, in default.cfg order


def member(name):
    """The bundled member called ``name``."""
    return _bundled()[name]


def members(dim):
    """The bundled members of dimension ``dim``, in default.cfg order."""
    return [spec for spec in _bundled().values() if spec.dim == dim]
