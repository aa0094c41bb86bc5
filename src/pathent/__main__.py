"""``python -m pathent``: the same command line as the ``pathent`` script."""

from .cli import entry

entry()
