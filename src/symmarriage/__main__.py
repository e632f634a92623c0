"""``python -m symmarriage``: the same command line as the ``symmarriage`` script."""

from .cli import entry

entry()
