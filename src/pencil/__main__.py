"""`python -m pencil`: the same command line as the `pencil` script."""
from .cli import entrypoint

entrypoint()
