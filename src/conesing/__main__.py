"""``python -m conesing``: the same command line as the ``conesing`` script."""
from .cli import run

run()
