"""`python -m netproc`: the command line front end."""

from .cli import run

run()
