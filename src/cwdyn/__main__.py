"""``python -m cwdyn``: the command line entry point."""

from .cli import main

main()
