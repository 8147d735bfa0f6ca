"""``python -m labrr``: the command-line interface."""

import sys

from .cli import main

__all__ = ["main"]

if __name__ == "__main__":
    sys.exit(main())
