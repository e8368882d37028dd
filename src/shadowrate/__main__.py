"""``python -m shadowrate``: the same command line as the ``shadowrate``
console script."""

from .cli import entry

if __name__ == "__main__":
    entry()
