"""``python -m rankpath``: the same command line as the ``rankpath`` script."""

from .cli import main

if __name__ == "__main__":
    main()
