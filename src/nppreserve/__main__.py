"""``python -m nppreserve``: the same command line as the ``nppreserve`` script."""

from .cli import main

if __name__ == "__main__":
    main()
