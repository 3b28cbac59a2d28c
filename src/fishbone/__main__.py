"""``python -m fishbone``: the same command line as the ``fishbone`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
