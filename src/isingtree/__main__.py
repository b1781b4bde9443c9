"""``python -m isingtree``: the same commands as the ``isingtree`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
