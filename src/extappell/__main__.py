"""``python -m extappell ...``: the ``extappell`` command line from a source tree."""

from .cli import main

if __name__ == "__main__":
    main()
