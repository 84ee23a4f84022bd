"""``python -m fullstab``: the same command line as ``fullstab``."""

from .cli import main

if __name__ == "__main__":
    main()
