"""`python -m cyclebound`: the command-line interface, from a source checkout too."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
