"""`python -m qtridend ...` runs the command line."""

from .cli import main

raise SystemExit(main())
