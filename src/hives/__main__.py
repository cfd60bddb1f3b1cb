"""``python -m hives``: the ``hives`` command line."""

from .cli import main

raise SystemExit(main())
