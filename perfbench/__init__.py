"""Job-level benchmark of the ``repro`` package (see ``README.md`` here)."""
