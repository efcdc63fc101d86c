"""The repository's benchmark: four named workloads, end-to-end and
per-layer metrics, and a comparison of two result sets.

See ``bench/README.md`` and ``python -m bench --help``.
"""
