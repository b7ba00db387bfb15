"""Benchmarks: the measurement spine (``spine/``) and the paper's claims table (``claims.py``)."""
