"""Layered benchmark of the check and study runs; see README.md."""
