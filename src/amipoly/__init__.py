"""Amicable and equable polygons on the integer lattice, in exact arithmetic.

Each name is imported from its own module; the version is pyproject.toml's.
"""
