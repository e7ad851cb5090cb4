"""Refusal messages that several test modules expect, in one place.

This module imports nothing beyond the standard library, so that
``tests/test_cli.py`` runs with numpy and pytest alone.
"""


def count_refusal(n, minimum=1, context=""):
    """The count check's refusal of an int n that no float can hold."""
    return (f"n must be an integer >= {minimum} that a float can hold "
            f"(at most 1.7976931348623157e+308){context}, got {n}")
