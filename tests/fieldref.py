"""Field arithmetic for the test references.

An element of GF(p) is a plain int in [0, p), so a reference that adds,
subtracts or multiplies elements with Python operators reduces each result
with ``red``; over QQ it is the identity.
"""


def red(field, x):
    """x as an element of field: x % p over GF(p), x itself over QQ."""
    return x % field.p if field.p else x
