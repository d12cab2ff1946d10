"""Error types shared across the package."""


class ParameterError(ValueError):
    """A parameter (m, n, k, ...) is outside its documented range."""


class BoxSizeError(ValueError):
    """A Grassmannian box exceeds the configured cell limit."""


class ConsistencyError(RuntimeError):
    """Two independent evaluation routes disagreed; never ignored."""


def plain_ints(*values) -> bool:
    """True iff every value is a plain int.  A bool, a float, a str or a
    NumPy integer may compare like one, but the process-wide memos key on
    the parameters, so such a value would store entries of its own type
    under an int's key; every public entry refuses it."""
    return all(type(v) is int for v in values)


def check_params(m: int, n: int, k: int, k_min: int = 1) -> None:
    """Reject (m, n, k) unless all three are plain ints (plain_ints) in the
    domain k_min <= k <= n-1 <= m-1 of tau(m, n, k)."""
    if not (plain_ints(m, n, k) and k_min <= k <= n - 1 <= m - 1):
        raise ParameterError(
            f"need ints {k_min} <= k <= n-1 <= m-1, got m={m!r} n={n!r} k={k!r}"
        )
