"""Error types shared across the package."""


class ParameterError(ValueError):
    """A parameter (m, n, k, ...) is outside its documented range."""


class BoxSizeError(ValueError):
    """A Grassmannian box exceeds the configured cell limit."""


class ConsistencyError(RuntimeError):
    """Two independent evaluation routes disagreed; never ignored."""


def check_params(m: int, n: int, k: int, k_min: int = 1) -> None:
    """Reject (m, n, k) outside the domain k_min <= k <= n-1 <= m-1 of tau(m, n, k)."""
    if not (k_min <= k <= n - 1 <= m - 1):
        raise ParameterError(
            f"need {k_min} <= k <= n-1 <= m-1, got m={m} n={n} k={k}"
        )
