"""Exception types shared across the package.

Validation problems (bad shapes, boundary compositions, malformed files)
derive from ``ValueError``; numerical failures occurring mid-computation
(divergent chains, kernels that cannot be factorized) derive from
``RuntimeError``. The CLI maps the two families to exit codes 1 and 2.
"""


class SimplexBoundaryError(ValueError):
    """A composition touches the simplex boundary where the interior is required."""


class InvalidDimensionError(ValueError):
    """Dimension parameter outside its valid range (e.g. fewer than 2 parts)."""


class ConfigError(ValueError):
    """Run-configuration document failed schema validation."""


class DivergenceError(RuntimeError):
    """A sampling chain produced a non-finite energy.

    Attributes
    ----------
    step : int
        Index of the update at which the energy became non-finite.
    """

    def __init__(self, step):
        self.step = step
        super().__init__(
            f"non-finite energy at step {step}; the chain has diverged. "
            "Try a smaller step_size."
        )


class IllConditionedKernelError(RuntimeError):
    """Cholesky factorization failed even after the maximum jitter."""
