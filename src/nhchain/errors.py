"""Exception types shared across the solver and CLI layers."""


class DenseSizeError(ValueError):
    """Dense diagonalization requested above the supported dimension."""


class EPProximityError(RuntimeError):
    """Steady state requested too close to an exceptional point.

    The imaginary-part gap at the offending parameters is stored in ``gap``.
    """

    def __init__(self, gap: float, tol_gap: float):
        self.gap = float(gap)
        self.tol_gap = float(tol_gap)
        super().__init__(
            f"imaginary-part gap {gap:.3e} is at or below tol_gap={tol_gap:.3e}; "
            "the slowest-decaying eigenstate is not isolated here"
        )


class ConvergenceError(RuntimeError):
    """Iterative solver failed to converge; last residual kept in ``residual``."""

    def __init__(self, message: str, residual: float):
        self.residual = float(residual)
        super().__init__(f"{message} (last residual {residual:.3e})")


class MemoryLimitError(MemoryError):
    """A requested chain size cannot fit in physical memory.

    Raised before anything is allocated; ``required`` is the estimated peak
    in bytes and ``available`` the machine's physical memory.
    """

    def __init__(self, N: int, required: int, available: int):
        self.N = int(N)
        self.required = int(required)
        self.available = int(available)
        super().__init__(
            f"N = {N} needs about {required / 2**30:.3g} GiB "
            f"but the machine has {available / 2**30:.3g} GiB of physical memory"
        )
