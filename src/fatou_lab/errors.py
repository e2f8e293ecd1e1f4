"""Exception types shared across the toolkit."""


class ParameterError(ValueError):
    """An argument is outside the documented range."""


class GridMismatchError(ParameterError):
    """Two grid-carried objects live on different grids."""


class SingularityError(ParameterError):
    """Evaluation requested at a point where the kernel is singular."""


class CoverageError(ParameterError):
    """A sampled approach region contains no sample points: the heights,
    t_max or dilation leave too few slices to scan."""
