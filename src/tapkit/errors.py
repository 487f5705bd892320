"""Exception hierarchy shared across the toolkit.

Every error raised on purpose is one of the four TapkitError classes below.
Each carries the CLI's exit code for it and the prefix of its log line, so
`cli.main` maps any of them with a single handler.
"""


class TapkitError(Exception):
    """Base of the classes below; each sets both attributes."""

    exit_code: int
    kind: str


class ConfigError(TapkitError, ValueError):
    """Inconsistent or invalid configuration, or an output path of the wrong kind."""

    exit_code = 2
    kind = "config error"


class DataError(TapkitError, ValueError):
    """An input the computation cannot use: an unparseable, schema-violating
    or corrupt file, a degenerate interval, a tensor of the wrong shape, a
    metric with no ground truth, or synthetic instances that do not fit."""

    exit_code = 3
    kind = "data error"


class DivergenceError(TapkitError, ArithmeticError):
    """Non-finite values encountered during training."""

    exit_code = 4
    kind = "divergence"


class StageDependencyError(TapkitError, RuntimeError):
    """A pipeline stage is missing an artifact a previous stage produces."""

    exit_code = 5
    kind = "stage dependency"
