"""Exception types shared across the package."""


class ConfigError(Exception):
    """Invalid configuration: bad file, dimension mismatch, window geometry."""


class DataError(Exception):
    """Data that cannot be valid: counts above pulse number, unnormalized inputs."""


class CompetingBasinError(DataError, RuntimeError):
    """Outcome data fit two distinct coherent states about equally well."""
