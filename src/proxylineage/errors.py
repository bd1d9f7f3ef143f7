"""Exception types shared across the pipeline."""


class ValidationError(ValueError):
    """Input data violates a documented invariant."""


class ParseError(ValidationError):
    """A fixture file failed to parse; carries the file and the line number."""

    def __init__(self, path, line_number: int, message: str):
        self.path = str(path)
        self.line_number = line_number
        super().__init__(f"{self.path}:{line_number}: {message}")


class ConfigurationError(ValueError):
    """Mismatched or incomplete configuration (seeds, thresholds, maps)."""


class FetchError(RuntimeError):
    """Explorer fetch failed after bounded retries; carries the address and the reason."""

    def __init__(self, address: str, message: str):
        self.address = address
        self.message = message
        super().__init__(f"fetch failed for {address}: {message}")


class NotFingerprintableError(ValidationError):
    """Contract has no source available for fingerprinting."""


class UnknownAddressError(LookupError):
    """An address was queried that is not present in the corpus or index."""


class IntegrityError(RuntimeError):
    """Internal consistency violation while writing a bundle (bug signal)."""
