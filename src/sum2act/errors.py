"""Exception types shared across the package."""

from __future__ import annotations


class Sum2ActError(Exception):
    """Base class for all package errors."""


class ConfigurationError(Sum2ActError):
    """Bad input: an invalid setting or flag, or a config, scenario, policy,
    catalog, endpoint spec or trace that does not parse or validate. A file's
    fault names the file, and a trace line's fault its line number too."""


class ScriptError(Sum2ActError):
    """A scripted provider had no entry matching the rendered prompt and no default."""


class ProviderUnavailable(Sum2ActError):
    """The live completion endpoint stayed unreachable after all retries."""


class ProviderRejected(Sum2ActError):
    """The live completion endpoint rejected the request (HTTP 4xx, never retried)."""

    def __init__(self, status_code: int, message: str):
        super().__init__(f"HTTP {status_code}: {message}")
        self.status_code = status_code


class RequestTooLarge(Sum2ActError):
    """A completion request exceeded the configured size limit (never truncated silently)."""


class MalformedOutput(Sum2ActError):
    """Model output could not be parsed into the required structure."""
