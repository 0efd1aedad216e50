"""One name lookup for every axis: kernel specs, GPU backends, measurement
regimes, optimization presets, search strategies, pool schedulers, scenarios.
"""

from __future__ import annotations

from typing import Generic, Iterable, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """Values by canonical name; names and aliases resolve case-insensitively."""

    def __init__(self, kind: str):
        #: What the entries are, for error messages (``"GPU backend"``).
        self.kind = kind
        self._values: dict[str, T] = {}
        #: Lower-cased canonical name or alias -> canonical name.
        self._canonical: dict[str, str] = {}

    def add(self, name: str, value: T, *, aliases: Iterable[str] = ()) -> T:
        """Register ``value`` under ``name`` and ``aliases``; returns ``value``.

        Adding a name again replaces its value.  A name or alias that already
        resolves to a different entry raises ``ValueError``.
        """
        keys = (name, *aliases)
        for key in keys:
            owner = self._canonical.get(key.lower(), name)
            if owner != name:
                raise ValueError(f"{self.kind} {key!r} already resolves to {owner!r}")
        self._values[name] = value
        for key in keys:
            self._canonical[key.lower()] = name
        return value

    def get(self, name: str) -> T:
        """Look an entry up by canonical name or alias (case-insensitive)."""
        try:
            return self._values[self._canonical[name.lower()]]
        except KeyError as exc:
            raise KeyError(
                f"unknown {self.kind} {name!r}; available: {list(self.names())}"
            ) from exc

    def names(self, *, tags: Iterable[str] | None = None) -> tuple[str, ...]:
        """Canonical names, sorted; with ``tags``, only entries whose ``tags`` hold all."""
        wanted = set(tags or ())
        return tuple(
            name for name in sorted(self._values)
            if wanted <= set(getattr(self._values[name], "tags", ()))
        )

    def values(self) -> tuple[T, ...]:
        """Every entry, in :meth:`names` order."""
        return tuple(self._values[name] for name in self.names())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._canonical
