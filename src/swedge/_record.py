"""The base class of swedge's immutable value types."""


class Record:
    """An immutable value whose fields are its class's annotations.

    A subclass sets its fields in its own ``__init__``, through
    ``self.__dict__``.  Assigning or deleting any attribute raises
    :class:`dataclasses.FrozenInstanceError`.  Two records of one class are
    equal, and hash alike, when their ``_key()`` tuples are: every field,
    unless the class overrides ``_key``.  The repr shows every field.
    Copies and pickles restore the fields without calling ``__init__``.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __setattr__(self, name, value):
        _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        _frozen(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _frozen(message: str):
    from dataclasses import FrozenInstanceError  # loaded only to be raised

    raise FrozenInstanceError(message)
