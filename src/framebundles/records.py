"""The base of the library's immutable value types and their one constructor, and
the report every subcommand writes with its exit status.

The report lives here, not in ``cli``, because every request loads this
module: under ``python -m framebundles.cli`` the front end runs as
``__main__``, so a handler module that imported ``cli`` would compile and run
it a second time.
"""

import json
from itertools import islice

EXIT_OK = 0
EXIT_OBSTRUCTION = 1
EXIT_USAGE = 2


class Frozen:
    """A record whose fields are fixed once ``__init__`` has set them.

    A subclass names its fields in ``_fields``; ``__init__`` takes them in
    that order, by position or by name, and raises ``TypeError`` when one is
    missing, given twice or unknown.  A subclass that checks or normalizes its
    input does so and then calls ``super().__init__``.  Later assignment raises
    ``AttributeError`` and copies are rebuilt by ``__init__``.  Records of one
    class with equal fields are equal and hash alike.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values in ``_fields`` order, from positional and named ones."""
        fields = cls._fields
        rest = fields[len(args):]
        if len(args) > len(fields) or set(kwargs) != set(rest):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}; got "
                            f"{len(args)} by position and {sorted(kwargs)} by name")
        return args + tuple([kwargs[f] for f in rest])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Report:
    __slots__ = ("command", "lines", "data", "status", "exit_code")

    def __init__(self, command: str):
        self.command = command
        self.lines: list[str] = []
        self.data: dict = {}
        self.status = "ok"
        self.exit_code = EXIT_OK

    def write(self, stream, fmt: str) -> None:
        """Write the report to ``stream`` as ``fmt`` text or JSON, then a newline.

        JSON is written a piece at a time and text a line at a time, so the whole
        text is never held at once.  The final newline is a write of its own: on
        an unbuffered stream, a reader that closes the pipe cuts a write short
        without an error, and only the next write raises ``BrokenPipeError``.
        """
        if fmt == "json":
            payload = {"command": self.command, "data": self.data, "status": self.status}
            chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload)
            while piece := "".join(islice(chunks, 8192)):
                stream.write(piece)
        else:
            # print writes each line and each separator with a write of its own
            print(f"command: {self.command}", *self.lines, f"status: {self.status}", sep="\n",
                  end="", file=stream)
        stream.write("\n")


def perm_str(p) -> str:
    return "(" + ",".join(str(x) for x in p) + ")"
