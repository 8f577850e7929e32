"""Known-clean ALIAS corpus: None defaults, defensive copies, and frozen
objects that remember their own derived values."""

from dataclasses import dataclass, replace


def collect(item, acc=None):
    acc = [] if acc is None else acc
    acc.append(item)
    return acc


class Peer:
    def __init__(self):
        self.receipts = {}
        self.heights = []

    def all_receipts(self):
        return dict(self.receipts)

    def seen_heights(self):
        return sorted(self.heights)


class Courier:
    """Not a boundary class: returning internals is its contract."""

    def __init__(self):
        self.bag = []

    def contents(self):
        return self.bag


@dataclass(frozen=True)
class Sealed:
    body: str

    @classmethod
    def create(cls, body):
        sealed = cls(body)
        object.__setattr__(sealed, "_digest", body.upper())
        return sealed

    def digest(self):
        value = self.__dict__.get("_digest")
        if value is None:
            value = self.body.upper()
            object.__setattr__(self, "_digest", value)
        return value

    def renamed(self, body):
        copy = replace(self, body=body)
        object.__setattr__(copy, "_digest", body.upper())
        return copy
