"""Known-bad ALIAS corpus: shared defaults and leaked internals."""


def collect(item, acc=[]):  # ALIAS001
    acc.append(item)
    return acc


def tally(key, counts={}):  # ALIAS001
    counts[key] = counts.get(key, 0) + 1
    return counts


class Peer:
    def __init__(self):
        self.receipts = {}
        self.heights = []

    def all_receipts(self):
        return self.receipts  # ALIAS002: live reference across the boundary

    def seen_heights(self):
        return self.heights  # ALIAS002


def plant(tx, digest):
    object.__setattr__(tx, "_rwset_digest", digest)  # ALIAS003: not a method at all


class Codec:
    def decode(self, obj, frozen):
        object.__setattr__(frozen, "_wire_size", (0, 0))  # ALIAS003: someone else's instance
        return frozen

    @staticmethod
    def seed(block, tree):
        object.__setattr__(block, "_merkle_cache", tree)  # ALIAS003: no instance of its own
