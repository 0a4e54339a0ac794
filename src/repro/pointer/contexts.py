"""Calling contexts for the pointer analysis.

TAJ's context-sensitivity policy (paper §3.1) mixes three kinds of
context:

* the **empty** context (context-insensitive treatment);
* **object contexts** — the abstraction of the receiver object (one level
  for most methods, unlimited depth for collection classes);
* **call-site contexts** — one level of call string for library factory
  methods and taint-specific APIs.

Contexts nest because instance keys embed their heap context; the
``truncate`` helper bounds total nesting so unlimited-depth object
sensitivity terminates even through recursive data structures.

Contexts are **interned**: constructing a context with the same fields
returns the same object, so contexts compare and hash *by identity* (the
default ``object`` semantics) and the solver's dict operations never
re-hash nested structures.  Depths are precomputed at construction
time.
"""

from __future__ import annotations

from typing import Dict, Tuple


class Context:
    """Base class of all contexts; ``Context()`` is the empty context."""

    __slots__ = ("_depth",)

    _instance: "Context" = None

    def __new__(cls) -> "Context":
        self = cls._instance
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "_depth", 0)
            cls._instance = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def depth(self) -> int:
        return self._depth

    def __str__(self) -> str:
        return "ε"

    def __repr__(self) -> str:
        return f"<ctx {self}>"


EMPTY = Context()


class ObjContext(Context):
    """Receiver-object sensitivity: context is an instance key."""

    __slots__ = ("receiver",)

    _interned: Dict[object, "ObjContext"] = {}

    def __new__(cls, receiver: "object") -> "ObjContext":
        # receiver is an InstanceKey; typed loosely to avoid a cycle.
        self = cls._interned.get(receiver)
        if self is None:
            self = object.__new__(cls)
            _set = object.__setattr__
            _set(self, "receiver", receiver)
            _set(self, "_depth",
                 1 + receiver.context.depth())  # type: ignore[attr-defined]
            cls._interned[receiver] = self
        return self

    def __str__(self) -> str:
        return f"obj[{self.receiver}]"


class CallSiteContext(Context):
    """One level of call-string: the method and call instruction id."""

    __slots__ = ("caller", "call_iid")

    _interned: Dict[Tuple[str, int], "CallSiteContext"] = {}

    def __new__(cls, caller: str, call_iid: int) -> "CallSiteContext":
        key = (caller, call_iid)
        self = cls._interned.get(key)
        if self is None:
            self = object.__new__(cls)
            _set = object.__setattr__
            _set(self, "caller", caller)
            _set(self, "call_iid", call_iid)
            _set(self, "_depth", 1)
            cls._interned[key] = self
        return self

    def __str__(self) -> str:
        return f"cs[{self.caller}@{self.call_iid}]"


def truncate(context: Context, limit: int) -> Context:
    """Bound nested context depth; beyond ``limit`` collapse to EMPTY.

    Applied when minting object contexts so unlimited-depth object
    sensitivity for collections (which would otherwise recurse through
    e.g. maps of maps) terminates.  The paper bounds this by recursion;
    a fixed depth cap is the standard finite realization.
    """
    if limit <= 0:
        return EMPTY
    if context.depth() <= limit:
        return context
    if isinstance(context, ObjContext):
        receiver = context.receiver
        inner = truncate(receiver.context, limit - 1)  # type: ignore
        return ObjContext(receiver.with_context(inner))  # type: ignore
    return EMPTY


def clear_context_caches() -> None:
    """Drop the intern tables.

    Only safe *between* analyses in a long-running process: contexts are
    identity-compared, so contexts held from before a clear are never
    equal to contexts minted after it."""
    ObjContext._interned.clear()
    CallSiteContext._interned.clear()
