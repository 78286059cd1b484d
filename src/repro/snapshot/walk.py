"""One checkpoint walk: capture a component graph, restore it in place.

:func:`capture` turns named components into plain picklable nodes;
:func:`restore` writes the nodes back into the components of a freshly
built simulation.  No component knows the format: a class only lists
the live wiring it leaves out, once, in ``_CHECKPOINT_EXCLUDE``
(tracers, policy contexts, unmap listeners, fault gates and hooks,
scoped registries).  Every other instance attribute is saved: scalars,
numpy arrays, generators (as ``bit_generator.state``), lists, dicts,
sets (sorted, so the bytes do not depend on iteration order), frozen
dataclasses and other objects.  An instance attribute that overrides
a method of its class (a profiler's wrapper) is wiring and left out.
Anything else (a function, a bound method, a type, a tuple) raises
``TypeError``: state is left out only by name.

An object, array or container reached twice is saved once and restored
as one object again.  A restore writes in place: arrays are copied into
the build's arrays, objects keep their identity, containers are
refilled, generators take the saved state; only what the build lacks is
built new.  A checkpoint is input read from disk, so a restore first
checks that it fits and raises ``ValueError`` before writing anything
when it does not: another object type, an attribute missing or extra,
an array of another shape or dtype, or a list of components of another
length (a different tier count).  DESIGN.md §11 has the full rules.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping

import numpy as np

#: Values saved as themselves.
_SCALARS = (type(None), bool, int, float, str, np.generic)
#: The common exact scalar types, checked by set lookup first.
_PLAIN = frozenset({type(None), bool, int, float, str})

# Node tags.  A scalar is its own node; every other node is a tuple
# ``(tag, ref, payload...)``; ``ref`` numbers the value for references.
_ARRAY = "A"   # ("A", ref, array copy)
_RNG = "G"     # ("G", ref, bit_generator.state)
_LIST = "L"    # ("L", ref, [node, ...])
_DICT = "D"    # ("D", ref, {key: node})
_SET = "S"     # ("S", ref, [item, ...])
_OBJECT = "O"  # ("O", ref, cls, {attr: node})
_FROZEN = "F"  # ("F", ref, cls, {attr: node}): a frozen dataclass
_REF = "R"     # ("R", ref): the value saved under ``ref`` earlier

#: The build value a container or array node restores into (``_RNG``:
#: ``np.random.Generator``, looked up when used -- touching
#: ``np.random`` imports it, ~2.4 MB in a process that never draws).
_KINDS = {_ARRAY: np.ndarray, _LIST: list, _DICT: dict, _SET: set}


def fields(obj: Any) -> Dict[str, Any]:
    """The attributes of ``obj`` a checkpoint holds, by name.

    An instance attribute that overrides one of the class's methods (a
    profiler's wrapper, say) is wiring, not state, and is left out.
    """
    skip = getattr(obj, "_CHECKPOINT_EXCLUDE", ())
    cls = type(obj)
    out = {k: v for k, v in getattr(obj, "__dict__", {}).items()
           if k not in skip
           and not (callable(v) and callable(getattr(cls, k, None)))}
    for name in type(obj).__dict__.get("__slots__", ()):
        if name not in skip and hasattr(obj, name):
            out[name] = getattr(obj, name)
    return out


class _Capture:
    def __init__(self):
        #: id(value) -> its ref; ``_kept`` pins each value so no id is
        #: reused while the walk runs.
        self._refs: Dict[int, int] = {}
        self._kept: List[Any] = []

    def node(self, value: Any) -> Any:
        if isinstance(value, _SCALARS):
            return value
        ref = self._refs.get(id(value))
        if ref is not None:
            return (_REF, ref)
        ref = self._refs[id(value)] = len(self._kept)
        self._kept.append(value)
        node, plain = self.node, _PLAIN
        if isinstance(value, np.ndarray):
            return (_ARRAY, ref, value.copy())
        if isinstance(value, list):
            return (_LIST, ref, [x if type(x) in plain else node(x)
                                 for x in value])
        if isinstance(value, dict):
            return (_DICT, ref, {k: v if type(v) in plain else node(v)
                                 for k, v in value.items()})
        if isinstance(value, set):
            return (_SET, ref, sorted(value))
        if isinstance(value, np.random.Generator):
            return (_RNG, ref, value.bit_generator.state)
        if callable(value) or isinstance(value, tuple) or not (
                hasattr(value, "__dict__")
                or type(value).__dict__.get("__slots__")):
            raise TypeError(
                f"cannot checkpoint a {type(value).__name__}: name the "
                f"attribute holding it in its class's _CHECKPOINT_EXCLUDE"
            )
        attrs = {}
        for name, attr in fields(value).items():
            try:
                attrs[name] = attr if type(attr) in plain else node(attr)
            except TypeError as exc:
                raise TypeError(f"{type(value).__name__}.{name}: {exc}") \
                    from None
        params = getattr(type(value), "__dataclass_params__", None)
        return (_FROZEN if getattr(params, "frozen", False) else _OBJECT,
                ref, type(value), attrs)


def capture(components: Mapping[str, Any]) -> Dict[str, Any]:
    """Checkpoint nodes of the named components, saved in one walk."""
    walk = _Capture()
    return {name: walk.node(value) for name, value in components.items()}


class _Restore:
    """Plans a restore, then applies it: :meth:`value` only reads the
    build and records each write in :attr:`writes`, so a checkpoint
    that does not fit raises before anything changes."""

    def __init__(self):
        self.restored: Dict[int, Any] = {}
        self.writes: List[Callable[[], None]] = []

    def value(self, target: Any, node: Any) -> Any:
        """What the slot now holding ``target`` holds after the restore.

        With ``target`` None or a scalar the value is built new."""
        if not isinstance(node, tuple):
            return node
        tag, ref = node[0], node[1]
        if tag == _REF:
            return self.restored[ref]
        absent = target is None or isinstance(target, _SCALARS)
        if tag in (_OBJECT, _FROZEN):
            return self._object(target, node, absent)
        kind = np.random.Generator if tag == _RNG else _KINDS[tag]
        fresh = not isinstance(target, kind)
        if fresh and not absent:
            raise ValueError(
                f"checkpoint holds a {kind.__name__}, this build a "
                f"{type(target).__name__}"
            )
        payload = node[2]
        if tag == _ARRAY:
            if fresh:
                target = payload.copy()
            elif target.shape != payload.shape \
                    or target.dtype != payload.dtype:
                raise ValueError(
                    f"checkpoint array is {payload.dtype}{payload.shape}, "
                    f"this build's is {target.dtype}{target.shape}"
                )
            else:
                self.writes.append(lambda: np.copyto(target, payload))
        elif tag == _RNG:
            if fresh:
                target = kind(getattr(np.random, payload["bit_generator"])())
            self.writes.append(
                lambda: setattr(target.bit_generator, "state", payload))
        else:
            target = kind() if fresh else target
            self.restored[ref] = target
            if tag == _LIST:
                values = self._items(target, payload, fresh)
                self.writes.append(
                    lambda: target.__setitem__(slice(None), values))
            else:
                if tag == _DICT:
                    payload = {k: self.value(target.get(k), n)
                               for k, n in payload.items()}

                def write():
                    target.clear()
                    target.update(payload)
                self.writes.append(write)
        self.restored[ref] = target
        return target

    def _items(self, target: list, items: list, fresh: bool) -> list:
        """A list's restored items.  A list of plain values is data; a
        list holding components keeps the build's length."""
        if not any(isinstance(n, tuple) for n in items):
            return list(items)
        if fresh:
            return [self.value(None, n) for n in items]
        if len(items) != len(target):
            raise ValueError(
                f"checkpoint has {len(items)} entries, this build has "
                f"{len(target)}"
            )
        return [self.value(t, n) for t, n in zip(target, items)]

    def _object(self, target, node, fresh):
        tag, ref, cls, attrs = node
        if tag == _FROZEN or fresh:
            if fresh and getattr(cls, "_CHECKPOINT_EXCLUDE", ()):
                raise ValueError(
                    f"this build has no {cls.__name__} to restore into "
                    f"(its live wiring cannot come from a checkpoint)"
                )
            new = self.restored[ref] = cls.__new__(cls)
            for name, attr in attrs.items():
                object.__setattr__(new, name, self.value(None, attr))
            if tag == _FROZEN and type(target) is cls and target == new:
                new = self.restored[ref] = target
            return new
        if type(target) is not cls:
            raise ValueError(
                f"checkpoint holds a {cls.__name__}, this build a "
                f"{type(target).__name__}"
            )
        self.restored[ref] = target
        current = fields(target)
        if current.keys() != attrs.keys():
            raise ValueError(
                f"{cls.__name__} attributes differ from the checkpoint's "
                f"(only in the checkpoint: "
                f"{sorted(attrs.keys() - current.keys())}; only in this "
                f"build: {sorted(current.keys() - attrs.keys())})"
            )
        for name, attr in attrs.items():
            try:
                new = self.value(current[name], attr)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
            if new is not current[name]:
                self.writes.append(
                    lambda name=name, new=new: setattr(target, name, new))
        return target


def restore(components: Mapping[str, Any],
            state: Mapping[str, Any]) -> Dict[str, Any]:
    """Write checkpoint ``state`` into the named fresh ``components``.

    Returns each component's restored value: the component itself when
    it was restored in place, else its replacement (a scalar, or a value
    the build did not have).  Raises ``ValueError`` before writing
    anything when the checkpoint does not fit.
    """
    if components.keys() != state.keys():
        raise ValueError(
            f"checkpoint components {sorted(state)} do not match "
            f"{sorted(components)}"
        )
    walk = _Restore()
    values = {}
    for name, target in components.items():
        try:
            values[name] = walk.value(target, state[name])
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    for write in walk.writes:
        write()
    return values
