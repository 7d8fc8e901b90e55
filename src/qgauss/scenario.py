"""Scenario files: JSON descriptions of a backend, a coefficient space, a
word, and the requested computation.

Rational numbers are written as "p/q" strings (plain integers also
accepted).  Word coefficients name generators from the backend's S set,
or give {name: coefficient} combinations of them.  A key that its object
does not accept is refused, naming its path and the accepted keys.
"""

from __future__ import annotations

import json

from . import copies
from .algebra import (cyclic_group, exact, group_algebra, symmetric_group,
                      trivial_algebra)
from .errors import QGaussError, SizeGuard
from .moments import check_q_matrix
from .qfock import FockConfig


class ScenarioError(QGaussError):
    """A scenario violated a module precondition; the message names it."""


def _field(path: str, *keys) -> str:
    """The path of the field that keys reach from path: .key for a name
    (the bare name at the top level), [key] for an index.  The readers
    below take (path, *keys) and call it only when they refuse, so a
    field that is read formats no path."""
    for key in keys:
        if type(key) is int:
            path = f"{path}[{key}]"
        else:
            path = f"{path}.{key}" if path else key
    return path


def _frac(x, path: str, *keys):
    """x as an exact rational, an int when integral (algebra.exact); a
    string of ASCII digits is read by int, not by Fraction's parser.  A
    JSON number must be an integer: true would read as 1, and 0.1 as its
    binary value, not 1/10."""
    if type(x) is str and x.isascii() and x.isdigit():
        return int(x)
    if type(x) is bool or type(x) is float and not x.is_integer():
        raise ScenarioError(f"{_field(path, *keys)}: not a rational number: "
                            f"{x!r}; give a \"p/q\" string or an integer")
    try:
        return exact(x)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as e:
        raise ScenarioError(f"{_field(path, *keys)}: not a rational "
                            f"number: {x!r}") from e


def _int(spec: dict, key: str, path: str, default=None) -> int:
    """spec[key] as an integer (an int, an integral float, or a string of
    digits); missing is allowed only with a default."""
    if key not in spec:
        if default is None:
            raise ScenarioError(f"{_field(path, key)}: missing")
        return default
    v = spec[key]
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            pass
    raise ScenarioError(f"{_field(path, key)}: not an integer: {v!r}")


def _object(spec, path: str) -> dict:
    if not isinstance(spec, dict):
        raise ScenarioError(f"{path}: expected a JSON object, got {spec!r}")
    return spec


def _list(spec, path: str, *keys) -> list:
    if not isinstance(spec, list):
        raise ScenarioError(f"{_field(path, *keys)}: expected a JSON list, "
                            f"got {spec!r}")
    return spec


def _known_keys(spec: dict, accepted, path: str):
    """Refuse a key of spec outside accepted, naming its path and the
    accepted keys: a misspelled or misplaced key would otherwise be
    dropped without a word."""
    for key in spec:
        if key not in accepted:
            raise ScenarioError(f"{_field(path, key)}: unknown key (accepted: "
                                f"{', '.join(accepted)})")


def _matrix(spec, path: str) -> list:
    return [[_frac(x, path, i, j) for j, x in enumerate(_list(row, path, i))]
            for i, row in enumerate(_list(spec, path))]


def _group_size(spec: dict, path: str) -> int:
    """spec["n"], at least 1 and held to the window guard: the groups
    list range(n)."""
    n = _int(spec, "n", path)
    if n < 1:
        raise ScenarioError(f"{path}.n: a group needs n >= 1, got {n}")
    copies.check_size(f"{path}.n", n)
    return n


#: The keys each kind of backend and of algebra B or C accepts.
BACKEND_KEYS = {"free_haar": ("kind", "window"),
                "perm_group": ("kind", "window", "d"),
                "tensor": ("kind", "window", "B", "C")}
ALGEBRA_KEYS = {"trivial": ("kind",), "cyclic": ("kind", "n"),
                "symmetric": ("kind", "n")}


def _kind(spec: dict, keys: dict, path: str):
    """spec["kind"], after refusing the keys that kind does not accept; an
    unknown kind is left to the caller."""
    kind = spec.get("kind")
    if isinstance(kind, str) and kind in keys:
        _known_keys(spec, keys[kind], path)
    return kind


def build_algebra(spec, path: str):
    spec = _object(spec, path)
    kind = _kind(spec, ALGEBRA_KEYS, path)
    if kind == "trivial":
        return trivial_algebra()
    if kind == "cyclic":
        return group_algebra(cyclic_group(_group_size(spec, path)))
    if kind == "symmetric":
        return group_algebra(symmetric_group(range(_group_size(spec, path))))
    raise ScenarioError(f"{path}.kind: unknown algebra kind {kind!r} "
                        "(expected trivial, cyclic, or symmetric)")


def build_backend(spec):
    spec = _object(spec, "backend")
    kind = _kind(spec, BACKEND_KEYS, "backend")
    window = _int(spec, "window", "backend", 4)
    if kind == "tensor":
        B = build_algebra(spec.get("B", {"kind": "trivial"}), "backend.B")
        C = build_algebra(spec.get("C", {"kind": "cyclic", "n": 2}),
                          "backend.C")
    try:
        if kind == "free_haar":
            return copies.FreeHaarBackend(window)
        if kind == "perm_group":
            return copies.PermGroupBackend(_int(spec, "d", "backend", 1), window)
        if kind == "tensor":
            return copies.TensorBackend(B, C, window)
    except ValueError as e:
        raise ScenarioError(f"backend: {e}") from e
    except SizeGuard as e:  # its message starts with the field's name
        raise SizeGuard(f"backend.{e}") from None
    raise ScenarioError(f"backend.kind: unknown backend kind {kind!r} "
                        "(expected free_haar, perm_group, or tensor)")


def build_cfg(spec) -> FockConfig:
    spec = _object(spec, "fock")
    _known_keys(spec, ("dim_H", "inner", "max_degree"), "fock")
    dim_H = _int(spec, "dim_H", "fock", 1)
    inner = spec.get("inner")
    if inner is not None:
        inner = tuple(map(tuple, _matrix(inner, "fock.inner")))
    try:
        return FockConfig(dim_H, inner, _int(spec, "max_degree", "fock", 6))
    except ValueError as e:
        raise ScenarioError(f"invalid Fock configuration: {e}") from e
    except SizeGuard as e:
        raise SizeGuard(f"fock.{e}") from None


def _coefficient(spec, backend, path: str, *keys):
    """The coefficient spec at the field that keys reach from path: the
    name of a generator in backend.S, or a {name: coefficient}
    combination of them."""
    if isinstance(spec, str):
        try:
            return backend.S[spec]
        except KeyError:
            raise ScenarioError(
                f"{_field(path, *keys)}: unknown generator {spec!r}; "
                f"backend offers {sorted(backend.S)}") from None
    if isinstance(spec, dict):
        out = None
        for name, c in spec.items():
            term = _coefficient(name, backend, path, *keys).scale(
                _frac(c, path, *keys, name))
            out = term if out is None else out + term
        if out is None:
            raise ScenarioError(f"{_field(path, *keys)}: empty coefficient "
                                "combination")
        return out
    raise ScenarioError(f"{_field(path, *keys)}: bad coefficient spec "
                        f"{spec!r}")


def build_word(word_spec, backend, cfg: FockConfig):
    """Returns (word, colors): word a list of (x, h) letters.  Each
    letter's path is formatted once; the path of a field in it only if
    the field is refused."""
    word = []
    colors = []
    for i, letter in enumerate(_list(word_spec, "word")):
        path = f"word[{i}]"
        letter = _object(letter, path)
        _known_keys(letter, ("coeff", "vector", "color"), path)
        x = _coefficient(letter.get("coeff", "1"), backend, path, "coeff")
        if "vector" not in letter:
            raise ScenarioError(f"{path}.vector: missing")
        h = tuple(_frac(v, path, "vector", j) for j, v in
                  enumerate(_list(letter["vector"], path, "vector")))
        if len(h) != cfg.dim_H:
            raise ScenarioError(
                f"{path}.vector: has {len(h)} coordinates, "
                f"dim_H is {cfg.dim_H}")
        word.append((x, h))
        colors.append(_int(letter, "color", path, 0))
    return word, colors


#: The top-level keys each command reads.
COMMAND_KEYS = {"moment": ("backend", "fock", "word", "q_values", "n", "Q"),
                "dims": ("backend", "dims")}


class Scenario:
    """A validated scenario ready for dispatch.  Given a command, it
    also refuses, after every other check, a top-level key that command
    does not read: it would be ignored without a word."""

    def __init__(self, data: dict, command=None):
        _known_keys(data, COMMAND_KEYS["moment"] + ("dims",), "")
        self.backend = build_backend(data.get("backend",
                                              {"kind": "free_haar"}))
        self.cfg = build_cfg(data.get("fock", {}))
        self.word, self.colors = build_word(data.get("word", []),
                                            self.backend, self.cfg)
        self.q_values = [_frac(x, "q_values", i) for i, x in
                         enumerate(_list(data.get("q_values", []), "q_values"))]
        self.n = _int(data, "n", "") if "n" in data else None
        if self.n is not None and self.n < 1:
            raise ScenarioError(f"n: must be >= 1, got {self.n}")
        self.Q = None
        if "Q" in data:
            if self.n is not None:
                raise ScenarioError("n: a Q-matrix moment is computed only "
                                    "in the large-n limit; give n or Q, "
                                    "not both")
            try:
                self.Q = check_q_matrix(_matrix(data["Q"], "Q"), self.colors)
            except ValueError as e:  # its message names the entry
                raise ScenarioError(str(e)) from e
        dims = _object(data.get("dims", {}), "dims")
        defaults = {"k_max": 2, "max_m_offset": 4}
        _known_keys(dims, tuple(defaults), "dims")
        for key, default in defaults.items():
            value = _int(dims, key, "dims", default)
            if value < 0:
                raise ScenarioError(f"dims.{key}: must be >= 0, got {value}")
            setattr(self, key, value)
        if command is not None:
            reads = COMMAND_KEYS[command]
            for key in data:
                if key not in reads:
                    raise ScenarioError(f"{key}: not read by qgauss {command} "
                                        f"(it reads: {', '.join(reads)})")

    @staticmethod
    def load(path: str, command=None) -> "Scenario":
        with open(path, encoding="utf-8") as f:
            try:
                data = json.load(f)
            except (json.JSONDecodeError, UnicodeDecodeError) as e:
                raise ScenarioError(f"scenario is not valid JSON: {e}") from e
            except RecursionError:
                raise ScenarioError("scenario nests too deeply to "
                                    "parse") from None
        if not isinstance(data, dict):
            raise ScenarioError("scenario must be a JSON object")
        return Scenario(data, command)
