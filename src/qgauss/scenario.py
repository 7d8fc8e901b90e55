"""Scenario files: JSON descriptions of a backend, a coefficient space, a
word, and the requested computation.

Rational numbers are written as "p/q" strings (plain integers also
accepted).  Word coefficients name generators from the backend's S set,
or give {name: coefficient} combinations of them.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import copies
from .algebra import cyclic_group, group_algebra, symmetric_group, trivial_algebra
from .errors import QGaussError
from .qfock import FockConfig


class ScenarioError(QGaussError):
    """A scenario violated a module precondition; the message names it."""


def _frac(x) -> Fraction:
    try:
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise ScenarioError(f"not a rational number: {x!r}") from e


def build_algebra(spec: dict):
    kind = spec.get("kind")
    if kind == "trivial":
        return trivial_algebra()
    if kind == "cyclic":
        return group_algebra(cyclic_group(int(spec["n"])))
    if kind == "symmetric":
        return group_algebra(symmetric_group(range(int(spec["n"]))))
    raise ScenarioError(f"unknown algebra kind {kind!r} "
                        "(expected trivial, cyclic, or symmetric)")


def build_backend(spec: dict):
    kind = spec.get("kind")
    window = int(spec.get("window", 4))
    if kind == "free_haar":
        return copies.FreeHaarBackend(window)
    if kind == "perm_group":
        return copies.PermGroupBackend(int(spec.get("d", 1)), window)
    if kind == "tensor":
        B = build_algebra(spec.get("B", {"kind": "trivial"}))
        C = build_algebra(spec.get("C", {"kind": "cyclic", "n": 2}))
        return copies.TensorBackend(B, C, window)
    raise ScenarioError(f"unknown backend kind {kind!r} "
                        "(expected free_haar, perm_group, or tensor)")


def build_cfg(spec: dict) -> FockConfig:
    dim_H = int(spec.get("dim_H", 1))
    inner = spec.get("inner")
    if inner is not None:
        inner = tuple(tuple(_frac(x) for x in row) for row in inner)
    try:
        return FockConfig(dim_H, inner, int(spec.get("max_degree", 6)))
    except ValueError as e:
        raise ScenarioError(f"invalid Fock configuration: {e}") from e


def _coefficient(spec, backend):
    if isinstance(spec, str):
        try:
            return backend.S[spec]
        except KeyError:
            raise ScenarioError(
                f"unknown generator {spec!r}; backend offers "
                f"{sorted(backend.S)}") from None
    if isinstance(spec, dict):
        out = None
        for name, c in spec.items():
            term = _coefficient(name, backend).scale(_frac(c))
            out = term if out is None else out + term
        if out is None:
            raise ScenarioError("empty coefficient combination")
        return out
    raise ScenarioError(f"bad coefficient spec {spec!r}")


def build_word(word_spec, backend, cfg: FockConfig):
    """Returns (word, colors): word a list of (x, h) letters."""
    word = []
    colors = []
    for i, letter in enumerate(word_spec):
        x = _coefficient(letter.get("coeff", "1"), backend)
        h = tuple(_frac(v) for v in letter["vector"])
        if len(h) != cfg.dim_H:
            raise ScenarioError(
                f"letter {i}: vector has {len(h)} coordinates, "
                f"dim_H is {cfg.dim_H}")
        word.append((x, h))
        colors.append(int(letter.get("color", 0)))
    return word, colors


class Scenario:
    """A validated scenario ready for dispatch."""

    def __init__(self, data: dict):
        self.data = data
        self.backend = build_backend(data.get("backend",
                                              {"kind": "free_haar"}))
        self.cfg = build_cfg(data.get("fock", {}))
        self.word, self.colors = build_word(data.get("word", []),
                                            self.backend, self.cfg)
        self.q_values = [_frac(x) for x in data.get("q_values", [])]
        self.n = int(data["n"]) if "n" in data else None
        self.Q = None
        if "Q" in data:
            self.Q = [[_frac(x) for x in row] for row in data["Q"]]
        self.dims = data.get("dims", {})

    @staticmethod
    def load(path: str) -> "Scenario":
        with open(path) as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as e:
                raise ScenarioError(f"scenario is not valid JSON: {e}") from e
        if not isinstance(data, dict):
            raise ScenarioError("scenario must be a JSON object")
        return Scenario(data)
