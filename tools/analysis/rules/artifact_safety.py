"""Artifact safety: explicit endianness and atomic publishes only.

The on-disk framing and the state hash (``docs/ARTIFACT_FORMAT.md``) are
specified little-endian, so a native-endian ``struct`` format silently
bakes the writer's byte order into them.  The typed blocks are packed in
host order and stamped with it; a ``memoryview.cast`` reads them natively,
so it is safe only behind the reader gate that refuses a foreign
``byteorder``.  And the serving layer's durability
story (PR 6) depends on *every* publish going through
``repro.storage.artifact.write_artifact`` — tmp file, fsync,
``os.replace``, directory fsync — so a crash can never leave a torn
artifact where a reader looks.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.analysis.engine import Finding, ModuleInfo, Rule, register
from tools.analysis.rules._common import dotted_name

__all__ = ["ArtifactWritePathRule", "ExplicitEndianRule"]

_STRUCT_CALLS = {
    "struct.Struct",
    "struct.calcsize",
    "struct.iter_unpack",
    "struct.pack",
    "struct.pack_into",
    "struct.unpack",
    "struct.unpack_from",
}

# Write/rename entry points that bypass write_artifact's tmp+replace+fsync.
_RAW_PUBLISH_CALLS = {
    "os.rename",
    "os.replace",
    "shutil.copy",
    "shutil.copy2",
    "shutil.copyfile",
    "shutil.move",
}

_WRITE_MODES = "wax"


def _endian_scope(module: ModuleInfo) -> bool:
    return module.module.startswith(("repro.storage", "repro.serving"))


def _publish_scope(module: ModuleInfo) -> bool:
    # repro.storage.artifact IS the implementation of the safe path; the
    # serving layer (and anything above it) must not reimplement it.
    return module.module.startswith("repro.serving")


@register
class ExplicitEndianRule(Rule):
    """struct formats need a `<` prefix; memoryview.cast is native-only."""

    id = "explicit-endian"
    summary = (
        "struct format without an explicit `<` prefix, or a native-endian "
        "memoryview.cast, in repro.storage / repro.serving"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _endian_scope(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee in _STRUCT_CALLS and node.args:
                fmt = node.args[0]
                if isinstance(fmt, ast.Constant) and isinstance(fmt.value, str):
                    if not fmt.value.startswith("<"):
                        yield self.finding(
                            module,
                            fmt,
                            f"struct format {fmt.value!r} has no explicit "
                            f"`<` prefix; native byte order bakes the "
                            f"writer's endianness into the artifact",
                        )
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "cast":
                yield self.finding(
                    module,
                    node,
                    "memoryview.cast() always produces a *native*-endian "
                    "view; refuse a foreign byteorder before it and "
                    "suppress this finding with a reason",
                )


@register
class ArtifactWritePathRule(Rule):
    """Serving-layer writes must route through write_artifact."""

    id = "artifact-write-path"
    summary = (
        "direct file write / rename in repro.serving; publishes must go "
        "through repro.storage.artifact.write_artifact (tmp + os.replace "
        "+ fsync)"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _publish_scope(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee in _RAW_PUBLISH_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"`{callee}()` bypasses write_artifact's tmp + "
                    f"os.replace + fsync publish path",
                )
            elif callee == "open" or (
                isinstance(node.func, ast.Attribute) and node.func.attr == "open"
            ):
                if self._opens_for_write(node):
                    yield self.finding(
                        module,
                        node,
                        "opening a file for writing in the serving layer; "
                        "route artifact bytes through "
                        "repro.storage.artifact.write_artifact so a crash "
                        "cannot publish a torn file",
                    )
            elif isinstance(node.func, ast.Attribute) and node.func.attr in {
                "write_bytes",
                "write_text",
            }:
                yield self.finding(
                    module,
                    node,
                    f"`Path.{node.func.attr}()` is a non-atomic in-place "
                    f"write; route it through write_artifact",
                )

    @staticmethod
    def _opens_for_write(node: ast.Call) -> bool:
        """True when an ``open`` call's mode literal requests writing."""
        mode = None
        if isinstance(node.func, ast.Name):
            # builtin open(path, mode): mode is the second positional arg.
            if len(node.args) >= 2:
                mode = node.args[1]
        elif node.args:
            # Path.open(mode): mode is the first positional arg.
            mode = node.args[0]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if mode is None:
            return False
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return any(flag in mode.value for flag in _WRITE_MODES)
        # Non-literal mode: cannot prove it is read-only, flag it.
        return True
