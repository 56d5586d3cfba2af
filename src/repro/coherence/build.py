"""Build and load the compiled extension: the memory system
(``memsys.c``) and the synthetic trace generator's loop
(``repro/workloads/synthetic.c``), one cffi module.

The C/Python boundary is declared once, in the C sources: each file
opens with a block between ``/* cdef: begin */`` and ``/* cdef: end */``
lines (typedefs, integer constants, prototypes) that it compiles as its
own declarations and that :func:`declarations` hands to cffi.  The
``ctypes`` row views take their fields from cffi's reading of those
structs (:func:`repro.coherence.core.row_fields`).

The C sources are concatenated into one translation unit, wrapped by
cffi in API mode and compiled once per (C source text, :data:`CDEF`,
:data:`FLAGS`, interpreter ABI tag, cffi version) into the coherence
package's ``__pycache__``; neither distutils nor setuptools is
involved.  The name is a digest of the very text that is emitted: the
sources are read once per load and the declarations are the ones in
this process, so a build can never publish one text under another
text's name.  :func:`load` returns the loaded extension module (its
``ffi`` and ``lib``), the same object on every call in a process;
:mod:`repro.coherence.core` calls it at import time, so a process pays
for a compile before it builds any machine, and only when no intact
build exists.

Publishing is atomic: the library is compiled into a private temporary
directory and moved into place with ``os.replace``, then a SHA-256 stamp
of its bytes is published the same way.  A concurrently importing
process therefore sees either no library, or a complete one.  A library
whose bytes do not match its stamp (truncated, or replaced by a racing
build) is rebuilt rather than loaded.  A successful build deletes the
builds it supersedes (:func:`_prune`), so edits to the sources do not
pile libraries up in ``__pycache__``.

The compiler is the interpreter's own ``CC``, run with ``-O2
-ffp-contract=off``: no fused multiply-adds, no ``-ffast-math`` and no
``-march=native``, so every ``double`` evaluates exactly as the Python
oracle's floats do.  A missing or failing compiler raises one
:class:`ImportError` naming the command and its standard error.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.machinery
import importlib.util
import io
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import _cffi_backend

HERE = Path(__file__).resolve().parent
#: The extension's C sources, in the order they are concatenated.
SOURCES = (HERE / "memsys.c", HERE.parent / "workloads" / "synthetic.c")
BUILD_DIR = HERE / "__pycache__"
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
#: Every build's name starts with this (:func:`module_name`).
PREFIX = "_memsys_"

#: Modules this process has loaded, by library path.
_LOADED: dict[Path, object] = {}

#: Marks the declaration block of each C source (see :func:`declarations`).
_BLOCK = re.compile(r"^/\* cdef: begin \*/$(.*?)^/\* cdef: end \*/$",
                    re.DOTALL | re.MULTILINE)

#: The callbacks into Python (``repro.coherence.core``); everything else
#: Python sees is declared in the C sources.
CDEF = """
extern "Python" int mem_cb_dependence(void *, int, int, int64_t);
extern "Python" int mem_cb_wsig(void *, int, int64_t);
extern "Python" int mem_cb_line(void *, double, int, int64_t, int, int64_t *);
"""


def source_text() -> str:
    """The extension's C source: every file of :data:`SOURCES`, in
    order (raises :class:`OSError` when one cannot be read)."""
    return "".join(path.read_text() for path in SOURCES)


def declarations(source: str) -> str:
    """What Python sees of ``source``: the text between the ``cdef:
    begin`` and ``cdef: end`` markers of each C file, in order, then
    :data:`CDEF`."""
    return "".join(_BLOCK.findall(source)) + CDEF


def module_name(source: str) -> str:
    """The extension's name: a digest of everything that shapes it (the
    C source text, the in-process :data:`CDEF` and :data:`FLAGS`, the
    interpreter ABI and the cffi version)."""
    digest = hashlib.sha256()
    for part in (source, CDEF, " ".join(FLAGS),
                 importlib.machinery.EXTENSION_SUFFIXES[0],
                 _cffi_backend.__version__):
        digest.update(part.encode())
        digest.update(b"\0")
    return PREFIX + digest.hexdigest()[:16]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _intact(library: Path, stamp: Path) -> bool:
    try:
        return stamp.read_text().strip() == _sha256(library)
    except OSError:
        return False


def _compile_command(c_file: Path, output: Path) -> list[str]:
    """The compiler invocation for one build."""
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    command = [*compiler, *FLAGS,
               "-I" + sysconfig.get_paths()["include"],
               str(c_file), "-o", str(output)]
    if sys.platform == "darwin":
        command += ["-undefined", "dynamic_lookup"]
    return command


def emit(name: str, source: str, c_file: Path) -> None:
    """Write the C file cffi generates for extension ``name``: the
    wrappers around ``source``, which it includes verbatim, followed by
    a prototype of the module's init function (cffi's glue defines it
    without one), so that every external function of the file is
    declared before its definition."""
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(declarations(source))
    ffi.set_source(name, f"{source}\nPyMODINIT_FUNC PyInit_{name}(void);\n")
    with contextlib.redirect_stdout(io.StringIO()):
        ffi.emit_c_code(str(c_file))


def _build(name: str, source: str, library: Path, stamp: Path) -> None:
    work = library.parent / f"{name}.{os.getpid()}.tmp"
    work.mkdir(parents=True, exist_ok=True)
    try:
        c_file = work / f"{name}.c"
        emit(name, source, c_file)
        built = work / library.name
        command = _compile_command(c_file, built)
        shown = " ".join(shlex.quote(part) for part in command)
        try:
            proc = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise ImportError(
                f"cannot build the compiled memory system: `{shown}` "
                f"did not start: {exc}") from None
        if proc.returncode != 0:
            raise ImportError(
                f"cannot build the compiled memory system: `{shown}` "
                f"exited with status {proc.returncode}:\n"
                f"{proc.stderr.strip()}")
        digest = _sha256(built)
        os.replace(built, library)
        (work / stamp.name).write_text(digest + "\n")
        os.replace(work / stamp.name, stamp)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _prune(library: Path) -> None:
    """Delete the builds ``library`` supersedes: every other library of
    this interpreter's ABI in its directory, with its stamp.  A process
    that has one of them loaded keeps its mapping (unlinking a mapped
    file is safe); builds for other interpreters and the temporary
    directories of builds in progress are left alone."""
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    keep = {library.name, library.name + ".sha256"}
    for path in library.parent.glob(f"{PREFIX}*{suffix}*"):
        if path.name not in keep and path.is_file():
            with contextlib.suppress(OSError):
                path.unlink()


def load(build_dir: Path = BUILD_DIR):
    """The compiled extension module, built first if needed; a process
    loads each build once and gets the same module on every call.

    A source that cannot be read (an install without ``memsys.c`` or
    ``synthetic.c``) or a build directory that cannot be written raises
    :class:`ImportError` naming the path and the cause."""
    try:
        source = source_text()
    except OSError as exc:
        raise ImportError(
            f"cannot build the compiled memory system: its source "
            f"cannot be read: {exc}") from None
    name = module_name(source)
    library = build_dir / (name + importlib.machinery.EXTENSION_SUFFIXES[0])
    if library in _LOADED:
        return _LOADED[library]
    stamp = library.with_name(library.name + ".sha256")
    if not _intact(library, stamp):
        try:
            build_dir.mkdir(parents=True, exist_ok=True)
            _build(name, source, library, stamp)
            _prune(library)
        except OSError as exc:
            raise ImportError(
                f"cannot build the compiled memory system in {build_dir}: "
                f"{exc}") from None
    loader = importlib.machinery.ExtensionFileLoader(name, str(library))
    spec = importlib.util.spec_from_file_location(name, library,
                                                  loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    _LOADED[library] = module
    return module
