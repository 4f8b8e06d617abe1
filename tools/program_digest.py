"""Print what the benchmark's models compile to.

For every model of every perfbench workload (``workloads.WORKLOADS``),
both its ``root`` and its ``flat_root``, this prints the flat program's
``ops_summary()``, a digest of the code object of its generated horizon
loop (``marshal``), its lowered and fallback op counts with the verdict
of tiered ``auto``'s cost check (``promotes`` or ``stays flat``; a host
without a C compiler keeps every program flat) and, when a C compiler
is found, a digest of its lowered C source.  Two checkouts that print the same lines compile the
same programs: a compiler change that must leave the benchmark's
programs alone can be checked by diffing the output of both.

Run from the repository root::

    python tools/program_digest.py

The code object holds hash-ordered constants, so the script re-runs
itself under ``PYTHONHASHSEED=0`` when the hash seed is anything else.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        environment = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], environment)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from repro.simulation import compile_flat
    from repro.simulation.native import EMITTER_VERSION, lower_program
    from repro.simulation.native.schedule import worth_loading
    from repro.simulation.native.toolchain import find_compiler
    from repro.simulation.op_emit import flat_step

    compiler = find_compiler()
    for workload_name, workload in workloads.WORKLOADS.items():
        for model in workload.build():
            roots = [("root", model.root)]
            if model.flat_root is not model.root:
                roots.append(("flat_root", model.flat_root))
            for kind, component in roots:
                flat = compile_flat(component)
                print(f"== {workload_name}/{model.name} {kind} "
                      f"{component.name}")
                print("\n".join(flat.ops_summary()))
                code = flat_step(flat, horizon=True).__code__
                print(f"horizon loop {_digest(marshal.dumps(code))}")
                lowered = lower_program(flat, EMITTER_VERSION)
                verdict = "promotes" if worth_loading(lowered) \
                    else "stays flat"
                print(f"lowered {len(lowered.lowered_ops)} fallback "
                      f"{len(lowered.fallback_ops)}: {verdict}")
                if compiler is None:
                    print("C source: no C compiler")
                else:
                    print(f"C source {_digest(lowered.source.encode())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
