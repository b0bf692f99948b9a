#!/usr/bin/env python3
"""Each kernel-engine rung object defines no global or weak symbol outside
its own namespace.

  test_rung_symbols.py NM RUNG=OBJECT [RUNG=OBJECT ...]

A rung is src/la/engine.cpp compiled with its own ISA flags (la/engine.hpp).
If it emitted an inline function out of line, say std::fill<double*> or a
std::vector<double> member, the result is a weak symbol the linker may keep
for every caller in the program, and the AVX-512 copy of it would then run
on CPUs without AVX-512. So every global (T, D, B, R, ...) or weak / unique
(W, V, u) symbol a rung object defines must lie in
nadmm::la::kernels::<rung>::. Standard library only.
"""
import subprocess
import sys

# Compiler-generated, not code: the shared pointer cell to the C++
# exception personality routine, the same 8 bytes in every object.
ALLOWED = {"DW.ref.__gxx_personality_v0"}


def offending(nm, rung, obj):
    """Symbols `obj` defines with external linkage outside the rung's
    namespace, or a note if it defines none at all."""
    listing = subprocess.run([nm, "--defined-only", "-C", obj], check=True,
                             capture_output=True, text=True).stdout
    prefix = f"nadmm::la::kernels::{rung}::"
    exported, bad = 0, []
    for line in listing.splitlines():
        fields = line.split(maxsplit=2)
        if len(fields) < 3:
            continue
        kind, name = fields[1], fields[2]
        if not (kind.isupper() or kind in "uvw"):
            continue  # local symbol
        if name in ALLOWED:
            continue
        exported += 1
        if not name.startswith(prefix):
            bad.append(f"  {rung}: {kind} {name}")
    if exported == 0:
        bad.append(f"  {rung}: {obj} exports nothing (is this the rung object?)")
    return bad


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    nm, bad = argv[1], []
    for spec in argv[2:]:
        rung, obj = spec.split("=", 1)
        bad += offending(nm, rung, obj)
    if bad:
        print("rung objects define symbols outside their namespace:")
        print("\n".join(bad))
        return 1
    print(f"{len(argv) - 2} rung objects clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
