#!/bin/sh
# Guards the software prefetch of the 2PS-L core against being compiled
# away. GCC 12's ipa-modref pass treats a prefetch-only lambda as side-
# effect free and deletes calls to it that were not inlined early, so a
# stage lambda missing TPSL_PREFETCH_STAGE builds and passes every other
# test while prefetching nothing.
#
# Usage: prefetch_codegen_check.sh OBJECT...
# An argument may also be a ';'-separated list of objects, as CMake's
# $<TARGET_OBJECTS:tpsl> expands to. Checks parallel_two_phase.cc.o and
# streaming_clustering.cc.o among them: each must hold prefetch
# instructions in at least two functions — pass A and pass B of the
# engine-driven core, and the sequential and engine-driven clustering
# passes. Exits 77 (ctest SKIP) when objdump is not on PATH.
if ! command -v objdump >/dev/null 2>&1; then
  echo "SKIP: objdump is not on PATH"
  exit 77
fi
status=0
for name in parallel_two_phase.cc.o streaming_clustering.cc.o; do
  object=$(printf '%s;' "$@" | tr ';' '\n' | grep "/$name\$" | head -n 1)
  if [ -z "$object" ]; then
    echo "FAIL: $name is not among the given objects"
    status=1
    continue
  fi
  # Functions (objdump's "<symbol>:" headers) holding a prefetch.
  functions=$(objdump -d "$object" | awk '
    /^[0-9a-f]+ <.*>:$/ { fn = $0 }
    /\t(prefetch|prfm)/ { if (!(fn in seen)) { seen[fn] = 1; n++ } }
    END { print n + 0 }')
  echo "$name: prefetch instructions in $functions functions"
  if [ "$functions" -lt 2 ]; then
    echo "FAIL: $name lost its prefetches (expected at least 2 functions)"
    status=1
  fi
done
exit $status
