#!/bin/sh
# Fails unless the Bohm CC, exec and sequencer objects contain a PREFETCHW
# instruction (src/common/prefetch.h explains why a compiler-chosen
# prefetch is not enough). The sequencer's comes from the procedure
# destruction loop in Batch::ResetForReuse (src/bohm/batch.h). Registered
# as the prefetchw_present ctest on x86-64.
#
#   check_prefetchw.sh OBJDUMP "obj1;obj2;..."   # e.g. $<TARGET_OBJECTS:...>
objdump=$1
found=0
IFS=';'
for obj in $2; do
  case $obj in
    *cc_worker*|*exec_worker*|*sequencer*)
      found=$((found + 1))
      if ! "$objdump" -d "$obj" | grep -q prefetchw; then
        echo "FAIL: no prefetchw in $obj"
        exit 1
      fi
      echo "ok: prefetchw in $obj"
      ;;
  esac
done
if [ "$found" -ne 3 ]; then
  echo "FAIL: expected the cc_worker, exec_worker and sequencer objects, found $found"
  exit 1
fi
