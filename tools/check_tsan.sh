#!/usr/bin/env bash
# Build the concurrency-sensitive test binaries with ThreadSanitizer
# and run the scheduler / queue / halo-exchange test subset under it.
#
# The subset is defined by the `tsan` test preset in CMakePresets.json:
# it covers the out-of-order queue scheduler, the thread pool, the
# thread-safe launch log, minimpi halo exchange and the distributed
# OPS/OP2 layers, and excludes fiber-based nd_range tests (TSan cannot
# track swapcontext; those run under the `asan` preset instead - see
# docs/executor.md).
#
# Usage: tools/check_tsan.sh  (from the repository root)

set -euo pipefail
cd "$(dirname "$0")/.."

cmake --workflow --preset tsan
echo "TSan concurrency suite passed."
