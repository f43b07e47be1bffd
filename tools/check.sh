#!/usr/bin/env bash
# Tier-1 verify with warnings-as-errors: the exact gate CI runs, usable
# locally before pushing.
#
#   tools/check.sh [build-dir]
#
# ctest includes the invariant lint pass (lint_selftest and lint_repo,
# tools/lint/run.py) whenever CMake finds Python 3.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-check}"
jobs="$(nproc 2>/dev/null || echo 4)"

cmake -B "${build_dir}" -S "${repo_root}" -DIPOP_WERROR=ON
cmake --build "${build_dir}" -j "${jobs}"
# JUnit XML lands next to the binaries so CI can upload it per matrix leg.
ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
      --output-junit junit.xml
