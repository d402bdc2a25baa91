#!/usr/bin/env bash
# Prints the module's Go line counts outside perfbench/ (the benchmark
# is its own module): first the non-test files, which the subtraction
# target in ROADMAP.md counts, then the _test.go files.
#
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
count() {
	find . \( -path ./perfbench -o -name '.?*' \) -prune -o -name '*.go' "$@" -print0 |
		xargs -0 cat | wc -l
}
echo "non-test $(count ! -name '*_test.go')"
echo "test $(count -name '*_test.go')"
