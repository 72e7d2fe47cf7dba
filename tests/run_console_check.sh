#!/usr/bin/env bash
# Run tests/console_check.sh against this tree, from a temporary directory,
# with a shim `infoagree` console script and the tree's src/ on PYTHONPATH:
#
#     bash tests/run_console_check.sh
#
# Both sides of each comparison then run the tree, so this checks the
# script's commands and expectations, not an installed package.

set -eo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/bin"
printf '#!/bin/sh\nexec python -m infoagree.cli "$@"\n' > "$work/bin/infoagree"
chmod +x "$work/bin/infoagree"
cd "$work"
PATH="$work/bin:$PATH" PYTHONPATH="$root/src" bash "$root/tests/console_check.sh" infoagree python
