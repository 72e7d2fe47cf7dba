#!/usr/bin/env bash
# The installed package and its console script against the tree: the same
# values, report bytes and exit codes from both, on compute, sweep and batch,
# on both oracle routes and both branches of the digit parser.
#
#     bash tests/console_check.sh CONSOLE TREE_PYTHON
#
# CONSOLE is the command of the installed console script (infoagree) and
# TREE_PYTHON an interpreter command that imports the tree's src/, such as
# "env PYTHONPATH=$PWD/src python"; both are split on blanks. Plain python
# must import the installed package. The script writes its files to the
# current directory, so run it from an empty one outside the checkout.
# CI runs it after installing the package with pip; to run it against the
# tree alone, with a shim console script, use tests/run_console_check.sh.
#
# The one check it leaves to the workflow is that plain python imports an
# installed copy, not the checkout. Only the workflow installs the package:
# the build needs setuptools 68 or later and wheel, so an offline
# `pip install --no-index .` may not run where those are missing.

set -eo pipefail

console=$1
tree_python=$2

$console --version
printf '4,1\n2,5\n' > m.csv
value=$($console compute --plain m.csv)
tree=$($tree_python -m infoagree.cli compute --plain m.csv)
echo "installed: $value, tree: $tree"
test "$value" = "$tree"
value=$($console sweep --plain m.csv)
tree=$($tree_python -m infoagree.cli sweep --plain m.csv)
echo "sweep installed: $value, tree: $tree"
test "$value" = "$tree"
# a 120x120 body of single digits, above formats._VECTOR_MIN_BYTES,
# which the digit parser reads as 16-bit words, and its ", "-spaced
# twin, which it searches for separators: the same value from the
# installed package and the tree, and from both files
python -c 'import random; r = random.Random(0); rows = [[str(r.randrange(10)) for _ in range(120)] for _ in range(120)]; [open(name, "w").write("".join(sep.join(row) + "\n" for row in rows)) for name, sep in [("digits.csv", ","), ("spaced.csv", ", ")]]'
for f in digits.csv spaced.csv; do
  value=$($console compute --plain "$f")
  tree=$($tree_python -m infoagree.cli compute --plain "$f")
  echo "$f installed: $value, tree: $tree"
  test "$value" = "$tree"
done
test "$($console compute --plain digits.csv)" = "$($console compute --plain spaced.csv)"
# sweep on the same file: 120x120 with top 9, so the oracle's
# histogram route; the plain value, and the whole report with its
# sweep rows byte for byte
value=$($console sweep --plain digits.csv)
tree=$($tree_python -m infoagree.cli sweep --plain digits.csv)
echo "sweep digits.csv installed: $value, tree: $tree"
test "$value" = "$tree"
$console sweep digits.csv > installed-sweep.json
$tree_python -m infoagree.cli sweep digits.csv > tree-sweep.json
cmp installed-sweep.json tree-sweep.json
# a 120x120 file of counts up to 10**6 with 20% zeros: 4 * (top + 1)
# > n, so sweep takes the oracle's per-cell route; the exit codes,
# and the report byte for byte
python -c 'import random; r = random.Random(0); open("wide.csv", "w").write("".join(",".join(str(0 if r.random() < 0.2 else r.randint(1, 10**6)) for _ in range(120)) + "\n" for _ in range(120)))'
code=0; $console sweep wide.csv > installed-wide.json || code=$?
tree_code=0; $tree_python -m infoagree.cli sweep wide.csv > tree-wide.json || tree_code=$?
echo "sweep wide.csv exit codes: installed $code, tree $tree_code"
test "$code$tree_code" = 00
cmp installed-wide.json tree-wide.json
# one good and one malformed file: one record each, exit 1
mkdir batch
cp m.csv batch/good.csv
printf '4,1\n2,x\n' > batch/bad.csv
code=0; $console batch batch > installed.jsonl || code=$?
tree_code=0; $tree_python -m infoagree.cli batch batch > tree.jsonl || tree_code=$?
echo "batch exit codes: installed $code, tree $tree_code"
test "$code" = 1
test "$tree_code" = 1
test "$(grep -c '"error"' installed.jsonl)" = 1
test "$(wc -l < installed.jsonl)" = 2
cmp installed.jsonl tree.jsonl
# 300 good files and the bad one: on a runner with 2 or more CPUs,
# batch splits them over forked workers, with the bytes and exit
# code of one process (taskset -c 0 leaves it one CPU)
mkdir many
for i in $(seq -w 1 300); do cp m.csv "many/m$i.csv"; done
cp batch/bad.csv many/
code=0; $console batch many > many.jsonl || code=$?
tree_code=0; $tree_python -m infoagree.cli batch many > tree-many.jsonl || tree_code=$?
one_code=0; taskset -c 0 $console batch many > one-cpu.jsonl || one_code=$?
echo "batch of 301 exit codes: installed $code, tree $tree_code, one CPU $one_code"
test "$code$tree_code$one_code" = 111
test "$(wc -l < many.jsonl)" = 301
cmp many.jsonl tree-many.jsonl
cmp many.jsonl one-cpu.jsonl
# Python 3.12+ warns when a process with other threads forks, and
# shows the warning in __main__: here it would be an error
code=0; python -W error::DeprecationWarning -m infoagree.cli batch many > warned.jsonl 2> warned.err || code=$?
cat warned.err
test "$code" = 1
test ! -s warned.err
cmp many.jsonl warned.jsonl
