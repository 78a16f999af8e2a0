#!/usr/bin/env bash
# paper_results must reject a bad command line (an unknown flag, an
# unknown experiment name, --nodes=) with exit status 2 and a message on
# stderr, before it runs anything.
#
# Usage: paper_results_usage.sh <paper_results>

set -uo pipefail

papers="$1"
status=0
for args in --bogus no_such_experiment --nodes=4 --engine=bogus \
    "table_3_1 --bogus"; do
    # shellcheck disable=SC2086 # word splitting is the point here
    err="$("$papers" $args 2>&1 >/dev/null)"
    rc=$?
    if [ "$rc" -ne 2 ] || [ -z "$err" ]; then
        echo "FAIL: 'paper_results $args' exited $rc: $err"
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "bad command lines rejected with exit 2"
exit "$status"
