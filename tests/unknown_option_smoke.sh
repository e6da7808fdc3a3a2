#!/bin/sh
# Runs a tool with a misspelt option and expects it to refuse: exit status 1
# with the option named on stderr. Invoked by CTest as
#   unknown_option_smoke.sh <option> <binary> [args...]
# where the args include --<option>.
set -u

OPTION="$1"
shift
ERR="$("$@" 2>&1 >/dev/null)"
STATUS=$?

[ "$STATUS" -eq 1 ] || { echo "FAIL: expected exit 1 for --$OPTION, got $STATUS"; exit 1; }
case "$ERR" in
  *"--$OPTION"*) ;;
  *) echo "FAIL: stderr does not name --$OPTION: $ERR"; exit 1 ;;
esac
echo "refused --$OPTION"
