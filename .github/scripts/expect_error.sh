# expect_error PATTERN COMMAND...: the command exits 1 and writes one line
# to stderr, which matches PATTERN, and no traceback. The workflow steps
# that check error lines source this file; it writes to $RUNNER_TEMP.
expect_error() {
  pattern="$1"
  shift
  status=0
  "$@" 2> "$RUNNER_TEMP/err.txt" || status=$?
  cat "$RUNNER_TEMP/err.txt"
  test "$status" -eq 1
  test "$(wc -l < "$RUNNER_TEMP/err.txt")" -eq 1
  grep -q "$pattern" "$RUNNER_TEMP/err.txt"
  if grep -q Traceback "$RUNNER_TEMP/err.txt"; then exit 1; fi
}
