#!/usr/bin/env bash
# Print the port that a background `qbcsim session --role bob` announces in
# its log, waiting up to 10 s for the "listening port=" line:
#
#   port=$(bash .github/scripts/bob_port.sh bob.log "$bob_pid")
#
# Without that line, print the log to stderr, stop the process and fail.
log=$1
pid=$2
for _ in $(seq 100); do grep -q "^listening port=" "$log" && break; sleep 0.1; done
port=$(sed -n 's/^listening port=//p' "$log")
if [ -z "$port" ]; then
  echo "bob printed no 'listening port=' line within 10 s; $log:" >&2
  cat "$log" >&2
  kill "$pid" 2>/dev/null || true
  exit 1
fi
echo "$port"
