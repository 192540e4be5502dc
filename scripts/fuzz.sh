#!/bin/sh
# Fuzz every Fuzz* target in the module for SECONDS seconds each, one after
# another. Targets are discovered with `go test -list`, so a new target is
# fuzzed without editing any list; the script fails if it finds none.
#
#   ./scripts/fuzz.sh 30
set -eu
cd "$(dirname "$0")/.."
secs=${1:?usage: scripts/fuzz.sh SECONDS}
# Listing first, on its own, so a package that fails to build fails the script.
list=$(go test -list '^Fuzz' ./...)
targets=$(printf '%s\n' "$list" | awk '
  /^Fuzz/ { names[n++] = $1; next }
  /^ok/   { for (i = 0; i < n; i++) print $2, names[i]; n = 0 }')
if [ -z "$targets" ]; then
  echo "fuzz.sh: no Fuzz targets found" >&2
  exit 1
fi
echo "$targets" | while read -r pkg name; do
  echo "== $name ($pkg, ${secs}s)"
  go test -run '^$' -fuzz "^$name\$" -fuzztime "${secs}s" "$pkg"
done
