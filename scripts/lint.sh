#!/usr/bin/env bash
# Zero-warning lint gate.
#
#   1. clippy over the whole workspace with -D warnings (vendored
#      stand-ins under vendor/ opt out via crate-level #![allow]);
#      falls back to a -D warnings build when clippy is unavailable.
#   2. unwrap/expect budget over crates/*/src non-test code, checked
#      against scripts/unwrap_allowlist.txt: a file over its entry fails,
#      and so does an entry above its file's count.
#   3. rustdoc with -D warnings over every crates/* package, so broken
#      intra-doc links (renamed or deleted items, bracketed citations
#      read as links) fail the gate.
#
# Exits non-zero on any violation. Run from anywhere; operates on the
# repository root.
set -u
cd "$(dirname "$0")/.."

status=0

echo "== lint: clippy (-D warnings) =="
if cargo clippy --version >/dev/null 2>&1; then
    if ! cargo clippy --workspace --all-targets -- -D warnings; then
        status=1
    fi
else
    echo "clippy unavailable; falling back to RUSTFLAGS=-Dwarnings build"
    if ! RUSTFLAGS="-D warnings" cargo build --workspace --all-targets; then
        status=1
    fi
fi

echo "== lint: rustdoc (-D warnings) =="
doc_pkgs=()
for manifest in crates/*/Cargo.toml; do
    doc_pkgs+=(-p "$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n 1)")
done
if ! RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --quiet "${doc_pkgs[@]}"; then
    status=1
fi

echo "== lint: unwrap/expect budget =="
allowlist=scripts/unwrap_allowlist.txt
if [ ! -f "$allowlist" ]; then
    echo "missing $allowlist" >&2
    exit 1
fi

violations=0
while IFS= read -r f; do
    # Count .unwrap() / .expect( in non-test code: stop at the first
    # #[cfg(test)] module marker, skip // comment lines.
    n=$(awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        { c += gsub(/\.unwrap\(\)/, "") + gsub(/\.expect\(/, "") }
        END { print c + 0 }
    ' "$f")
    allowed=$(awk -v path="$f" '$1 == path { print $2; exit }' "$allowlist")
    allowed=${allowed:-0}
    if [ "$n" -gt "$allowed" ]; then
        echo "unwrap budget exceeded: $f has $n non-test unwrap/expect calls (allowed: $allowed)" >&2
        violations=$((violations + 1))
    elif [ "$n" -lt "$allowed" ]; then
        echo "unwrap budget too loose: $f has $n non-test unwrap/expect calls (allowed: $allowed); lower its entry" >&2
        violations=$((violations + 1))
    fi
done < <(find crates -path '*/src/*' -name '*.rs' | sort)

# Flag stale allowlist entries (and, above, loose ones) so the budget
# only ratchets down.
while read -r path allowed; do
    case "$path" in ''|'#'*) continue ;; esac
    if [ ! -f "$path" ]; then
        echo "stale allowlist entry (file gone): $path" >&2
        violations=$((violations + 1))
    fi
done < "$allowlist"

if [ "$violations" -gt 0 ]; then
    echo "unwrap lint: $violations violation(s)" >&2
    status=1
else
    echo "unwrap lint: ok"
fi

exit $status
