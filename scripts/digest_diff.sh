#!/usr/bin/env bash
# Compare the trajectory digests of this checkout with those of another.
#
#   scripts/digest_diff.sh BASE_TREE [SUMMARY_FILE]
#
# Runs scripts/trajectory_digest.py --seed 1 --seed 2 in this checkout and
# in BASE_TREE, another checkout of the repository (a git worktree of a
# pull request's base commit, say), each with its own src/.  Appends to
# SUMMARY_FILE (default: standard output), in Markdown, how many digest
# lines differ, the first 20 of them, and both trees' generated-code counts.
# Informational: it exits 0 whatever the digests say, since a change may
# move trajectories by design.
set -u
base=$(cd "$1" && pwd)
summary=${2:-/dev/stdout}
here=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for side in base here; do
  (cd "${!side}" && python3 scripts/trajectory_digest.py --seed 1 --seed 2) \
    > "$tmp/$side.out" 2> "$tmp/$side.err" || true
done
diff "$tmp/base.out" "$tmp/here.out" | grep '^[<>]' > "$tmp/diff" || true
changed=$(wc -l < "$tmp/diff")
{
  echo "### Trajectory digest of this tree against $(git -C "$base" rev-parse --short HEAD 2>/dev/null || echo "$base")"
  echo
  echo "$changed differing lines of $(wc -l < "$tmp/here.out") (seeds 1 and 2; \`<\` base, \`>\` this tree)."
  if [ "$changed" -gt 0 ]; then
    echo
    echo '```'
    head -n 20 "$tmp/diff"
    echo '```'
  fi
  echo
  echo 'Generated code, base then this tree:'
  echo
  echo '```'
  grep -h ' models, ' "$tmp/base.err" "$tmp/here.err"
  echo '```'
} >> "$summary"
