#!/usr/bin/env bash
# Forbidden patterns: each row keeps one of DESIGN.md's "one way to do X"
# rulings from growing back. A row is
#
#   row NAME SECTION MESSAGE PATTERN SCOPE [ALLOWED]
#
# PATTERN is an extended regular expression; SCOPE is grep's file
# selection (-w, --include/--exclude globs, then the paths searched);
# ALLOWED lists, space separated, the "path:" prefixes a match may sit in.
# Any other match prints with the row's message and fails the script.
# Run from the repository root.
set -uf # -f: the globs in SCOPE are grep's, not the shell's

failed=0
row() {
	local name=$1 section=$2 message=$3 pattern=$4 scope=$5 allowed=${6:-}
	local hits
	hits=$(grep -rnE $scope -e "$pattern")
	for prefix in $allowed; do
		hits=$(grep -v -e "^$prefix" <<<"$hits")
	done
	if [ -n "$hits" ]; then
		printf '%s\n%s (DESIGN.md %s): %s\n\n' "$hits" "$name" "$section" "$message"
		failed=1
	fi
}

go='--include=*.go'
src='--include=*.go --exclude=*_test.go'

# Connections to stores and peers come from wire.Pool. store.DialClient
# (the public gupster.DialStore) is the one ctx-less dial outside
# internal/wire, and the pool's own file and the directory handle's view
# the only address-to-connection maps.
row "One way out of a node" §16 \
	"ctx-less wire.Dial outside internal/wire: use a wire.Pool or wire.DialContext" \
	'wire\.Dial\(' "$src ." \
	'./internal/wire/ ./benchmark/ ./internal/store/client.go:'
row "One way out of a node" §16 \
	"hand-rolled connection cache: use a wire.Pool" \
	'map\[string\]\*(wire|store)\.Client' "$src ." \
	'./benchmark/ ./internal/wire/pool.go: ./internal/dirclient/dirclient.go:'

# A frame is decoded, and a typed refusal encoded, by wire.Mux and the one
# ReplyError (internal/shard peeks at the owner of frames it passes on
# undecoded); the per-kind reply helpers and payload structs stay deleted,
# in tests too.
row "One way to serve a frame" §18 \
	"hand-decoded frame: register a wire.Route (or wire.Handle) on the node's Mux" \
	'Unmarshal\((m|msg)\.Payload' "$src ." \
	'./internal/wire/ ./benchmark/ ./internal/shard/'
row "One way to serve a frame" §18 \
	"hand-written typed reply: return or ReplyError the wire.XError itself" \
	'ReplyOverloaded|ReplyNotLeader|ReplyWrongShard|OverloadedPayload|NotLeaderPayload|WrongShardPayload' "$go ."

# A frame is a binary header, the payload's JSON and, beside it, the
# component's bytes, written and read in internal/wire/wire.go. A relay
# passes the wire.Payload on.
row "One envelope" §19 \
	"raw JSON frame payload outside internal/wire: pass the wire.Payload on" \
	'json\.RawMessage' "$src ." \
	'./internal/wire/ ./benchmark/'
row "One envelope" §19 \
	"a whole Message through encoding/json: the frame is binary" \
	'json\.Marshal\(m\)|json\.Unmarshal\(body, &m\)' "internal/wire/wire.go"

# xmltree.ParseString is the only XML reader; encoding/xml survives in one
# _test.go file as FuzzParse's reference (benchmark/ is its own module).
row "One parser" §17 \
	"encoding/xml imported outside a test: parse with xmltree.ParseString" \
	'"encoding/xml"' "$src ." \
	'./benchmark/'

# A phase's faults are its events list, and the scenario schema is the
# yaml tags on the structs in internal/scenario/scenario.go — in tests and
# scenario files too.
row "One timeline" §20 \
	"per-experiment phase field: declare an event (at, action, target) instead" \
	'KillLeaderAfter|RebalanceAfter|KillShardAfter|KillShard|PartitionAfter|PartitionShard|PartitionHealAfter|kill-leader-after|rebalance-after|kill-shard-after|kill-shard|partition-after|partition-shard|partition-heal-after' \
	"-w $go --include=*.yaml ."
row "One timeline" §20 \
	"phase-start faults and herds are events at 0: {at: 0, action: link|reregister, ...}" \
	'\.(Faults|Reregister)\b|\bFaultSpec\b|^[ -]*(faults|reregister):' \
	"$go --include=*.yaml internal/scenario cmd/gupbench"
row "One timeline" §20 \
	"per-field decode table: tag the struct field in scenario.go instead" \
	'map\[string\]func\(\*node\) error' "internal/scenario/decode.go"

# The constellation of mirrored servers is the quorum constellation; the
# best-effort mirror, its peering and its flag stay deleted, in tests too.
# (federation.MirrorClient, the failover client over the constellation,
# stays.)
row "One way to replicate" §21 \
	"best-effort mirroring: replicate with a quorum constellation (dirnode.Config.Replication, gupsterd -peers)" \
	'\bfederation\.Mirror\b|\bNewMirror\b|\bKeepPeer\b|\bMirrorPeers\b|peer-hello|flag\.\w+\((&\w+, )?"peer"' "$go ."

# The in-process directory is one shape, S shards × R members, built by
# scenario.Build; the component benchmarks build their constellations
# through it, not beside it.
row "One in-process rig" §10 \
	"a second rig builder: build the topology with scenario.Build (RigSpec shards × replicas)" \
	'newSplitRig|func \(r \*Rig\) (replicated|sharded)\(' "$go ."
row "One in-process rig" §10 \
	"a hand-built constellation in bench_test.go: build it with scenario.Build" \
	'dirnode\.Start\(|net\.Listen\(' "bench_test.go"

# A push subscription is its socket: unsubscribing is closing it, and a
# notification belongs to the one record its socket carries. The shared
# notification socket, its routing by server-side ID and the unsubscribe
# frame stay deleted, in tests too.
row "One socket per subscription" §14 \
	"a subscription shared a socket or had an ID on the wire: give each subscription its own Dedicated socket and close it to unsubscribe" \
	'subKey|subConnAt|subByServer|releaseLocked|TypeUnsubscribe|UnsubscribeRequest|SubscribeResponse' "-w $go ."

# A snapshot plus records becomes a directory in one place, MDM.Restore,
# from the journal's Recovered state; the journal replaces its files
# through one crash-atomic cut. The reset-then-replay sequences and the
# in-place log rewrite stay deleted, in tests too.
row "One way to rebuild the directory" §8.1 \
	"a second rebuild or log-rewrite path: rebuild with MDM.Restore (from journal.Open or Journal.State) and let the journal replace its own files" \
	'ResetDirectory|RestoreSnapshot|ReadSnapshot|truncateAndRebuild|rewriteLocked' "-w $go ."

exit $failed
