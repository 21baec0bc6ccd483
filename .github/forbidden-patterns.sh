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

# A frame is a binary header, the payload in the positional codec
# (internal/wire/codec.go) and, beside it, the component's bytes, written
# and read in internal/wire/wire.go. A relay passes the wire.Payload on.
row "One envelope" §19 \
	"raw JSON frame payload outside internal/wire: pass the wire.Payload on" \
	'json\.RawMessage' "$src ." \
	'./internal/wire/ ./benchmark/'
row "One envelope" §19 \
	"encoding/json in internal/wire: payloads and the ext section travel in the payload codec" \
	'"encoding/json"' "$src internal/wire/"
# The bulk is a string over the frame body's own bytes, which is sound only
# because ReadFrame allocates a body per frame and never pools or reuses it;
# nothing else reinterprets memory.
row "One envelope" §19 \
	"unsafe outside internal/wire/wire.go: only a frame body, fresh per frame and never pooled, may be aliased as a string" \
	'unsafe\.' "$src ." \
	'./internal/wire/wire.go:'

# xmltree.ParseString is the only XML reader; encoding/xml survives in one
# _test.go file as FuzzParse's reference (benchmark/ is its own module).
row "One parser" §17 \
	"encoding/xml imported outside a test: parse with xmltree.ParseString" \
	'"encoding/xml"' "$src ." \
	'./benchmark/'

# An element's attributes are one sorted []Attr, carved from the slab the
# tree's nodes come from; no per-element map grows back in xmltree. The key
# spec, one map per merge, is the one map[string]string there.
row "Attributes are a sorted slice" §17 \
	"a map[string]string in xmltree: keep attributes in the node's sorted []Attr" \
	'map\[string\]string' "$src internal/xmltree/" \
	'internal/xmltree/merge.go:[0-9]*:type KeySpec map'

# A server-side role — the MDM chaining or relaying a recruit, a recruited
# store gathering its siblings — moves the component as bytes: it merges the
# stores' replies with xmltree.MergeXML and builds no tree. The client's
# Executor.Fetch, whose API returns trees, is the one tree merge left in
# internal/store (its return line in plan.go).
row "Server roles move bytes" §23 \
	"a tree merge in a server-side role: merge the replies as XML with xmltree.MergeXML" \
	'xmltree\.(MergeAll|MergeOwned|DeepUnion)\(' "$src internal/core/mdm.go internal/store/" \
	'internal/store/plan.go:[0-9]*:.return.xmltree\.MergeOwned('

# A store keeps each user's document as the XML String wrote for it: a read
# parses it, a write parses, changes and renders it, and no tree outlives a
# call, so no engine field holds one.
row "A store keeps bytes" §24 \
	"a tree kept in the store's engine: keep the document's XML and parse it for the call" \
	'^[[:space:]]+[[:alnum:]_]+(, *[[:alnum:]_]+)*[[:space:]]+(\[\]|\*|map\[[^]]*\])*xmltree\.Node\b' \
	"$src -H internal/store/engine.go"

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
# from the journal's Recovered state, built aside and swapped in whole; the
# journal replaces its files through one crash-atomic cut. The
# reset-then-replay sequences, the in-place log rewrite, the registry's
# second index and bulk drop, and the lease sweeper stay deleted, in tests
# too.
row "One way to rebuild the directory" §8.1 \
	"a second rebuild or log-rewrite path: rebuild with MDM.Restore (at boot or from a leader snapshot) and let the journal replace its own files" \
	'ResetDirectory|RestoreSnapshot|ReadSnapshot|truncateAndRebuild|rewriteLocked|removeFromAll|DropStore|leaseSweeper|sweepLeases' "-w $go ."

# The log is the directory's only writer: a record changes the directory
# when the publish step (or Restore, building aside) applies it, and
# nowhere else — no apply before the append, no apply on receipt.
row "One way to change the directory" §8 \
	"an apply outside the publish step: append the record and let MDM.Publish apply it at commit" \
	'\.ApplyRecord\(' "$src ." \
	'./internal/core/durable.go:'

# A setting exists only when two callers need different values. The
# settings no caller changed are constants, and the paths only they selected
# are gone: the key spec (xmltree.DefaultKeys; syncml keeps its own), the
# client's fan-out and budgets, the retry classifier hook, backoff ×2 and
# jitter 0.5, the probe timeout and relay count, the high-class reserve,
# the client's read bound, the breaker list, and the scenario keys jitter,
# links.store-N and users: hot with the prefix* tag form that decoded them.
# (wire.StatsResponse.TraceSpans, a counter, stays.)
row "Every option has a caller" §4 \
	"a setting no caller sets to a second value: use the one value every caller gets" \
	'\b(withBudget|Budgets|NonRetryable|Multiplier|Jitter|IndirectProbes|PingTimeout|HighReserve|updateReadDeadlineLocked|readGrace|ResilienceSnapshot|BreakerInfo|PerStore|UsersHot)\b|\bc\.(Keys|FanOut)\b|Keys +xmltree\.KeySpec$|TraceSpans +int$|yaml:"[^"]*\*"|\bjitter:|^[ -]*store-[0-9]+:|\busers: *hot\b' \
	"$go --include=*.yaml ." \
	'./internal/syncml/'

# Events go to log/slog's default logger: no layer takes a logging
# callback, and nothing under internal/ prints through the log package.
# (cmd/ keeps log.Fatalf for command-line errors; internal/eventlog puts
# back the log package's writer, which slog.SetDefault redirects.)
row "One event log" §15 \
	"a logging callback field: emit a log/slog event on the default logger instead" \
	'Logf +func\(' "$src ."
row "One event log" §15 \
	"the log package under internal/: emit a log/slog event instead" \
	'"log"' "$src internal/" \
	'internal/eventlog/eventlog.go:'
# Code waits for a state transition by its event, through the one capture
# in internal/eventlog, in tests too: no layer calls back on a transition,
# no package keeps its own capturing handler, and nothing polls for a
# leader or a repair. The capture itself is woken by each event it records.
row "One event log" §15 \
	"a state-transition callback: await the transition's event on an eventlog.Capture" \
	'\b(OnRepair|RepairEvent)\b' "$go ."
row "One event log" §15 \
	"a private capturing handler: install an eventlog.Capture" \
	'\b(capturedEvents|captureEvents)\b|slog\.SetDefault\(' "$go ." \
	'./internal/eventlog/'
row "One event log" §15 \
	"a poll for a leader or a repair: await its \"election won\" or \"repair complete\" event" \
	'\b(WaitRepair|WaitLeader|CurrentEpoch)\b' "$go ."
row "One event log" §15 \
	"a sleep in the capture: Await is woken by Handle" \
	'time\.Sleep' "$src internal/eventlog/"

# A rebalance ends in a fence: a ceding shard serves a moved owner from
# its own replica and holds the owner's mutations until the fence, which
# redirects them to the new home after the copy. No shard node forwards to
# a peer, and there is no drain window to size, in tests too; the router is
# relay's one caller.
row "A rebalance ends in a fence" §12.3 \
	"a drain window: hold the moved owner's mutation until the fence and redirect it" \
	'ForwardMillis|"drain"' "$go ."
row "A rebalance ends in a fence" §12.3 \
	"a shard node relaying to a peer: redirect, and let the caller's directory handle follow" \
	'\brelay\(' "$go internal/shard/" \
	'internal/shard/router.go:'

exit $failed
