package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestDecodeCommittedScenarios decodes every scenario shipped in the
// binary: each must parse and validate, with the name matching the file.
func TestDecodeCommittedScenarios(t *testing.T) {
	names := List()
	if len(names) < 7 {
		t.Fatalf("expected e16, e17 and e19–e23 committed, got %v", names)
	}
	for _, name := range names {
		sc, err := Load(name)
		if err != nil {
			t.Fatalf("Load(%s): %v", name, err)
		}
		if sc.Name != name {
			t.Errorf("Load(%s): scenario names itself %q", name, sc.Name)
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("Load(%s): Validate: %v", name, err)
		}
	}
}

// TestDecodeE16Golden pins the full decode of the committed E16 file:
// any decoder change that reinterprets a field shows up as a diff here,
// not as a silently different experiment.
func TestDecodeE16Golden(t *testing.T) {
	raw, err := Raw("e16_resolve")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	lat := 10 * time.Millisecond
	rig := func(name string, baseline bool) RigSpec {
		return RigSpec{
			Name: name, Layout: LayoutSplit, Stores: 8, SizeBytes: 4096,
			Baseline: baseline, RetryAttempts: 2, PerAttempt: 30 * time.Second,
			Links: LinkSet{
				MDM:    &LinkSpec{Latency: lat},
				Stores: &LinkSpec{Latency: lat},
			},
		}
	}
	resolve := func(pattern string, batch bool) []MixEntry {
		// The decoder defaults an unset weight to 1.
		return []MixEntry{{Verb: VerbResolve, Pattern: pattern, Batch: batch, Weight: 1}}
	}
	want := &Scenario{
		Name:        "e16_resolve",
		Description: "batched referral and coalesced chaining vs serial resolves",
		Seed:        16,
		Topology:    Topology{Rigs: []RigSpec{rig("serial", true), rig("pipelined", false)}},
		Phases: []Phase{
			{Name: "referral-serial", Rig: "serial", Clients: 64, Rounds: 64, Mix: resolve("referral", false)},
			{Name: "chaining-serial", Rig: "serial", Clients: 64, Rounds: 5, Mix: resolve("chaining", false)},
			{Name: "referral-batched", Rig: "pipelined", Clients: 64, Rounds: 8, Mix: resolve("referral", true)},
			{Name: "chaining-coalesced", Rig: "pipelined", Clients: 64, Rounds: 5, Mix: resolve("chaining", false)},
		},
		Asserts: []Assertion{
			{Kind: AssertThroughputRatio, Num: "referral-batched", Den: "referral-serial", Min: 2.04},
			{Kind: AssertThroughputRatio, Num: "chaining-coalesced", Den: "chaining-serial", Min: 3.54},
			{Kind: AssertErrorCeiling, Phase: "referral-serial"},
			{Kind: AssertErrorCeiling, Phase: "referral-batched"},
			{Kind: AssertErrorCeiling, Phase: "chaining-serial"},
			{Kind: AssertErrorCeiling, Phase: "chaining-coalesced"},
			{Kind: AssertP95Ceiling, Phase: "referral-serial", Max: 99 * time.Millisecond},
			{Kind: AssertP95Ceiling, Phase: "chaining-serial", Max: 435 * time.Millisecond},
			{Kind: AssertP95Ceiling, Phase: "referral-batched", Max: 37 * time.Millisecond},
			{Kind: AssertP95Ceiling, Phase: "chaining-coalesced", Max: 102 * time.Millisecond},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("e16_resolve decoded differently:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestDecodeRoundTripStable re-decodes each committed file and compares
// the two trees: decoding must be a pure function of the bytes.
func TestDecodeRoundTripStable(t *testing.T) {
	for _, name := range List() {
		raw, err := Raw(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Decode(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Decode(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two decodes of the same bytes differ", name)
		}
	}
}

// minimal is a smallest-valid scenario the rejection tests mutate.
const minimal = `name: t
seed: 1
topology:
  rigs:
    - name: r
      layout: split
      stores: 2
phases:
  - name: p
    rig: r
    clients: 1
    rounds: 1
    mix:
      - verb: resolve
        pattern: chaining
`

// openLoop is minimal with its phase driven open-loop and the given events
// (flow maps, one per line) on it.
func openLoop(events ...string) string {
	phase := "rate: 10\n    duration: 1s\n    events:\n"
	for _, ev := range events {
		phase += "      - " + ev + "\n"
	}
	return strings.Replace(minimal, "clients: 1\n    rounds: 1\n", phase, 1)
}

// TestDecodeTwoKillsInOnePhase is the case the per-fault phase fields
// could not say: two shards killed in one phase, the second while the
// first repair is still running.
func TestDecodeTwoKillsInOnePhase(t *testing.T) {
	in := strings.Replace(openLoop("{at: 200ms, action: kill, target: shard-2}", "{at: 100ms, action: kill, target: shard-1}"),
		"layout: split\n      stores: 2", "layout: sharded\n      stores: 2\n      users: 4\n      shards: 3\n      spare-shards: 2\n      auto-repair: true", 1)
	sc, err := Decode([]byte(in))
	if err != nil {
		t.Fatalf("two kill events in one phase rejected: %v", err)
	}
	want := []Event{
		{At: 200 * time.Millisecond, Action: ActionKill, Target: "shard-2"},
		{At: 100 * time.Millisecond, Action: ActionKill, Target: "shard-1"},
	}
	if got := sc.Phases[0].Events; !reflect.DeepEqual(got, want) {
		t.Errorf("decoded events %+v, want %+v", got, want)
	}
}

// TestDecodeShardsTimesReplicas: shards and replicas compose — a directory
// of two shards, each a three-member quorum constellation, is one rig.
func TestDecodeShardsTimesReplicas(t *testing.T) {
	in := strings.Replace(openLoop("{at: 100ms, action: kill, target: leader}"),
		"layout: split\n      stores: 2", "layout: sharded\n      stores: 2\n      users: 4\n      shards: 2\n      replicas: 3", 1)
	sc, err := Decode([]byte(in))
	if err != nil {
		t.Fatalf("shards × replicas rejected: %v", err)
	}
	if shards, members := sc.Topology.Rigs[0].shape(); shards != 2 || members != 3 {
		t.Errorf("rig shape %d×%d, want 2×3", shards, members)
	}
}

func TestDecodeMinimal(t *testing.T) {
	if _, err := Decode([]byte(minimal)); err != nil {
		t.Fatalf("minimal scenario rejected: %v", err)
	}
}

// TestDecodeRejections exercises the strict-mode error surface: every
// malformed input must fail with a message naming the problem (and the
// line, where the parse tree has one).
func TestDecodeRejections(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"unknown top-level field", "name: x\nbogus: 1\n" + minimal[8:], "unknown field \"bogus\""},
		{"unknown rig field", strings.Replace(minimal, "stores: 2", "stores: 2\n      flux-capacitor: 1", 1), "unknown field \"flux-capacitor\""},
		{"unknown phase field", strings.Replace(minimal, "rounds: 1", "rounds: 1\n    warp: 9", 1), "unknown field \"warp\""},
		{"bad duration", strings.Replace(minimal, "stores: 2", "stores: 2\n      per-attempt: 5parsecs", 1), "bad duration"},
		{"negative duration", strings.Replace(minimal, "stores: 2", "stores: 2\n      per-attempt: -1s", 1), "negative duration"},
		{"tab indentation", strings.Replace(minimal, "  rigs:", "\trigs:", 1), "tab"},
		{"bad rate", strings.Replace(minimal, "clients: 1\n    rounds: 1", "rate: fast\n    duration: 1s", 1), "bad rate"},
		{"bad budget", strings.Replace(minimal, "rounds: 1", "rounds: 1\n    budget: cheap", 1), "bad budget"},
		{"unknown layout", strings.Replace(minimal, "layout: split", "layout: mesh", 1), "unknown layout"},
		{"unknown verb", strings.Replace(minimal, "verb: resolve", "verb: teleport", 1), "unknown verb"},
		{"unknown assertion kind", minimal + "assertions:\n  - kind: vibes-floor\n", "unknown assertion kind"},
		{"paired ceiling without a wave pair", minimal + "assertions:\n  - kind: paired-p95-ceiling\n    phase: p\n    max: 1.05\n", "no w<k>-p-off/-on phase pair"},
		{"phase names unknown rig", strings.Replace(minimal, "rig: r", "rig: ghost", 1), "unknown rig"},
		{"unknown action", openLoop("{at: 0, action: warp, target: store-0}"), "unknown action \"warp\""},
		{"unknown event field", openLoop("{at: 0, action: link, target: store-0, after: 1s}"), "unknown field \"after\""},
		{"event past the phase", openLoop("{at: 1s, action: link, target: store-0, blackout: true}"), "must fall inside the phase duration"},
		{"timed event on a closed loop", strings.Replace(minimal, "rounds: 1", "rounds: 1\n    events:\n      - {at: 1ms, action: reregister, target: all-dead}", 1), "needs an open-loop phase"},
		{"leader kill without replicas", openLoop("{at: 100ms, action: kill, target: leader}"), "needs a replicated rig"},
		{"shard kill without auto-repair", openLoop("{at: 100ms, action: kill, target: shard-1}"), "needs an auto-repair rig"},
		{"rebalance without spares", openLoop("{at: 100ms, action: rebalance}"), "needs a sharded rig with spare-shards"},
		{"link setting on a bare link", openLoop("{at: 0, action: link, target: store-0, latency: 5ms}"), "has no proxy"},
		{"heal-after on a kill", openLoop("{at: 0, action: reregister, target: store-0, heal-after: 1s}"), "takes no heal-after"},
		{"duplicate phase", minimal + `  - name: p
    rig: r
    clients: 1
    rounds: 1
    mix:
      - verb: resolve
        pattern: chaining
`, "duplicate phase"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(tc.in))
			if err == nil {
				t.Fatalf("accepted malformed input:\n%s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzScenarioDecode hammers the zero-dependency parser: any input may
// be rejected, but none may panic, and an accepted scenario must be
// internally consistent (it already passed Validate inside Decode).
func FuzzScenarioDecode(f *testing.F) {
	for _, name := range List() {
		raw, err := Raw(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(minimal))
	f.Add([]byte(openLoop("{at: 0, action: link, target: store-0, blackout: true}", "{at: 250ms, action: reregister, target: all-dead}")))
	f.Add([]byte("name: x\n  dangling: indent\n"))
	f.Add([]byte("phases:\n  - - -\n"))
	f.Add([]byte("topology: {rigs: [a, b]}\n"))
	f.Add([]byte("name: \"unterminated\nseed: x\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Decode(data)
		if err != nil {
			return
		}
		// Decode validated; a second validation of the same value must
		// agree with the first.
		if err := sc.Validate(); err != nil {
			t.Errorf("Decode accepted a scenario Validate rejects: %v", err)
		}
	})
}
