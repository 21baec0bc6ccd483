package scenario

import (
	"math/rand"

	"gupster/internal/workload"
)

// Determinism. Every random draw in a run — which mix entry a request
// executes, which user it targets, every fault proxy's — derives from the scenario seed through splitmix64, so two runs of the
// same scenario with the same seed issue identical request sequences
// (the reproducibility test asserts exactly this via ScheduleFor).
//
// The derivation is positional, not sequential: client c of phase p seeds
// its own generator from (seed, p, c), so a schedule never depends on how
// many requests other clients issued or on goroutine interleaving. Open-
// loop phases use one stream (client index -1): the pacing loop draws
// requests sequentially before fanning them out, so issue order is the
// loop order regardless of completion order.

// splitmix64 is the SplitMix64 output function — a cheap, well-mixed way
// to derive independent sub-seeds from (seed, salt) pairs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed mixes the scenario seed with positional salts.
func deriveSeed(seed int64, salts ...uint64) int64 {
	x := splitmix64(uint64(seed))
	for _, s := range salts {
		x = splitmix64(x ^ s)
	}
	return int64(x >> 1) // non-negative for rand.NewSource/NewZipf friendliness
}

// Salt spaces keep the derivation streams of different subsystems apart.
const (
	saltPhase = 0x70686173 // workload schedules
	saltLink  = 0x6c696e6b // fault-proxy RNGs
	saltData  = 0x64617461 // payload generation
)

// phaseRNG returns the generator for client c (or -1, the open-loop
// stream) of phase p.
func phaseRNG(seed int64, phase, client int) *rand.Rand {
	return rand.New(rand.NewSource(deriveSeed(seed, saltPhase, uint64(phase), uint64(client+1))))
}

// linkSeed derives the fault-proxy seed for link l of rig r.
func linkSeed(seed int64, rig, link int) int64 {
	return deriveSeed(seed, saltLink, uint64(rig), uint64(link))
}

// dataSeed derives the payload-generation seed for store/user i of rig r.
func dataSeed(seed int64, rig, i int) int64 {
	return deriveSeed(seed, saltData, uint64(rig), uint64(i))
}

// Request is one scheduled workload request: the drawn mix entry and
// target user. The executed sequence of (Verb, Pattern, Batch, User) per
// (phase, client) is a pure function of the scenario seed.
type Request struct {
	Verb    string
	Pattern string
	Batch   bool
	User    string
}

// drawer draws requests for one (phase, client) stream.
type drawer struct {
	rng     *rand.Rand
	mix     []MixEntry
	total   int
	users   []string
	zipf    *rand.Zipf
	counter int
}

// newDrawer builds the stream for client c (or -1 for the open-loop
// stream) of phase p, targeting the users of rig.
func newDrawer(seed int64, phaseIdx, client int, p *Phase, users []string) *drawer {
	d := &drawer{rng: phaseRNG(seed, phaseIdx, client), mix: p.Mix, users: users}
	for _, m := range p.Mix {
		w := m.Weight
		if w == 0 {
			w = 1
		}
		d.total += w
	}
	for _, m := range p.Mix {
		if m.Users == UsersZipf && len(users) > 1 {
			d.zipf = rand.NewZipf(d.rng, 1.2, 1, uint64(len(users)-1))
			break
		}
	}
	return d
}

// next draws the stream's next request.
func (d *drawer) next() Request {
	i := d.counter
	d.counter++
	entry := d.mix[0]
	if len(d.mix) > 1 {
		pick := d.rng.Intn(d.total)
		for _, m := range d.mix {
			w := m.Weight
			if w == 0 {
				w = 1
			}
			if pick < w {
				entry = m
				break
			}
			pick -= w
		}
	}
	user := d.users[0]
	switch entry.Users {
	case UsersZipf:
		if d.zipf != nil {
			user = d.users[int(d.zipf.Uint64())]
		}
	case UsersUniform:
		user = d.users[d.rng.Intn(len(d.users))]
	default: // UsersRoundRobin and ""
		user = d.users[i%len(d.users)]
	}
	return Request{Verb: entry.Verb, Pattern: entry.Pattern, Batch: entry.Batch, User: user}
}

// rigUsers lists the owner population of a rig spec — derivable without
// building the rig, so schedules can be computed standalone.
func rigUsers(spec *RigSpec) []string {
	if spec.Layout == LayoutSplit {
		return []string{"u"}
	}
	users := make([]string, spec.Users)
	for i := range users {
		users[i] = workload.UserID(i)
	}
	return users
}

// ScheduleFor computes the first n requests client would issue in phase
// phaseIdx of sc — without running anything. The engine draws from the
// identical stream, so this is the reproducibility contract: same
// scenario, same seed, same (phase, client) → same sequence. client -1
// is the open-loop stream.
func ScheduleFor(sc *Scenario, phaseIdx, client, n int) []Request {
	p := &sc.Phases[phaseIdx]
	var spec *RigSpec
	for i := range sc.Topology.Rigs {
		if sc.Topology.Rigs[i].Name == p.Rig {
			spec = &sc.Topology.Rigs[i]
		}
	}
	if spec == nil || len(p.Mix) == 0 {
		return nil
	}
	d := newDrawer(sc.Seed, phaseIdx, client, p, rigUsers(spec))
	out := make([]Request, n)
	for i := range out {
		out[i] = d.next()
	}
	return out
}
