package e2e

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gupster/internal/policy"
	"gupster/internal/token"
	"gupster/internal/wire"
)

// Saturate a gupsterd running with a one-slot admission window and verify
// that (a) excess chaining resolves are shed as first-class overloaded
// errors, (b) `gupctl stats` — control-class, never shed — renders the
// pressure gauges, and (c) the daemon keeps serving afterwards.
func TestOverloadShedVisibleInStats(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches real processes")
	}
	const key = "e2e-overload-key"
	ports := freePorts(t, 2)
	mdmAddr, storeAddr := ports[0], ports[1]

	startDaemon(t, "gupsterd", "-listen", mdmAddr, "-key", key,
		"-max-concurrency", "1", "-queue-depth", "1")
	waitFor(t, mdmAddr)

	profile := filepath.Join(binDir, "frank.xml")
	if err := os.WriteFile(profile, []byte(
		`<user id="frank"><presence status="available"/></user>`,
	), 0o644); err != nil {
		t.Fatal(err)
	}
	startDaemon(t, "datastored",
		"-id", "gup.loaded.example", "-listen", storeAddr,
		"-mdm", mdmAddr, "-key", key,
		"-load", profile, "-user", "frank",
		"-register", "/user[@id='frank']/presence",
	)
	waitFor(t, storeAddr)

	deadline := time.Now().Add(10 * time.Second)
	for {
		out, err := gupctl(t, mdmAddr, "frank", "self", "stats")
		if err == nil && strings.Contains(out, "registrations: 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registration never appeared; stats:\n%s (%v)", out, err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Storm: 16 connections hammer chaining resolves through a one-slot,
	// one-waiter admission window. Far more arrive than fit; the rest must
	// come back as explicit overloaded errors, not hangs or disconnects.
	const workers = 16
	const iters = 30
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ok, shed int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc, err := wire.Dial(mdmAddr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer wc.Close()
			for i := 0; i < iters; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				var resp wire.ResolveResponse
				err := wc.Call(ctx, wire.TypeResolve, &wire.ResolveRequest{
					Path:    "/user[@id='frank']/presence",
					Context: policy.Context{Requester: "frank"},
					Verb:    token.VerbFetch,
					Pattern: wire.PatternChaining,
				}, &resp)
				cancel()
				var ov *wire.OverloadedError
				mu.Lock()
				switch {
				case err == nil:
					ok++
				case errors.As(err, &ov):
					shed++
				case errors.Is(err, context.DeadlineExceeded):
					// Waited out its own budget; fine under saturation.
				default:
					t.Errorf("unexpected error under saturation: %v", err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if ok == 0 {
		t.Fatal("saturated MDM served nothing")
	}
	if shed == 0 {
		t.Fatalf("one-slot MDM shed nothing under a %d-way storm (%d ok)", workers, ok)
	}

	// The stats command is control-class and must answer even right after
	// the storm, rendering the admission gauges.
	out, err := gupctl(t, mdmAddr, "frank", "self", "stats")
	if err != nil {
		t.Fatalf("stats after storm: %v\n%s", err, out)
	}
	for _, gauge := range []string{"admitted:", "shed:", "pressure:", "brownout:"} {
		if !strings.Contains(out, gauge) {
			t.Fatalf("stats lacks %q gauge:\n%s", gauge, out)
		}
	}
	m := regexp.MustCompile(`shed:\s+(\d+) high`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("shed line unparseable:\n%s", out)
	}
	reported, _ := strconv.Atoi(m[1])
	if reported == 0 {
		t.Fatalf("stats reports zero sheds after %d observed:\n%s", shed, out)
	}

	// And the daemon still serves normal traffic.
	out, err = gupctl(t, mdmAddr, "frank", "self", "get", "/user[@id='frank']/presence")
	if err != nil || !strings.Contains(out, `status="available"`) {
		t.Fatalf("get after storm: %v\n%s", err, out)
	}
}
