package e2e

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// A push subscription through the real binaries: `gupctl subscribe` runs as
// a long-lived process, a `gupctl update` arrives at it as a notification,
// and once the subscriber is killed its socket takes the subscription with
// it — `gupctl stats` counts it gone without anyone unsubscribing.
func TestSubscribeThroughBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches real processes")
	}
	const key = "e2e-subscribe-key"
	const path = "/user[@id='dave']/presence"
	ports := freePorts(t, 2)
	mdmAddr, storeAddr := ports[0], ports[1]

	startDaemon(t, "gupsterd", "-listen", mdmAddr, "-key", key)
	waitFor(t, mdmAddr)
	profile := filepath.Join(binDir, "dave.xml")
	if err := os.WriteFile(profile, []byte(`<user id="dave"><presence status="available"/></user>`), 0o644); err != nil {
		t.Fatal(err)
	}
	startDaemon(t, "datastored",
		"-id", "gup.push.example", "-listen", storeAddr,
		"-mdm", mdmAddr, "-key", key,
		"-load", profile, "-user", "dave",
		"-register", path,
	)
	waitFor(t, storeAddr)

	// statsShow polls `gupctl stats` until it prints want.
	statsShow := func(want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			out, err := gupctl(t, mdmAddr, "dave", "self", "stats")
			if err == nil && strings.Contains(out, want) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("stats never showed %q:\n%s (%v)", want, out, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	statsShow("registrations: 1")

	sub := startDaemon(t, "gupctl", "-mdm", mdmAddr, "-as", "dave", "-role", "self", "subscribe", path)
	statsShow("subscriptions: 1")

	upd := filepath.Join(binDir, "dave-presence.xml")
	if err := os.WriteFile(upd, []byte(`<presence status="busy"/>`), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := gupctl(t, mdmAddr, "dave", "self", "update", path, upd); err != nil || !strings.Contains(out, "updated 1 store") {
		t.Fatalf("update: %v\n%s", err, out)
	}
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(outputOf(sub), `status="busy"`); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the update never reached the subscriber:\n%s", outputOf(sub))
		}
	}
	if out := outputOf(sub); !strings.Contains(out, "subscribed (id 1)") || !strings.Contains(out, "--- change at "+path) {
		t.Fatalf("subscriber output lacks its handle or the changed path:\n%s", out)
	}

	if err := sub.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	statsShow("subscriptions: 0")
}
