package journal_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"gupster/internal/core"
	"gupster/internal/journal"
)

// testdata/applyfirst is a standalone directory's journal written by the
// code that applied each mutation before journaling it: a snapshot at
// index 4 and six records after it (registrations, an unregistration, a
// rule put and a rule put then deleted). Opened by OpenDurable it
// publishes every record and is the directory that code served; opened by
// OpenMember it publishes the snapshot alone.
func TestApplyFirstJournalOpensToTheSameDirectory(t *testing.T) {
	served := []string{
		"cov s1 127.0.0.1:7011 /user[@id='alice']/presence",
		"cov s1 127.0.0.1:7011 /user[@id='bob']/presence",
		"cov s1 127.0.0.1:7011 /user[@id='carol']/presence",
		"cov s3 127.0.0.1:7003 /user[@id='bob']/calendar",
		"rule alice friends /user[@id='alice']/presence permit role=friend",
		"rule bob all /user[@id='bob']/calendar permit always",
	}
	snapshot := []string{
		"cov s1 127.0.0.1:7001 /user[@id='alice']/presence",
		"cov s1 127.0.0.1:7001 /user[@id='bob']/presence",
		"cov s2 127.0.0.1:7002 /user[@id='alice']/calendar",
		"rule alice friends /user[@id='alice']/presence permit role=friend",
	}
	for _, tc := range []struct {
		name      string
		open      func(*core.MDM, string, journal.Options) (*journal.Recovered, error)
		published uint64
		want      []string
	}{
		{"OpenDurable", core.OpenDurable, 10, served},
		{"OpenMember", core.OpenMember, 4, snapshot},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, name := range []string{"snapshot.json", "wal.log"} {
				data, err := os.ReadFile(filepath.Join("testdata", "applyfirst", name))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 2; round++ {
				m := core.New(core.Config{})
				if _, err := tc.open(m, dir, journal.Options{CompactEvery: -1}); err != nil {
					t.Fatal(err)
				}
				if got := directoryLines(m); !reflect.DeepEqual(got, tc.want) {
					t.Errorf("round %d: directory\n%v\nwant\n%v", round, got, tc.want)
				}
				if got := m.Published(); got != tc.published {
					t.Errorf("round %d: published index %d, want %d", round, got, tc.published)
				}
				m.Close()
			}
		})
	}
}

// directoryLines is an MDM's coverage and shields, one sorted line each.
func directoryLines(m *core.MDM) []string {
	var lines []string
	for _, r := range m.CoverageSnapshot() {
		lines = append(lines, fmt.Sprintf("cov %s %s %s", r.Store, r.Address, r.Path))
	}
	for _, r := range m.ShieldSnapshot() {
		lines = append(lines, fmt.Sprintf("rule %s %s %s %s %s", r.Owner, r.Rule.ID, r.Rule.Path, r.Rule.Effect, r.Rule.Cond))
	}
	sort.Strings(lines)
	return lines
}
