package store

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gupster/internal/schema"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// sameOps reports whether two op lists have the same kinds, keys and nodes.
func sameOps(a, b []xmltree.Op) bool {
	return slices.EqualFunc(a, b, func(x, y xmltree.Op) bool {
		return x.Kind == y.Kind && x.Key == y.Key && x.Node.Equal(y.Node)
	})
}

// opsText renders ops for a failure message.
func opsText(ops []xmltree.Op) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = fmt.Sprintf("%s %q %s", op.Kind, op.Key, op.Node.String())
	}
	return out
}

// A log's first record only anchors ChangesSince, so the engine keeps no ops
// in it, and trimming a log past maxLogPerComponent empties its new first
// record. Random sequences of whole, scoped, deep and whole-profile Puts and
// Deletes, with a stretch of 600 writes and no Delete that trims the book's
// log, must leave ChangesSince answering every anchor exactly as the log
// that kept every record's ops (referenceLog) does.
func TestChangeLogMatchesReference(t *testing.T) {
	const user, writes = "u", 720
	book := mp("/user[@id='u']/address-book")
	personal := mp("/user[@id='u']/address-book/item[@type='personal']")
	presence := mp("/user[@id='u']/presence")
	whole := mp("/user[@id='u']")
	deep := func(name string) xpath.Path { return mp("/user[@id='u']/address-book/item[@name='" + name + "']") }
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine("s1")
		e.Schema = schema.GUP()
		ref := &referenceLog{logs: map[string][]changeRec{}}
		item := func(name, typ string) string {
			return fmt.Sprintf(`<item name="%s" type="%s"><phone>%d</phone></item>`, name, typ, rng.Intn(3))
		}
		items := func() string {
			var b strings.Builder
			for k := 0; k < 6; k++ {
				if rng.Intn(2) == 0 {
					b.WriteString(item(fmt.Sprintf("c%d", k), []string{"personal", "work"}[rng.Intn(2)]))
				}
			}
			return "<address-book>" + b.String() + "</address-book>"
		}
		status := func() string { return fmt.Sprintf(`<presence status="s%d"/>`, rng.Intn(3)) }
		component := func(p xpath.Path) *xmltree.Node {
			comp, _, err := e.GetComponent(user, p)
			if err != nil && !errors.Is(err, ErrNoUser) && !errors.Is(err, ErrNoComponent) {
				t.Fatal(err)
			}
			return comp
		}
		anchors := []xpath.Path{book, presence, whole, deep("c0"), deep("c1")}
		var versions []uint64
		trimmed := false
		for w := 0; w < writes; w++ {
			var path, logPath xpath.Path
			var xml string
			switch r := rng.Intn(100); {
			case r < 3 && (w < 60 || w >= 660):
				path = []xpath.Path{deep("c2"), book, presence}[rng.Intn(3)]
				n, err := e.Delete(user, path)
				if err != nil && !errors.Is(err, ErrNoUser) {
					t.Fatal(err)
				}
				if n > 0 {
					ref.deleted(user)
				}
				continue
			case r < 6:
				path, logPath, xml = whole, whole, `<user id="u">`+status()+items()+`</user>`
			case r < 40:
				path, logPath, xml = book, book, items()
			case r < 75:
				path, logPath, xml = personal, book, items()
			case r < 85:
				name := fmt.Sprintf("c%d", rng.Intn(2))
				path = deep(name)
				logPath, xml = path, item(name, "personal")
			default:
				path, logPath, xml = presence, presence, status()
			}
			oldComp := component(logPath)
			v, err := e.Put(user, path, xmltree.MustParse(xml))
			if err != nil {
				t.Fatalf("seed %d write %d: Put %s %s: %v", seed, w, path, xml, err)
			}
			ref.put(user, logPath, oldComp, component(logPath), v)
			versions = append(versions, v)
			for key, log := range e.logs {
				if log[0].ops != nil {
					t.Fatalf("seed %d write %d: the first record of %q keeps %d ops", seed, w, key, len(log[0].ops))
				}
				trimmed = trimmed || len(log) == maxLogPerComponent
			}

			for _, p := range anchors {
				cur := e.ComponentVersion(user, p)
				since := []uint64{0, cur, cur + 1}
				for k := 0; k < 3; k++ {
					since = append(since, versions[rng.Intn(len(versions))])
				}
				for k := max(0, len(versions)-3); k < len(versions); k++ {
					since = append(since, versions[k])
				}
				for _, s := range since {
					got, gotOK := e.ChangesSince(user, p, s)
					want, wantOK := ref.changesSince(user, p, s, cur)
					if gotOK != wantOK || !sameOps(got, want) {
						t.Fatalf("seed %d write %d: ChangesSince(%s, %d) = %v %v, reference %v %v",
							seed, w, p, s, gotOK, opsText(got), wantOK, opsText(want))
					}
				}
			}
		}
		if !trimmed {
			t.Errorf("seed %d: no log reached %d records", seed, maxLogPerComponent)
		}
	}
}
