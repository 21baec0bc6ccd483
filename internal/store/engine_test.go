package store

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gupster/internal/schema"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

func mp(s string) xpath.Path { return xpath.MustParse(s) }

func TestPutGetRoundTrip(t *testing.T) {
	e := NewEngine("s1")
	book := xmltree.MustParse(`<address-book><item name="rick"><phone>111</phone></item></address-book>`)
	v, err := e.Put("arnaud", mp("/user[@id='arnaud']/address-book"), book)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if v == 0 {
		t.Error("version should advance")
	}
	doc, gv, err := e.Get("arnaud", mp("/user[@id='arnaud']/address-book"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if gv != v {
		t.Errorf("get version = %d, want %d", gv, v)
	}
	if doc.Name != "user" {
		t.Errorf("Get should return spine document, got <%s>", doc.Name)
	}
	if id, _ := doc.Attr("id"); id != "arnaud" {
		t.Errorf("spine id = %q", id)
	}
	got := doc.Child("address-book")
	if got == nil || !got.Equal(book) {
		t.Errorf("component mismatch:\n%s", doc.Indent())
	}
	// Component-rooted accessor.
	comp, _, err := e.GetComponent("arnaud", mp("/user[@id='arnaud']/address-book"))
	if err != nil || !comp.Equal(book) {
		t.Errorf("GetComponent: %v / %s", err, comp)
	}
}

func TestGetErrors(t *testing.T) {
	e := NewEngine("s1")
	if _, _, err := e.Get("ghost", mp("/user/presence")); !errors.Is(err, ErrNoUser) {
		t.Errorf("err = %v", err)
	}
	e.Put("u", mp("/user[@id='u']/presence"), xmltree.MustParse(`<presence status="on"/>`))
	if _, _, err := e.Get("u", mp("/user[@id='u']/calendar")); !errors.Is(err, ErrNoComponent) {
		t.Errorf("err = %v", err)
	}
	if _, _, err := e.GetComponent("ghost", mp("/user")); !errors.Is(err, ErrNoUser) {
		t.Errorf("err = %v", err)
	}
	if _, _, err := e.GetComponent("u", mp("/user[@id='u']/calendar")); !errors.Is(err, ErrNoComponent) {
		t.Errorf("err = %v", err)
	}
}

func TestPutValidation(t *testing.T) {
	e := NewEngine("s1")
	e.Schema = schema.GUP()
	// Valid component accepted.
	if _, err := e.Put("u", mp("/user[@id='u']/presence"), xmltree.MustParse(`<presence status="on"/>`)); err != nil {
		t.Errorf("valid put: %v", err)
	}
	// Schema-invalid component rejected.
	if _, err := e.Put("u", mp("/user[@id='u']/address-book"), xmltree.MustParse(`<address-book><item/></address-book>`)); err == nil {
		t.Error("invalid component accepted")
	}
	// Fragment/path mismatch rejected.
	if _, err := e.Put("u", mp("/user[@id='u']/presence"), xmltree.MustParse(`<calendar/>`)); err == nil {
		t.Error("mismatched fragment accepted")
	}
	// Nil fragment / empty path rejected.
	if _, err := e.Put("u", mp("/user[@id='u']/presence"), nil); err == nil {
		t.Error("nil fragment accepted")
	}
	if _, err := e.Put("u", xpath.Path{}, xmltree.New("x")); err == nil {
		t.Error("empty path accepted")
	}
}

func TestPutReplacesAndVersions(t *testing.T) {
	e := NewEngine("s1")
	p := mp("/user[@id='u']/presence")
	v1, _ := e.Put("u", p, xmltree.MustParse(`<presence status="on"/>`))
	v2, _ := e.Put("u", p, xmltree.MustParse(`<presence status="off"/>`))
	if v2 <= v1 {
		t.Errorf("versions not monotonic: %d then %d", v1, v2)
	}
	comp, _, _ := e.GetComponent("u", p)
	if s, _ := comp.Attr("status"); s != "off" {
		t.Errorf("replace did not apply: %s", comp)
	}
	// Only one presence element exists.
	doc, _, _ := e.Get("u", mp("/user[@id='u']"))
	if got := len(doc.ChildrenNamed("presence")); got != 1 {
		t.Errorf("presence count = %d\n%s", got, doc.Indent())
	}
	if e.ComponentVersion("u", p) != v2 {
		t.Errorf("ComponentVersion = %d", e.ComponentVersion("u", p))
	}
	if e.ComponentVersion("u", mp("/user[@id='u']/calendar")) != 0 {
		t.Error("untouched component should be version 0")
	}
}

func TestDeepPathPut(t *testing.T) {
	e := NewEngine("s1")
	// Writing a deep component creates the spine.
	p := mp("/user[@id='u']/address-book/item[@name='rick']")
	item := xmltree.MustParse(`<item name="rick"><phone>1</phone></item>`)
	if _, err := e.Put("u", p, item); err != nil {
		t.Fatalf("deep put: %v", err)
	}
	doc, _, err := e.Get("u", mp("/user[@id='u']/address-book"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if doc.Child("address-book").Child("item") == nil {
		t.Errorf("spine not created:\n%s", doc.Indent())
	}
}

func TestWholeProfilePut(t *testing.T) {
	e := NewEngine("s1")
	profile := xmltree.MustParse(`<user id="u"><presence status="on"/></user>`)
	if _, err := e.Put("u", mp("/user[@id='u']"), profile); err != nil {
		t.Fatalf("whole put: %v", err)
	}
	doc, _, _ := e.Get("u", mp("/user[@id='u']"))
	if !doc.Equal(profile) {
		t.Errorf("whole profile mismatch")
	}
}

func TestDelete(t *testing.T) {
	e := NewEngine("s1")
	e.Put("u", mp("/user[@id='u']/address-book"), xmltree.MustParse(
		`<address-book><item name="a"/><item name="b"/></address-book>`))
	n, err := e.Delete("u", mp("/user[@id='u']/address-book/item[@name='a']"))
	if err != nil || n != 1 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	comp, _, _ := e.GetComponent("u", mp("/user[@id='u']/address-book"))
	if len(comp.ChildrenNamed("item")) != 1 {
		t.Errorf("item not deleted: %s", comp)
	}
	if _, err := e.Delete("ghost", mp("/user")); !errors.Is(err, ErrNoUser) {
		t.Errorf("err = %v", err)
	}
	if n, _ := e.Delete("u", mp("/user[@id='u']/zzz")); n != 0 {
		t.Errorf("deleting nothing = %d", n)
	}
	// A path selecting several elements deletes them all; the root stays.
	e.Put("u", mp("/user[@id='u']/address-book"), xmltree.MustParse(
		`<address-book><item name="a" type="c"/><item name="b"/><item name="c" type="c"/></address-book>`))
	if n, _ := e.Delete("u", mp("/user[@id='u']/address-book/item[@type='c']")); n != 2 {
		t.Errorf("deleting two items = %d", n)
	}
	if n, _ := e.Delete("u", mp("/user[@id='u']")); n != 0 {
		t.Errorf("deleting the root = %d", n)
	}
	if comp, _, _ := e.GetComponent("u", mp("/user[@id='u']/address-book")); comp.String() != `<address-book><item name="b"/></address-book>` {
		t.Errorf("after deleting two items: %s", comp)
	}
}

func TestChangesSince(t *testing.T) {
	e := NewEngine("s1")
	p := mp("/user[@id='u']/address-book")
	v1, _ := e.Put("u", p, xmltree.MustParse(`<address-book><item name="a"><phone>1</phone></item></address-book>`))
	v2, _ := e.Put("u", p, xmltree.MustParse(`<address-book><item name="a"><phone>1</phone></item><item name="b"><phone>2</phone></item></address-book>`))
	v3, _ := e.Put("u", p, xmltree.MustParse(`<address-book><item name="b"><phone>2</phone></item><item name="c"><phone>3</phone></item></address-book>`))

	// Up to date.
	ops, ok := e.ChangesSince("u", p, v3)
	if !ok || len(ops) != 0 {
		t.Errorf("up-to-date: ops=%v ok=%v", ops, ok)
	}
	// Since v1: add b, then remove a + add c.
	ops, ok = e.ChangesSince("u", p, v1)
	if !ok {
		t.Fatal("fast sync refused")
	}
	kinds := map[xmltree.OpKind]int{}
	for _, op := range ops {
		kinds[op.Kind]++
	}
	if kinds[xmltree.OpAdd] != 2 || kinds[xmltree.OpRemove] != 1 {
		t.Errorf("ops = %+v", ops)
	}
	// Since v2: only the third write.
	ops, ok = e.ChangesSince("u", p, v2)
	if !ok || len(ops) != 2 {
		t.Errorf("since v2: %v, %v", ops, ok)
	}
	// Anchor 0 forces slow sync.
	if _, ok = e.ChangesSince("u", p, 0); ok {
		t.Error("anchor 0 should force slow sync")
	}
	// Future anchor refused.
	if _, ok = e.ChangesSince("u", p, v3+10); ok {
		t.Error("future anchor should force slow sync")
	}
}

func TestChangesSinceLogEviction(t *testing.T) {
	e := NewEngine("s1")
	p := mp("/user[@id='u']/address-book")
	v1, _ := e.Put("u", p, xmltree.MustParse(`<address-book><item name="base"><phone>0</phone></item></address-book>`))
	// Push the log past its cap.
	for i := 0; i < maxLogPerComponent+10; i++ {
		book := xmltree.MustParse(fmt.Sprintf(`<address-book><item name="base"><phone>%d</phone></item></address-book>`, i))
		e.Put("u", p, book)
	}
	if _, ok := e.ChangesSince("u", p, v1); ok {
		t.Error("evicted anchor should force slow sync")
	}
}

func TestDeleteInvalidatesLog(t *testing.T) {
	e := NewEngine("s1")
	p := mp("/user[@id='u']/address-book")
	v1, _ := e.Put("u", p, xmltree.MustParse(`<address-book><item name="a"/></address-book>`))
	e.Delete("u", mp("/user[@id='u']/address-book/item[@name='a']"))
	e.Put("u", p, xmltree.MustParse(`<address-book><item name="b"/></address-book>`))
	if _, ok := e.ChangesSince("u", p, v1); ok {
		t.Error("fast sync across an unlogged delete must be refused")
	}
}

func TestOnChangeHook(t *testing.T) {
	e := NewEngine("s1")
	type change struct {
		user string
		path string
		xml  string
		v    uint64
	}
	var mu sync.Mutex
	var got []change
	e.OnChange(func(user string, path xpath.Path, xml string, v uint64) {
		mu.Lock()
		got = append(got, change{user, path.String(), xml, v})
		mu.Unlock()
	})
	p := mp("/user[@id='u']/presence")
	v, _ := e.Put("u", p, xmltree.MustParse(`<presence status="on"/>`))
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].user != "u" || got[0].v != v || got[0].path != p.String() || got[0].xml != `<presence status="on"/>` {
		t.Errorf("hook calls = %+v", got)
	}
}

func TestUsersAndID(t *testing.T) {
	e := NewEngine("gup.yahoo.com")
	if e.ID() != "gup.yahoo.com" {
		t.Errorf("ID = %q", e.ID())
	}
	e.Put("a", mp("/user[@id='a']/presence"), xmltree.MustParse(`<presence/>`))
	e.Put("b", mp("/user[@id='b']/presence"), xmltree.MustParse(`<presence/>`))
	for _, u := range []string{"a", "b"} {
		if _, _, err := e.Get(u, mp("/user[@id='"+u+"']/presence")); err != nil {
			t.Errorf("user %s: %v", u, err)
		}
	}
}

func TestConcurrentEngine(t *testing.T) {
	e := NewEngine("s1")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := fmt.Sprintf("u%d", i%4)
			p := mp(fmt.Sprintf("/user[@id='%s']/presence", user))
			for j := 0; j < 100; j++ {
				e.Put(user, p, xmltree.MustParse(fmt.Sprintf(`<presence status="s%d"/>`, j)))
				e.Get(user, p)
				e.ChangesSince(user, p, uint64(j))
			}
		}(i)
	}
	wg.Wait()
}

func TestPutDoesNotAliasCallerFragment(t *testing.T) {
	e := NewEngine("s1")
	frag := xmltree.MustParse(`<presence status="on"/>`)
	e.Put("u", mp("/user[@id='u']/presence"), frag)
	frag.SetAttr("status", "MUTATED")
	comp, _, _ := e.GetComponent("u", mp("/user[@id='u']/presence"))
	if s, _ := comp.Attr("status"); s != "on" {
		t.Error("engine aliases caller's fragment")
	}
	// And Get results do not alias engine state.
	comp.SetAttr("status", "HACKED")
	comp2, _, _ := e.GetComponent("u", mp("/user[@id='u']/presence"))
	if s, _ := comp2.Attr("status"); s != "on" {
		t.Error("engine shares memory with readers")
	}
}

// The engine keeps no tree: a write links the caller's fragment into a tree
// parsed for the write and stores the render, so no kind of write may change
// a node it was handed — the fragment, whose root alone it copies to stamp
// an id or a predicate's attribute — nor one it handed out: a tree Get
// returned or an op ChangesSince returned.
func TestWritesLeavePublishedTreesAlone(t *testing.T) {
	e := NewEngine("s1")
	e.Schema = schema.GUP()
	type kept struct {
		what string
		node *xmltree.Node
		xml  string
	}
	var held []kept
	hold := func(what string, n *xmltree.Node) { held = append(held, kept{what, n, n.String()}) }
	book := mp("/user[@id='u']/address-book")
	put := func(path, xml string) func() error {
		return func() error {
			frag := xmltree.MustParse(xml)
			hold("the fragment written at "+path, frag)
			_, err := e.Put("u", mp(path), frag)
			return err
		}
	}
	if err := put("/user[@id='u']/presence", `<presence status="off"/>`)(); err != nil {
		t.Fatal(err)
	}
	var v1 uint64
	for _, w := range []struct {
		name  string
		write func() error
	}{
		{"whole-component put", func() (err error) {
			frag := xmltree.MustParse(bookOf("one"))
			hold("the whole book", frag)
			v1, err = e.Put("u", book, frag)
			return err
		}},
		{"scoped put", put("/user[@id='u']/address-book/item[@type='personal']",
			`<address-book><item name="s0" type="personal"><note>scoped</note></item></address-book>`)},
		{"deep-path put", put("/user[@id='u']/address-book/item[@name='s0']",
			`<item name="s0" type="personal"><note>deep</note></item>`)},
		{"deep-path put stamping its predicate", put("/user[@id='u']/address-book/item[@type='work']",
			`<item name="w1"><note>stamped</note></item>`)},
		{"whole-profile put stamping the id", put("/user[@id='u']",
			`<user><presence status="on"/><address-book><item name="p" type="personal"/></address-book></user>`)},
		{"delete", func() error {
			n, err := e.Delete("u", mp("/user[@id='u']/presence"))
			if err == nil && n != 1 {
				err = fmt.Errorf("deleted %d elements, want 1", n)
			}
			return err
		}},
	} {
		doc, _, err := e.Get("u", mp("/user[@id='u']"))
		if err != nil {
			t.Fatal(err)
		}
		hold("the document Get returned before the "+w.name, doc)
		if err := w.write(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if after, _, _ := e.Get("u", mp("/user[@id='u']")); after.String() == doc.String() {
			t.Fatalf("%s left the document as it was", w.name)
		}
		if w.name == "scoped put" {
			ops, ok := e.ChangesSince("u", book, v1)
			if !ok || len(ops) == 0 {
				t.Fatalf("ChangesSince after the scoped put = %v, %v", ops, ok)
			}
			for i, op := range ops {
				hold(fmt.Sprintf("op %d since v%d", i, v1), op.Node)
			}
		}
	}
	for _, k := range held {
		if got := k.node.String(); got != k.xml {
			t.Errorf("%s changed:\n was %s\n now %s", k.what, k.xml, got)
		}
	}
	if doc, _, _ := e.Get("u", mp("/user[@id='u']")); doc.String() != `<user id="u"><address-book><item name="p" type="personal"/></address-book></user>` {
		t.Errorf("document after every write: %s", doc)
	}
}

// The stored document is read back with ParseString, so Put refuses, and
// keeps the document it had, what ParseString would refuse or change: nesting
// past xmltree.MaxDepth, a character outside XML's Char or invalid UTF-8 in
// text or an attribute, text it would trim, a prefixed name, a namespace
// declaration, and the same in what the path and user id add, the spine's
// predicates and a new document's id. The user stays readable and writable.
func TestPutRefusesWhatCannotBeReadBack(t *testing.T) {
	nest := func(depth int) *xmltree.Node {
		return xmltree.MustParse(strings.Repeat("<note>", depth) + strings.Repeat("</note>", depth))
	}
	e := NewEngine("s1")
	p := mp("/user[@id='u']/note")
	// <user> is one level, so the deepest fragment at depth 2 has MaxDepth-1.
	if _, err := e.Put("u", p, nest(xmltree.MaxDepth-1)); err != nil {
		t.Fatalf("a fragment the document can hold: %v", err)
	}
	for _, c := range []struct {
		user string
		path xpath.Path
		frag *xmltree.Node
	}{
		{"u", p, nest(xmltree.MaxDepth)},
		{"u", mp("/user[@id='u']/note/note/note"), nest(xmltree.MaxDepth - 2)},
		{"u", p, xmltree.NewText("note", "a\x01b")},
		{"u", p, xmltree.NewText("note", "a\xffb")},
		{"u", p, &xmltree.Node{Name: "note", Text: " x "}},
		{"u", p, xmltree.New("note").SetAttr("k", "a\uFFFEb")},
		{"u", p, xmltree.New("note").Add(&xmltree.Node{Name: "line", Text: "x\n"})},
		{"u", p, xmltree.New("note").SetAttr("xmlns", "urn:x")},
		{"u", p, xmltree.New("note").Add(xmltree.New("p:line"))},
		{"u", mp("/user[@id='u']/calendar[@title='a\x02']/event"), xmltree.New("event")},
		{"u", mp("/user[@id='u']/calendar/event[@title='a\x02']"), xmltree.New("event")},
		{"u", mp("/user[@id='u']/1calendar/event"), xmltree.New("event")},
		{"v\x00", mp("/user[@id='v\x00']/note"), xmltree.NewText("note", "x")},
	} {
		if _, err := e.Put(c.user, c.path, c.frag); err == nil {
			t.Errorf("Put(%q, %s, %.40q) stored what does not read back", c.user, c.path, c.frag.String())
		}
	}
	comp, _, err := e.GetComponent("u", p)
	if err != nil || !comp.Equal(nest(xmltree.MaxDepth-1)) {
		t.Errorf("after the refusals: %v, %v", comp, err)
	}
	if _, _, err := e.Get("v\x00", mp("/user")); !errors.Is(err, ErrNoUser) {
		t.Errorf("a refused first write left a document: %v", err)
	}
	if _, err := e.Put("u", p, xmltree.NewText("note", "a\tb \u00e9\U0001F600\uFFFD")); err != nil {
		t.Fatalf("a writable note: %v", err)
	}
	if got, _, err := e.GetXML("u", p); err != nil || got != "<user id=\"u\"><note>a\tb \u00e9\U0001F600\uFFFD</note></user>" {
		t.Errorf("after the refusals and a write: %q, %v", got, err)
	}
	if _, err := e.Put("u", p, xmltree.NewText("note", " brb\n")); err != nil {
		t.Errorf("a note NewText built from untrimmed text: %v", err)
	}
	if n, err := e.Delete("u", p); n != 1 || err != nil {
		t.Errorf("Delete after the refusals = %d, %v", n, err)
	}
}
