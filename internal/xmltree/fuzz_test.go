package xmltree

import (
	"errors"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// corners are the inputs where a hand-written scanner and encoding/xml are
// most likely to part ways. want is the compact serialisation of the tree
// ParseString must return, "" where it must return an error. The table is
// TestParseCorners' input and FuzzParse's seed corpus.
var corners = []struct{ in, want string }{
	// Text beside children: runs are concatenated, then trimmed.
	{`<a><b>x</b>tail<c/>more</a>`, `<a>tailmore<b>x</b><c/></a>`},
	{"<a>\n  <b>x</b>\n  <c/>\n</a>", `<a><b>x</b><c/></a>`},
	{`<a> x <b/> y </a>`, `<a>x  y<b/></a>`},
	{`<a>1<b>2<c/>3<d>4<e/>5</d>6</b>7<f>-</f>8</a>`, `<a>178<b>236<c/><d>45<e/></d></b><f>-</f></a>`},
	{`<a>x<![CDATA[]]><b/> </a>`, `<a>x<b/></a>`},
	{`<a>x<!-- c -->y</a>`, `<a>xy</a>`},
	{`<a>x<?pi data?>y</a>`, `<a>xy</a>`},
	{`<a><![CDATA[<x>]]></a>`, `<a>&lt;x&gt;</a>`},
	{`<a>1<![CDATA[ & ]]>2</a>`, `<a>1 &amp; 2</a>`},
	{"<a>\u00a0 x\u2003</a>", `<a>x</a>`}, // TrimSpace is Unicode-aware
	// Namespaces: prefixes flattened, declarations dropped.
	{`<p:a xmlns:p="u" p:k="v"/>`, `<a k="v"/>`},
	{`<a xmlns="u" p:xmlns="w" xmlns:="kept" xml:lang="en"/>`, `<a lang="en" xmlns:="kept"/>`},
	{`<a:b></a:b>`, `<b/>`},
	{`<a:b></b>`, ``},
	{`<:a></:a>`, `<:a/>`},
	{`<a:b:c/>`, ``},
	{`<a b:c:d="v"/>`, ``},
	// Attributes.
	{`<a k='v' k="w"/>`, `<a k="w"/>`},
	{`<a k="it's" j='say "hi"'/>`, `<a j="say &quot;hi&quot;" k="it's"/>`},
	{`<a k="v"j="w"/>`, `<a j="w" k="v"/>`},
	{"<a\n k = \"v\" />", `<a k="v"/>`},
	{"<a k=\"x\ty\nz\r\nw\"/>", "<a k=\"x\ty\nz\nw\"/>"},
	{`<a k=v/>`, ``},
	{`<a k/>`, ``},
	{`<a k="<"/>`, ``},
	{`<a k=">]]>"/>`, `<a k="&gt;]]&gt;"/>`},
	{`<a k="v`, ``},
	{`<a / >`, ``},
	// References.
	{`<a>&#65;&#x42;&lt;&gt;&amp;&quot;&apos;</a>`, `<a>AB&lt;&gt;&amp;"'</a>`},
	{`<a>x&#xD;y&#13;&#10;z</a>`, `<a>x&#xD;y&#xD;` + "\n" + `z</a>`},
	{`<a>&#xD800;</a>`, "<a>\ufffd</a>"},
	{`<a>&#0;</a>`, ``},
	{`<a>&#x110000;</a>`, ``},
	{`<a>&#X41;</a>`, ``},
	{`<a>&#;</a>`, ``},
	{`<a>&#x;</a>`, ``},
	{`<a>&#+65;</a>`, ``},
	{`<a>&#6_5;</a>`, ``},
	{`<a>&nbsp;</a>`, ``},
	{`<a>&amp</a>`, ``},
	{`<a>a & b</a>`, ``},
	{`<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>`, ``},
	// Prolog, directives, comments.
	{`<?xml version="1.0" encoding="UTF-8"?><!DOCTYPE a [<!ELEMENT a (#PCDATA)> <!-- > --> ]><a>x</a>`, `<a>x</a>`},
	{`<?xml version="1.1"?><a/>`, ``},
	{`<?xml version="1.0" encoding="latin1"?><a/>`, ``},
	{`<?xml version='1.0' encoding='utf-8'?><a/>`, `<a/>`},
	{`<!DOCTYPE a SYSTEM ">"><a/>`, `<a/>`},
	{`<!><a/>`, ``},
	{`<!>><a/>`, `<a/>`},
	{`<!-- a -- b --><a/>`, ``},
	{`<!---><a/>`, ``},
	{`<!----><a/>`, `<a/>`},
	{`<!-x><a/>`, ``},
	{`<![CDATA[x]]><a/>`, `<a/>`},
	{`<![DATA[x]]><a/>`, ``},
	{`<a><![CDATA[x]]</a>`, ``},
	{`<a>]]></a>`, ``},
	{`<a>]]&gt;]]<!---->></a>`, `<a>]]&gt;]]&gt;</a>`},
	{`<??><a/>`, ``},
	{`<?p<a/>`, ``},
	// The root only; the rest is unread.
	{`<a/><b/>`, `<a/>`},
	{`<a/>junk`, `<a/>`},
	{`<a></a>&bad;<`, `<a/>`},
	{"\ufeff <a/>", `<a/>`},
	{`junk<a/>`, `<a/>`},
	{`&bad;<a/>`, ``},
	// Mismatches and malformed tags.
	{`<a></b>`, ``},
	{`<a><b></a>`, ``},
	{`</a>`, ``},
	{`<a></a x>`, ``},
	{`<a></a >`, `<a/>`},
	{`<a`, ``},
	{`<a>`, ``},
	{`<`, ``},
	{`< a/>`, ``},
	{`<1a/>`, ``},
	{`<-a/>`, ``},
	{`<a.b-c_d1/>`, `<a.b-c_d1/>`},
	// Characters.
	{"<a>\x01</a>", ``},
	{"<a>\xff</a>", ``},
	{"<a k=\"\x01\"/>", ``},
	{"<a k=\"\xff\"/>", ``},
	{"<a><![CDATA[\x01]]></a>", ``},
	{"<a>\ufffe</a>", ``},
	{"<a>\xed\xa0\x80</a>", ``},
	{"\x01<a/>", ``},
	{"<a\xff/>", ``},
	{"<a>x\r\ny\rz</a>", "<a>x\ny\nz</a>"},
	{"<a><![CDATA[x\r\ny]]></a>", "<a>x\ny</a>"},
	{"<a>\x7f</a>", "<a>\x7f</a>"},
	{"<\u00e9 k=\"\u00fc\">\u00df</\u00e9>", "<\u00e9 k=\"\u00fc\">\u00df</\u00e9>"},
	// One witness per entry of the divergence table below.
	{"<a\u00d7/>", "<a\u00d7/>"},
	{"<?\u00d7?>", ``},
	{"<?\u00d7?><a/>", `<a/>`},
	{`<a xmlns:p="xmlns" p:k="v"/>`, `<a k="v"/>`},
	{`<a xmlns:p='xmlns' k="1" p:k="2"/>`, `<a k="2"/>`},
	{`<a t="12:30" u="http://h:80/"><b>xmlns "xmlns" 1:0</b></a>`, `<a t="12:30" u="http://h:80/"><b>xmlns "xmlns" 1:0</b></a>`},
	{`<a p:0="v"/>`, ``},
	{`<p:-a/>`, ``},
	{`<a::/>`, ``},
	{`<::/>`, ``},
}

// divergence is one entry of the table below.
type divergence struct {
	name, reason string
	applies      func(in string, got *Node, gotErr error, want *Node, wantErr error) bool
}

// divergences is the complete list of ways ParseString is allowed to answer
// differently from the reference, besides ErrTooDeep (encoding/xml has no
// nesting bound; MaxDepth is the point of having one). An entry excuses a
// mismatch only if it is the mismatch the entry names: applies sees the input
// and both answers, and anything it does not recognise still fails.
var divergences = []divergence{
	{
		name: "non-ASCII name characters",
		reason: "encoding/xml carries XML 1.0 fourth edition's Letter, CombiningChar and Extender tables " +
			"(some 200 ranges) to refuse a name such as <a\u00d7/>. The fifth edition dropped those tables and " +
			"admits nearly every non-ASCII character in a name; the scanner admits every well-formed one. " +
			"What it accepts beyond the reference it also writes back and reads again unchanged. Having " +
			"read past the name it returns a tree, or ErrEmpty if the name was a processing instruction's.",
		applies: func(_ string, _ *Node, gotErr error, _ *Node, wantErr error) bool {
			if wantErr == nil || gotErr != nil && gotErr != ErrEmpty {
				return false
			}
			_, name, found := strings.Cut(wantErr.Error(), "invalid XML name: ")
			return found && strings.ContainsFunc(name, func(r rune) bool { return r >= utf8.RuneSelf })
		},
	},
	{
		name: `a prefix bound to the namespace URI spelled "xmlns"`,
		reason: `the reference drops namespace declarations by testing the *translated* attribute name, so ` +
			`<a xmlns:p="xmlns" p:k="v"/> loses k as well. That is an accident of the test, not a rule anyone ` +
			`wants; the scanner drops what is written as xmlns or xmlns:*. The two trees then differ in ` +
			`attributes only: the scanner's has every attribute the reference's has and the ones it lost, ` +
			`with a value of its own where the lost one was written later (<a k="1" p:k="2"/>).`,
		applies: func(in string, got *Node, gotErr error, want *Node, wantErr error) bool {
			return wantErr == nil && gotErr == nil &&
				(strings.Contains(in, `"xmlns"`) || strings.Contains(in, `'xmlns'`)) &&
				equalButForLostAttrs(got, want)
		},
	},
	{
		name: "a local part that is not a name",
		reason: "both parsers keep only the local part of prefix:local, and the reference takes <a p:0=\"v\"/> " +
			"or <p:-a/> although 0 and -a cannot be written back as names: a store could hold a tree whose own " +
			"serialisation no reader accepts. The scanner refuses them (as Namespaces in XML does: the local " +
			"part is an NCName), so everything ParseString returns round-trips, which this test checks.",
		applies: func(_ string, _ *Node, gotErr error, _ *Node, wantErr error) bool {
			if wantErr != nil || gotErr == nil {
				return false
			}
			_, rest, found := strings.Cut(gotErr.Error(), "invalid qualified name ")
			name, _, _ := strings.Cut(rest, " ")
			return found && nonNameLocalPart.MatchString(name)
		},
	},
}

// nonNameLocalPart matches prefix:local where local starts like no name does.
var nonNameLocalPart = regexp.MustCompile(`^[^:]+:[-.0-9][^:]*$`)

// equalButForLostAttrs reports whether want is got with some attributes
// missing or holding another value, and nothing else different.
func equalButForLostAttrs(got, want *Node) bool {
	if got.Name != want.Name || got.Text != want.Text || len(got.Children) != len(want.Children) {
		return false
	}
	for k := range want.Attrs {
		if _, ok := got.Attrs[k]; !ok {
			return false
		}
	}
	for i := range got.Children {
		if !equalButForLostAttrs(got.Children[i], want.Children[i]) {
			return false
		}
	}
	return true
}

// checkAgainstReference holds ParseString to the reference on one input:
// an Equal tree where the reference returns a tree, an error where it
// returns an error, ErrEmpty exactly where it returns ErrEmpty. Excused by
// the table or not, an error ParseString returns starts "xmltree: " and a
// tree it returns is written and read back unchanged.
func checkAgainstReference(t *testing.T, in string) {
	t.Helper()
	got, gotErr := ParseString(in)
	if errors.Is(gotErr, ErrTooDeep) {
		return
	}
	want, wantErr := referenceParseString(in)
	switch {
	case wantErr == nil && gotErr == nil && want.Equal(got):
	case wantErr != nil && gotErr != nil && (wantErr == ErrEmpty) == (gotErr == ErrEmpty):
	case slices.ContainsFunc(divergences, func(d divergence) bool { return d.applies(in, got, gotErr, want, wantErr) }):
	default:
		t.Fatalf("ParseString(%q) = %v, %v\nreference      = %v, %v", in, got, gotErr, want, wantErr)
	}
	if gotErr != nil {
		if !strings.HasPrefix(gotErr.Error(), "xmltree: ") {
			t.Fatalf("ParseString(%q): error %q does not start with \"xmltree: \"", in, gotErr)
		}
		return
	}
	// What was read is written and read again unchanged, compact or indented.
	for _, doc := range []string{got.String(), got.Indent()} {
		back, err := ParseString(doc)
		if err != nil || !back.Equal(got) {
			t.Fatalf("ParseString(%q) = %v; written as %q it reads back as %v, %v", in, got, doc, back, err)
		}
	}
}

func FuzzParse(f *testing.F) {
	for _, c := range corners {
		f.Add([]byte(c.in))
	}
	f.Add([]byte(sizedBook(1 << 10).Indent()))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, string(data))
	})
}
