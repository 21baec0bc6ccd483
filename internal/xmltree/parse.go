package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// MaxDepth is the deepest element nesting ParseString accepts, the root
// counting as 1. The GUP schema nests fewer than ten levels; the bound exists
// because String, Clone, Equal and DeepUnion recurse over whatever the parser
// returns, so the parser is where a hostile frame is refused.
const MaxDepth = 256

// ErrEmpty is returned by ParseString when the input contains no element.
var ErrEmpty = errors.New("xmltree: no element in input")

// ErrTooDeep is returned (wrapped) by ParseString when elements nest deeper
// than MaxDepth.
var ErrTooDeep = errors.New("xmltree: elements nested deeper than MaxDepth")

// ParseString reads one XML element tree from s in a single pass. It accepts
// the subset profile components travel in: a prolog, processing instructions,
// comments and <!…> directives are skipped; CDATA, the five predefined
// entities and numeric character references are decoded; prefix:local names
// are flattened to local and xmlns declarations dropped; an element's text
// runs are concatenated, then trimmed; reading stops at the root's end tag.
// Nesting beyond MaxDepth and anything else that is not well-formed is an
// error. Names and entity-free values in the tree are substrings of s, and
// its nodes share a few allocations, so any node of the tree keeps s and
// every other node alive.
func ParseString(s string) (*Node, error) {
	p := parsers.Get().(*parser)
	p.s, p.bound, p.valued = s, startTags(s), strings.Count(s, "=")
	err := p.parse()
	root := p.root
	p.release()
	return root, err
}

// startTags counts the '<' in s that no '/' follows, strings.Count(s, "<")
// minus strings.Count(s, "</") in one pass: every element starts with one,
// so that bounds the nodes the slab may need.
func startTags(s string) int {
	n := 0
	for {
		i := strings.IndexByte(s, '<')
		if i < 0 {
			return n
		}
		if i+1 == len(s) || s[i+1] != '/' {
			n++
		}
		s = s[i+1:]
	}
}

// parsers recycles the parser's scratch: its stacks of open elements, closed
// children and start-tag attributes, and its text and decoding buffers.
var parsers = sync.Pool{New: func() any { return new(parser) }}

// maxPooledScratch is the capacity, in elements, past which a scratch slice
// is dropped instead of pinned in the pool.
const maxPooledScratch = 4 << 10

// release readies p for its next parse and returns it to the pool. Every
// pointer its scratch holds is cleared first, so the pool keeps nothing of
// this parse's input or tree alive.
func (p *parser) release() {
	*p = parser{
		stack: recycle(p.stack),
		kids:  recycle(p.kids),
		text:  recycle(p.text),
		attrs: recycle(p.attrs),
		buf:   recycle(p.buf),
	}
	parsers.Put(p)
}

// recycle returns s emptied and zeroed to its capacity, or nil if that
// capacity is past maxPooledScratch.
func recycle[T any](s []T) []T {
	if cap(s) > maxPooledScratch {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

// firstChunk is how many nodes, child slots or attributes the slab
// allocates on the strength of the input's count alone; past it, the slab
// grows by at most as many as have been used, so its size follows what is
// actually read and not what a hostile input claims.
const firstChunk = 1 << 10

// carve hands out k elements of *chunk, first allocating a new chunk when it
// holds fewer: k at least, else as many as the input can still hold (bound
// less used), capped at firstChunk or at used, whichever is more. used
// counts the elements handed out.
func carve[T any](chunk *[]T, k int, used *int, bound int) []T {
	if len(*chunk) < k {
		*chunk = make([]T, max(k, min(bound-*used, max(firstChunk, *used))))
	}
	*used += k
	return take(chunk, k)
}

// MustParse is ParseString that panics on malformed input; it is intended
// for tests and static fixtures.
func MustParse(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

// Byte classes. Every byte of a multi-byte rune counts as a name byte, as in
// XML 1.0 fifth edition, and the name is checked for well-formed UTF-8 once.
const (
	nameByte  = 1 << iota // [A-Za-z0-9_:.-] or non-ASCII
	nameStart             // [A-Za-z_:] or non-ASCII
	plain                 // character data that is itself: no markup, quote, CR, control or non-ASCII byte
)

var class = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case c >= utf8.RuneSelf, 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '_', c == ':':
			t[c] = nameByte | nameStart
		case '0' <= c && c <= '9', c == '.', c == '-':
			t[c] = nameByte
		}
		if c == '\t' || c == '\n' || ' ' <= c && c < utf8.RuneSelf && !strings.ContainsRune(`<&>"'`, rune(c)) {
			t[c] |= plain
		}
	}
	return t
}()

// frame is one open element on the parser's stack.
type frame struct {
	node *Node
	raw  string // the name as written, prefix included: what the end tag must repeat
	text string // the first run of character data, leading whitespace dropped
	more int32  // where this element's text starts in parser.text, once a second run has come
	kids int32  // where this element's closed children start in parser.kids

	// For an index (p.ix set): the element's entry, where text starts in
	// the input, whether anything was read inside it yet, and whether its
	// bytes so far are what appendXML would write for it. (Frames are kept
	// to 64 bytes: pushing a larger one costs ParseString a block copy.)
	elem    int32
	textAt  int32
	content bool
	canon   bool
}

type parser struct {
	s     string
	i     int     // next unread byte
	stack []frame // open elements, root first
	kids  []*Node // closed children of every open element, innermost element's last
	text  []byte  // the joined text of every open element that has more than one run, likewise
	attrs []Attr  // the attributes kept from the start tag being read
	buf   []byte  // scratch for character data that needs decoding

	slab   slab  // what is left of the chunks the tree's nodes, children and attributes come from
	bound  int   // the most elements s can hold
	opened int   // elements read so far
	placed int   // child slots handed out so far
	valued int   // the most attributes s can hold: each has its '='
	named  int   // attributes handed out so far
	root   *Node // the tree, once its root has closed
	done   bool  // the root has closed

	// What chars last read: whether it needed decoding, and whether
	// appendEscaped writes it back as it was read.
	decoded, canon bool

	// ix, when set, receives the elements instead of a tree: MergeXML's
	// index, filled from piece number piece.
	ix    *merger
	piece int32
}

// parse reads p.s up to the root's end tag, into p.root or p.ix.
func (p *parser) parse() error {
	s := p.s
	for {
		if p.i < len(s) && s[p.i] != '<' {
			at := p.i
			text, err := p.chars(len(s), 0, false)
			if err != nil {
				return err
			}
			p.addText(text, at)
		}
		if p.i+1 >= len(s) {
			if p.i == len(s) && len(p.stack) == 0 {
				return ErrEmpty
			}
			return p.fail(len(s), "unexpected end of input")
		}
		var err error
		switch s[p.i+1] {
		case '/':
			err = p.endTag()
		case '?':
			err = p.procInst()
		case '!':
			err = p.bang()
		default:
			err = p.startTag()
		}
		if p.done || err != nil {
			return err
		}
	}
}

// fail reports a syntax error at byte offset off, naming the innermost open
// element.
func (p *parser) fail(off int, msg string) error {
	if len(p.stack) == 0 {
		return fmt.Errorf("xmltree: %s at offset %d", msg, off)
	}
	return fmt.Errorf("xmltree: %s in <%s> at offset %d", msg, p.stack[len(p.stack)-1].raw, off)
}

// startTag reads "<name attr='v' …>" or "<name …/>" at p.i.
func (p *parser) startTag() error {
	s := p.s
	open := p.i
	p.i++
	raw, err := p.name()
	if err != nil {
		return err
	}
	_, local, ok := splitName(raw)
	if !ok {
		return p.fail(open, "invalid qualified name "+raw)
	}
	if len(p.stack) == MaxDepth {
		return fmt.Errorf("%w: <%s> at offset %d", ErrTooDeep, raw, open)
	}
	// Open before the attributes are read, so an error in one names this
	// element.
	p.stack = append(p.stack, frame{raw: raw, more: int32(len(p.text)), kids: int32(len(p.kids))})
	if p.ix != nil {
		if top := len(p.stack) - 2; top >= 0 {
			p.stack[top].content = true
		}
		f := &p.stack[len(p.stack)-1]
		f.elem = p.ix.open(p.piece, p.i-len(local), p.i, open)
		f.canon = len(local) == len(raw) // local is a suffix of raw
	} else {
		n := &carve(&p.slab.nodes, 1, &p.opened, p.bound)[0]
		n.Name = local
		p.stack[len(p.stack)-1].node = n
	}
	p.attrs = p.attrs[:0]
	selfClosing := false
	for {
		gap := p.i
		p.space()
		if p.i == len(s) {
			return p.fail(p.i, "unexpected end of input")
		}
		if s[p.i] == '>' {
			p.i++
			break
		}
		if s[p.i] == '/' {
			if !strings.HasPrefix(s[p.i:], "/>") {
				return p.fail(p.i, "expected />")
			}
			p.i += 2
			selfClosing = true
			break
		}
		if p.ix != nil && (p.i != gap+1 || s[gap] != ' ') {
			// Written back, an attribute has one space before it.
			p.stack[len(p.stack)-1].canon = false
		}
		if err := p.attribute(); err != nil {
			return err
		}
	}
	top := &p.stack[len(p.stack)-1]
	if p.ix != nil {
		// ... and the tag none before its end.
		end := p.i - 1
		if selfClosing {
			end--
		}
		top.canon = p.ix.attrsRead(top.elem, s) && top.canon && !isSpace(s[end-1])
	} else if len(p.attrs) > 0 {
		as, _ := sortAttrs(p.attrs, attrName) // a repeated attribute: the last one wins
		top.node.attrs = carve(&p.slab.attrs, len(as), &p.named, p.valued)
		copy(top.node.attrs, as)
	}
	if selfClosing {
		// <a/> is written as it is read: no content to check.
		top.content = true
		p.closed()
	}
	return nil
}

// attribute reads one name="value" pair of a start tag into p.attrs, or the
// index, unless it is a namespace declaration.
func (p *parser) attribute() error {
	s := p.s
	at := p.i
	raw, err := p.name()
	if err != nil {
		return err
	}
	prefix, local, ok := splitName(raw)
	if !ok {
		return p.fail(at, "invalid qualified name "+raw)
	}
	eq := p.i
	p.space()
	if p.i == len(s) || s[p.i] != '=' {
		return p.fail(p.i, "attribute "+raw+" has no =")
	}
	p.i++
	p.space()
	if p.i == len(s) || s[p.i] != '"' && s[p.i] != '\'' {
		return p.fail(p.i, "attribute "+raw+" has no quoted value")
	}
	quote := s[p.i]
	p.i++
	from := p.i
	value, err := p.chars(len(s), quote, false)
	if err != nil {
		return err
	}
	p.i++ // the closing quote chars stopped at
	xmlns := prefix == "xmlns" || local == "xmlns"
	switch {
	case p.ix != nil:
		// Written back as read: name="value", no prefix, no space around
		// the =, and a value appendEscaped writes as it is.
		if xmlns || from != eq+2 || quote != '"' || len(local) != len(raw) || !p.canon {
			p.stack[len(p.stack)-1].canon = false
		}
		if !xmlns {
			p.ix.attr(at+len(raw)-len(local), at+len(raw), from, p.i-1, p.decoded, p.buf)
		}
	case !xmlns:
		p.attrs = append(p.attrs, Attr{local, value})
	}
	return nil
}

func attrName(a Attr) string { return a.Name }

// isSpace reports whether c is XML white space.
func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

// endTag reads "</name>" at p.i and closes the innermost element.
func (p *parser) endTag() error {
	s := p.s
	at := p.i
	p.i += 2
	raw, err := p.name()
	if err != nil {
		return err
	}
	top := len(p.stack) - 1
	if top < 0 || raw != p.stack[top].raw {
		return p.fail(at, "unexpected end tag </"+raw+">")
	}
	f := &p.stack[top]
	p.space()
	if p.i == len(s) || s[p.i] != '>' {
		return p.fail(p.i, "end tag is not closed by >")
	}
	p.i++
	if p.ix != nil {
		f.canon = f.canon && !isSpace(s[p.i-2]) // "</name>", not "</name >"
		p.ix.text(p, f)
	} else {
		n := f.node
		if int(f.more) < len(p.text) {
			n.Text = string(bytes.TrimSpace(p.text[f.more:]))
		} else {
			n.Text = strings.TrimSpace(f.text)
		}
		if int(f.kids) < len(p.kids) {
			// The root is no element's child: bound-1 slots at most.
			n.Children = carve(&p.slab.kids, len(p.kids)-int(f.kids), &p.placed, p.bound-1)
			copy(n.Children, p.kids[f.kids:])
			p.kids = p.kids[:f.kids]
		}
	}
	p.text = p.text[:f.more]
	p.closed()
	return nil
}

// closed pops the innermost element, now complete, and hands it to its
// parent; with none, it is the root and reading is done.
func (p *parser) closed() {
	top := len(p.stack) - 1
	switch {
	case p.ix != nil:
		p.ix.closed(p, top)
	case top > 0:
		p.kids = append(p.kids, p.stack[top].node)
	default:
		p.root = p.stack[top].node
	}
	p.stack = p.stack[:top]
	p.done = top == 0
}

// addText appends one run of character data, read at offset at, to the
// innermost open element; outside the root it is dropped. The element's
// text is trimmed when it closes, so whitespace ahead of the first visible
// character can go now, which keeps the indentation between children from
// ever being concatenated. An element with one run keeps it as the
// substring it is; from the second run on its text is joined in p.text,
// which grows like any slice: a frame of n runs must cost O(n), and text +=
// run would cost O(n²). An index takes the run itself (merger.addText).
func (p *parser) addText(run string, at int) {
	if p.ix != nil {
		p.ix.addText(p, run, at)
		return
	}
	if len(p.stack) == 0 || run == "" {
		return
	}
	f := &p.stack[len(p.stack)-1]
	if f.text == "" {
		f.text = strings.TrimLeftFunc(run, unicode.IsSpace)
		return
	}
	if int(f.more) == len(p.text) {
		p.text = append(p.text, f.text...)
	}
	p.text = append(p.text, run...)
}

// rewritten marks the innermost open element as not written back as read:
// it holds a comment, a processing instruction, a directive or CDATA.
func (p *parser) rewritten() {
	if len(p.stack) > 0 {
		p.stack[len(p.stack)-1].canon = false
	}
}

// procInst skips "<?target …?>" at p.i. An XML declaration must say version
// 1.0 and, if it names an encoding, UTF-8: nothing here transcodes.
func (p *parser) procInst() error {
	s := p.s
	at := p.i
	p.i += 2
	target, err := p.name()
	if err != nil {
		return err
	}
	p.space()
	end := strings.Index(s[p.i:], "?>")
	if end < 0 {
		return p.fail(at, "unterminated processing instruction <?"+target)
	}
	p.rewritten()
	if target == "xml" {
		decl := s[p.i : p.i+end]
		if v := declValue(decl, "version"); v != "" && v != "1.0" {
			return p.fail(at, "unsupported XML version "+strconv.Quote(v))
		}
		if enc := declValue(decl, "encoding"); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return p.fail(at, "unsupported encoding "+strconv.Quote(enc))
		}
	}
	p.i += end + 2
	return nil
}

// declValue returns the quoted value after the first `param=` in an XML
// declaration that is followed by a quote, or "". It is as loose as
// encoding/xml's reading of the declaration, on purpose: the two must refuse
// the same documents.
func declValue(decl, param string) string {
	param += "="
	for {
		k := strings.Index(decl, param)
		if k < 0 || k+len(param) >= len(decl) {
			return ""
		}
		quote := decl[k+len(param)]
		decl = decl[k+len(param)+1:]
		if quote == '"' || quote == '\'' {
			end := strings.IndexByte(decl, quote)
			if end < 0 {
				return ""
			}
			return decl[:end]
		}
	}
}

// bang handles the three things that start with "<!" at p.i: a comment, a
// CDATA section, or a directive such as <!DOCTYPE …>.
func (p *parser) bang() error {
	s := p.s
	at := p.i
	switch {
	case strings.HasPrefix(s[at:], "<!--"):
		body := s[at+4:]
		end := strings.Index(body, "--")
		if end < 0 || !strings.HasPrefix(body[end+2:], ">") {
			return p.fail(at, `comment is unterminated or contains "--"`)
		}
		p.i = at + 4 + end + 3
		p.rewritten()
		return nil

	case strings.HasPrefix(s[at:], "<![CDATA["):
		p.i = at + 9
		end := strings.Index(s[p.i:], "]]>")
		if end < 0 {
			return p.fail(at, "unterminated CDATA section")
		}
		end += p.i
		from := p.i
		text, err := p.chars(end, 0, true)
		if err != nil {
			return err
		}
		p.addText(text, from)
		p.rewritten()
		p.i = end + 3
		return nil

	case at+2 == len(s) || s[at+2] == '-' || s[at+2] == '[':
		return p.fail(at, "malformed <! markup")
	}

	// A directive ends at the first '>' that is outside quotes and outside
	// any nested <…>; comments inside it hide their content. The byte right
	// after "<!" takes no part in that, as in encoding/xml.
	var quote byte
	depth := 0
	for i := at + 3; i < len(s); {
		c := s[i]
		i++
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '>':
			if depth == 0 {
				p.i = i
				p.rewritten()
				return nil
			}
			depth--
		case c == '<':
			if !strings.HasPrefix(s[i:], "!--") {
				depth++
				continue
			}
			end := strings.Index(s[i+3:], "-->")
			if end < 0 {
				return p.fail(at, "unterminated comment in directive")
			}
			i += 3 + end + 3
		}
	}
	return p.fail(at, "unterminated directive")
}

// space skips white space inside a tag.
func (p *parser) space() {
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case ' ', '\n', '\t', '\r':
			p.i++
		default:
			return
		}
	}
}

// name reads the name at p.i as written. The input ending inside it is an
// error: a name is always followed by something.
func (p *parser) name() (string, error) {
	s, start := p.s, p.i
	i := start
	var seen byte
	for i < len(s) && class[s[i]]&nameByte != 0 {
		seen |= s[i]
		i++
	}
	p.i = i
	name := s[start:i]
	switch {
	case i == len(s):
		return "", p.fail(i, "unexpected end of input")
	case name == "":
		return "", p.fail(start, "expected a name")
	case class[name[0]]&nameStart == 0:
		return "", p.fail(start, "invalid name "+name)
	case seen >= utf8.RuneSelf && !utf8.ValidString(name):
		return "", p.fail(start, "name is not valid UTF-8")
	}
	return name, nil
}

// splitName cuts prefix:local. A name with a colon at either end is all
// local. More than one colon is not a name, and neither is a local part that
// could not stand alone (a:0): the tree keeps only the local part, and what
// ParseString returns must be writable and readable again.
func splitName(raw string) (prefix, local string, ok bool) {
	c := strings.IndexByte(raw, ':')
	if c < 0 {
		return "", raw, true
	}
	if strings.IndexByte(raw[c+1:], ':') >= 0 {
		return "", "", false
	}
	if c == 0 || c == len(raw)-1 {
		return "", raw, true
	}
	if class[raw[c+1]]&nameStart == 0 {
		return "", "", false
	}
	return raw[:c], raw[c+1:], true
}

// chars reads character data from p.i and returns it decoded: entity and
// character references replaced, CR and CRLF folded to LF, every character
// checked against XML's Char range. With quote == 0 it is element content
// and stops before the next '<' or at limit; otherwise it is an attribute
// value, stops at the closing quote, and reaching limit is an error. In a
// CDATA section (limit is then where "]]>" starts) markup characters are
// literal. Data that needs no decoding is returned as a substring of the
// input. For an index, data is always returned as read: p.decoded says
// whether it needed decoding, the decoded bytes then in p.buf until the
// next call. p.canon says whether appendEscaped writes the decoded value
// back as it was read.
func (p *parser) chars(limit int, quote byte, cdata bool) (string, error) {
	s := p.s[:limit]
	start, i := p.i, p.i
	var (
		buf     = p.buf[:0]
		decoded = false
		from    = i // s[from:i] is read but not yet in buf
		run     = i // where the current stretch without a reference began: "]]>" must fit in one
	)
	p.canon = !cdata
scan:
	for {
		for i < len(s) && class[s[i]]&plain != 0 {
			i++
		}
		if i == len(s) {
			if quote != 0 {
				return "", p.fail(i, "unexpected end of input in attribute value")
			}
			break
		}
		switch c := s[i]; {
		case cdata && ' ' <= c && c < utf8.RuneSelf:
			i++
		case c == '<':
			if quote != 0 {
				return "", p.fail(i, "unescaped < in attribute value")
			}
			break scan
		case c == quote && quote != 0:
			break scan
		case c == '&':
			buf = append(buf, s[from:i]...)
			ref := i
			var err error
			if buf, i, err = p.reference(buf, i); err != nil {
				return "", err
			}
			p.canon = p.canon && isEscape(s[ref:i], quote != 0)
			decoded, from, run = true, i, i
		case c == '\r':
			buf = append(append(buf, s[from:i]...), '\n')
			i++
			if i < len(s) && s[i] == '\n' {
				i++
			}
			decoded, from, p.canon = true, i, false
		case c == '>':
			if quote == 0 && i-run >= 2 && s[i-1] == ']' && s[i-2] == ']' {
				return "", p.fail(i-2, "]]> outside a CDATA section")
			}
			i++
			p.canon = false
		case c == '"' || c == '\'':
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				return "", p.fail(i, "invalid UTF-8")
			}
			if !isChar(r) {
				return "", p.fail(i, fmt.Sprintf("illegal character %U", r))
			}
			i += size
		}
	}
	p.i, p.decoded = i, decoded
	if !decoded {
		return s[start:i], nil
	}
	buf = append(buf, s[from:i]...)
	p.buf = buf
	if p.ix != nil {
		return s[start:i], nil
	}
	return string(buf), nil
}

// isEscape reports whether ref is the reference appendEscaped writes for
// the character it stands for.
func isEscape(ref string, attr bool) bool {
	switch ref {
	case "&amp;", "&lt;", "&gt;", "&#xD;":
		return true
	case "&quot;":
		return attr
	}
	return false
}

// reference decodes the entity or character reference whose '&' is s[i],
// appends its value to buf and returns the index after its ';'. Only the
// five predefined entities exist: a DOCTYPE's own are not read.
func (p *parser) reference(buf []byte, i int) ([]byte, int, error) {
	rest := p.s[i+1:]
	for _, e := range [...]struct {
		name  string
		value byte
	}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"quot;", '"'}, {"apos;", '\''}} {
		if strings.HasPrefix(rest, e.name) {
			return append(buf, e.value), i + 1 + len(e.name), nil
		}
	}
	if semi := strings.IndexByte(rest, ';'); semi > 1 && rest[0] == '#' {
		digits, base := rest[1:semi], 10
		if digits[0] == 'x' {
			digits, base = digits[1:], 16
		}
		// With an explicit base ParseUint takes digits only: no sign, prefix
		// or underscore.
		if n, err := strconv.ParseUint(digits, base, 32); err == nil && n <= unicode.MaxRune {
			r := rune(n)
			if !utf8.ValidRune(r) {
				r = utf8.RuneError // a surrogate half, as string(rune) has it
			}
			if !isChar(r) {
				return nil, 0, p.fail(i, fmt.Sprintf("reference to illegal character %U", r))
			}
			return utf8.AppendRune(buf, r), i + 1 + semi + 1, nil
		}
	}
	if len(rest) > 12 {
		rest = rest[:12]
	}
	return nil, 0, p.fail(i, "invalid entity or character reference "+strconv.Quote("&"+rest))
}

// isChar reports whether r is in XML 1.0's Char production.
func isChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		0x20 <= r && r <= 0xD7FF ||
		0xE000 <= r && r <= 0xFFFD ||
		0x10000 <= r && r <= 0x10FFFF
}
