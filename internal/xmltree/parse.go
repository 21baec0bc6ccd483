package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
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
//
// s is scanned into the index MergeXML merges from, and the tree is built
// from that index: its nodes, child slots and attributes come from one
// array each, sized by the scan's counts, and every value that needed
// decoding from one string.
func ParseString(s string) (*Node, error) {
	m := mergers.Get().(*merger)
	defer m.release()
	if err := (&scanner{m: m, s: s}).parse(); err != nil {
		return nil, err
	}
	return m.tree(s), nil
}

// tree builds the tree of s, the one piece m has indexed.
func (m *merger) tree(s string) *Node {
	dec := ""
	if len(m.buf) > 0 {
		dec = string(m.buf)
	}
	nodes := make([]Node, len(m.elems))
	kids := make([]*Node, len(m.elems)-1) // the root is no element's child
	attrs := make([]Attr, len(m.attrs))
	for e := range m.elems {
		el, n := &m.elems[e], &nodes[e]
		n.Name, n.Text = el.name.of(s, dec), el.text.of(s, dec)
		if el.attrN > el.attrs {
			n.attrs = attrs[el.attrs:el.attrN:el.attrN]
			for k, a := range m.attrs[el.attrs:el.attrN] {
				n.attrs[k] = Attr{a.name.of(s, dec), a.value.of(s, dec)}
			}
		}
		k := 0
		for c := int32(e) + 1; c < el.end; c = m.elems[c].end {
			kids[k] = &nodes[c]
			k++
		}
		if k > 0 {
			n.Children = take(&kids, k)
		}
	}
	return &nodes[0]
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
	word                  // a name byte that needs no more checks: [A-Za-z0-9_.-], no colon, ASCII
	space                 // ASCII white space as unicode.IsSpace has it
	xmlSpace              // XML white space: tab, LF, CR, space
)

var class = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case c >= utf8.RuneSelf, c == ':':
			t[c] = nameByte | nameStart
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '_':
			t[c] = nameByte | nameStart | word
		case '0' <= c && c <= '9', c == '.', c == '-':
			t[c] = nameByte | word
		}
		if '\t' <= c && c <= '\r' || c == ' ' {
			t[c] |= space
		}
		if c == '\t' || c == '\n' || c == '\r' || c == ' ' {
			t[c] |= xmlSpace
		}
		if c == '\t' || c == '\n' || ' ' <= c && c < utf8.RuneSelf && !strings.ContainsRune(`<&>"'`, rune(c)) {
			t[c] |= plain
		}
	}
	return t
}()

// frame is one open element on the scanner's stack. Like everything the
// scan writes it holds offsets, no pointer.
type frame struct {
	elem           int32 // its entry in the index
	rawFrom, rawTo int32 // its name as written, prefix included: what the end tag must repeat
	textAt, textTo int32 // its first run of character data, leading whitespace dropped
	more           int32 // where its text starts in merger.text, once a second run has come
	content        bool  // anything was read inside it yet
	canon          bool  // its bytes so far are what appendXML writes for it
}

// scanner reads one piece into a merger's index. Its stack of open
// elements and its text and decoding buffers are the merger's.
type scanner struct {
	m     *merger
	s     string
	i     int // next unread byte
	piece int32
	done  bool // the root has closed

	// What chars last read: whether it needed decoding (the decoded bytes
	// are then in m.scratch), and whether appendEscaped writes it back as
	// it was read.
	decoded, canon bool
}

// parse is the scan's one loop, from p.i to the root's end tag. A run of
// plain text is taken here; one that holds anything else is read on from
// its first such byte by chars.
func (p *scanner) parse() error {
	m, s := p.m, p.s
	for !p.done {
		if at := p.i; at < len(s) && s[at] != '<' {
			i := skipPlain(s, at)
			decoded, canon := false, true
			if i == len(s) || s[i] != '<' {
				var err error
				if i, err = p.chars(at, i, len(s), 0, false); err != nil {
					return err
				}
				decoded, canon = p.decoded, p.canon
			}
			p.i = i
			p.addText(s[at:i], at, decoded, canon)
		}
		if p.i+1 >= len(s) {
			if p.i == len(s) && len(m.stack) == 0 {
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
		if err != nil {
			return err
		}
	}
	return nil
}

// skip returns the index of the first byte from s[i] on whose class lacks
// c, or len(s).
func skip(s string, i int, c uint8) int {
	for i < len(s) && class[s[i]]&c != 0 {
		i++
	}
	return i
}

// skipPlain is skip(s, i, plain) for runs of text and values, four bytes a
// turn: they are most of a piece's bytes.
func skipPlain(s string, i int) int {
	for ; i+4 <= len(s); i += 4 {
		if class[s[i]]&plain == 0 {
			return i
		}
		if class[s[i+1]]&plain == 0 {
			return i + 1
		}
		if class[s[i+2]]&plain == 0 {
			return i + 2
		}
		if class[s[i+3]]&plain == 0 {
			return i + 3
		}
	}
	return skip(s, i, plain)
}

// fail reports a syntax error at byte offset off, naming the innermost open
// element.
func (p *scanner) fail(off int, msg string) error {
	if len(p.m.stack) == 0 {
		return fmt.Errorf("xmltree: %s at offset %d", msg, off)
	}
	f := &p.m.stack[len(p.m.stack)-1]
	return fmt.Errorf("xmltree: %s in <%s> at offset %d", msg, p.s[f.rawFrom:f.rawTo], off)
}

// grow appends a zero element to *s and returns it. The scan fills its
// records field by field in place: a record built whole and appended goes
// through the stack in pieces and is read back in one, which stalls.
//
// It doubles a full slice: a slice that grows by append's quarter at a time
// is copied so often that its copies outweigh it several times over, and a
// hostile piece of a million empty elements would be read at that price.
func grow[T any](s *[]T) *T {
	if len(*s) == cap(*s) {
		*s = append(make([]T, 0, max(2*len(*s), 16)), *s...)
	}
	*s = (*s)[:len(*s)+1]
	p := &(*s)[len(*s)-1]
	*p = *new(T)
	return p
}

// startTag reads "<name attr='v' …>" or "<name …/>" at p.i. It keeps its
// position in a local and reads the bytes String writes (bare names, one
// space before each name="value", values that need no decoding) itself;
// anything else is read on from where that stopped by name, splitName and
// chars, so no byte is read twice.
func (p *scanner) startTag() error {
	m, s := p.m, p.s
	open := p.i
	i, ok := bare(s, open+1)
	raw, local := s[open+1:i], s[open+1:i]
	var err error
	if !ok {
		if raw, local, err = p.qname(open+1, i, open); err != nil {
			return err
		}
		i = open + 1 + len(raw)
	}
	if len(m.stack) == MaxDepth {
		return fmt.Errorf("%w: <%s> at offset %d", ErrTooDeep, raw, open)
	}
	// Open the element before its attributes are read, so an error in one
	// names it: its entry in the index, and its frame.
	if top := len(m.stack) - 1; top >= 0 {
		m.stack[top].content = true
	}
	e := int32(len(m.elems))
	el := grow(&m.elems)
	el.name = span{from: int32(i - len(local)), to: int32(i)}
	el.attrs, el.piece = int32(len(m.attrs)), p.piece
	f := grow(&m.stack)
	f.elem, f.rawFrom, f.rawTo, f.more = e, int32(open+1), int32(i), int32(len(m.text))
	f.canon = len(local) == len(raw) // no prefix
	// Written back as read, each attribute is name="value" after one space,
	// with no prefix and a value appendEscaped writes as it is, the
	// attributes are in name order, and nothing is between the last and
	// the tag's end.
	canon, prev := true, ""
	for {
		gap := i
		i = skip(s, i, xmlSpace)
		if i == len(s) {
			return p.fail(i, "unexpected end of input")
		}
		if s[i] == '>' || s[i] == '/' {
			canon = canon && i == gap
			break
		}
		at := i
		canon = canon && i == gap+1 && s[gap] == ' '
		if i, ok = bare(s, at); !ok {
			if raw, local, err = p.qname(at, i, at); err != nil {
				return err
			}
			i = at + len(raw)
		} else {
			raw, local = s[at:i], s[at:i]
		}
		eq := i
		i = skip(s, i, xmlSpace)
		if i == len(s) || s[i] != '=' {
			return p.fail(i, "attribute "+raw+" has no =")
		}
		i = skip(s, i+1, xmlSpace)
		if i == len(s) || s[i] != '"' && s[i] != '\'' {
			return p.fail(i, "attribute "+raw+" has no quoted value")
		}
		quote, from := s[i], i+1
		i = skipPlain(s, from)
		decoded := false
		if i == len(s) || s[i] != quote {
			if i, err = p.chars(from, i, len(s), quote, false); err != nil {
				return err
			}
			decoded, canon = p.decoded, canon && p.canon
		}
		i++ // the closing quote
		canon = canon && from == eq+2 && quote == '"' && len(local) == len(raw)
		if local == "xmlns" || len(local) < len(raw) && raw[:len(raw)-len(local)] == "xmlns:" {
			canon = false // a namespace declaration, dropped
			continue
		}
		a := grow(&m.attrs)
		a.name = span{from: int32(eq - len(local)), to: int32(eq)}
		a.value = span{from: int32(from), to: int32(i - 1)}
		if decoded {
			a.value = m.keep(m.scratch)
		}
		canon, prev = canon && prev < local, local
	}
	if s[i] == '/' && !strings.HasPrefix(s[i:], "/>") {
		return p.fail(i, "expected />")
	}
	if canon {
		el.attrN = int32(len(m.attrs))
	} else {
		m.attrsRead(e, s)
		f.canon = false
	}
	if s[i] == '>' {
		p.i = i + 1
		return nil
	}
	// <a/> is written as it is read: no content to check.
	p.i = i + 2
	f.content = true
	p.closed(p.i)
	return nil
}

// qname reads the name at at of an element or attribute that is not bare,
// the bytes up to i already passed, as written and without its prefix. A
// name that is not a qualified name is refused at offset tag.
func (p *scanner) qname(at, i, tag int) (raw, local string, err error) {
	if i, err = p.name(at, i); err != nil {
		return "", "", err
	}
	raw = p.s[at:i]
	_, local, ok := splitName(raw)
	if !ok {
		return "", "", p.fail(tag, "invalid qualified name "+raw)
	}
	return raw, local, nil
}

// endTag reads "</name>" at p.i and closes the innermost element. The
// name must be the open element's as written, so it is compared with that,
// and read only to say what it is instead.
func (p *scanner) endTag() error {
	m, s := p.m, p.s
	at, i := p.i, p.i+2
	top := len(m.stack) - 1
	raw := ""
	if top >= 0 {
		raw = s[m.stack[top].rawFrom:m.stack[top].rawTo]
	}
	if j := i + len(raw); top < 0 || j >= len(s) || class[s[j]]&nameByte != 0 || s[i:j] != raw {
		end, err := p.name(i, i)
		if err != nil {
			return err
		}
		return p.fail(at, "unexpected end tag </"+s[i:end]+">")
	}
	i += len(raw)
	j := skip(s, i, xmlSpace)
	if j == len(s) || s[j] != '>' {
		return p.fail(j, "end tag is not closed by >")
	}
	if j > i {
		m.stack[top].canon = false // "</name >" is not how String writes it
	}
	p.i = j + 1
	p.closed(p.i)
	return nil
}

// addText appends one run of character data, read at offset at, to the
// innermost open element; outside the root it is dropped. decoded and canon
// are what chars said of it. The element's text is trimmed when it closes,
// so whitespace ahead of the first visible character can go now, which keeps
// the indentation between children from ever being concatenated. An
// element with one run keeps it as offsets into the piece; from the second
// run on, or a decoded one, its text is joined in m.text, which grows like
// any slice: a frame of n runs must cost O(n), and text += run would cost
// O(n²). The element is written back as read only if the run is its one
// run, ahead of any child, and trimming takes nothing off it: the leading
// side is checked here, the trailing side when it closes.
func (p *scanner) addText(run string, at int, decoded, canon bool) {
	m := p.m
	if len(m.stack) == 0 {
		return
	}
	f := &m.stack[len(m.stack)-1]
	f.canon = f.canon && canon && !f.content
	f.content = true
	joined := int(f.more) < len(m.text)
	switch {
	case decoded:
		if !joined {
			m.text = append(m.text, p.s[f.textAt:f.textTo]...)
		}
		m.text = append(m.text, m.scratch...)
	case run == "":
	case f.textAt == f.textTo && !joined:
		t := run[skip(run, 0, space):]
		if t != "" && t[0] >= utf8.RuneSelf {
			t = strings.TrimLeftFunc(t, unicode.IsSpace)
		}
		f.textAt, f.textTo = int32(at+len(run)-len(t)), int32(at+len(run))
		f.canon = f.canon && len(t) == len(run)
	default:
		if !joined {
			m.text = append(m.text, p.s[f.textAt:f.textTo]...)
		}
		m.text = append(m.text, run...)
	}
}

// closed pops the innermost element, whose tag ends at end; the root's
// ends the scan. Its text is its runs joined and trimmed. Its bytes are
// written back as read only if trimming took nothing, it held something
// (<a></a> is written <a/>) and everything in it is; if not, neither are
// its parent's.
func (p *scanner) closed(end int) {
	m := p.m
	top := len(m.stack) - 1
	f := &m.stack[top]
	el := &m.elems[f.elem]
	if j := m.text[f.more:]; len(j) > 0 {
		t := bytes.TrimSpace(j)
		f.canon = f.canon && len(t) == len(j)
		el.text = m.keep(t)
		m.text = m.text[:f.more]
	} else {
		// addText dropped its leading white space.
		t := p.s[f.textAt:f.textTo]
		if n := len(t); n > 0 && (t[n-1] >= utf8.RuneSelf || class[t[n-1]]&space != 0) {
			u := strings.TrimRightFunc(t, unicode.IsSpace)
			f.canon = f.canon && len(u) == n
			t = u
		}
		el.text = span{from: f.textAt, to: f.textAt + int32(len(t))}
	}
	canon := f.canon && f.content
	el.end, el.close, el.canon = int32(len(m.elems)), int32(end), canon
	if top > 0 && !canon {
		m.stack[top-1].canon = false
	}
	m.stack = m.stack[:top]
	p.done = top == 0
}

// rewritten marks the innermost open element as not written back as read:
// it holds a comment, a processing instruction, a directive or CDATA.
func (p *scanner) rewritten() {
	if st := p.m.stack; len(st) > 0 {
		st[len(st)-1].canon = false
	}
}

// procInst skips "<?target …?>" at p.i. An XML declaration must say version
// 1.0 and, if it names an encoding, UTF-8: nothing here transcodes.
func (p *scanner) procInst() error {
	s := p.s
	at := p.i
	i, err := p.name(at+2, at+2)
	if err != nil {
		return err
	}
	target := s[at+2 : i]
	i = skip(s, i, xmlSpace)
	end := strings.Index(s[i:], "?>")
	if end < 0 {
		return p.fail(at, "unterminated processing instruction <?"+target)
	}
	p.rewritten()
	if target == "xml" {
		decl := s[i : i+end]
		if v := declValue(decl, "version"); v != "" && v != "1.0" {
			return p.fail(at, "unsupported XML version "+strconv.Quote(v))
		}
		if enc := declValue(decl, "encoding"); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return p.fail(at, "unsupported encoding "+strconv.Quote(enc))
		}
	}
	p.i = i + end + 2
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
func (p *scanner) bang() error {
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
		from := at + 9
		end := strings.Index(s[from:], "]]>")
		if end < 0 {
			return p.fail(at, "unterminated CDATA section")
		}
		end += from
		if _, err := p.chars(from, from, end, 0, true); err != nil {
			return err
		}
		p.addText(s[from:end], from, p.decoded, p.canon)
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

// bare returns the end of the name at i if it is bare: all word bytes, so
// no prefix to split and no UTF-8 to check. If not, it reports false, and
// returns where the word bytes end for name to read on from.
func bare(s string, i int) (int, bool) {
	j := skip(s, i, word)
	return j, j > i && j < len(s) && class[s[i]]&nameStart != 0 && class[s[j]]&nameByte == 0
}

// name reads the name at start as written, the bytes up to i already
// passed, and returns the offset after it. The input ending inside it is an
// error: a name is always followed by something.
func (p *scanner) name(start, i int) (int, error) {
	s := p.s
	i = skip(s, i, nameByte)
	switch name := s[start:i]; {
	case i == len(s):
		return 0, p.fail(i, "unexpected end of input")
	case name == "":
		return 0, p.fail(start, "expected a name")
	case class[name[0]]&nameStart == 0:
		return 0, p.fail(start, "invalid name "+name)
	case !utf8.ValidString(name):
		return 0, p.fail(start, "name is not valid UTF-8")
	}
	return i, nil
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

// chars reads the character data that starts at from, the plain bytes up
// to i already passed, and returns where it stopped: entity and
// character references are decoded, CR and CRLF folded to LF, every
// character checked against XML's Char range. With quote == 0 it is element
// content and stops before the next '<' or at limit; otherwise it is an
// attribute value, stops at the closing quote, and reaching limit is an
// error. In a CDATA section (limit is then where "]]>" starts) markup
// characters are literal. p.decoded says whether the data needed decoding,
// the decoded bytes then in m.scratch until the next call; p.canon says
// whether appendEscaped writes the decoded value back as it was read.
func (p *scanner) chars(from, i, limit int, quote byte, cdata bool) (int, error) {
	s := p.s[:limit]
	var (
		buf     = p.m.scratch[:0]
		decoded = false
		run     = from // where the current stretch without a reference began: "]]>" must fit in one
	)
	// s[from:i] is read but not yet in buf.
	p.canon = !cdata
scan:
	for {
		i = skipPlain(s, i)
		if i == len(s) {
			if quote != 0 {
				return 0, p.fail(i, "unexpected end of input in attribute value")
			}
			break
		}
		switch c := s[i]; {
		case cdata && ' ' <= c && c < utf8.RuneSelf:
			i++
		case c == '<':
			if quote != 0 {
				return 0, p.fail(i, "unescaped < in attribute value")
			}
			break scan
		case c == quote && quote != 0:
			break scan
		case c == '&':
			buf = append(buf, s[from:i]...)
			ref := i
			var err error
			if buf, i, err = p.reference(buf, i); err != nil {
				return 0, err
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
				return 0, p.fail(i-2, "]]> outside a CDATA section")
			}
			i++
			p.canon = false
		case c == '"' || c == '\'':
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				return 0, p.fail(i, "invalid UTF-8")
			}
			if !isChar(r) {
				return 0, p.fail(i, fmt.Sprintf("illegal character %U", r))
			}
			i += size
		}
	}
	p.decoded = decoded
	if decoded {
		p.m.scratch = append(buf, s[from:i]...)
	}
	return i, nil
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
func (p *scanner) reference(buf []byte, i int) ([]byte, int, error) {
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

// storableName reports whether ParseString reads name, written as it is, as
// a name and keeps all of it.
func storableName(name string) bool {
	switch {
	case name == "" || class[name[0]]&nameStart == 0:
		return false
	case skip(name, 0, word) == len(name):
		return true
	case skip(name, 0, nameByte) < len(name) || !utf8.ValidString(name):
		return false
	}
	_, local, ok := splitName(name)
	return ok && local == name
}

// isChar reports whether r is in XML 1.0's Char production.
func isChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		0x20 <= r && r <= 0xD7FF ||
		0xE000 <= r && r <= 0xFFFD ||
		0x10000 <= r && r <= 0x10FFFF
}
