package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
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
// error. Names and entity-free values in the tree are substrings of s, so
// the tree keeps s alive.
func ParseString(s string) (*Node, error) {
	var (
		frames [16]frame
		kids   [64]*Node
		attrs  [8]attr
	)
	p := parser{s: s, stack: frames[:0], kids: kids[:0], attrs: attrs[:0]}
	return p.parse()
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
	more int    // where this element's text starts in parser.text, once a second run has come
	kids int    // where this element's closed children start in parser.kids
}

type attr struct{ name, value string }

type parser struct {
	s     string
	i     int     // next unread byte
	stack []frame // open elements, root first
	kids  []*Node // closed children of every open element, innermost element's last
	text  []byte  // the joined text of every open element that has more than one run, likewise
	attrs []attr  // the attributes kept from the start tag being read
	buf   []byte  // scratch for character data that needs decoding
}

func (p *parser) parse() (*Node, error) {
	s := p.s
	for {
		if p.i < len(s) && s[p.i] != '<' {
			text, err := p.chars(len(s), 0, false)
			if err != nil {
				return nil, err
			}
			p.addText(text)
		}
		if p.i+1 >= len(s) {
			if p.i == len(s) && len(p.stack) == 0 {
				return nil, ErrEmpty
			}
			return nil, p.fail(len(s), "unexpected end of input")
		}
		var (
			root *Node
			err  error
		)
		switch s[p.i+1] {
		case '/':
			root, err = p.endTag()
		case '?':
			err = p.procInst()
		case '!':
			err = p.bang()
		default:
			root, err = p.startTag()
		}
		if root != nil || err != nil {
			return root, err
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

// startTag reads "<name attr='v' …>" or "<name …/>" at p.i. It returns the
// element only when it is self-closing and the root.
func (p *parser) startTag() (*Node, error) {
	s := p.s
	open := p.i
	p.i++
	raw, err := p.name()
	if err != nil {
		return nil, err
	}
	_, local, ok := splitName(raw)
	if !ok {
		return nil, p.fail(open, "invalid qualified name "+raw)
	}
	if len(p.stack) == MaxDepth {
		return nil, fmt.Errorf("%w: <%s> at offset %d", ErrTooDeep, raw, open)
	}
	// Open before the attributes are read, so an error in one names this
	// element.
	n := &Node{Name: local}
	p.stack = append(p.stack, frame{node: n, raw: raw, more: len(p.text), kids: len(p.kids)})
	p.attrs = p.attrs[:0]
	selfClosing := false
	for {
		p.space()
		if p.i == len(s) {
			return nil, p.fail(p.i, "unexpected end of input")
		}
		if s[p.i] == '>' {
			p.i++
			break
		}
		if s[p.i] == '/' {
			if !strings.HasPrefix(s[p.i:], "/>") {
				return nil, p.fail(p.i, "expected />")
			}
			p.i += 2
			selfClosing = true
			break
		}
		if err := p.attribute(); err != nil {
			return nil, err
		}
	}
	if len(p.attrs) > 0 {
		n.Attrs = make(map[string]string, len(p.attrs))
		for _, a := range p.attrs {
			n.Attrs[a.name] = a.value // a repeated attribute: the last one wins
		}
	}
	if selfClosing {
		p.stack = p.stack[:len(p.stack)-1]
		return p.closed(n), nil
	}
	return nil, nil
}

// attribute reads one name="value" pair of a start tag into p.attrs, unless
// it is a namespace declaration.
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
	value, err := p.chars(len(s), quote, false)
	if err != nil {
		return err
	}
	p.i++ // the closing quote chars stopped at
	if prefix != "xmlns" && local != "xmlns" {
		p.attrs = append(p.attrs, attr{local, value})
	}
	return nil
}

// endTag reads "</name>" at p.i and closes the innermost element. It returns
// the element only when it is the root.
func (p *parser) endTag() (*Node, error) {
	s := p.s
	at := p.i
	p.i += 2
	raw, err := p.name()
	if err != nil {
		return nil, err
	}
	top := len(p.stack) - 1
	if top < 0 || raw != p.stack[top].raw {
		return nil, p.fail(at, "unexpected end tag </"+raw+">")
	}
	f := &p.stack[top]
	p.space()
	if p.i == len(s) || s[p.i] != '>' {
		return nil, p.fail(p.i, "end tag is not closed by >")
	}
	p.i++
	n := f.node
	if f.more < len(p.text) {
		n.Text = string(bytes.TrimSpace(p.text[f.more:]))
		p.text = p.text[:f.more]
	} else {
		n.Text = strings.TrimSpace(f.text)
	}
	if f.kids < len(p.kids) {
		n.Children = slices.Clone(p.kids[f.kids:])
		p.kids = p.kids[:f.kids]
	}
	p.stack = p.stack[:top]
	return p.closed(n), nil
}

// closed hands a finished element to its parent, or returns it if it has
// none.
func (p *parser) closed(n *Node) *Node {
	if len(p.stack) == 0 {
		return n
	}
	p.kids = append(p.kids, n)
	return nil
}

// addText appends one run of character data to the innermost open element;
// outside the root it is dropped. The element's text is trimmed when it
// closes, so whitespace ahead of the first visible character can go now,
// which keeps the indentation between children from ever being concatenated.
// An element with one run keeps it as the substring it is; from the second
// run on its text is joined in p.text, which grows like any slice: a frame
// of n runs must cost O(n), and text += run would cost O(n²).
func (p *parser) addText(run string) {
	if len(p.stack) == 0 || run == "" {
		return
	}
	f := &p.stack[len(p.stack)-1]
	if f.text == "" {
		f.text = strings.TrimLeftFunc(run, unicode.IsSpace)
		return
	}
	if f.more == len(p.text) {
		p.text = append(p.text, f.text...)
	}
	p.text = append(p.text, run...)
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
		return nil

	case strings.HasPrefix(s[at:], "<![CDATA["):
		p.i = at + 9
		end := strings.Index(s[p.i:], "]]>")
		if end < 0 {
			return p.fail(at, "unterminated CDATA section")
		}
		end += p.i
		text, err := p.chars(end, 0, true)
		if err != nil {
			return err
		}
		p.addText(text)
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
// input.
func (p *parser) chars(limit int, quote byte, cdata bool) (string, error) {
	s := p.s[:limit]
	start, i := p.i, p.i
	var (
		buf     = p.buf[:0]
		decoded = false
		from    = i // s[from:i] is read but not yet in buf
		run     = i // where the current stretch without a reference began: "]]>" must fit in one
	)
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
			var err error
			if buf, i, err = p.reference(buf, i); err != nil {
				return "", err
			}
			decoded, from, run = true, i, i
		case c == '\r':
			buf = append(append(buf, s[from:i]...), '\n')
			i++
			if i < len(s) && s[i] == '\n' {
				i++
			}
			decoded, from = true, i
		case c == '>':
			if quote == 0 && i-run >= 2 && s[i-1] == ']' && s[i-2] == ']' {
				return "", p.fail(i-2, "]]> outside a CDATA section")
			}
			i++
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
	p.i = i
	if !decoded {
		return s[start:i], nil
	}
	buf = append(buf, s[from:i]...)
	p.buf = buf
	return string(buf), nil
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
