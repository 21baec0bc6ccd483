// Package xpath implements the XPath fragment the GUPster paper adopts for
// expressing schema coverage (§4.5): absolute paths over the child axis with
// an optional final attribute axis and limited predicates — attribute
// existence tests and attribute/value equality tests. The fragment excludes
// the descendant axis, positional predicates, and functions, which is what
// keeps containment decidable in polynomial time (cf. Deutsch & Tannen,
// "Containment and Integrity Constraints for XPath Fragments").
//
// Grammar:
//
//	path  = "/" step { "/" step } [ "/@" name ]
//	step  = ( name | "*" ) { pred }
//	pred  = "[" "@" name [ "=" "'" value "'" ] "]"
//
// Examples from the paper:
//
//	/user[@id='arnaud']/address-book
//	/user[@id='arnaud']/address-book/item[@type='personal']
package xpath

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"gupster/internal/xmltree"
)

// Pred is one predicate in a step: an attribute existence test (@a) or an
// attribute equality test (@a='v').
type Pred struct {
	Attr     string
	Value    string
	HasValue bool
}

func (p Pred) String() string {
	var b strings.Builder
	b.Grow(p.renderedLen())
	p.writeTo(&b)
	return b.String()
}

func (p Pred) renderedLen() int {
	if p.HasValue {
		return len("[@='']") + len(p.Attr) + len(p.Value)
	}
	return len("[@]") + len(p.Attr)
}

func (p Pred) writeTo(b *strings.Builder) {
	b.WriteString("[@")
	b.WriteString(p.Attr)
	if p.HasValue {
		b.WriteString("='")
		b.WriteString(p.Value)
		b.WriteByte('\'')
	}
	b.WriteByte(']')
}

// comparePreds is the canonical predicate order: by attribute, an
// existence test before the equality tests on the same attribute, then by
// value.
func comparePreds(a, b Pred) int {
	if a.Attr != b.Attr {
		return strings.Compare(a.Attr, b.Attr)
	}
	if a.HasValue != b.HasValue {
		if a.HasValue {
			return 1
		}
		return -1
	}
	return strings.Compare(a.Value, b.Value)
}

// matches reports whether a node satisfies the predicate.
func (p Pred) matches(n *xmltree.Node) bool {
	v, ok := n.Attr(p.Attr)
	if !ok {
		return false
	}
	return !p.HasValue || v == p.Value
}

// implies reports whether p being true guarantees q is true.
func (p Pred) implies(q Pred) bool {
	if p.Attr != q.Attr {
		return false
	}
	if !q.HasValue {
		return true // any test on @a implies existence of @a
	}
	return p.HasValue && p.Value == q.Value
}

// Step is one location step: an element name test (or "*") plus predicates.
type Step struct {
	Name  string // element name, or "*" for any element
	Preds []Pred
}

func (s Step) String() string {
	var b strings.Builder
	b.Grow(s.renderedLen())
	s.writeTo(&b)
	return b.String()
}

func (s Step) renderedLen() int {
	n := len(s.Name)
	for _, p := range s.Preds {
		n += p.renderedLen()
	}
	return n
}

// writeTo renders the step with its predicates in canonical order. Only a
// step with several predicates is sorted, on a stack copy when it has a
// few; equal predicates render identically, so the sort need not be stable.
func (s Step) writeTo(b *strings.Builder) {
	b.WriteString(s.Name)
	preds := s.Preds
	if len(preds) > 1 {
		var local [8]Pred
		preds = append(local[:0], preds...)
		slices.SortFunc(preds, comparePreds)
	}
	for _, p := range preds {
		p.writeTo(b)
	}
}

// Matches reports whether a node satisfies the step's name test and every
// predicate.
func (s Step) Matches(n *xmltree.Node) bool {
	if s.Name != "*" && s.Name != n.Name {
		return false
	}
	for _, p := range s.Preds {
		if !p.matches(n) {
			return false
		}
	}
	return true
}

// Contains reports whether s matches every node that t matches — i.e. t is
// at least as restrictive as s. s="*" subsumes any name; every predicate of
// s must be implied by some predicate of t.
func (s Step) Contains(t Step) bool {
	if s.Name != "*" && s.Name != t.Name {
		return false
	}
	for _, sp := range s.Preds {
		implied := false
		for _, tp := range t.Preds {
			if tp.implies(sp) {
				implied = true
				break
			}
		}
		if !implied {
			return false
		}
	}
	return true
}

// unsatisfiable reports whether the step's predicates contradict each other
// (two different required values for the same attribute). An unsatisfiable
// step matches no node, so the whole path is empty.
func (s Step) unsatisfiable() bool {
	vals := make(map[string]string)
	for _, p := range s.Preds {
		if !p.HasValue {
			continue
		}
		if v, ok := vals[p.Attr]; ok && v != p.Value {
			return true
		}
		vals[p.Attr] = p.Value
	}
	return false
}

// Path is a parsed expression of the coverage fragment.
type Path struct {
	Steps []Step
	// Attr, when non-empty, selects the named attribute of the nodes the
	// element path reaches (final attribute axis).
	Attr string
}

// String renders the canonical form: predicates within each step are sorted,
// so two equivalent parses render identically. Parse(p.String()) == p. The
// rendering is sized first and written into one buffer, which is the
// string's only allocation.
func (p Path) String() string {
	n := 0
	for _, s := range p.Steps {
		n += 1 + s.renderedLen()
	}
	if p.Attr != "" {
		n += len("/@") + len(p.Attr)
	}
	var b strings.Builder
	b.Grow(n)
	for _, s := range p.Steps {
		b.WriteByte('/')
		s.writeTo(&b)
	}
	if p.Attr != "" {
		b.WriteString("/@")
		b.WriteString(p.Attr)
	}
	return b.String()
}

// IsZero reports whether the path is empty (unparsed zero value).
func (p Path) IsZero() bool { return len(p.Steps) == 0 && p.Attr == "" }

// Depth returns the number of element steps.
func (p Path) Depth() int { return len(p.Steps) }

// Empty reports whether the path can match no node regardless of document
// (some step carries contradictory equality predicates).
func (p Path) Empty() bool {
	for _, s := range p.Steps {
		if s.unsatisfiable() {
			return true
		}
	}
	return false
}

// Child returns p extended by one step.
func (p Path) Child(s Step) Path {
	steps := make([]Step, len(p.Steps)+1)
	copy(steps, p.Steps)
	steps[len(p.Steps)] = s
	return Path{Steps: steps, Attr: p.Attr}
}

// Prefix returns the path truncated to its first n element steps, with no
// attribute selection.
func (p Path) Prefix(n int) Path {
	if n > len(p.Steps) {
		n = len(p.Steps)
	}
	steps := make([]Step, n)
	copy(steps, p.Steps[:n])
	return Path{Steps: steps}
}

// ErrSyntax wraps all parse failures.
var ErrSyntax = errors.New("xpath: syntax error")

// Parse parses an expression of the coverage fragment.
func Parse(expr string) (Path, error) {
	p := &parser{in: expr}
	path, err := p.parse()
	if err != nil {
		return Path{}, fmt.Errorf("%w: %s in %q", ErrSyntax, err, expr)
	}
	return path, nil
}

// MustParse parses or panics; for tests and static fixtures.
func MustParse(expr string) Path {
	p, err := Parse(expr)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	in  string
	pos int
}

func (p *parser) parse() (Path, error) {
	var path Path
	if !p.eat('/') {
		return Path{}, errors.New("path must be absolute (start with '/')")
	}
	for {
		if p.peek() == '@' {
			p.pos++
			name, err := p.name()
			if err != nil {
				return Path{}, err
			}
			path.Attr = name
			break
		}
		step, err := p.step()
		if err != nil {
			return Path{}, err
		}
		path.Steps = append(path.Steps, step)
		if p.pos >= len(p.in) {
			break
		}
		if !p.eat('/') {
			return Path{}, fmt.Errorf("unexpected %q at offset %d", p.peek(), p.pos)
		}
	}
	if len(path.Steps) == 0 {
		return Path{}, errors.New("path has no steps")
	}
	if p.pos != len(p.in) {
		return Path{}, fmt.Errorf("trailing input at offset %d", p.pos)
	}
	return path, nil
}

func (p *parser) step() (Step, error) {
	var s Step
	if p.peek() == '*' {
		p.pos++
		s.Name = "*"
	} else {
		name, err := p.name()
		if err != nil {
			return Step{}, err
		}
		s.Name = name
	}
	for p.peek() == '[' {
		pred, err := p.pred()
		if err != nil {
			return Step{}, err
		}
		s.Preds = append(s.Preds, pred)
	}
	return s, nil
}

func (p *parser) pred() (Pred, error) {
	p.pos++ // '['
	if !p.eat('@') {
		return Pred{}, errors.New("predicate must test an attribute (@name)")
	}
	attr, err := p.name()
	if err != nil {
		return Pred{}, err
	}
	pred := Pred{Attr: attr}
	if p.eat('=') {
		if !p.eat('\'') {
			return Pred{}, errors.New("predicate value must be single-quoted")
		}
		start := p.pos
		for p.pos < len(p.in) && p.in[p.pos] != '\'' {
			p.pos++
		}
		if p.pos >= len(p.in) {
			return Pred{}, errors.New("unterminated string literal")
		}
		pred.Value = p.in[start:p.pos]
		pred.HasValue = true
		p.pos++ // closing quote
	}
	if !p.eat(']') {
		return Pred{}, errors.New("missing ']'")
	}
	return pred, nil
}

func (p *parser) name() (string, error) {
	start := p.pos
	for p.pos < len(p.in) && isNameChar(p.in[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("expected name at offset %d", start)
	}
	return p.in[start:p.pos], nil
}

func isNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '-' || c == '_' || c == '.' || c == ':'
}

func (p *parser) eat(c byte) bool {
	if p.pos < len(p.in) && p.in[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *parser) peek() byte {
	if p.pos < len(p.in) {
		return p.in[p.pos]
	}
	return 0
}
