// Package schema implements the GUP information model (paper §3.2.3 and
// Figure 6): a user profile is a collection of components linked by the
// identity they refer to, and every component is a subtree of one global,
// standardized profile schema (§4.4). The package provides the schema
// definition language, the standard GUP schema, document validation,
// request-path validation (the "filter out spurious queries" duty of the
// MDM, §5.3), and tolerant schema evolution (§4.4).
package schema

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// AttrDef declares an attribute an element may (or must) carry.
type AttrDef struct {
	Name     string
	Required bool
}

// Element is one node of the schema tree.
type Element struct {
	// Name is the element name ("*" is not allowed in schemas).
	Name string
	// Attrs are the declared attributes.
	Attrs []AttrDef
	// Children are the declared child element types.
	Children []*Element
	// Repeatable marks elements that may occur any number of times under
	// their parent (e.g. address-book items). Non-repeatable elements may
	// occur at most once.
	Repeatable bool
	// Required marks elements that must be present in a valid instance.
	Required bool
	// TextAllowed permits text content.
	TextAllowed bool
	// Open permits undeclared child elements and attributes — the schema
	// evolution escape hatch the paper calls "more tolerant to evolutions".
	Open bool
	// Component marks this element as a unit of storage and access control
	// (a GUP profile component, Figure 6).
	Component bool
}

func (e *Element) child(name string) *Element {
	for _, c := range e.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func (e *Element) attr(name string) *AttrDef {
	for i := range e.Attrs {
		if e.Attrs[i].Name == name {
			return &e.Attrs[i]
		}
	}
	return nil
}

// Schema is a versioned profile schema.
type Schema struct {
	Root    *Element
	Version int
}

// ErrInvalid wraps all validation failures.
var ErrInvalid = errors.New("schema: invalid")

// Validate checks a document instance against the schema, starting at the
// root element. It returns the first violation found, wrapped in ErrInvalid,
// or nil.
func (s *Schema) Validate(doc *xmltree.Node) error {
	if doc == nil {
		return fmt.Errorf("%w: nil document", ErrInvalid)
	}
	var names [16]string
	return validateAt(s.Root, doc, names[:0])
}

// ValidateComponent checks a document fragment whose root corresponds to the
// schema element at the given path (e.g. an <address-book> fragment against
// /user/address-book). This is what data stores run on incoming updates.
func (s *Schema) ValidateComponent(path xpath.Path, frag *xmltree.Node) error {
	el, err := s.elementAt(path)
	if err != nil {
		return err
	}
	if frag == nil {
		return fmt.Errorf("%w: nil fragment", ErrInvalid)
	}
	var names [16]string
	return validateAt(el, frag, names[:0])
}

// validateAt checks n against el. names holds the element names from the
// checked root down to n's parent; they become a location only in an error.
// Callers start it on a stack array deep enough for the schema, so the walk
// does not allocate.
func validateAt(el *Element, n *xmltree.Node, names []string) error {
	names = append(names, n.Name)
	if el.Name != n.Name {
		return fmt.Errorf("%w: element <%s> at %s, schema expects <%s>", ErrInvalid, n.Name, loc(names), el.Name)
	}
	for _, a := range el.Attrs {
		if _, ok := n.Attr(a.Name); a.Required && !ok {
			return fmt.Errorf("%w: missing required attribute %q on %s", ErrInvalid, a.Name, loc(names))
		}
	}
	if !el.Open {
		for name := range n.Attrs {
			if el.attr(name) == nil {
				return fmt.Errorf("%w: undeclared attribute %q on %s", ErrInvalid, name, loc(names))
			}
		}
		if n.Text != "" && !el.TextAllowed {
			return fmt.Errorf("%w: unexpected text content in %s", ErrInvalid, loc(names))
		}
	}
	// seen counts n's children per declared child type, by schema index.
	var counts [16]int
	seen := append(counts[:0], make([]int, len(el.Children))...)
	for _, c := range n.Children {
		j := slices.IndexFunc(el.Children, func(ce *Element) bool { return ce.Name == c.Name })
		if j < 0 {
			if el.Open {
				continue
			}
			return fmt.Errorf("%w: undeclared element <%s> in %s", ErrInvalid, c.Name, loc(names))
		}
		ce := el.Children[j]
		seen[j]++
		if seen[j] > 1 && !ce.Repeatable {
			return fmt.Errorf("%w: element <%s> repeated in %s", ErrInvalid, c.Name, loc(names))
		}
		if err := validateAt(ce, c, names); err != nil {
			return err
		}
	}
	for j, ce := range el.Children {
		if ce.Required && seen[j] == 0 {
			return fmt.Errorf("%w: missing required element <%s> in %s", ErrInvalid, ce.Name, loc(names))
		}
	}
	return nil
}

// loc renders a path of element names as validation errors show it.
func loc(names []string) string { return "/" + strings.Join(names, "/") }

// ValidatePath checks that a request path can possibly select something in
// an instance of the schema: each step names a declared element (wildcards
// match any declared child) and each predicate references a declared
// attribute. This is the MDM's spurious-query filter (§5.3).
func (s *Schema) ValidatePath(p xpath.Path) error {
	if len(p.Steps) == 0 {
		return fmt.Errorf("%w: empty path", ErrInvalid)
	}
	first := p.Steps[0]
	if first.Name != "*" && first.Name != s.Root.Name {
		return fmt.Errorf("%w: path %s does not start at <%s>", ErrInvalid, p, s.Root.Name)
	}
	// The elements a step may land on alternate between two stack arrays.
	var scratch [2][8]*Element
	els := append(scratch[0][:0], s.Root)
	if err := checkStepAttrs(first, els); err != nil {
		return fmt.Errorf("%w: %s in %s", ErrInvalid, err, p)
	}
	for i, step := range p.Steps[1:] {
		next := scratch[(i+1)%2][:0]
		for _, el := range els {
			if step.Name == "*" {
				next = append(next, el.Children...)
				if el.Open {
					// An open element admits anything below.
					return nil
				}
			} else if c := el.child(step.Name); c != nil {
				next = append(next, c)
			} else if el.Open {
				return nil
			}
		}
		if len(next) == 0 {
			return fmt.Errorf("%w: path %s: no element <%s> at that position", ErrInvalid, p, step.Name)
		}
		if err := checkStepAttrs(step, next); err != nil {
			return fmt.Errorf("%w: %s in %s", ErrInvalid, err, p)
		}
		els = next
	}
	if p.Attr != "" {
		ok := false
		for _, el := range els {
			if el.Open || el.attr(p.Attr) != nil {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("%w: path %s: attribute %q not declared", ErrInvalid, p, p.Attr)
		}
	}
	return nil
}

func checkStepAttrs(step xpath.Step, candidates []*Element) error {
	for _, pred := range step.Preds {
		ok := false
		for _, el := range candidates {
			if el.Open || el.attr(pred.Attr) != nil {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("predicate attribute %q not declared on <%s>", pred.Attr, step.Name)
		}
	}
	return nil
}

// elementAt resolves a non-wildcard path to its schema element.
func (s *Schema) elementAt(p xpath.Path) (*Element, error) {
	if len(p.Steps) == 0 {
		return nil, fmt.Errorf("%w: empty path", ErrInvalid)
	}
	if p.Steps[0].Name != s.Root.Name {
		return nil, fmt.Errorf("%w: path %s does not start at <%s>", ErrInvalid, p, s.Root.Name)
	}
	el := s.Root
	for _, step := range p.Steps[1:] {
		c := el.child(step.Name)
		if c == nil {
			if el.Open {
				return &Element{Name: step.Name, Open: true}, nil
			}
			return nil, fmt.Errorf("%w: path %s: no element <%s>", ErrInvalid, p, step.Name)
		}
		el = c
	}
	return el, nil
}

// IsComponent reports whether the path lands exactly on a declared component
// boundary.
func (s *Schema) IsComponent(p xpath.Path) bool {
	el, err := s.elementAt(p)
	return err == nil && el.Component
}

// ComponentPaths returns the canonical paths (relative to the root, without
// user predicates) of all declared components, in schema order.
func (s *Schema) ComponentPaths() []xpath.Path {
	var out []xpath.Path
	var walk func(el *Element, steps []xpath.Step)
	walk = func(el *Element, steps []xpath.Step) {
		here := append(append([]xpath.Step{}, steps...), xpath.Step{Name: el.Name})
		if el.Component {
			out = append(out, xpath.Path{Steps: here})
		}
		for _, c := range el.Children {
			walk(c, here)
		}
	}
	walk(s.Root, nil)
	return out
}

// Extend returns a copy of the schema with a new optional, open element
// grafted at the given parent path, and the version bumped. This is the
// "local and global extensions" mechanism the paper's conclusion asks for.
func (s *Schema) Extend(parent xpath.Path, name string, repeatable bool) (*Schema, error) {
	clone := s.clone()
	el, err := clone.elementAt(parent)
	if err != nil {
		return nil, err
	}
	if el.child(name) != nil {
		return nil, fmt.Errorf("%w: element <%s> already declared under %s", ErrInvalid, name, parent)
	}
	el.Children = append(el.Children, &Element{
		Name: name, Repeatable: repeatable, Open: true, TextAllowed: true,
	})
	clone.Version = s.Version + 1
	return clone, nil
}

func (s *Schema) clone() *Schema {
	var cp func(*Element) *Element
	cp = func(e *Element) *Element {
		out := &Element{
			Name: e.Name, Repeatable: e.Repeatable, Required: e.Required,
			TextAllowed: e.TextAllowed, Open: e.Open, Component: e.Component,
		}
		out.Attrs = append([]AttrDef(nil), e.Attrs...)
		for _, c := range e.Children {
			out.Children = append(out.Children, cp(c))
		}
		return out
	}
	return &Schema{Root: cp(s.Root), Version: s.Version}
}

// CompatibleWith reports whether documents valid under s are also valid
// under t — true when t's version is ≥ s's and t declares a superset of s's
// elements. The implementation walks both trees in parallel.
func (s *Schema) CompatibleWith(t *Schema) bool {
	var sub func(a, b *Element) bool
	sub = func(a, b *Element) bool {
		if a.Name != b.Name {
			return false
		}
		for _, aa := range a.Attrs {
			if b.attr(aa.Name) == nil && !b.Open {
				return false
			}
		}
		for _, ba := range b.Attrs {
			if ba.Required {
				if sa := a.attr(ba.Name); sa == nil || !sa.Required {
					return false
				}
			}
		}
		for _, ac := range a.Children {
			bc := b.child(ac.Name)
			if bc == nil {
				if !b.Open {
					return false
				}
				continue
			}
			if ac.Repeatable && !bc.Repeatable {
				return false
			}
			if !sub(ac, bc) {
				return false
			}
		}
		for _, bc := range b.Children {
			if bc.Required && a.child(bc.Name) == nil {
				return false
			}
		}
		return true
	}
	return sub(s.Root, t.Root)
}

// String renders a compact outline of the schema for diagnostics.
func (s *Schema) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema v%d\n", s.Version)
	var walk func(e *Element, depth int)
	walk = func(e *Element, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(e.Name)
		if e.Repeatable {
			b.WriteByte('*')
		}
		if e.Component {
			b.WriteString(" [component]")
		}
		b.WriteByte('\n')
		for _, c := range e.Children {
			walk(c, depth+1)
		}
	}
	walk(s.Root, 0)
	return b.String()
}
