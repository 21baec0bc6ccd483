package scenario

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file is a small YAML-subset decoder — just enough structure for
// scenario files, with zero module dependencies. Supported:
//
//   - `key: value` scalars and `key:` nested blocks (2-space indents)
//   - `- ` list items (scalar items, or map items whose further keys
//     align two columns past the dash)
//   - one-level flow maps `{latency: 10ms, bandwidth: 98304}` and flow
//     lists `[a, b]`
//   - full-line and trailing `# comments`
//
// Decoding is strict: unknown fields, malformed durations, tabs in
// indentation and type mismatches are errors that name the line.

// node is the generic parse tree.
type node struct {
	kind   int // 0 scalar, 1 map, 2 list
	scalar string
	keys   []string
	vals   []*node
	items  []*node
	line   int
}

const (
	scalarNode = iota
	mapNode
	listNode
)

func (n *node) child(key string) *node {
	for i, k := range n.keys {
		if k == key {
			return n.vals[i]
		}
	}
	return nil
}

type parser struct {
	lines []string
	pos   int
}

type parseErr struct {
	line int
	msg  string
}

func (e *parseErr) Error() string { return fmt.Sprintf("scenario: line %d: %s", e.line, e.msg) }

func errAt(line int, format string, args ...any) error {
	return &parseErr{line: line, msg: fmt.Sprintf(format, args...)}
}

// stripComment removes a trailing comment: a '#' at the start of the
// content or preceded by whitespace.
func stripComment(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '#' && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t') {
			return s[:i]
		}
	}
	return s
}

// peek returns the next significant line's indent and content without
// consuming it; ok=false at EOF.
func (p *parser) peek() (indent int, content string, lineNo int, ok bool, err error) {
	for p.pos < len(p.lines) {
		raw := p.lines[p.pos]
		trimmed := strings.TrimRight(stripComment(raw), " \t")
		if strings.TrimSpace(trimmed) == "" {
			p.pos++
			continue
		}
		ind := 0
		for ind < len(trimmed) && trimmed[ind] == ' ' {
			ind++
		}
		if ind < len(trimmed) && trimmed[ind] == '\t' {
			return 0, "", 0, false, errAt(p.pos+1, "tab in indentation (use spaces)")
		}
		return ind, trimmed[ind:], p.pos + 1, true, nil
	}
	return 0, "", 0, false, nil
}

// parseBlock parses the block at exactly indent level ind.
func (p *parser) parseBlock(ind int) (*node, error) {
	indent, content, lineNo, ok, err := p.peek()
	if err != nil {
		return nil, err
	}
	if !ok || indent < ind {
		return nil, errAt(lineNo, "expected a block")
	}
	if strings.HasPrefix(content, "- ") || content == "-" {
		return p.parseList(indent)
	}
	return p.parseMap(indent)
}

func (p *parser) parseMap(ind int) (*node, error) {
	m := &node{kind: mapNode}
	for {
		indent, content, lineNo, ok, err := p.peek()
		if err != nil {
			return nil, err
		}
		if !ok || indent < ind {
			return m, nil
		}
		if indent > ind {
			return nil, errAt(lineNo, "unexpected indent")
		}
		if m.line == 0 {
			m.line = lineNo
		}
		if strings.HasPrefix(content, "- ") || content == "-" {
			return nil, errAt(lineNo, "list item where a mapping key was expected")
		}
		key, rest, err := splitKey(content, lineNo)
		if err != nil {
			return nil, err
		}
		for _, k := range m.keys {
			if k == key {
				return nil, errAt(lineNo, "duplicate key %q", key)
			}
		}
		p.pos++ // consume the key line
		var val *node
		if rest == "" {
			// Nested block (or an empty map if nothing deeper follows).
			nIndent, _, _, nOK, err := p.peek()
			if err != nil {
				return nil, err
			}
			if nOK && nIndent > ind {
				val, err = p.parseBlock(nIndent)
				if err != nil {
					return nil, err
				}
			} else {
				val = &node{kind: mapNode, line: lineNo}
			}
		} else {
			val, err = parseFlow(rest, lineNo)
			if err != nil {
				return nil, err
			}
		}
		m.keys = append(m.keys, key)
		m.vals = append(m.vals, val)
	}
}

func (p *parser) parseList(ind int) (*node, error) {
	l := &node{kind: listNode}
	for {
		indent, content, lineNo, ok, err := p.peek()
		if err != nil {
			return nil, err
		}
		if !ok || indent < ind {
			return l, nil
		}
		if indent > ind {
			return nil, errAt(lineNo, "unexpected indent")
		}
		if l.line == 0 {
			l.line = lineNo
		}
		if !strings.HasPrefix(content, "- ") && content != "-" {
			return nil, errAt(lineNo, "expected a list item")
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(content, "-"), " ")
		if rest == "" {
			return nil, errAt(lineNo, "empty list item")
		}
		if _, _, kerr := splitKey(rest, lineNo); kerr == nil {
			// Map item: rewrite the dash as indentation so the item's
			// first key aligns with any continuation keys two columns in.
			p.lines[p.pos] = strings.Repeat(" ", indent+2) + rest
			item, err := p.parseMap(indent + 2)
			if err != nil {
				return nil, err
			}
			l.items = append(l.items, item)
			continue
		}
		// Scalar item.
		p.pos++
		item, err := parseFlow(rest, lineNo)
		if err != nil {
			return nil, err
		}
		l.items = append(l.items, item)
	}
}

// splitKey splits "key: rest"; an error means the content is not a
// mapping entry.
func splitKey(content string, lineNo int) (key, rest string, err error) {
	i := strings.Index(content, ":")
	if i <= 0 {
		return "", "", errAt(lineNo, "expected 'key: value', got %q", content)
	}
	key = strings.TrimSpace(content[:i])
	if key == "" || strings.ContainsAny(key, " {}[],") {
		return "", "", errAt(lineNo, "bad mapping key in %q", content)
	}
	rest = strings.TrimSpace(content[i+1:])
	return key, rest, nil
}

// parseFlow parses a scalar, a one-level `{k: v, …}` flow map, or a
// `[a, b]` flow list of scalars.
func parseFlow(s string, lineNo int) (*node, error) {
	s = strings.TrimSpace(s)
	switch {
	case strings.HasPrefix(s, "{"):
		if !strings.HasSuffix(s, "}") {
			return nil, errAt(lineNo, "unterminated flow map %q", s)
		}
		m := &node{kind: mapNode, line: lineNo}
		body := strings.TrimSpace(s[1 : len(s)-1])
		if body == "" {
			return m, nil
		}
		for _, part := range strings.Split(body, ",") {
			key, rest, err := splitKey(strings.TrimSpace(part), lineNo)
			if err != nil {
				return nil, err
			}
			if rest == "" || strings.ContainsAny(rest, "{}[]") {
				return nil, errAt(lineNo, "flow maps hold scalars only, got %q", part)
			}
			for _, k := range m.keys {
				if k == key {
					return nil, errAt(lineNo, "duplicate key %q", key)
				}
			}
			m.keys = append(m.keys, key)
			m.vals = append(m.vals, &node{kind: scalarNode, scalar: rest, line: lineNo})
		}
		return m, nil
	case strings.HasPrefix(s, "["):
		if !strings.HasSuffix(s, "]") {
			return nil, errAt(lineNo, "unterminated flow list %q", s)
		}
		l := &node{kind: listNode, line: lineNo}
		body := strings.TrimSpace(s[1 : len(s)-1])
		if body == "" {
			return l, nil
		}
		for _, part := range strings.Split(body, ",") {
			v := strings.TrimSpace(part)
			if v == "" || strings.ContainsAny(v, "{}[]") {
				return nil, errAt(lineNo, "flow lists hold scalars only, got %q", part)
			}
			l.items = append(l.items, &node{kind: scalarNode, scalar: v, line: lineNo})
		}
		return l, nil
	case strings.ContainsAny(s, "{}[]"):
		return nil, errAt(lineNo, "stray flow punctuation in %q", s)
	default:
		return &node{kind: scalarNode, scalar: s, line: lineNo}, nil
	}
}

// parseTree parses the whole document into a map node.
func parseTree(data []byte) (*node, error) {
	p := &parser{lines: strings.Split(string(data), "\n")}
	indent, _, lineNo, ok, err := p.peek()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, errAt(1, "empty scenario")
	}
	if indent != 0 {
		return nil, errAt(lineNo, "top level must not be indented")
	}
	root, err := p.parseMap(0)
	if err != nil {
		return nil, err
	}
	if _, content, lineNo, ok, _ := p.peek(); ok {
		return nil, errAt(lineNo, "trailing content %q", content)
	}
	return root, nil
}

// ---- typed mapping -------------------------------------------------------

// Decode parses and validates a scenario file.
func Decode(data []byte) (*Scenario, error) {
	root, err := parseTree(data)
	if err != nil {
		return nil, err
	}
	sc := &Scenario{}
	if err := decodeValue(root, reflect.ValueOf(sc).Elem(), "scenario"); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// decodeValue is the whole schema: it walks the parse tree and a value of
// the scenario structs side by side. A mapping fills a struct by its yaml
// tags (an unknown key is an error), a list appends to a slice, a pointer
// is allocated when its key is present, and everything else is a scalar.
// v must be addressable; where names the key being decoded.
func decodeValue(n *node, v reflect.Value, where string) error {
	if ok, err := decodeScalar(n, v.Addr().Interface(), where); ok {
		return err
	}
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return decodeValue(n, v.Elem(), where)
	case reflect.Slice:
		if n.kind != listNode {
			return errAt(n.line, "%s: expected a list", where)
		}
		for _, item := range n.items {
			elem := reflect.New(v.Type().Elem()).Elem()
			if err := decodeValue(item, elem, where); err != nil {
				return err
			}
			v.Set(reflect.Append(v, elem))
		}
		return nil
	case reflect.Struct:
		return decodeStruct(n, v, where)
	}
	panic("scenario: no decoder for " + v.Type().String()) // a schema bug, not an input
}

// decodeStruct fills v from a mapping. Tag forms: `yaml:"key"`;
// `yaml:"key,default=s"`, the scalar s decoded before the mapping's own
// keys; `yaml:"prefix*"` on a map field, which takes every key with that
// prefix.
func decodeStruct(n *node, v reflect.Value, where string) error {
	if n.kind != mapNode {
		return errAt(n.line, "%s: expected a mapping", where)
	}
	fields := map[string]reflect.Value{}
	var known []string
	var wild reflect.Value
	var wildPrefix string
	for i := 0; i < v.NumField(); i++ {
		tag, ok := v.Type().Field(i).Tag.Lookup("yaml")
		if !ok {
			continue
		}
		key, def, hasDefault := strings.Cut(tag, ",default=")
		known = append(known, key)
		if prefix, ok := strings.CutSuffix(key, "*"); ok {
			wild, wildPrefix = v.Field(i), prefix
			continue
		}
		fields[key] = v.Field(i)
		if hasDefault {
			if err := decodeValue(&node{scalar: def, line: n.line}, v.Field(i), key); err != nil {
				return err
			}
		}
	}
	for i, k := range n.keys {
		f, ok := fields[k]
		inWild := !ok && wild.IsValid() && strings.HasPrefix(k, wildPrefix)
		if inWild {
			f = reflect.New(wild.Type().Elem()).Elem()
		} else if !ok {
			sort.Strings(known)
			return errAt(n.vals[i].line, "%s: unknown field %q (known: %s)", where, k, strings.Join(known, ", "))
		}
		if err := decodeValue(n.vals[i], f, k); err != nil {
			return err
		}
		if inWild {
			if wild.IsNil() {
				wild.Set(reflect.MakeMap(wild.Type()))
			}
			wild.SetMapIndex(reflect.ValueOf(k), f)
		}
	}
	return nil
}

// decodeScalar is the one scalar hook: dst points at a field of one of the
// scalar types below, or ok is false and the caller descends.
func decodeScalar(n *node, dst any, where string) (ok bool, err error) {
	s := n.scalar
	switch dst := dst.(type) {
	case *string:
		*dst = s
	case *int:
		if *dst, err = strconv.Atoi(s); err != nil {
			err = errAt(n.line, "%s: bad integer %q", where, s)
		}
	case *int64:
		if *dst, err = strconv.ParseInt(s, 10, 64); err != nil {
			err = errAt(n.line, "%s: bad integer %q", where, s)
		}
	case *float64:
		if *dst, err = strconv.ParseFloat(s, 64); err != nil {
			err = errAt(n.line, "%s: bad number %q", where, s)
		}
	case *bool:
		if *dst = s == "true"; !*dst && s != "false" {
			err = errAt(n.line, "%s: bad boolean %q", where, s)
		}
	case *time.Duration:
		if *dst, err = time.ParseDuration(s); err != nil {
			err = errAt(n.line, "%s: bad duration %q", where, s)
		} else if *dst < 0 {
			err = errAt(n.line, "%s: negative duration %q", where, s)
		}
	case *Rate:
		if *dst, err = parseRate(s); err != nil {
			err = errAt(n.line, "%s: %v", where, err)
		}
	case *Budget:
		if *dst, err = parseBudget(s); err != nil {
			err = errAt(n.line, "%s: %v", where, err)
		}
	default:
		return false, nil
	}
	if n.kind != scalarNode {
		err = errAt(n.line, "%s: expected a scalar", where)
	}
	return true, err
}

// parseRate parses "0.8x" (capacity factor), "120/s" or "120"
// (absolute requests/sec).
func parseRate(s string) (Rate, error) {
	s = strings.TrimSpace(s)
	if strings.HasSuffix(s, "x") {
		f, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
		if err != nil || f <= 0 {
			return Rate{}, fmt.Errorf("bad capacity factor %q", s)
		}
		return Rate{Factor: f}, nil
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "/s"), 64)
	if err != nil || v <= 0 {
		return Rate{}, fmt.Errorf("bad rate %q (want '0.8x', '120/s' or '120')", s)
	}
	return Rate{PerSec: v}, nil
}

// parseBudget parses "10x" (service-time factor) or a duration.
func parseBudget(s string) (Budget, error) {
	s = strings.TrimSpace(s)
	if strings.HasSuffix(s, "x") {
		f, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
		if err != nil || f <= 0 {
			return Budget{}, fmt.Errorf("bad service-time factor %q", s)
		}
		return Budget{Factor: f}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return Budget{}, fmt.Errorf("bad budget %q (want '10x' or a duration)", s)
	}
	return Budget{Duration: d}, nil
}
