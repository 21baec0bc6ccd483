package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// This file is the parser xmltree shipped until the hand-written scanner in
// parse.go replaced it: encoding/xml's token stream folded into a Node tree.
// The function bodies are unchanged; only the names carry a "reference"
// prefix. It stays as the oracle FuzzParse holds the scanner to, so it must
// not be "fixed" — a behaviour worth changing is changed in parse.go and
// named in FuzzParse's divergence table.

// referenceParse reads one XML element tree from r. Namespaces are flattened
// to local names, comments and processing instructions are skipped, and text
// runs are whitespace-trimmed and concatenated.
func referenceParse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, ErrEmpty
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: %w", err)
		}
		if start, ok := tok.(xml.StartElement); ok {
			return referenceParseElement(dec, start)
		}
	}
}

// referenceParseString is referenceParse over an in-memory document.
func referenceParseString(s string) (*Node, error) {
	return referenceParse(strings.NewReader(s))
}

func referenceParseElement(dec *xml.Decoder, start xml.StartElement) (*Node, error) {
	n := &Node{Name: start.Name.Local}
	for _, a := range start.Attr {
		if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
			continue
		}
		n.SetAttr(a.Name.Local, a.Value)
	}
	var text strings.Builder
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmltree: unterminated element <%s>: %w", n.Name, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			child, err := referenceParseElement(dec, t)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, child)
		case xml.EndElement:
			n.Text = strings.TrimSpace(text.String())
			return n, nil
		case xml.CharData:
			text.Write(t)
		}
	}
}
