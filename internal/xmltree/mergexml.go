package xmltree

import (
	"hash/maphash"
	"slices"
	"strings"
	"sync"
)

// MergeXML deep-unions components given as XML, earlier pieces winning
// conflicts, and returns the result as compact XML: byte for byte
// MergeAll(keys, ParseString(p)…).String() over the non-empty pieces, and
// "" when there are none. A piece ParseString refuses is refused with the
// same error.
//
// No tree is built. The pieces are scanned by ParseString's scanner into
// its flat index — offsets into the pieces, plus one buffer for the values
// that needed decoding — unioned by unionInto's rules and written by
// appendXML's. An element the merge leaves as it was, and whose bytes the
// scan proved to be what appendXML writes for it (every String output
// qualifies), is copied from its piece as it is; a lone such piece is
// returned as it is.
func MergeXML(keys KeySpec, pieces ...string) (string, error) {
	m := mergers.Get().(*merger)
	defer m.release()
	m.keys, m.pieces = keys, pieces

	for i, s := range pieces {
		if s == "" {
			continue
		}
		m.roots = append(m.roots, int32(len(m.elems)))
		if err := (&scanner{m: m, s: s, piece: int32(i)}).parse(); err != nil {
			return "", err
		}
	}
	if len(m.roots) == 0 {
		return "", nil
	}
	if len(m.buf) > 0 {
		m.dec = string(m.buf)
	}

	out := m.node(m.roots[0])
	for _, r := range m.roots[1:] {
		m.union(out, r)
	}
	if e := m.elems[m.roots[0]]; len(m.roots) == 1 && e.canon {
		return m.raw(&e), nil
	}
	bp := writeBufs.Get().(*[]byte)
	b := m.render((*bp)[:0], out)
	s := string(b)
	if cap(b) <= maxPooledWrite {
		*bp = b
		writeBufs.Put(bp)
	}
	return s, nil
}

// mergers recycles the index ParseString and MergeXML scan into.
// Everything in it is an offset, so a pooled index holds nothing of the
// pieces, the tree or the result.
var mergers = sync.Pool{New: func() any { return new(merger) }}

// maxPooledScratch is the capacity, in elements, past which a slice of the
// index is dropped instead of pinned in the pool.
const maxPooledScratch = 4 << 10

// span locates a value: pieces[piece][from:to] of its element's piece, or
// dec[from:to] when it needed decoding.
type span struct {
	from, to int32
	dec      bool
}

// of returns the value the span locates in piece or dec.
func (sp span) of(piece, dec string) string {
	if sp.dec {
		return dec[sp.from:sp.to]
	}
	return piece[sp.from:sp.to]
}

// xelem is one element of a piece, in document order: its children are the
// elements from its own index+1 up to end, each child's subtree ending
// where the next child starts.
type xelem struct {
	name         span // the local name
	text         span
	attrs, attrN int32 // its attributes, m.attrs[attrs:attrN], sorted by name, one per name
	end          int32 // the index after its subtree
	close        int32 // where its bytes in the piece end
	piece        int32
	canon        bool // its bytes, raw(), are what appendXML writes for it; its name then has no prefix
}

// raw returns the element as it is written in its piece, from the '<'
// right before its name, which must have no prefix.
func (m *merger) raw(e *xelem) string { return m.pieces[e.piece][e.name.from-1 : e.close] }

type xattr struct{ name, value span }

// mnode is one element of the merged tree: the piece elements unioned into
// it, first to last, and its children.
type mnode struct {
	elem       int32 // the first: the name, and everything until another comes
	more, last int32 // the others, a list through m.links (index+1; 0 is none)
	kids, n    int32 // its children, m.kids[kids:kids+n]; kids < 0: elem's own, which no merge has touched
}

type link struct{ elem, next int32 }

type attrRef struct{ elem, attr int32 }

// xsection counts one name among a merged level's unkeyed children, like
// sections': inA on the merged side, where a is the one when inA is 1, and
// inB among the unkeyed children of the element unioned in.
type xsection struct {
	a, inA, inB int32
}

type merger struct {
	elems []xelem
	attrs []xattr
	buf   []byte // decoded values and joined text
	roots []int32

	// The scanner's: its open elements, root first; the joined text of
	// every open element that has more than one run, innermost last; and
	// the bytes of the last value decoded.
	stack   []frame
	text    []byte
	scratch []byte

	nodes []mnode
	links []link
	kids  []int32
	slots []uint64 // the hash tables of the levels being unioned: hash<<32 | entry+1
	secs  []xsection

	// The node being written: its elements and their attributes.
	contrib []int32
	refs    []attrRef

	// Set for one call.
	keys   KeySpec
	pieces []string
	dec    string
}

// release empties m, keeping slices up to maxPooledScratch long, and
// returns it to the pool. They hold no pointer, so they are not cleared.
func (m *merger) release() {
	*m = merger{
		elems: reuse(m.elems), attrs: reuse(m.attrs), buf: reuse(m.buf), roots: reuse(m.roots),
		stack: reuse(m.stack), text: reuse(m.text), scratch: reuse(m.scratch),
		nodes: reuse(m.nodes), links: reuse(m.links), kids: reuse(m.kids),
		slots: reuse(m.slots), secs: reuse(m.secs), contrib: reuse(m.contrib), refs: reuse(m.refs),
	}
	mergers.Put(m)
}

// reuse returns s emptied, or nil if its capacity is past maxPooledScratch.
func reuse[T any](s []T) []T {
	if cap(s) > maxPooledScratch {
		return nil
	}
	return s[:0]
}

// keep copies decoded bytes into the index.
func (m *merger) keep(b []byte) span {
	from := len(m.buf)
	m.buf = append(m.buf, b...)
	return span{from: int32(from), to: int32(len(m.buf)), dec: true}
}

// attrsRead ends element e's start tag in s: its attributes are put in name
// order, the last of a repeated name kept, as ParseString keeps them.
func (m *merger) attrsRead(e int32, s string) {
	el := &m.elems[e]
	as, _ := sortAttrs(m.attrs[el.attrs:], func(a xattr) string { return s[a.name.from:a.name.to] })
	m.attrs = m.attrs[:int(el.attrs)+len(as)]
	el.attrN = int32(len(m.attrs))
}

// The merge's side.

func (m *merger) str(e *xelem, sp span) string { return sp.of(m.pieces[e.piece], m.dec) }

func (m *merger) name(e int32) string { return m.str(&m.elems[e], m.elems[e].name) }

// identity is KeySpec.identity of element e: its name and key value, and
// whether it is keyed.
func (m *merger) identity(e int32) (name, val string, ok bool) {
	el := &m.elems[e]
	name = m.str(el, el.name)
	attr, ok := m.keys[name]
	if !ok {
		return name, "", false
	}
	for _, a := range m.attrs[el.attrs:el.attrN] {
		if m.str(el, a.name) == attr {
			return name, m.str(el, a.value), true
		}
	}
	return name, "", false
}

// node starts a merged node at element e, untouched.
func (m *merger) node(e int32) int32 {
	m.nodes = append(m.nodes, mnode{elem: e, kids: -1})
	return int32(len(m.nodes) - 1)
}

// children returns node a's children as a range of m.kids, giving an
// untouched node one merged node per child element first.
func (m *merger) children(a int32) (from, n int32) {
	if nd := m.nodes[a]; nd.kids >= 0 {
		return nd.kids, nd.n
	}
	from = int32(len(m.kids))
	e := m.nodes[a].elem
	for c := e + 1; c < m.elems[e].end; c = m.elems[c].end {
		m.kids = append(m.kids, m.node(c))
	}
	return from, int32(len(m.kids)) - from
}

var seed = maphash.MakeSeed()

func hash(name, val string) uint32 {
	return uint32(maphash.String(seed, name)*31 ^ maphash.String(seed, val))
}

// table is an open-addressed hash table over m.slots[at:at+mask+1].
type table struct{ at, mask int32 }

// table reserves a table for up to n entries.
func (m *merger) table(n int32) table {
	size := int32(8)
	for size < 2*n {
		size *= 2
	}
	at := int32(len(m.slots))
	m.slots = append(m.slots, make([]uint64, size)...)
	return table{at: at, mask: size - 1}
}

// find returns the entry filed under h that same accepts, or -1 and the
// slot to file it in.
func (m *merger) find(t table, h uint32, same func(int32) bool) (entry, slot int32) {
	for i := int32(h) & t.mask; ; i = (i + 1) & t.mask {
		v := m.slots[t.at+i]
		if v == 0 {
			return -1, t.at + i
		}
		if uint32(v>>32) == h && same(int32(uint32(v))-1) {
			return int32(uint32(v)) - 1, -1
		}
	}
}

func (m *merger) file(slot int32, h uint32, entry int32) {
	m.slots[slot] = uint64(h)<<32 | uint64(entry+1)
}

// findKeyed finds the identity name, val among the keyed children of a
// level, m.kids[keyed:] filed in t: its index there, or -1 and the slot and
// hash to file it under.
func (m *merger) findKeyed(t table, keyed int32, name, val string) (i, slot int32, h uint32) {
	h = hash(name, val)
	i, slot = m.find(t, h, func(i int32) bool {
		n2, v2, _ := m.identity(m.nodes[m.kids[keyed+i]].elem)
		return n2 == name && v2 == val
	})
	return i, slot, h
}

// findSection finds name among the sections of a level, m.secs[base:] filed in
// t: its index in m.secs, or -1 and the slot and hash to file it under.
func (m *merger) findSection(t table, base int, name string) (i, slot int32, h uint32) {
	h = hash(name, "")
	i, slot = m.find(t, h, func(i int32) bool {
		return m.name(m.nodes[m.secs[base+int(i)].a].elem) == name
	})
	if i >= 0 {
		i += int32(base)
	}
	return i, slot, h
}

func (m *merger) keyed(e int32) bool {
	_, _, ok := m.identity(e)
	return ok
}

// union is slab.unionInto for the index: it turns node a into
// DeepUnion(a, b) for element b, with the same child order.
func (m *merger) union(a, b int32) {
	l := int32(len(m.links))
	m.links = append(m.links, link{elem: b})
	if nd := &m.nodes[a]; nd.more == 0 {
		nd.more = l + 1
	} else {
		m.links[nd.last].next = l + 1
	}
	m.nodes[a].last = l

	aFrom, aN := m.children(a)
	eb := m.elems[b]
	bN := int32(0)
	for c := b + 1; c < eb.end; c = m.elems[c].end {
		bN++
	}
	n := aN + bN
	if n == 0 {
		return
	}
	// The unkeyed children gather at out, the keyed ones at keyed; each
	// has room for all n.
	out := int32(len(m.kids))
	keyed := out + n
	m.kids = append(m.kids, make([]int32, 2*n)...)
	nOut, nKeyed := int32(0), int32(0)
	slots, secs := len(m.slots), len(m.secs)
	var index table // made at the first keyed child
	lookup := func(name, val string) (entry, slot int32, h uint32) {
		if index.mask == 0 {
			index = m.table(n)
		}
		return m.findKeyed(index, keyed, name, val)
	}

	for j := range aN {
		c := m.kids[aFrom+j]
		name, val, ok := m.identity(m.nodes[c].elem)
		if !ok {
			m.kids[out+nOut] = c
			nOut++
		} else if i, slot, h := lookup(name, val); i >= 0 {
			m.kids[keyed+i] = c // a key repeated in a: first position, last node
		} else {
			m.file(slot, h, nKeyed)
			m.kids[keyed+nKeyed] = c
			nKeyed++
		}
	}
	unkeyedA, unkeyedB := nOut, int32(0)
	for c := b + 1; c < eb.end; c = m.elems[c].end {
		name, val, ok := m.identity(c)
		if !ok {
			unkeyedB++
		} else if i, slot, h := lookup(name, val); i >= 0 {
			m.union(m.kids[keyed+i], c)
		} else {
			m.file(slot, h, nKeyed)
			m.kids[keyed+nKeyed] = m.node(c)
			nKeyed++
		}
	}

	// Unkeyed children with the same name that appear exactly once on each
	// side are merged structurally; everything else concatenates.
	if unkeyedB > 0 {
		var names table
		if unkeyedA > 0 {
			names = m.table(unkeyedA)
			for j := range unkeyedA {
				c := m.kids[out+j]
				if i, slot, h := m.findSection(names, secs, m.name(m.nodes[c].elem)); i >= 0 {
					m.secs[i].a = c
					m.secs[i].inA++
				} else {
					m.file(slot, h, int32(len(m.secs)-secs))
					m.secs = append(m.secs, xsection{a: c, inA: 1})
				}
			}
			for c := b + 1; c < eb.end; c = m.elems[c].end {
				if !m.keyed(c) {
					if i, _, _ := m.findSection(names, secs, m.name(c)); i >= 0 {
						m.secs[i].inB++
					}
				}
			}
		}
		for c := b + 1; c < eb.end; c = m.elems[c].end {
			if m.keyed(c) {
				continue
			}
			if unkeyedA > 0 {
				if i, _, _ := m.findSection(names, secs, m.name(c)); i >= 0 && m.secs[i].inA == 1 && m.secs[i].inB == 1 {
					m.union(m.secs[i].a, c)
					continue
				}
			}
			m.kids[out+nOut] = m.node(c)
			nOut++
		}
	}
	copy(m.kids[out+nOut:], m.kids[keyed:keyed+nKeyed])
	m.nodes[a].kids, m.nodes[a].n = out, nOut+nKeyed
	m.slots, m.secs = m.slots[:slots], m.secs[:secs]
}

// render appends node h as appendXML writes it.
func (m *merger) render(b []byte, h int32) []byte {
	nd := m.nodes[h]
	if nd.more == 0 && nd.kids < 0 {
		return m.renderElem(b, nd.elem)
	}
	e := &m.elems[nd.elem]
	name := m.str(e, e.name)
	b = append(b, '<')
	b = append(b, name...)

	// Attributes: every contributor's, in name order, the first to carry a
	// name winning; text: the first that is not empty.
	m.contrib = append(m.contrib[:0], nd.elem)
	for l := nd.more; l != 0; l = m.links[l-1].next {
		m.contrib = append(m.contrib, m.links[l-1].elem)
	}
	text := ""
	for _, c := range m.contrib {
		if text != "" {
			break
		}
		text = m.str(&m.elems[c], m.elems[c].text)
	}
	b = m.mergedAttrs(b)

	kids := nd.n
	if nd.kids < 0 {
		kids = e.end - nd.elem - 1
	}
	if text == "" && kids == 0 {
		return append(b, "/>"...)
	}
	b = append(b, '>')
	b = appendEscaped(b, text, false)
	if nd.kids < 0 {
		for c := nd.elem + 1; c < e.end; c = m.elems[c].end {
			b = m.renderElem(b, c)
		}
	} else {
		for _, c := range m.kids[nd.kids : nd.kids+nd.n] {
			b = m.render(b, c)
		}
	}
	b = append(b, "</"...)
	b = append(b, name...)
	return append(b, '>')
}

// mergedAttrs appends the attributes of the elements in m.contrib, first
// to last, as the union writes them.
func (m *merger) mergedAttrs(b []byte) []byte {
	m.refs = m.refs[:0]
	for _, c := range m.contrib {
		for a := m.elems[c].attrs; a < m.elems[c].attrN; a++ {
			m.refs = append(m.refs, attrRef{elem: c, attr: a})
		}
	}
	// Stably sorted by name, the first of a run of one name is the first
	// contributor's.
	name := func(r attrRef) string { return m.str(&m.elems[r.elem], m.attrs[r.attr].name) }
	slices.SortStableFunc(m.refs, func(x, y attrRef) int { return strings.Compare(name(x), name(y)) })
	prev := ""
	for k, r := range m.refs {
		n := name(r)
		if k > 0 && n == prev {
			continue
		}
		prev = n
		b = append(b, ' ')
		b = append(b, n...)
		b = append(b, `="`...)
		b = appendEscaped(b, m.str(&m.elems[r.elem], m.attrs[r.attr].value), true)
		b = append(b, '"')
	}
	return b
}

// renderElem appends element e, which no merge has touched.
func (m *merger) renderElem(b []byte, e int32) []byte {
	el := &m.elems[e]
	if el.canon {
		return append(b, m.raw(el)...)
	}
	name := m.str(el, el.name)
	b = append(b, '<')
	b = append(b, name...)
	for _, a := range m.attrs[el.attrs:el.attrN] {
		b = append(b, ' ')
		b = append(b, m.str(el, a.name)...)
		b = append(b, `="`...)
		b = appendEscaped(b, m.str(el, a.value), true)
		b = append(b, '"')
	}
	text := m.str(el, el.text)
	if text == "" && el.end == e+1 {
		return append(b, "/>"...)
	}
	b = append(b, '>')
	b = appendEscaped(b, text, false)
	for c := e + 1; c < el.end; c = m.elems[c].end {
		b = m.renderElem(b, c)
	}
	b = append(b, "</"...)
	b = append(b, name...)
	return append(b, '>')
}
