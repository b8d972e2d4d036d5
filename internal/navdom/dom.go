// Package navdom is the reproduction's stand-in for X-Hive/DB, the
// navigational XML database Pathfinder is compared against in Table 3 of
// the paper. It evaluates the same XQuery Core as the relational engine,
// but the way the paper characterizes navigational engines: node-at-a-time
// pointer chasing over a DOM, FLWORs as recursive nested loops, no bulk
// algebra. Like the paper's tuned X-Hive installation, it supports value
// indices on element/attribute paths, which its interpreter uses for
// equality-where clauses over indexed attributes.
package navdom

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
)

// NodeKind classifies DOM nodes.
type NodeKind uint8

// Node kinds.
const (
	Doc NodeKind = iota
	Elem
	Text
	Comment
	Attr
)

// Node is one DOM node. Document order is the Ord field, assigned in
// construction order; nodes from different trees order by DocID first.
type Node struct {
	Kind     NodeKind
	Name     string // tag (Elem), attribute name (Attr)
	Text     string // content (Text/Comment), value (Attr)
	Parent   *Node
	Children []*Node
	Attrs    []*Node

	DocID int
	Ord   int
}

// Before reports document order between any two nodes.
func (n *Node) Before(m *Node) bool {
	if n.DocID != m.DocID {
		return n.DocID < m.DocID
	}
	return n.Ord < m.Ord
}

// Root walks to the tree root.
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// StringValue is the XPath string value.
func (n *Node) StringValue() string {
	switch n.Kind {
	case Text, Comment, Attr:
		return n.Text
	default:
		var sb strings.Builder
		var walk func(*Node)
		walk = func(x *Node) {
			if x.Kind == Text {
				sb.WriteString(x.Text)
			}
			for _, c := range x.Children {
				walk(c)
			}
		}
		walk(n)
		return sb.String()
	}
}

// DB holds loaded documents and value indices.
type DB struct {
	docs    map[string]*Node
	nextDoc int
	indices map[string]map[string][]*Node // "elem/@attr" → value → elements
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{docs: make(map[string]*Node), indices: make(map[string]map[string][]*Node)}
}

// Doc returns a loaded document root.
func (db *DB) Doc(uri string) (*Node, error) {
	d, ok := db.docs[uri]
	if !ok {
		return nil, fmt.Errorf("fn:doc: document %q not loaded", uri)
	}
	return d, nil
}

// DocsInOrder returns the loaded document roots in load order (ascending
// DocID) — the DOM-side mirror of the store's shard manifest order, used
// by fn:collection.
func (db *DB) DocsInOrder() []*Node {
	out := make([]*Node, 0, len(db.docs))
	for _, d := range db.docs {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DocID < out[j].DocID })
	return out
}

// nextDocID hands out tree identifiers (loaded documents and constructed
// trees alike).
func (db *DB) nextDocID() int {
	db.nextDoc++
	return db.nextDoc
}

// Load parses a document into the DOM, mirroring the shredder's
// conventions (whitespace-only text dropped, namespace declarations
// skipped). It reads through encoding/xml, not the shredder's tokenizer,
// so the oracle does not share the engine's front door; it adds the two
// checks RawToken lacks that the tokenizer makes: an end tag must match
// its start tag, and no attribute may appear twice on an element.
func (db *DB) Load(uri string, r io.Reader) (*Node, error) {
	if _, ok := db.docs[uri]; ok {
		return nil, fmt.Errorf("document %q already loaded", uri)
	}
	docID := db.nextDocID()
	ord := 0
	doc := &Node{Kind: Doc, DocID: docID, Ord: ord}
	cur := doc
	dec := xml.NewDecoder(r)
	for {
		tok, err := dec.RawToken()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", uri, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			for i, a := range t.Attr {
				for _, prev := range t.Attr[:i] {
					if qname(a.Name) == qname(prev.Name) {
						return nil, fmt.Errorf("parse %q: duplicate attribute %s", uri, qname(a.Name))
					}
				}
			}
			ord++
			el := &Node{Kind: Elem, Name: qname(t.Name), Parent: cur, DocID: docID, Ord: ord}
			for _, a := range t.Attr {
				if strings.HasPrefix(qname(a.Name), "xmlns") {
					continue
				}
				ord++
				el.Attrs = append(el.Attrs, &Node{
					Kind: Attr, Name: qname(a.Name), Text: a.Value,
					Parent: el, DocID: docID, Ord: ord,
				})
			}
			cur.Children = append(cur.Children, el)
			cur = el
		case xml.EndElement:
			// RawToken does not pair tags; the open element's name is the
			// top of the name stack the Parent chain forms.
			if cur == doc || cur.Name != qname(t.Name) {
				return nil, fmt.Errorf("parse %q: unmatched end tag </%s>", uri, qname(t.Name))
			}
			cur = cur.Parent
		case xml.CharData:
			txt := string(t)
			if strings.TrimSpace(txt) == "" {
				continue
			}
			ord++
			cur.Children = append(cur.Children, &Node{
				Kind: Text, Text: txt, Parent: cur, DocID: docID, Ord: ord,
			})
		case xml.Comment:
			ord++
			cur.Children = append(cur.Children, &Node{
				Kind: Comment, Text: string(t), Parent: cur, DocID: docID, Ord: ord,
			})
		}
	}
	if cur != doc {
		return nil, fmt.Errorf("parse %q: dangling open elements", uri)
	}
	db.docs[uri] = doc
	return doc, nil
}

// LoadString is Load over a string.
func (db *DB) LoadString(uri, doc string) (*Node, error) {
	return db.Load(uri, strings.NewReader(doc))
}

func qname(n xml.Name) string {
	if n.Space != "" {
		return n.Space + ":" + n.Local
	}
	return n.Local
}

// AddValueIndex builds a value index over elem/@attr paths — the
// counterpart of the X-Hive tuning described in §3.2 of the paper.
func (db *DB) AddValueIndex(elem, attr string) {
	key := elem + "/@" + attr
	idx := make(map[string][]*Node)
	for _, doc := range db.docs {
		var walk func(*Node)
		walk = func(n *Node) {
			if n.Kind == Elem && n.Name == elem {
				for _, a := range n.Attrs {
					if a.Name == attr {
						idx[a.Text] = append(idx[a.Text], n)
					}
				}
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(doc)
	}
	db.indices[key] = idx
}

// lookupIndex returns indexed elements with the given attribute value, and
// whether the index exists.
func (db *DB) lookupIndex(elem, attr, value string) ([]*Node, bool) {
	idx, ok := db.indices[elem+"/@"+attr]
	if !ok {
		return nil, false
	}
	return idx[value], true
}

// HasIndex reports whether a value index exists for elem/@attr.
func (db *DB) HasIndex(elem, attr string) bool {
	_, ok := db.indices[elem+"/@"+attr]
	return ok
}

// Serialize renders a node as XML text with the same escaping rules as the
// relational post-processor (so differential tests can compare strings).
func Serialize(n *Node) string {
	var sb strings.Builder
	serializeTo(&sb, n)
	return sb.String()
}

func serializeTo(sb *strings.Builder, n *Node) {
	switch n.Kind {
	case Doc:
		for _, c := range n.Children {
			serializeTo(sb, c)
		}
	case Elem:
		sb.WriteByte('<')
		sb.WriteString(n.Name)
		for _, a := range n.Attrs {
			sb.WriteByte(' ')
			sb.WriteString(a.Name)
			sb.WriteString(`="`)
			escapeAttr(sb, a.Text)
			sb.WriteByte('"')
		}
		if len(n.Children) == 0 {
			sb.WriteString("/>")
			return
		}
		sb.WriteByte('>')
		for _, c := range n.Children {
			serializeTo(sb, c)
		}
		sb.WriteString("</")
		sb.WriteString(n.Name)
		sb.WriteByte('>')
	case Text:
		escapeText(sb, n.Text)
	case Comment:
		sb.WriteString("<!--")
		sb.WriteString(n.Text)
		sb.WriteString("-->")
	case Attr:
		sb.WriteString(n.Name)
		sb.WriteString(`="`)
		escapeAttr(sb, n.Text)
		sb.WriteByte('"')
	}
}

func escapeText(sb *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '&':
			sb.WriteString("&amp;")
		case '<':
			sb.WriteString("&lt;")
		case '>':
			sb.WriteString("&gt;")
		case '\r':
			sb.WriteString("&#xD;")
		default:
			sb.WriteRune(r)
		}
	}
}

func escapeAttr(sb *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '&':
			sb.WriteString("&amp;")
		case '<':
			sb.WriteString("&lt;")
		case '"':
			sb.WriteString("&quot;")
		case '\t':
			sb.WriteString("&#x9;")
		case '\n':
			sb.WriteString("&#xA;")
		case '\r':
			sb.WriteString("&#xD;")
		default:
			sb.WriteRune(r)
		}
	}
}
