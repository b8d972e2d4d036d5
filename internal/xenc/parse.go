package xenc

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"pathfinder/internal/bat"
)

// LoadDocument reads an XML document to its end, shreds it into the
// pre|size|level encoding and registers it in the store under the given
// URI. It returns the document node. Whitespace-only text is dropped
// (boundary-space strip), matching the load behaviour the paper's storage
// numbers assume. On a scratch view every document entry point loads into
// the base: a document outlives the request that named it.
func (s *Store) LoadDocument(uri string, r io.Reader) (bat.NodeRef, error) {
	doc, err := readAll(r)
	if err != nil {
		return bat.NodeRef{}, fmt.Errorf("parse %q: %w", uri, err)
	}
	return s.LoadDocumentString(uri, doc)
}

// LoadDocumentString is LoadDocument over a document already in memory,
// which the tokenizer reads in place. Like LoadDocument it refuses a URI
// that is already registered — the catalog layer depends on name
// uniqueness; use ReplaceDocument(String) to rebind a name explicitly.
func (s *Store) LoadDocumentString(uri, doc string) (bat.NodeRef, error) {
	if s.base != nil {
		return s.base.LoadDocumentString(uri, doc)
	}
	if _, err := s.Doc(uri); err == nil {
		return bat.NodeRef{}, fmt.Errorf("document %q already loaded", uri)
	}
	f, err := s.shred(uri, doc)
	if err != nil {
		return bat.NodeRef{}, err
	}
	id, err := s.registerDoc(uri, f)
	if err != nil {
		return bat.NodeRef{}, err
	}
	return bat.NodeRef{Frag: id, Pre: 0}, nil
}

// ReplaceDocumentString is ReplaceDocument over a document in memory.
func (s *Store) ReplaceDocumentString(uri, doc string) (bat.NodeRef, error) {
	if s.base != nil {
		return s.base.ReplaceDocumentString(uri, doc)
	}
	f, err := s.shred(uri, doc)
	if err != nil {
		return bat.NodeRef{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.frags.push(f)
	s.docs[uri] = id
	return bat.NodeRef{Frag: id, Pre: 0}, nil
}

// readAll reads r to its end. A strings.Builder hands its buffer over as
// the string, so the document is not copied once more.
func readAll(r io.Reader) (string, error) {
	var sb strings.Builder
	_, err := io.Copy(&sb, r)
	return sb.String(), err
}

// shred tokenizes one XML document into a sealed fragment without touching
// the document registry; the Load and Replace entry points wrap it with
// their registration policies.
//
// The columns are reserved from two byte counts: every element and comment
// starts with '<' and at most one text node precedes each, and every stored
// attribute has its '='. fit then drops what the estimate left over.
func (s *Store) shred(uri, doc string) (*Fragment, error) {
	f := &Fragment{Name: uri}
	f.reserve(strings.Count(doc, "<")+2, strings.Count(doc, "="))
	t := tokenizer{
		store:  s,
		sh:     shredder{frag: f},
		uri:    uri,
		doc:    doc,
		tagIDs: make(map[string]int32),
		attrAt: make(map[string]int32),
	}
	if err := t.run(); err != nil {
		return nil, err
	}
	f.fit()
	f.sealAttrs()
	return f, nil
}

// tokenizer reads a document held in a string and hands each node to the
// shredder as it is recognized: no token values are built in between.
// Character data without a reference or a CR is interned as a slice of
// the document, and everything else is decoded into buf first.
//
// It accepts the documents a strict encoding/xml RawToken loop accepts
// (shredReference, in the tests) — the same names, references, quoting and
// character checks, the same treatment of CDATA sections, comments,
// processing instructions and DOCTYPE declarations — and adds the
// well-formedness constraints that loop does not check: end tags must match
// their start tags, an attribute may appear once per element, and every
// character, including one named by a character reference, must be an XML
// Char.
type tokenizer struct {
	store *Store
	sh    shredder
	uri   string
	doc   string
	pos   int

	names  []string         // names of the open elements, innermost last
	tagIDs map[string]int32 // tag name → surrogate: the pool once per name
	attrAt map[string]int32 // attribute name → its entry in attrs
	attrs  []attrName
	buf    []byte          // decoded character data
	arena  strings.Builder // copies of the document's strings that were new to a pool
}

// arenaChunk bounds the allocations that hold the strings a load adds to
// the pools.
const arenaChunk = 64 << 10

// intern returns the surrogate of s, a slice of the document, in pool p.
// Only a string new to the pool is copied, so the pools never keep the
// document alive; the copy goes into the load's arena, so a load allocates
// per chunk of new strings rather than per string.
func (t *tokenizer) intern(p *pool, s string) int32 {
	if id, ok := p.cached(s); ok {
		return id
	}
	if t.arena.Cap()-t.arena.Len() < len(s) {
		t.arena.Reset()
		t.arena.Grow(max(len(s), min(len(t.doc), arenaChunk)))
	}
	n := t.arena.Len()
	t.arena.WriteString(s)
	return p.Put(t.arena.String()[n:])
}

// attrName is what one load knows of an attribute name.
type attrName struct {
	id    int32 // surrogate; -1 for a namespace declaration, which is not stored
	owner int32 // pre of the last element that carried it, for duplicates
}

// run tokenizes the whole document.
func (t *tokenizer) run() error {
	if !utf8.ValidString(t.doc) {
		i := 0
		for {
			r, n := utf8.DecodeRuneInString(t.doc[i:])
			if r == utf8.RuneError && n == 1 {
				return t.errorf(i, "invalid UTF-8")
			}
			i += n
		}
	}
	t.sh.openNode(KindDoc, 0)
	for t.pos < len(t.doc) {
		var err error
		if t.doc[t.pos] == '<' {
			err = t.markup()
		} else {
			err = t.text()
		}
		if err != nil {
			return err
		}
	}
	if n := len(t.names); n > 0 {
		return t.errorf(len(t.doc), "element <%s> is not closed", t.names[n-1])
	}
	t.sh.closeNode()
	return nil
}

func (t *tokenizer) errorf(at int, format string, args ...any) error {
	line := 1 + strings.Count(t.doc[:at], "\n")
	return fmt.Errorf("parse %q: line %d: %s", t.uri, line, fmt.Sprintf(format, args...))
}

// markup dispatches on what follows the '<' at t.pos.
func (t *tokenizer) markup() error {
	rest := t.doc[t.pos+1:]
	switch {
	case rest == "":
		return t.errorf(t.pos, "unexpected end of input after <")
	case rest[0] == '/':
		return t.endTag()
	case rest[0] == '?':
		return t.procInst()
	case strings.HasPrefix(rest, "!--"):
		return t.comment()
	case strings.HasPrefix(rest, "![CDATA["):
		return t.cdata()
	case strings.HasPrefix(rest, "!-"), strings.HasPrefix(rest, "!["):
		return t.errorf(t.pos, "invalid <! sequence")
	case rest[0] == '!':
		return t.directive()
	}
	return t.startTag()
}

// skipSpace moves past XML whitespace.
func (t *tokenizer) skipSpace() {
	for t.pos < len(t.doc) {
		switch t.doc[t.pos] {
		case ' ', '\t', '\r', '\n':
			t.pos++
		default:
			return
		}
	}
}

// startTag reads <name attr="value" …> or <name …/>, opening the element
// before its attributes are read.
func (t *tokenizer) startTag() error {
	start := t.pos
	end := nameEnd(t.doc, start+1)
	if end == start+1 {
		return t.errorf(start, "expected element name after <")
	}
	tag := t.doc[start+1 : end]
	id, ok := t.tagIDs[tag]
	if !ok {
		if !isQName(tag) {
			return t.errorf(start, "invalid element name %q", tag)
		}
		id = t.intern(t.store.tags, tag)
		t.tagIDs[tag] = id
	}
	pre := t.sh.openNode(KindElem, id)
	t.pos = end
	for {
		t.skipSpace()
		if t.pos >= len(t.doc) {
			return t.errorf(start, "unexpected end of input in <%s>", tag)
		}
		switch t.doc[t.pos] {
		case '>':
			t.pos++
			t.names = append(t.names, tag)
			return nil
		case '/':
			if !strings.HasPrefix(t.doc[t.pos:], "/>") {
				return t.errorf(t.pos, "expected /> in <%s>", tag)
			}
			t.pos += 2
			t.sh.closeNode()
			return nil
		}
		if err := t.attribute(pre); err != nil {
			return err
		}
	}
}

// attribute reads name="value" (or 'value') at t.pos for element pre.
// Attributes whose name starts with "xmlns" are namespace declarations:
// checked like any other, not stored.
func (t *tokenizer) attribute(pre int32) error {
	start := t.pos
	end := nameEnd(t.doc, start)
	if end == start {
		return t.errorf(start, "expected attribute name")
	}
	name := t.doc[start:end]
	k, ok := t.attrAt[name]
	if !ok {
		if !isQName(name) {
			return t.errorf(start, "invalid attribute name %q", name)
		}
		a := attrName{id: -1, owner: -1}
		if !strings.HasPrefix(name, "xmlns") {
			a.id = t.intern(t.store.attrNames, name)
		}
		k = int32(len(t.attrs))
		t.attrs = append(t.attrs, a)
		t.attrAt[name] = k
	}
	a := &t.attrs[k]
	if a.owner == pre {
		return t.errorf(start, "duplicate attribute %s", name)
	}
	a.owner = pre
	t.pos = end
	t.skipSpace()
	if t.pos >= len(t.doc) || t.doc[t.pos] != '=' {
		return t.errorf(start, "attribute %s without =", name)
	}
	t.pos++
	t.skipSpace()
	if t.pos >= len(t.doc) || charClass[t.doc[t.pos]] != ccQuote {
		return t.errorf(start, "unquoted value of attribute %s", name)
	}
	quote := t.doc[t.pos]
	t.pos++
	vstart := t.pos
	plain := true
	for ; t.pos < len(t.doc) && t.doc[t.pos] != quote; t.pos++ {
		switch charClass[t.doc[t.pos]] {
		case ccLT:
			return t.errorf(t.pos, "unescaped < in the value of attribute %s", name)
		case ccAmp, ccCR:
			plain = false
		case ccCtl:
			return t.errorf(t.pos, "illegal character %U", rune(t.doc[t.pos]))
		case ccEF:
			if nonChar(t.doc, t.pos) {
				return t.errorf(t.pos, "illegal character U+FFFE or U+FFFF")
			}
		}
	}
	if t.pos >= len(t.doc) {
		return t.errorf(start, "unterminated value of attribute %s", name)
	}
	raw := t.doc[vstart:t.pos]
	t.pos++
	if a.id < 0 {
		if plain {
			return nil
		}
		return t.decode(raw, vstart, true)
	}
	var val int32
	if plain {
		val = t.intern(t.store.attrVals, raw)
	} else {
		if err := t.decode(raw, vstart, true); err != nil {
			return err
		}
		val = t.store.attrVals.Put(string(t.buf))
	}
	t.sh.addAttr(pre, a.id, val)
	return nil
}

// endTag reads </name>, which must close the innermost open element.
func (t *tokenizer) endTag() error {
	start := t.pos
	end := nameEnd(t.doc, start+2)
	if end == start+2 {
		return t.errorf(start, "expected element name after </")
	}
	name := t.doc[start+2 : end]
	n := len(t.names)
	if n == 0 {
		return t.errorf(start, "end tag </%s> without a start tag", name)
	}
	if name != t.names[n-1] {
		return t.errorf(start, "element <%s> closed by </%s>", t.names[n-1], name)
	}
	t.pos = end
	t.skipSpace()
	if t.pos >= len(t.doc) || t.doc[t.pos] != '>' {
		return t.errorf(start, "expected > to end </%s", name)
	}
	t.pos++
	t.names = t.names[:n-1]
	t.sh.closeNode()
	return nil
}

// text reads character data up to the next '<'. A run that holds no
// reference and no CR is interned as the slice itself; a blank one is
// dropped.
func (t *tokenizer) text() error {
	s, start := t.doc, t.pos
	blank, plain, ascii := true, true, true
	i := start
scan:
	for ; i < len(s); i++ {
		switch charClass[s[i]] {
		case ccText, ccQuote:
			blank = false
		case ccSpace:
		case ccLT:
			break scan
		case ccGT:
			if i-start >= 2 && s[i-1] == ']' && s[i-2] == ']' {
				return t.errorf(i, "]]> outside a CDATA section")
			}
			blank = false
		case ccAmp, ccCR:
			plain = false
		case ccHigh:
			ascii = false
		case ccEF:
			if nonChar(s, i) {
				return t.errorf(i, "illegal character U+FFFE or U+FFFF")
			}
			ascii = false
		case ccCtl:
			return t.errorf(i, "illegal character %U", rune(s[i]))
		}
	}
	t.pos = i
	raw := s[start:i]
	if plain {
		if !blank || !ascii && strings.TrimSpace(raw) != "" {
			t.sh.leaf(KindText, t.intern(t.store.texts, raw))
		}
		return nil
	}
	if err := t.decode(raw, start, true); err != nil {
		return err
	}
	if len(bytes.TrimSpace(t.buf)) > 0 {
		t.sh.leaf(KindText, t.store.texts.Put(string(t.buf)))
	}
	return nil
}

// decode writes the character data raw, which starts at offset at, into
// buf: CR and CRLF become LF and, when refs is set, each entity or
// character reference becomes its character.
func (t *tokenizer) decode(raw string, at int, refs bool) error {
	buf := t.buf[:0]
	for i := 0; i < len(raw); i++ {
		switch c := raw[i]; {
		case c == '\r':
			buf = append(buf, '\n')
			if i+1 < len(raw) && raw[i+1] == '\n' {
				i++
			}
		case c == '&' && refs:
			r, n := reference(raw[i:])
			if n == 0 {
				ref, _, _ := strings.Cut(raw[i:], ";")
				return t.errorf(at+i, "invalid reference %.16q", ref)
			}
			buf = utf8.AppendRune(buf, r)
			i += n - 1
		default:
			buf = append(buf, c)
		}
	}
	t.buf = buf
	return nil
}

// reference decodes the reference at the start of s — one of the five
// predefined entities, &#decimal; or &#xhex; naming an XML Char — and
// returns its character and length; length 0 when it is none of these.
func reference(s string) (rune, int) {
	if !strings.HasPrefix(s, "&#") {
		for _, e := range predefined {
			if strings.HasPrefix(s, e.ref) {
				return e.r, len(e.ref)
			}
		}
		return 0, 0
	}
	i, base := 2, rune(10)
	if strings.HasPrefix(s, "&#x") {
		i, base = 3, 16
	}
	digits := i
	var r rune
	for ; i < len(s); i++ {
		d := digitVal(s[i])
		if d >= base {
			break
		}
		if r <= utf8.MaxRune {
			r = r*base + d
		}
	}
	if i == digits || i == len(s) || s[i] != ';' || !legalChar(r) {
		return 0, 0
	}
	return r, i + 1
}

var predefined = [...]struct {
	ref string
	r   rune
}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}}

// digitVal is the value of a hexadecimal digit, 16 for any other byte.
func digitVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return 16
}

// cdata reads <![CDATA[…]]> as a text node of its own: no references, line
// ends normalized, dropped when blank.
func (t *tokenizer) cdata() error {
	body := t.pos + len("<![CDATA[")
	j := strings.Index(t.doc[body:], "]]>")
	if j < 0 {
		return t.errorf(t.pos, "unterminated CDATA section")
	}
	raw := t.doc[body : body+j]
	if k := illegalChar(raw); k >= 0 {
		return t.errorf(body+k, "illegal character in CDATA section")
	}
	t.pos = body + j + len("]]>")
	if strings.TrimSpace(raw) == "" {
		return nil
	}
	if strings.IndexByte(raw, '\r') < 0 {
		t.sh.leaf(KindText, t.intern(t.store.texts, raw))
		return nil
	}
	if err := t.decode(raw, body, false); err != nil {
		return err
	}
	t.sh.leaf(KindText, t.store.texts.Put(string(t.buf)))
	return nil
}

// comment reads <!--…-->, whose body may not contain "--", as a comment
// node holding the body as written.
func (t *tokenizer) comment() error {
	body := t.pos + len("<!--")
	j := strings.Index(t.doc[body:], "--")
	if j < 0 || body+j+2 >= len(t.doc) {
		return t.errorf(t.pos, "unterminated comment")
	}
	if t.doc[body+j+2] != '>' {
		return t.errorf(body+j, `"--" inside a comment`)
	}
	raw := t.doc[body : body+j]
	if k := illegalChar(raw); k >= 0 {
		return t.errorf(body+k, "illegal character in comment")
	}
	t.pos = body + j + len("-->")
	t.sh.leaf(KindComment, t.intern(t.store.texts, raw))
	return nil
}

// procInst skips <?target …?>. An XML declaration (target xml) must not
// declare a version other than 1.0 or an encoding other than UTF-8; its
// pseudo-attributes are read the way encoding/xml reads them.
func (t *tokenizer) procInst() error {
	start := t.pos
	end := nameEnd(t.doc, start+2)
	target := t.doc[start+2 : end]
	if !isName(target) {
		return t.errorf(start, "expected target name after <?")
	}
	t.pos = end
	t.skipSpace()
	j := strings.Index(t.doc[t.pos:], "?>")
	if j < 0 {
		return t.errorf(start, "unterminated processing instruction")
	}
	body := t.doc[t.pos : t.pos+j]
	if k := illegalChar(body); k >= 0 {
		return t.errorf(t.pos+k, "illegal character in processing instruction")
	}
	t.pos += j + len("?>")
	if target == "xml" {
		if v := pseudoAttr(body, "version"); v != "" && v != "1.0" {
			return t.errorf(start, "unsupported XML version %q", v)
		}
		if e := pseudoAttr(body, "encoding"); e != "" && !strings.EqualFold(e, "utf-8") {
			return t.errorf(start, "unsupported encoding %q: documents must be UTF-8", e)
		}
	}
	return nil
}

// pseudoAttr returns the quoted value that follows the first `name=`
// directly followed by a quote in the body of an XML declaration, "" if
// there is none.
func pseudoAttr(body, name string) string {
	key := name + "="
	for i := 0; i < len(body); {
		k := strings.Index(body[i:], key)
		if k < 0 || i+k+len(key) >= len(body) {
			return ""
		}
		i += k + len(key)
		if q := body[i]; q == '"' || q == '\'' {
			v, _, ok := strings.Cut(body[i+1:], string(q))
			if !ok {
				return ""
			}
			return v
		}
		i++
	}
	return ""
}

// directive skips <!DOCTYPE …> and any other <!…> declaration: a '>' inside
// quotes or closing a nested '<' does not end it, and <!--…--> inside it is
// skipped whole. The byte after "<!" is taken as it stands.
func (t *tokenizer) directive() error {
	start, s := t.pos, t.doc
	i := start + 3 // past "<!" and the byte after it
	var quote byte
	depth := 0
	pending := false // c was read by the <!-- probe and is still to be classified
	var c byte
	for {
		if !pending {
			if i >= len(s) {
				return t.errorf(start, "unterminated declaration")
			}
			c = s[i]
			i++
			if quote == 0 && c == '>' && depth == 0 {
				break
			}
		}
		pending = false
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '>':
			depth--
		case c == '<':
			for k := 0; k < len("!--") && !pending; k++ {
				if i >= len(s) {
					return t.errorf(start, "unterminated declaration")
				}
				c = s[i]
				i++
				if c != "!--"[k] {
					depth++
					pending = true
				}
			}
			if pending {
				continue
			}
			j := strings.Index(s[i:], "-->")
			if j < 0 {
				return t.errorf(start, "unterminated comment in declaration")
			}
			i += j + len("-->")
		}
	}
	if k := illegalChar(s[start:i]); k >= 0 {
		return t.errorf(start+k, "illegal character in declaration")
	}
	t.pos = i
	return nil
}

// shredder appends nodes to a fragment maintaining the pre/size/level
// invariants with an open-node stack.
type shredder struct {
	frag *Fragment
	open []int32 // stack of pre ranks of currently open nodes
}

// leaf appends a node of the given kind/prop with no children at the
// current position and returns its pre rank.
func (b *shredder) leaf(kind NodeKind, prop int32) int32 {
	f := b.frag
	pre := int32(len(f.Size))
	parent := int32(-1)
	level := int32(0)
	if len(b.open) > 0 {
		parent = b.open[len(b.open)-1]
		level = f.Level[parent] + 1
	}
	f.Size = append(f.Size, 0)
	f.Level = append(f.Level, level)
	f.Kind = append(f.Kind, kind)
	f.Prop = append(f.Prop, prop)
	f.Parent = append(f.Parent, parent)
	return pre
}

// openNode appends a node like leaf and pushes it onto the open stack. Its
// size is fixed by closeNode.
func (b *shredder) openNode(kind NodeKind, prop int32) int32 {
	pre := b.leaf(kind, prop)
	b.open = append(b.open, pre)
	return pre
}

// closeNode pops the innermost open node and fixes its size.
func (b *shredder) closeNode() {
	pre := b.open[len(b.open)-1]
	b.open = b.open[:len(b.open)-1]
	b.frag.Size[pre] = int32(len(b.frag.Size)) - pre - 1
}

// addAttr records an attribute for the (still open) element pre.
func (b *shredder) addAttr(pre, nameID, valID int32) {
	f := b.frag
	f.AttrOwner = append(f.AttrOwner, pre)
	f.AttrName = append(f.AttrName, nameID)
	f.AttrVal = append(f.AttrVal, valID)
}
