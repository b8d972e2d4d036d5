package xenc

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// shredReference is the document loader the tokenizer replaced, kept as
// the reference it is checked against: encoding/xml's strict RawToken loop
// feeding the shredder one token at a time. It adds the checks that loop
// lacked and the tokenizer makes, each from outside the decoder, so that
// both accept exactly the same documents:
//
//   - Element Type Match: a stack of open names pairs every end tag;
//   - Unique Att Spec: no attribute name twice in one start tag;
//   - Legal Character: the document is UTF-8 and every character an XML
//     Char — encoding/xml checks character data and names only, not
//     comments, processing instructions or declarations — and no character
//     reference names a surrogate, which encoding/xml turns into U+FFFD.
func shredReference(s *Store, uri, doc string) (*Fragment, error) {
	if err := referenceChars(doc); err != nil {
		return nil, fmt.Errorf("parse %q: %w", uri, err)
	}
	f := &Fragment{Name: uri}
	b := shredder{frag: f}
	b.openNode(KindDoc, 0)

	dec := xml.NewDecoder(strings.NewReader(doc))
	var open []string
	for {
		from := dec.InputOffset()
		tok, err := dec.RawToken()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", uri, err)
		}
		raw := doc[from:dec.InputOffset()] // the token as written
		switch t := tok.(type) {
		case xml.StartElement:
			name := qname(t.Name)
			for i, a := range t.Attr {
				for _, prev := range t.Attr[:i] {
					if qname(a.Name) == qname(prev.Name) {
						return nil, fmt.Errorf("parse %q: duplicate attribute %s", uri, qname(a.Name))
					}
				}
			}
			if surrogateRef(raw) {
				return nil, fmt.Errorf("parse %q: reference to a surrogate in <%s>", uri, name)
			}
			pre := b.openNode(KindElem, s.tags.Put(name))
			for _, a := range t.Attr {
				if strings.HasPrefix(qname(a.Name), "xmlns") {
					continue
				}
				b.addAttr(pre, s.attrNames.Put(qname(a.Name)), s.attrVals.Put(a.Value))
			}
			open = append(open, name)
		case xml.EndElement:
			// RawToken does not pair tags.
			if len(open) == 0 || open[len(open)-1] != qname(t.Name) {
				return nil, fmt.Errorf("parse %q: unmatched end tag </%s>", uri, qname(t.Name))
			}
			open = open[:len(open)-1]
			b.closeNode()
		case xml.CharData:
			if !strings.HasPrefix(raw, "<![CDATA[") && surrogateRef(raw) {
				return nil, fmt.Errorf("parse %q: reference to a surrogate", uri)
			}
			txt := string(t)
			if strings.TrimSpace(txt) == "" {
				continue
			}
			b.openNode(KindText, s.texts.Put(txt))
			b.closeNode()
		case xml.Comment:
			b.openNode(KindComment, s.texts.Put(string(t)))
			b.closeNode()
		case xml.ProcInst, xml.Directive:
			// skipped: not part of the supported data model subset
		}
	}
	if len(open) != 0 {
		return nil, fmt.Errorf("parse %q: dangling open elements", uri)
	}
	b.closeNode() // document node
	f.sealAttrs()
	return f, nil
}

func qname(n xml.Name) string {
	// Namespace prefixes are kept as written (RawToken does not resolve
	// them); the supported dialect treats QNames as opaque strings.
	if n.Space != "" {
		return n.Space + ":" + n.Local
	}
	return n.Local
}

// referenceChars is the Legal Character check over the whole document,
// written against the XML Char production directly.
func referenceChars(doc string) error {
	if !utf8.ValidString(doc) {
		return fmt.Errorf("invalid UTF-8")
	}
	for _, r := range doc {
		if !(r == 0x09 || r == 0x0A || r == 0x0D || r >= 0x20 && r <= 0xD7FF ||
			r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF) {
			return fmt.Errorf("illegal character %U", r)
		}
	}
	return nil
}

// surrogateRef reports whether raw — a start tag or character data the
// decoder accepted, so every "&#" in it begins a well-formed reference —
// refers to a surrogate.
func surrogateRef(raw string) bool {
	for {
		i := strings.Index(raw, "&#")
		if i < 0 {
			return false
		}
		raw = raw[i+2:]
		base := 10
		if strings.HasPrefix(raw, "x") {
			raw, base = raw[1:], 16
		}
		digits, _, _ := strings.Cut(raw, ";")
		if n, err := strconv.ParseUint(digits, base, 64); err == nil && n >= 0xD800 && n <= 0xDFFF {
			return true
		}
	}
}
