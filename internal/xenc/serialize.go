package xenc

import "pathfinder/internal/bat"

// Serialize renders the subtree rooted at n as XML text — the
// post-processor step that maps the relational result encoding back to the
// XQuery data model (§2, "MonetDB" paragraph).
func (s *Store) Serialize(n bat.NodeRef) string {
	return string(s.AppendSerialized(nil, n))
}

// AppendSerialized appends the serialization of n to dst and returns the
// extended buffer, so a caller rendering many nodes can bring (and keep)
// its own buffer. A node of a streamed fragment is written by its
// emitter.
func (s *Store) AppendSerialized(dst []byte, n bat.NodeRef) []byte {
	f := s.frag(n.Frag)
	if f.emit != nil {
		return f.emit.AppendTree(dst, n.Pre)
	}
	if n.Pre >= AttrBase {
		// A top-level attribute serializes as name="value" (useful in the
		// demo tracer; standard serialization would reject it).
		i := n.Pre - AttrBase
		dst = append(dst, s.attrNames.Get(f.AttrName[i])...)
		dst = append(dst, '=', '"')
		dst = EscapeAttr(dst, s.attrVals.Get(f.AttrVal[i]))
		return append(dst, '"')
	}
	return s.AppendSubtree(dst, f, n.Pre)
}

// AppendSubtree appends the serialization of the tree node root of f (a
// fragment of s) heads: a document node writes its children.
func (s *Store) AppendSubtree(dst []byte, f *Fragment, root int32) []byte {
	end := root + f.Size[root]
	var stack [32]int32
	open := stack[:0] // pre ranks of the open elements; deeper trees spill to the heap
	closeTop := func() {
		dst = append(dst, '<', '/')
		dst = append(dst, s.tags.Get(f.Prop[open[len(open)-1]])...)
		dst = append(dst, '>')
		open = open[:len(open)-1]
	}
	for p := root; p <= end; p++ {
		for len(open) > 0 && p > open[len(open)-1]+f.Size[open[len(open)-1]] {
			closeTop()
		}
		switch f.Kind[p] {
		case KindDoc:
			// Document node: serialize children only.
		case KindElem:
			dst = append(dst, '<')
			dst = append(dst, s.tags.Get(f.Prop[p])...)
			lo, hi := f.Attrs(p)
			for i := lo; i < hi; i++ {
				dst = append(dst, ' ')
				dst = append(dst, s.attrNames.Get(f.AttrName[i])...)
				dst = append(dst, '=', '"')
				dst = EscapeAttr(dst, s.attrVals.Get(f.AttrVal[i]))
				dst = append(dst, '"')
			}
			if f.Size[p] == 0 {
				dst = append(dst, '/', '>')
			} else {
				dst = append(dst, '>')
				open = append(open, p)
			}
		case KindText:
			dst = EscapeText(dst, s.texts.Get(f.Prop[p]))
		case KindComment:
			dst = append(dst, "<!--"...)
			dst = append(dst, s.texts.Get(f.Prop[p])...)
			dst = append(dst, "-->"...)
		}
	}
	for len(open) > 0 {
		closeTop()
	}
	return dst
}

// EscapeText appends text-node content: & < > escaped, and CR as a
// character reference, which a parser would otherwise read back as LF
// (XML 1.0 §2.11).
func EscapeText(dst []byte, s string) []byte { return escape(dst, s, false) }

// EscapeAttr appends an attribute value: & < " escaped, and TAB, LF and CR
// as character references, which a parser would otherwise read back as
// spaces (XML 1.0 §3.3.3).
func EscapeAttr(dst []byte, s string) []byte { return escape(dst, s, true) }

// escape scans bytes, not runes: the characters it replaces are ASCII and
// no byte of a multi-byte UTF-8 sequence is, so each run between two of
// them is appended whole, as it is stored. It escapes what the XQuery
// serialization's XML output method does.
func escape(dst []byte, s string, attr bool) []byte {
	special := &textSpecial
	if attr {
		special = &attrSpecial
	}
	run := 0
	for i := 0; i < len(s); i++ {
		if !special[s[i]] {
			continue
		}
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			esc = "&quot;"
		case '\r':
			esc = "&#xD;"
		case '\n':
			esc = "&#xA;"
		case '\t':
			esc = "&#x9;"
		}
		dst = append(dst, s[run:i]...)
		dst = append(dst, esc...)
		run = i + 1
	}
	return append(dst, s[run:]...)
}

// textSpecial and attrSpecial mark the bytes escape replaces in text and
// in attribute values.
var textSpecial, attrSpecial = specials("&<>\r"), specials("&<\"\t\n\r")

func specials(chars string) (t [256]bool) {
	for i := 0; i < len(chars); i++ {
		t[chars[i]] = true
	}
	return t
}
