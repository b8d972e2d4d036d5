package xenc

import (
	"strings"

	"pathfinder/internal/bat"
)

// Serialize renders the subtree rooted at n as XML text — the
// post-processor step that maps the relational result encoding back to the
// XQuery data model (§2, "MonetDB" paragraph).
func (s *Store) Serialize(n bat.NodeRef) string {
	var sb strings.Builder
	s.SerializeTo(&sb, n)
	return sb.String()
}

// SerializeTo writes the serialization of n to sb.
func (s *Store) SerializeTo(sb *strings.Builder, n bat.NodeRef) {
	f := s.Frag(n.Frag)
	if n.Pre >= AttrBase {
		// A top-level attribute serializes as name="value" (useful in the
		// demo tracer; standard serialization would reject it).
		i := n.Pre - AttrBase
		sb.WriteString(s.attrNames.Get(f.AttrName[i]))
		sb.WriteString("=\"")
		escapeAttr(sb, s.attrVals.Get(f.AttrVal[i]))
		sb.WriteString("\"")
		return
	}
	s.serializeRange(sb, f, n.Pre)
}

func (s *Store) serializeRange(sb *strings.Builder, f *Fragment, root int32) {
	end := root + f.Size[root]
	var stack [32]int32
	open := stack[:0] // pre ranks of the open elements; deeper trees spill to the heap
	closeTop := func() {
		sb.WriteString("</")
		sb.WriteString(s.tags.Get(f.Prop[open[len(open)-1]]))
		sb.WriteByte('>')
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
			sb.WriteByte('<')
			sb.WriteString(s.tags.Get(f.Prop[p]))
			lo, hi := f.Attrs(p)
			for i := lo; i < hi; i++ {
				sb.WriteByte(' ')
				sb.WriteString(s.attrNames.Get(f.AttrName[i]))
				sb.WriteString("=\"")
				escapeAttr(sb, s.attrVals.Get(f.AttrVal[i]))
				sb.WriteByte('"')
			}
			if f.Size[p] == 0 {
				sb.WriteString("/>")
			} else {
				sb.WriteByte('>')
				open = append(open, p)
			}
		case KindText:
			escapeText(sb, s.texts.Get(f.Prop[p]))
		case KindComment:
			sb.WriteString("<!--")
			sb.WriteString(s.texts.Get(f.Prop[p]))
			sb.WriteString("-->")
		}
	}
	for len(open) > 0 {
		closeTop()
	}
}

// escapeText writes text-node content: & < > escaped.
func escapeText(sb *strings.Builder, s string) { escape(sb, s, false) }

// escapeAttr writes an attribute value: & < " escaped.
func escapeAttr(sb *strings.Builder, s string) { escape(sb, s, true) }

// escape scans bytes, not runes: the characters it replaces are ASCII and
// no byte of a multi-byte UTF-8 sequence is, so each run between two of
// them is written whole, as it is stored.
func escape(sb *strings.Builder, s string, attr bool) {
	run := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch c := s[i]; {
		case c == '&':
			esc = "&amp;"
		case c == '<':
			esc = "&lt;"
		case c == '>' && !attr:
			esc = "&gt;"
		case c == '"' && attr:
			esc = "&quot;"
		default:
			continue
		}
		sb.WriteString(s[run:i])
		sb.WriteString(esc)
		run = i + 1
	}
	sb.WriteString(s[run:])
}
