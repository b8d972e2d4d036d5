package physical

import (
	"fmt"
	"strings"
)

// Dot renders the physical plan in Graphviz syntax, parallel to
// algebra.Dot for logical plans: each node shows the logical operator,
// its kernel family — for a theta join with its predicate — and, when
// note is set, what note says about the node (cmd/pf passes the
// optimizer's order/denseness properties). Pipeline operators are drawn
// with rounded corners, breakers (materializing operators) as plain
// boxes.
func Dot(p *Plan, note func(*Node) string) string {
	var sb strings.Builder
	sb.WriteString("digraph physical {\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, nd := range p.Nodes {
		kernel := nd.Kernel
		if tj := nd.Theta; tj != nil {
			kernel += " " + tj.LeftCol + " " + tj.Cmp.String() + " " + tj.RightCol
		}
		lines := []string{escape(nd.Op.Label()), escape(kernel)}
		var notes []string
		if note != nil {
			if s := note(nd); s != "" {
				notes = append(notes, s)
			}
		}
		style := ""
		if nd.pipeline() {
			notes = append(notes, "pipeline")
			style = ", style=rounded"
		}
		if nd.Stream {
			notes = append(notes, "stream")
		}
		if len(notes) > 0 {
			lines = append(lines, escape(strings.Join(notes, " ")))
		}
		fmt.Fprintf(&sb, "  n%d [label=\"%s\"%s];\n", nd.Pos, strings.Join(lines, `\n`), style)
	}
	for _, nd := range p.Nodes {
		for k, in := range nd.In {
			fmt.Fprintf(&sb, "  n%d -> n%d [label=\"%d\"];\n", nd.Pos, in.Pos, k)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// escape quotes the characters Graphviz treats specially inside a
// double-quoted label.
func escape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return s
}
